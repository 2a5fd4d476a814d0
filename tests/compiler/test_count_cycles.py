"""The trace-driven cycle counter: a memoized walk with pinned results.

``ScheduledCode.count_cycles`` walks the scalar trace through a
transition memo held on the ``ScheduledCode``.  These tests pin its
results to values recorded from the direct tree walk it replaced, over
every workload, the four scheduling models and four machine shapes
(plain, 16- and 4-entry BTBs, and the 8-issue/depth-8 full-issue
machine).  They also check that a warm memo changes nothing, and that a
trace the code cannot follow raises the same :class:`TraceWalkError`
cold and warm.
"""

from __future__ import annotations

import dataclasses
import re

import pytest

from repro.compiler.pipeline import compile_program, train_predictor
from repro.compiler.unit import ScheduledCode, TraceWalkError
from repro.ir.cfg import build_cfg
from repro.machine.config import base_machine, full_issue_machine
from repro.machine.scalar import run_scalar
from repro.sim.trace import DynamicTrace
from repro.workloads import all_workloads, get_workload

CONFIGS = {
    "base": base_machine(),
    "btb16": base_machine(btb_entries=16),
    "btb4": base_machine(btb_entries=4),
    "full8": full_issue_machine(8, 8),
}
MODELS = ("global", "boosting", "trace_pred", "region_pred")

#: (cycles, region entries, BTB hits, BTB misses) per
#: workload/model/config, recorded from the direct tree walk.
PINNED = {
    "compress/boosting/base": (4125, 575, 0, 0),
    "compress/boosting/btb16": (4131, 575, 569, 6),
    "compress/boosting/btb4": (4475, 575, 225, 350),
    "compress/boosting/full8": (4124, 575, 0, 0),
    "compress/global/base": (5260, 802, 0, 0),
    "compress/global/btb16": (5498, 802, 564, 238),
    "compress/global/btb4": (5727, 802, 335, 467),
    "compress/global/full8": (5259, 802, 0, 0),
    "compress/region_pred/base": (3660, 402, 0, 0),
    "compress/region_pred/btb16": (3664, 402, 398, 4),
    "compress/region_pred/btb4": (3664, 402, 398, 4),
    "compress/region_pred/full8": (3659, 402, 0, 0),
    "compress/trace_pred/base": (3898, 575, 0, 0),
    "compress/trace_pred/btb16": (3904, 575, 569, 6),
    "compress/trace_pred/btb4": (4248, 575, 225, 350),
    "compress/trace_pred/full8": (3897, 575, 0, 0),
    "eqntott/boosting/base": (3656, 847, 0, 0),
    "eqntott/boosting/btb16": (3664, 847, 839, 8),
    "eqntott/boosting/btb4": (3904, 847, 599, 248),
    "eqntott/boosting/full8": (3655, 847, 0, 0),
    "eqntott/global/base": (3929, 938, 0, 0),
    "eqntott/global/btb16": (3938, 938, 929, 9),
    "eqntott/global/btb4": (4359, 938, 508, 430),
    "eqntott/global/full8": (3928, 938, 0, 0),
    "eqntott/region_pred/base": (3174, 635, 0, 0),
    "eqntott/region_pred/btb16": (3180, 635, 629, 6),
    "eqntott/region_pred/btb4": (3180, 635, 629, 6),
    "eqntott/region_pred/full8": (2931, 514, 0, 0),
    "eqntott/trace_pred/base": (3356, 847, 0, 0),
    "eqntott/trace_pred/btb16": (3364, 847, 839, 8),
    "eqntott/trace_pred/btb4": (3604, 847, 599, 248),
    "eqntott/trace_pred/full8": (3355, 847, 0, 0),
    "espresso/boosting/base": (1628, 293, 0, 0),
    "espresso/boosting/btb16": (1689, 293, 232, 61),
    "espresso/boosting/btb4": (1808, 293, 113, 180),
    "espresso/boosting/full8": (1627, 293, 0, 0),
    "espresso/global/base": (1932, 445, 0, 0),
    "espresso/global/btb16": (2022, 445, 355, 90),
    "espresso/global/btb4": (2308, 445, 69, 376),
    "espresso/global/full8": (1931, 445, 0, 0),
    "espresso/region_pred/base": (1498, 328, 0, 0),
    "espresso/region_pred/btb16": (1510, 328, 316, 12),
    "espresso/region_pred/btb4": (1589, 328, 237, 91),
    "espresso/region_pred/full8": (1525, 234, 0, 0),
    "espresso/trace_pred/base": (1428, 293, 0, 0),
    "espresso/trace_pred/btb16": (1489, 293, 232, 61),
    "espresso/trace_pred/btb4": (1608, 293, 113, 180),
    "espresso/trace_pred/full8": (1427, 293, 0, 0),
    "grep/boosting/base": (3217, 664, 0, 0),
    "grep/boosting/btb16": (3228, 664, 653, 11),
    "grep/boosting/btb4": (3306, 664, 575, 89),
    "grep/boosting/full8": (3217, 664, 0, 0),
    "grep/global/base": (3217, 664, 0, 0),
    "grep/global/btb16": (3228, 664, 653, 11),
    "grep/global/btb4": (3306, 664, 575, 89),
    "grep/global/full8": (3217, 664, 0, 0),
    "grep/region_pred/base": (2594, 652, 0, 0),
    "grep/region_pred/btb16": (2602, 652, 644, 8),
    "grep/region_pred/btb4": (2671, 652, 575, 77),
    "grep/region_pred/full8": (2594, 652, 0, 0),
    "grep/trace_pred/base": (2624, 664, 0, 0),
    "grep/trace_pred/btb16": (2635, 664, 653, 11),
    "grep/trace_pred/btb4": (2713, 664, 575, 89),
    "grep/trace_pred/full8": (2624, 664, 0, 0),
    "li/boosting/base": (964, 216, 0, 0),
    "li/boosting/btb16": (975, 216, 205, 11),
    "li/boosting/btb4": (1043, 216, 137, 79),
    "li/boosting/full8": (963, 216, 0, 0),
    "li/global/base": (1138, 270, 0, 0),
    "li/global/btb16": (1190, 270, 218, 52),
    "li/global/btb4": (1274, 270, 134, 136),
    "li/global/full8": (1137, 270, 0, 0),
    "li/region_pred/base": (781, 181, 0, 0),
    "li/region_pred/btb16": (802, 181, 160, 21),
    "li/region_pred/btb4": (851, 181, 111, 70),
    "li/region_pred/full8": (721, 151, 0, 0),
    "li/trace_pred/base": (886, 216, 0, 0),
    "li/trace_pred/btb16": (897, 216, 205, 11),
    "li/trace_pred/btb4": (965, 216, 137, 79),
    "li/trace_pred/full8": (885, 216, 0, 0),
    "nroff/boosting/base": (3800, 699, 0, 0),
    "nroff/boosting/btb16": (3810, 699, 689, 10),
    "nroff/boosting/btb4": (3986, 699, 513, 186),
    "nroff/boosting/full8": (3799, 699, 0, 0),
    "nroff/global/base": (5126, 1285, 0, 0),
    "nroff/global/btb16": (5138, 1285, 1273, 12),
    "nroff/global/btb4": (6331, 1285, 80, 1205),
    "nroff/global/full8": (5125, 1285, 0, 0),
    "nroff/region_pred/base": (3283, 699, 0, 0),
    "nroff/region_pred/btb16": (3293, 699, 689, 10),
    "nroff/region_pred/btb4": (3469, 699, 513, 186),
    "nroff/region_pred/full8": (3282, 699, 0, 0),
    "nroff/trace_pred/base": (3283, 699, 0, 0),
    "nroff/trace_pred/btb16": (3293, 699, 689, 10),
    "nroff/trace_pred/btb4": (3469, 699, 513, 186),
    "nroff/trace_pred/full8": (3282, 699, 0, 0),
}


@pytest.fixture(scope="module")
def baselines():
    runs = {}
    for workload in all_workloads():
        cfg = build_cfg(workload.program)
        predictor = train_predictor(
            workload.program, cfg, workload.train_memory()
        )
        evaluation = run_scalar(workload.program, cfg, workload.eval_memory())
        runs[workload.name] = (workload, predictor, evaluation.trace)
    return runs


def _as_tuple(count) -> tuple[int, int, int, int]:
    return count.cycles, count.region_entries, count.btb_hits, count.btb_misses


@pytest.mark.parametrize("model", MODELS)
@pytest.mark.parametrize("config_name", sorted(CONFIGS))
def test_counts_match_the_pinned_walk(baselines, model, config_name):
    config = CONFIGS[config_name]
    for name, (workload, predictor, trace) in sorted(baselines.items()):
        code = compile_program(workload.program, model, config, predictor).code
        cold = code.count_cycles(trace, config)
        assert _as_tuple(cold) == PINNED[f"{name}/{model}/{config_name}"]
        assert code.count_cycles(trace, config) == cold  # warm memo


def test_memo_is_independent_of_the_machine_config(baselines):
    workload, predictor, trace = baselines["li"]
    code = compile_program(
        workload.program, "region_pred", base_machine(), predictor
    ).code
    for config_name in ("btb4", "base", "btb16"):
        count = code.count_cycles(trace, CONFIGS[config_name])
        assert _as_tuple(count) == PINNED[f"li/region_pred/{config_name}"]


@pytest.fixture(scope="module")
def compress_code():
    workload = get_workload("compress")
    cfg = build_cfg(workload.program)
    predictor = train_predictor(workload.program, cfg, workload.train_memory())
    trace = run_scalar(workload.program, cfg, workload.eval_memory()).trace

    def fresh() -> ScheduledCode:
        return compile_program(
            workload.program, "region_pred", base_machine(), predictor
        ).code

    return fresh, trace


def _raises_cold_and_warm(fresh, good_trace, bad_blocks, message):
    """*bad_blocks* raises *message* on a cold memo and on a warm one."""
    bad = DynamicTrace(blocks=list(bad_blocks))
    config = base_machine()
    cold = fresh()
    for code in (cold, cold):  # the second call finds the memo filled
        with pytest.raises(TraceWalkError, match=re.escape(message)):
            code.count_cycles(bad, config)
    warm = fresh()
    warm.count_cycles(good_trace, config)
    with pytest.raises(TraceWalkError, match=re.escape(message)):
        warm.count_cycles(bad, config)


def test_unknown_header_raises(compress_code):
    fresh, trace = compress_code
    code = fresh()
    unknown = max(code.cfg.blocks) + 1
    _raises_cold_and_warm(
        fresh,
        trace,
        trace.blocks + [unknown],  # the trace's last unit halts
        f"no unit headed by block {unknown}",
    )


def test_successor_matching_neither_arm_raises(compress_code):
    fresh, trace = compress_code
    code = fresh()
    for header, unit in sorted(code.units.items()):
        root = unit.tree.nodes[unit.tree.root]
        block = code.cfg.blocks[root.origin]
        if root.cond_index is not None:
            break
    else:
        pytest.fail("no unit is headed by a branch")
    stranger = next(
        bid
        for bid in sorted(code.cfg.blocks)
        if bid not in (block.taken_target, block.fall_through)
    )
    _raises_cold_and_warm(
        fresh,
        trace,
        [header, stranger],
        f"block {root.origin}: successor {stranger} matches neither arm",
    )


def test_successor_without_child_or_exit_raises(compress_code):
    fresh, trace = compress_code
    code = fresh()
    header, unit, exit_ = next(
        (header, unit, exit_)
        for header, unit in sorted(code.units.items())
        for exit_ in unit.tree.nodes[unit.tree.root].exits
    )
    root = unit.tree.nodes[unit.tree.root]

    def no_exits() -> ScheduledCode:
        units = dict(fresh().units)
        units[header] = dataclasses.replace(unit, exit_cycle={})
        return ScheduledCode(units, code.cfg)

    block = code.cfg.blocks[root.origin]
    if root.cond_index is None:
        arm = True if root.children else None
    else:
        arm = (
            root.taken_value
            if block.taken_target == exit_.target_origin
            else not root.taken_value
        )
    _raises_cold_and_warm(
        no_exits,
        DynamicTrace(blocks=[]),
        [header, exit_.target_origin],
        f"block {root.origin}: no child or exit for successor "
        f"{exit_.target_origin} (arm {arm})",
    )
