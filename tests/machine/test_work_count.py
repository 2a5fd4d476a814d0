"""Deterministic work counts for the two executors and the counter.

Wall-clock speed depends on the host; the number of Python calls an
executor makes per unit of simulated work does not.  These tests run
compress under ``region_pred`` with every observer off (no sink, tracer,
flight recorder, effect stream or taint tracker), count calls with
``sys.setprofile`` -- Python-level calls and builtin (C) calls alike --
and pin:

* the structural zero-cost rule: a machine run and an interpreter run
  with observers off make no call into ``repro.obs`` or ``repro.taint``
  at all;
* the decoded machine core's calls per simulated cycle;
* the same counts with one observer attached -- a ``CounterSink``, the
  Perfetto tracer, the flight recorder with the effect stream, or the
  Table 1 log -- so an event-stream subscriber cannot start paying more
  per event unnoticed;
* the one-frame interpreter loop's calls per executed instruction, on
  the scalar evaluation run (trace recording on, as the pipeline runs
  it);
* the trace-driven cycle counter's calls per trace block, on a freshly
  compiled ``ScheduledCode`` (its transition memo starts cold);
* the compiler's calls per scheduled region item, with the program facts
  passed in, and no call into ``functools`` during a compile (decode
  views are lock-free, and copies that keep opcode and operands inherit
  them);
* the program analyses of one cold 13-driver sweep: ``compute_liveness``
  runs once per program, not once per compile.

Only the run is counted; decoding happens once, at construction.  On a
failure the per-module breakdown is printed, so a regression points at
the module that started paying.
"""

from __future__ import annotations

import sys
from collections import Counter
from pathlib import Path

import pytest

import repro
from repro.compiler.pipeline import (
    analyze_program,
    compile_program,
    train_predictor,
)
from repro.machine.config import base_machine
from repro.machine.vliw import VLIWMachine
from repro.obs.effects import EffectStream
from repro.obs.flight import RingRecorder
from repro.obs.metrics import CounterSink
from repro.obs.trace_events import CycleTraceRecorder
from repro.sim.interpreter import Interpreter
from repro.workloads import compress as compress_kernel
from repro.workloads import get_workload

#: Python + builtin calls per simulated machine cycle.
MAX_MACHINE_CALLS_PER_CYCLE = 45
#: Python + builtin calls per scalar instruction.
MAX_SCALAR_CALLS_PER_INSTRUCTION = 3.5
#: Observed runs: calls per cycle (machine) or per instruction
#: (interpreter) with the hook-per-family executors that preceded the
#: event stream (Python 3.11), and the gate.  Each gate is at most 1.10x
#: that count, and tight enough that one extra call per emitted event
#: fails it.
OBSERVED_GATES = {
    "machine/sink": (155.1, 88.0),
    "machine/tracer": (133.0, 119.0),
    "machine/flight+effects": (122.6, 128.0),
    "machine/record_events": (51.1, 56.2),
    "scalar/sink": (7.15, 7.85),
    "scalar/flight+effects": (25.8, 28.3),
}
#: Python + builtin calls per trace block, memo filling included.
MAX_COUNTER_CALLS_PER_TRACE_BLOCK = 2.0
#: Python + builtin calls per scheduled region item, facts given (~100
#: measured on 3.11 and 3.12; 162 when every compile re-derived the
#: facts and re-decoded every predicated copy).
MAX_COMPILE_CALLS_PER_REGION_ITEM = 110
#: ``compute_liveness`` runs in one cold sweep: one per workload
#: baseline plus one per unrolled program an ``unroll`` cell builds (6 +
#: 24), against one per compile (246) before.
MAX_SWEEP_LIVENESS_RUNS = 30

_REPRO_ROOT = Path(repro.__file__).resolve().parent


def _module_of(filename: str) -> str:
    """``repro/machine/vliw.py`` -> ``machine/vliw.py``; others by name."""
    if filename.startswith("<"):
        return filename  # generated code, e.g. a dataclass __init__
    path = Path(filename)
    try:
        return path.resolve().relative_to(_REPRO_ROOT).as_posix()
    except (OSError, ValueError):
        return f"<{path.name}>"


def _count_calls(run, *, functions: bool = False) -> tuple[object, Counter[str]]:
    """Run *run()* under a profiler; calls per module, or with
    *functions* per ``"<module>:<function>"``.

    A builtin call is charged to the module that made it, under
    ``"<module> (builtin)"``.
    """
    calls: Counter[str] = Counter()
    modules: dict[str, str] = {}
    names: dict[object, str] = {}

    def module(frame) -> str:
        filename = frame.f_code.co_filename
        name = modules.get(filename)
        if name is None:
            name = modules[filename] = _module_of(filename)
        return name

    def callee(frame) -> str:
        code = frame.f_code
        name = names.get(code)
        if name is None:
            name = names[code] = f"{module(frame)}:{code.co_name}"
        return name

    def profile(frame, event, arg) -> None:
        if event == "call":
            calls[callee(frame) if functions else module(frame)] += 1
        elif event == "c_call":
            calls[f"{module(frame)} (builtin)"] += 1

    sys.setprofile(profile)
    try:
        result = run()
    finally:
        sys.setprofile(None)
    return result, calls


def _breakdown(calls: Counter[str], units: int, unit: str) -> str:
    lines = [f"calls per {unit}, by module:"]
    for name, count in calls.most_common():
        lines.append(f"  {count / units:8.2f}  {name}")
    return "\n".join(lines)


@pytest.fixture(scope="module")
def compress():
    workload = get_workload("compress")
    facts = analyze_program(workload.program)
    config = base_machine()
    predictor = train_predictor(
        workload.program, facts.cfg, workload.train_memory()
    )
    compiled = compile_program(
        workload.program, "region_pred", config, predictor, facts
    )
    return workload, facts, config, predictor, compiled


@pytest.fixture(scope="module")
def machine_calls(compress):
    workload, _, config, _, compiled = compress
    machine = VLIWMachine(compiled.vliw, config, workload.eval_memory())
    result, calls = _count_calls(machine.run)
    return result, calls


def _observer_calls(calls: Counter[str]) -> dict[str, int]:
    return {
        name: count
        for name, count in calls.items()
        if name.startswith(("obs/", "taint/"))
    }


def test_machine_run_never_calls_observers(machine_calls):
    result, calls = machine_calls
    observer_calls = _observer_calls(calls)
    assert not observer_calls, (
        f"observers off, yet the run called into them: {observer_calls}\n"
        + _breakdown(calls, result.cycles, "cycle")
    )


def test_machine_calls_per_cycle(machine_calls):
    result, calls = machine_calls
    per_cycle = sum(calls.values()) / result.cycles
    assert per_cycle <= MAX_MACHINE_CALLS_PER_CYCLE, (
        f"{per_cycle:.1f} calls per cycle over {result.cycles} cycles "
        f"(limit {MAX_MACHINE_CALLS_PER_CYCLE})\n"
        + _breakdown(calls, result.cycles, "cycle")
    )


def _flight_and_effects() -> dict:
    flight = RingRecorder()
    return {"flight": flight, "effects": EffectStream("run", flight)}


_OBSERVERS = {
    "sink": lambda: {"sink": CounterSink()},
    "tracer": lambda: {"tracer": CycleTraceRecorder()},
    "flight+effects": _flight_and_effects,
    "record_events": lambda: {"record_events": True},
}


@pytest.mark.parametrize("run", sorted(OBSERVED_GATES))
def test_observed_calls(compress, run):
    workload, facts, config, _, compiled = compress
    executor, observer = run.split("/")
    observers = _OBSERVERS[observer]()
    if executor == "machine":
        engine = VLIWMachine(
            compiled.vliw, config, workload.eval_memory(), **observers
        )
    else:
        engine = Interpreter(
            workload.program, workload.eval_memory(), cfg=facts.cfg,
            **observers,
        )
    result, calls = _count_calls(engine.run)
    units, unit = (
        (result.cycles, "cycle") if executor == "machine"
        else (result.steps, "instruction")
    )
    parent, limit = OBSERVED_GATES[run]
    assert limit <= 1.10 * parent
    per_unit = sum(calls.values()) / units
    assert per_unit <= limit, (
        f"{run}: {per_unit:.2f} calls per {unit} (limit {limit})\n"
        + _breakdown(calls, units, unit)
    )


@pytest.fixture(scope="module")
def scalar_calls(compress):
    workload, facts, _, _, _ = compress
    interpreter = Interpreter(
        workload.program, workload.eval_memory(), cfg=facts.cfg
    )
    return _count_calls(interpreter.run)


def test_scalar_run_never_calls_observers(scalar_calls):
    result, calls = scalar_calls
    observer_calls = _observer_calls(calls)
    assert not observer_calls, (
        f"observers off, yet the run called into them: {observer_calls}\n"
        + _breakdown(calls, result.steps, "instruction")
    )


def test_scalar_calls_per_instruction(scalar_calls):
    result, calls = scalar_calls
    per_instruction = sum(calls.values()) / result.steps
    assert per_instruction <= MAX_SCALAR_CALLS_PER_INSTRUCTION, (
        f"{per_instruction:.1f} calls per instruction over {result.steps} "
        f"instructions (limit {MAX_SCALAR_CALLS_PER_INSTRUCTION})\n"
        + _breakdown(calls, result.steps, "instruction")
    )


def test_counter_calls_per_trace_block(compress, scalar_calls):
    workload, facts, config, predictor, _ = compress
    trace = scalar_calls[0].trace
    # A fresh ScheduledCode: its transition memo starts cold.
    code = compile_program(
        workload.program, "region_pred", config, predictor, facts
    ).code
    _, calls = _count_calls(lambda: code.count_cycles(trace, config))
    blocks = len(trace.blocks)
    per_block = sum(calls.values()) / blocks
    assert per_block <= MAX_COUNTER_CALLS_PER_TRACE_BLOCK, (
        f"{per_block:.2f} calls per trace block over {blocks} blocks "
        f"(limit {MAX_COUNTER_CALLS_PER_TRACE_BLOCK})\n"
        + _breakdown(calls, blocks, "trace block")
    )


def test_compile_calls_per_region_item(compress):
    workload, facts, config, predictor, _ = compress
    compiled, calls = _count_calls(
        lambda: compile_program(
            workload.program, "region_pred", config, predictor, facts
        )
    )
    items = sum(len(unit.region.items) for unit in compiled.code.units.values())
    per_item = sum(calls.values()) / items
    assert per_item <= MAX_COMPILE_CALLS_PER_REGION_ITEM, (
        f"{per_item:.1f} calls per region item over {items} items "
        f"(limit {MAX_COMPILE_CALLS_PER_REGION_ITEM})\n"
        + _breakdown(calls, items, "region item")
    )


def test_compile_never_calls_functools(compress):
    _, _, config, predictor, _ = compress
    # A freshly built program (the registry shares one): none of its
    # instructions has decoded yet.
    program = compress_kernel.workload().program
    facts = analyze_program(program)
    compiled, calls = _count_calls(
        lambda: compile_program(program, "region_pred", config, predictor, facts)
    )
    functools_calls = {
        name: count
        for name, count in calls.items()
        if name.startswith("<functools.py>")
    }
    items = sum(len(unit.region.items) for unit in compiled.code.units.values())
    assert not functools_calls, (
        f"a compile called into functools: {functools_calls}\n"
        + _breakdown(calls, items, "region item")
    )


def test_cold_sweep_runs_liveness_once_per_program():
    from repro.eval.experiments import EXPERIMENTS
    from repro.eval.runner import ExperimentContext

    ctx = ExperimentContext(use_cache=False)

    def sweep():
        for driver in EXPERIMENTS.values():
            driver(ctx)

    _, calls = _count_calls(sweep, functions=True)
    runs = calls["ir/dataflow.py:compute_liveness"]
    compiles = calls["compiler/pipeline.py:compile_program"]
    assert len(EXPERIMENTS) == 13 and compiles == 246, compiles
    assert runs <= MAX_SWEEP_LIVENESS_RUNS, (
        f"compute_liveness ran {runs} times for {compiles} compiles "
        f"(limit {MAX_SWEEP_LIVENESS_RUNS})"
    )
