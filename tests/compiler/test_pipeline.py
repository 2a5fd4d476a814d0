"""The shared training and equivalence paths of ``repro.compiler.pipeline``.

Every consumer trains through ``train_predictor`` and checks the machine
through ``check_equivalent``; these tests pin the two failure paths each
consumer inherits from them.
"""

import pytest

from repro.compiler.pipeline import (
    analyze_program,
    compile_program,
    evaluate_model,
    train_predictor,
)
from repro.eval.runner import ExperimentContext
from repro.isa import parse_program
from repro.machine.config import base_machine
from repro.machine.vliw import VLIWMachine
from repro.serve import worker
from repro.serve.protocol import parse_request, resolve_request
from repro.sim.memory import Memory
from repro.taint import run_security
from repro.verify import run_diff_trace, run_oracle
from repro.workloads import all_workloads, get_workload

SPIN_ON_ZERO = """
    li   r1, 0
    ld   r2, r1, 100     # flag: 0 on the training input, 1 on eval
spin:
    ceqi c0, r2, 0
    br   c0, spin        # spins forever while the flag is 0
    out  r2
    halt
"""


def _flag_memory(flag: int) -> Memory:
    memory = Memory()
    memory.store(100, flag)
    return memory


@pytest.mark.parametrize(
    "check, error_of, prefix",
    [
        (run_oracle, lambda r: r.report.machine_error,
         "StepLimitExceeded: training run: "),
        (run_diff_trace, lambda r: r.machine.error,
         "StepLimitExceeded: training run: "),
        (run_security, lambda r: r.error, "training run: "),
    ],
    ids=["oracle", "diff-trace", "security"],
)
def test_livelocked_training_run_is_a_structured_error(check, error_of, prefix):
    program = parse_program(SPIN_ON_ZERO, name="spin")
    result = check(
        program,
        "region_pred",
        base_machine(),
        train_memory=_flag_memory(0),
        eval_memory=_flag_memory(1),
        max_steps=2_000,
    )
    error = error_of(result)
    assert error is not None and error.startswith(prefix), error
    assert "2000" in error


class _CorruptOutputMachine(VLIWMachine):
    """Reports a first output value the scalar run never produced."""

    def result(self):
        result = super().result()
        result.output[0] = 999_999
        return result


def _evaluate(workload):
    evaluate_model(
        workload.program,
        "region_pred",
        base_machine(),
        train_memory=workload.train_memory(),
        eval_memory=workload.eval_memory(),
    )


def _measure(workload):
    ExperimentContext(workloads=[workload], use_cache=False).measure(
        workload, "region_pred", base_machine(), run_machine=True
    )


def _run_job(workload):
    worker.run_job(
        resolve_request(
            parse_request(
                {"id": "j", "workload": workload.name, "model": "region_pred"}
            )
        )
    )


@pytest.mark.parametrize(
    "run", [_evaluate, _measure, _run_job],
    ids=["evaluate_model", "runner-measure", "serve-run_job"],
)
def test_machine_output_mismatch_raises_check_equivalent(monkeypatch, run):
    for module in (
        "repro.compiler.pipeline", "repro.eval.runner", "repro.serve.worker"
    ):
        monkeypatch.setattr(f"{module}.VLIWMachine", _CorruptOutputMachine)
    with pytest.raises(
        AssertionError, match="scheduled code diverged from scalar semantics"
    ):
        run(get_workload("grep"))


# ----------------------------------------------------------------------
# Program facts: derived once, shared by every compile of a program.
# ----------------------------------------------------------------------
def _compiles(program, predictor, facts=None):
    """(model label, compiled) for a spread of policies and machines."""
    import dataclasses

    from repro.compiler.models import MODELS

    shared = dataclasses.replace(
        MODELS["region_pred"], share_equivalent_joins=True
    )
    narrow = base_machine(
        issue_width=2, ccr_entries=2, max_speculation_depth=1,
        shadow_capacity=None,
    )
    for label, model, config in (
        ("region_pred", "region_pred", base_machine()),
        ("trace_pred", "trace_pred", base_machine()),
        ("global", "global", base_machine()),
        ("shared-joins", shared, base_machine()),
        ("region_pred-narrow", "region_pred", narrow),
    ):
        yield label, compile_program(program, model, config, predictor, facts)


def _shape(compiled):
    return (
        compiled.vliw.format() if compiled.vliw is not None else None,
        {
            header: (unit.length, [str(item.instr) for item in unit.region.items])
            for header, unit in compiled.code.units.items()
        },
    )


def _facts_summary(facts):
    return (
        {bid: block.instructions for bid, block in facts.cfg.blocks.items()},
        dict(facts.exit_live_in),
        dict(facts.dominators.idom),
        dict(facts.dominators.ipdom),
        facts.loop_headers,
    )


@pytest.mark.parametrize("name", [w.name for w in all_workloads()])
def test_compiling_with_given_facts_matches_deriving_them(name):
    workload = get_workload(name)
    facts = analyze_program(workload.program)
    before = _facts_summary(facts)
    predictor = train_predictor(
        workload.program, facts.cfg, workload.train_memory()
    )
    derived = dict(_compiles(workload.program, predictor))
    given = dict(_compiles(workload.program, predictor, facts))
    for label, compiled in derived.items():
        assert _shape(given[label]) == _shape(compiled), label
    # Compiling never writes to the facts it shares.
    assert _facts_summary(facts) == before
    assert _facts_summary(analyze_program(workload.program)) == before


def test_facts_of_another_program_are_refused():
    grep, li = get_workload("grep"), get_workload("li")
    facts = analyze_program(li.program)
    predictor = train_predictor(grep.program, facts.cfg, grep.train_memory())
    with pytest.raises(ValueError, match="facts of 'li'"):
        compile_program(
            grep.program, "region_pred", base_machine(), predictor, facts
        )
