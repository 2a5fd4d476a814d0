"""The shared training and equivalence paths of ``repro.compiler.pipeline``.

Every consumer trains through ``train_predictor`` and checks the machine
through ``check_equivalent``; these tests pin the two failure paths each
consumer inherits from them.
"""

import pytest

from repro.compiler.pipeline import evaluate_model
from repro.eval.runner import ExperimentContext
from repro.isa import parse_program
from repro.machine.config import base_machine
from repro.machine.vliw import VLIWMachine
from repro.serve import worker
from repro.serve.protocol import parse_request, resolve_request
from repro.sim.memory import Memory
from repro.taint import run_security
from repro.verify import run_diff_trace, run_oracle
from repro.workloads import get_workload

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
