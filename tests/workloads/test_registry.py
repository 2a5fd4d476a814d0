"""The workload registry builds each kernel once and shares it.

Serve resolves a simulate job's workload three times and the runner
checks every pooled spec against the registry, so the registry hands out
one ``Workload`` per name for the life of the process.  Sharing is only
safe while nothing mutates a shared program: a cold run of every
experiment driver and a serve batch must leave each program's text as
it was.
"""

from __future__ import annotations

import pytest

import repro.eval.runner as runner_module
from repro.eval.experiments import EXPERIMENTS
from repro.eval.runner import CellRunner, CellSpec, ExperimentContext
from repro.isa.printer import format_program
from repro.serve.protocol import parse_request, resolve_request
from repro.serve.worker import execute_batch
from repro.workloads import all_workloads, get_workload


def test_each_workload_is_built_once():
    workloads = all_workloads()
    assert [w.name for w in workloads] == [
        "compress", "eqntott", "espresso", "grep", "li", "nroff",
    ]
    for workload, again in zip(workloads, all_workloads()):
        assert get_workload(workload.name) is workload is again
    with pytest.raises(KeyError, match="unknown workload"):
        get_workload("spice")


def test_runner_trusts_registry_specs_without_formatting(monkeypatch):
    runner = CellRunner(ExperimentContext(use_cache=False), jobs=2)
    specs = [CellSpec("baseline", workload=w.name) for w in all_workloads()]

    def formatted(program):
        raise AssertionError(f"formatted {program.name} to compare it")

    monkeypatch.setattr(runner_module, "format_program", formatted)
    assert runner._contained(specs)


def test_shared_programs_survive_a_sweep_and_a_serve_batch():
    before = {w.name: format_program(w.program) for w in all_workloads()}

    ctx = ExperimentContext(use_cache=False)
    for driver in EXPERIMENTS.values():
        driver(ctx)

    jobs = tuple(
        resolve_request(
            parse_request(
                {"id": f"{name}-{model}", "client": "t", "workload": name,
                 "model": model}
            )
        )
        for name in before
        for model in ("scalar", "region_pred", "trace_pred")
    )
    outcomes = execute_batch(jobs)
    assert all("ok" in outcome for outcome in outcomes), outcomes

    assert {w.name: format_program(w.program) for w in all_workloads()} == before
