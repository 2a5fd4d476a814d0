"""Tests of the benchmark itself.

Run from the repository root:  python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import harness, workloads  # noqa: E402
from perfbench.harness import Outcome, TooFewSamples, percentile  # noqa: E402
from perfbench.tracing import Probes, Spans  # noqa: E402


def _window_digest(workload, ops: int) -> str:
    tally = harness.Tally(window=ops)
    workload.open()
    try:
        for index in range(ops):
            harness.run_op(workload, index, harness.NullSpans(), tally)
    finally:
        workload.close()
    assert tally.failed == 0, tally.errors
    return harness.digest(tally.records)


def test_same_seed_gives_identical_fuzz_inputs_and_digest():
    first, second, other = workloads.Fuzz(7), workloads.Fuzz(7), workloads.Fuzz(8)
    for workload in (first, second, other):
        workload.open()
    specs = [first.spec(index) for index in range(40)]
    assert specs == [second.spec(index) for index in range(40)]
    assert specs != [other.spec(index) for index in range(40)]
    assert _window_digest(first, 12) == _window_digest(second, 12)


def test_same_seed_gives_identical_kernel_inputs_and_digest():
    first, second = workloads.Kernels(3), workloads.Kernels(3)
    first.open()
    second.open()
    for (k1, m1, s1, mem1), (k2, m2, s2, mem2) in zip(first.inputs, second.inputs):
        assert (k1.name, m1, s1) == (k2.name, m2, s2)
        assert mem1.snapshot() == mem2.snapshot()
    assert _window_digest(first, 2) == _window_digest(second, 2)


def test_same_seed_gives_identical_serve_submissions():
    first, second, other = workloads.Serve(4), workloads.Serve(4), workloads.Serve(5)
    stream = [first.requests(index) for index in range(60)]
    assert stream == [second.requests(index) for index in range(60)]
    assert stream != [other.requests(index) for index in range(60)]
    jobs = [job for submission in stream[:56] for job in submission]
    kinds = [job["kind"] for job in jobs if job["id"].startswith("j")]
    assert sum(job["id"].startswith("r") for job in jobs) == 4
    assert (kinds.count("security"), kinds.count("simulate")) == (4, 96)


def test_latency_percentiles_refuse_too_few_samples():
    with pytest.raises(TooFewSamples):
        percentile([float(value) for value in range(99)], 0.9)
    assert 88.0 < percentile([float(value) for value in range(100)], 0.9) < 91.0
    with pytest.raises(TooFewSamples):
        percentile([1.0] * 19, 0.5)
    assert percentile([float(value) for value in range(21)], 0.5) == pytest.approx(10.0)
    assert percentile([5.0] * 100, 0.9) == pytest.approx(5.0)


class _Flaky(workloads.Workload):
    """Instant operations; op 3 raises and op 6 fails its check."""

    name = "flaky"
    block = 5
    window = 5
    import_modules = ("repro",)

    def run_op(self, index, spans):
        if index == 3:
            raise RuntimeError("injected")
        return Outcome(
            units=1,
            failed=int(index == 6),
            machine_cycles=10,
            speedups=(2.0,),
            record=[index],
            errors=("injected mismatch",) if index == 6 else (),
        )


def test_injected_failures_are_counted_in_error_rate(monkeypatch, capsys):
    monkeypatch.setitem(workloads.WORKLOADS, "flaky", _Flaky)
    assert harness.run("flaky", seed=0, seconds=0.0, trace=False) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    summary, result = json.loads(lines[-2]), json.loads(lines[-1])
    assert result["correct"] is False
    assert result["failed"] == 2
    assert result["attempted"] == summary["ops"] >= harness.MIN_LATENCY_SAMPLES
    assert summary["error_rate"] == 2 / result["attempted"]
    assert set(result["metrics"]) == set(harness.END_TO_END_UNITS)


def test_probes_are_removed_on_exit():
    from repro.compiler import pipeline
    from repro.machine.vliw import VLIWMachine
    from repro.obs.metrics import CounterSink
    from repro.sim.interpreter import Interpreter

    from repro.eval import runner
    from repro.serve import pool, service

    def installed():
        return (
            VLIWMachine.__init__,
            VLIWMachine.run,
            Interpreter.run,
            pipeline.compile_program,
            runner.run_vliw_checkpointed,
            service.resolve_request,
            pool.run_job,
        )

    before = installed()
    with Probes(Spans(), CounterSink()):
        during = installed()
    assert all(probe is not original for probe, original in zip(during, before))
    assert installed() == before


def test_benchmark_json_matches_the_harness():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == harness.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == harness.PER_LAYER_UNITS
    assert {w["name"] for w in spec["workloads"]} <= set(workloads.WORKLOADS)
