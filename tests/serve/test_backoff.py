"""The shared jittered-backoff helper."""

import time

import pytest

import repro.containment as containment
from repro.containment import backoff_delay, backoff_fraction
from repro.eval import ExperimentContext
from repro.eval.runner import CellSpec
from repro.serve.pool import WorkerPool
from repro.serve.protocol import parse_request, resolve_request


class TestBackoffDelay:
    def test_jitter_zero_is_the_legacy_schedule(self):
        delays = [
            backoff_delay(n, base=0.1, jitter=0.0) for n in (1, 2, 3, 4)
        ]
        assert delays == pytest.approx([0.1, 0.2, 0.4, 0.8])

    def test_deterministic_per_key(self):
        a = [backoff_delay(n, base=0.5, key="cell-7") for n in (1, 2, 3)]
        b = [backoff_delay(n, base=0.5, key="cell-7") for n in (1, 2, 3)]
        assert a == b

    def test_decorrelated_across_keys(self):
        keys = [f"job-{i}" for i in range(16)]
        delays = {backoff_delay(2, base=1.0, key=key) for key in keys}
        # Practically all keys land on distinct delays; lockstep would
        # collapse them to a single value.
        assert len(delays) > 12

    def test_jitter_only_shortens(self):
        for attempt in (1, 2, 3, 4):
            raw = 0.25 * 2 ** (attempt - 1)
            delay = backoff_delay(attempt, base=0.25, key="k")
            assert raw / 2 <= delay <= raw

    def test_max_delay_caps_the_raw_schedule(self):
        assert (
            backoff_delay(10, base=1.0, jitter=0.0, max_delay=3.0) == 3.0
        )

    def test_attempt_is_one_based(self):
        with pytest.raises(ValueError):
            backoff_delay(0, base=1.0)

    def test_jitter_range_validated(self):
        with pytest.raises(ValueError):
            backoff_delay(1, base=1.0, jitter=1.0)

    def test_fraction_in_unit_interval(self):
        for attempt in range(1, 20):
            fraction = backoff_fraction("some-key", attempt)
            assert 0.0 <= fraction < 1.0

    def test_shared_with_the_experiment_runner(self, monkeypatch):
        # One helper, two consumers: the runner's and the service's
        # isolated retries sleep the backoff schedule, keyed on the cell
        # label and the job key respectively.
        slept = []
        real_sleep = time.sleep

        def record(seconds):
            slept.append(seconds)
            real_sleep(seconds)

        monkeypatch.setattr(containment.time, "sleep", record)
        kill = CellSpec(kind="chaos", extras=(("mode", "kill"),))
        ctx = ExperimentContext(
            workloads=[], jobs=2, max_retries=2, retry_backoff=0.01
        )
        ctx.run_cells([kill, CellSpec(kind="chaos", extras=(("mode", "ok"),))])
        assert slept == [
            backoff_delay(n, base=0.01, key=kill.label()) for n in (1, 2)
        ]

        slept.clear()
        job = resolve_request(
            parse_request(
                {"id": "k", "kind": "chaos", "chaos": {"mode": "kill"}}
            )
        )
        pool = WorkerPool(workers=1, max_retries=2, retry_backoff=0.02)
        try:
            pool.run_batches([(job,)])
        finally:
            pool.shutdown()
        assert slept == [
            backoff_delay(n, base=0.02, key=job.key) for n in (1, 2)
        ]
