"""One containment contract over both consumers of :mod:`repro.containment`.

The experiment runner (cells, ``CellRunner`` at ``jobs=2``) and the
service (jobs, ``SimulationService`` on one pool worker) run the same
five scenarios -- every unit fine, one raises, one hangs, one kills its
worker, no pool can be made -- and must report them the same way: the
same outcomes and ``attempts``, the sink counters under each consumer's
own names, the run-log event kinds, and no pool worker left alive.
"""

import multiprocessing
import os
import signal
import time
from collections import Counter

import pytest

import repro.containment as containment
from repro.eval import ExperimentContext
from repro.eval.runner import CellSpec, is_error_cell
from repro.obs.metrics import CounterSink
from repro.obs.runlog import RunLog
from repro.serve.service import ServeSettings, SimulationService

#: Per-unit budget: generous for a fast unit, short for a hung one.
TIMEOUT = 1.0

CASES = {
    "ok": [("ok", 1), ("ok", 2), ("ok", 3)],
    "raise": [("ok", 1), ("raise", None), ("ok", 3)],
    "hang": [("ok", 1), ("hang", None), ("ok", 3)],
    "kill": [("ok", 1), ("kill", None), ("ok", 3)],
    "no_pool": [("ok", 1), ("raise", None), ("ok", 3)],
}


def _extras(mode, value):
    extras = {"mode": mode}
    if mode == "ok":
        extras["value"] = value
    if mode == "hang":
        extras["seconds"] = 60.0
    return extras


class _EventKinds(RunLog):
    enabled = True

    def __init__(self):
        self.kinds = Counter()

    def event(self, kind, **fields):
        self.kinds[kind] += 1


def _refuse_pools(monkeypatch):
    def refuse(*args, **kwargs):
        raise OSError("no process pool on this host")

    monkeypatch.setattr(containment, "ProcessPoolExecutor", refuse)


def observe_runner(case):
    sink, log = CounterSink(), _EventKinds()
    ctx = ExperimentContext(
        workloads=[], jobs=2, cell_timeout=TIMEOUT, max_retries=1,
        retry_backoff=0.01, sink=sink, run_log=log,
    )
    results = ctx.run_cells(
        [
            CellSpec(kind="chaos", extras=tuple(_extras(*unit).items()))
            for unit in CASES[case]
        ]
    )
    outcomes = [
        ("error", cell["error"]["type"], cell["error"]["attempts"])
        if is_error_cell(cell)
        else ("ok", cell["value"])
        for cell in results
    ]
    assert ctx.runner.stats.to_metrics()["counters"] == {
        "runner.cells": len(results), "runner.cache_hits": 0, **sink.counters
    }
    return outcomes, dict(sink.counters), dict(log.kinds)


def observe_service(case):
    sink, log = CounterSink(), _EventKinds()
    service = SimulationService(
        ServeSettings(
            workers=1, job_timeout=TIMEOUT, max_retries=1, retry_backoff=0.01
        ),
        sink=sink,
        run_log=log,
    )
    try:
        responses = service.handle_requests(
            [
                {"id": f"j{index}", "kind": "chaos", "chaos": _extras(*unit)}
                for index, unit in enumerate(CASES[case])
            ]
        )
    finally:
        service.close()
    outcomes = [
        ("error", response["error"]["type"], response["error"]["attempts"])
        if response["status"] == "error"
        else ("ok", response["result"]["value"])
        for response in responses
    ]
    return outcomes, dict(sink.counters), dict(log.kinds)


# Pinned from the two separate implementations this primitive replaced.
EXPECTED = {
    ("runner", "ok"): (
        [("ok", 1), ("ok", 2), ("ok", 3)],
        {"runner.cache_misses": 3},
        {"experiment.cell": 3},
    ),
    ("runner", "raise"): (
        [("ok", 1), ("error", "RuntimeError", 1), ("ok", 3)],
        {"runner.cache_misses": 3, "runner.failed_cells": 1},
        {"experiment.cell": 3},
    ),
    ("runner", "hang"): (
        [("ok", 1), ("error", "TimeoutError", 2), ("ok", 3)],
        {
            "runner.cache_misses": 3,
            "runner.cell_timeouts": 3,
            "runner.failed_cells": 1,
            "runner.retries": 1,
        },
        {"experiment.cell": 3, "experiment.retry": 1},
    ),
    ("runner", "kill"): (
        [("ok", 1), ("error", "BrokenProcessPool", 2), ("ok", 3)],
        {
            "runner.cache_misses": 3,
            "runner.failed_cells": 1,
            "runner.retries": 1,
            "runner.worker_crashes": 3,
        },
        {"experiment.cell": 3, "experiment.retry": 1},
    ),
    ("runner", "no_pool"): (
        [("ok", 1), ("error", "RuntimeError", 1), ("ok", 3)],
        {
            "runner.cache_misses": 3,
            "runner.failed_cells": 1,
            "runner.serial_fallbacks": 1,
        },
        {"experiment.cell": 3},
    ),
    ("service", "ok"): (
        [("ok", 1), ("ok", 2), ("ok", 3)],
        {"serve.accepted": 3, "serve.completed": 3},
        {"serve.accept": 3, "serve.result": 3},
    ),
    ("service", "raise"): (
        [("ok", 1), ("error", "RuntimeError", 1), ("ok", 3)],
        {"serve.accepted": 3, "serve.completed": 2, "serve.errors": 1},
        {"serve.accept": 3, "serve.result": 3},
    ),
    ("service", "hang"): (
        [("ok", 1), ("error", "TimeoutError", 2), ("ok", 3)],
        {
            "serve.accepted": 3,
            "serve.completed": 2,
            "serve.errors": 1,
            "serve.pool.timeouts": 4,
            "serve.retried": 1,
        },
        {"serve.accept": 3, "serve.result": 3, "serve.retry": 1},
    ),
    ("service", "kill"): (
        [("ok", 1), ("error", "BrokenProcessPool", 2), ("ok", 3)],
        {
            "serve.accepted": 3,
            "serve.completed": 2,
            "serve.errors": 1,
            "serve.pool.worker_crashes": 3,
            "serve.retried": 1,
        },
        {
            "serve.accept": 3,
            "serve.result": 3,
            "serve.retry": 1,
            "serve.worker_crash": 1,
        },
    ),
    ("service", "no_pool"): (
        [("ok", 1), ("error", "RuntimeError", 1), ("ok", 3)],
        {
            "serve.accepted": 3,
            "serve.completed": 2,
            "serve.errors": 1,
            "serve.pool.serial_fallbacks": 1,
        },
        {"serve.accept": 3, "serve.result": 3},
    ),
}

OBSERVE = {"runner": observe_runner, "service": observe_service}


@pytest.fixture
def no_stray_workers():
    before = set(multiprocessing.active_children())
    yield
    assert set(multiprocessing.active_children()) <= before


@pytest.mark.parametrize("case", sorted(CASES))
@pytest.mark.parametrize("consumer", sorted(OBSERVE))
def test_contract(consumer, case, monkeypatch, no_stray_workers):
    if case == "no_pool":
        _refuse_pools(monkeypatch)
    assert OBSERVE[consumer](case) == EXPECTED[consumer, case]


def test_idle_worker_killed_between_calls(no_stray_workers):
    """The service keeps its pool across calls.  A worker that dies
    while idle breaks it, so the next submit raises ``BrokenProcessPool``:
    the pool is replaced and the batch runs isolated."""
    sink, log = CounterSink(), _EventKinds()
    service = SimulationService(
        ServeSettings(workers=1, retry_backoff=0.01), sink=sink, run_log=log
    )

    def request(index):
        return {
            "id": f"j{index}", "kind": "chaos",
            "chaos": {"mode": "ok", "value": index},
        }

    try:
        [first] = service.handle_requests([request(1)])
        executor = service.pool._pool
        [pid] = list(executor._processes)
        os.kill(pid, signal.SIGKILL)
        deadline = time.monotonic() + 10.0
        while not executor._broken and time.monotonic() < deadline:
            time.sleep(0.01)
        assert executor._broken
        [second] = service.handle_requests([request(2)])
        assert service.pool._pool is None  # replaced lazily by the next call
    finally:
        service.close()
    assert (first["status"], second["status"]) == ("ok", "ok")
    assert second["result"]["value"] == 2
    assert dict(sink.counters) == {
        "serve.accepted": 2,
        "serve.completed": 2,
        "serve.pool.worker_crashes": 1,
    }
    assert dict(log.kinds) == {
        "serve.accept": 2, "serve.result": 2, "serve.worker_crash": 1
    }


def test_no_pool_hook_runs_the_service_in_process(no_stray_workers):
    """``_ensure_pool`` returning ``None`` is the switch to the serial
    path: nothing is forked and nothing is counted as a fallback."""
    sink = CounterSink()
    service = SimulationService(ServeSettings(workers=1), sink=sink)
    service.pool._ensure_pool = lambda: None
    try:
        [response] = service.handle_requests(
            [{"id": "j", "kind": "chaos", "chaos": {"mode": "ok", "value": 5}}]
        )
        assert service.pool._pool is None
        assert multiprocessing.active_children() == []
    finally:
        service.close()
    assert response["result"]["value"] == 5
    assert "serve.pool.serial_fallbacks" not in sink.counters


class _FullDisk:
    """A ledger whose every write fails (the disk filled up)."""

    def completed(self):
        return {}

    def record(self, key, values):
        raise OSError(28, "No space left on device")


@pytest.mark.parametrize("jobs", [1, 2])
def test_bookkeeping_failure_propagates(jobs):
    """A failing ledger write is the caller's failure, not the cell's:
    it leaves the run (pool terminated), it never becomes an error
    entry that would hide the computed value."""
    ctx = ExperimentContext(workloads=[], jobs=jobs, journal=_FullDisk())
    specs = [
        CellSpec(kind="chaos", extras=(("mode", "ok"), ("value", 1))),
        CellSpec(kind="chaos", extras=(("mode", "hang"), ("seconds", 20.0))),
        CellSpec(kind="chaos", extras=(("mode", "hang"), ("seconds", 20.0))),
    ]
    started = time.monotonic()
    with pytest.raises(OSError) as raised:
        ctx.run_cells(specs)
    assert raised.value.errno == 28
    assert time.monotonic() - started < 10.0  # the hung workers were killed
    assert not ctx.runner.stats.errors
    assert multiprocessing.active_children() == []


def test_cell_timeout_holds_at_one_job(no_stray_workers):
    """``--cell-timeout`` at the default ``--jobs 1``: cache misses run
    contained on one worker instead of silently in-process."""
    ctx = ExperimentContext(
        workloads=[], jobs=1, cell_timeout=0.5, max_retries=0
    )
    results = ctx.run_cells(
        [
            CellSpec(kind="chaos", extras=(("mode", "ok"), ("value", 0))),
            CellSpec(kind="chaos", extras=(("mode", "hang"), ("seconds", 5.0))),
            CellSpec(kind="chaos", extras=(("mode", "ok"), ("value", 2))),
        ]
    )
    assert results[0] == {"value": 0}
    assert results[2] == {"value": 2}
    assert results[1]["error"]["type"] == "TimeoutError"


def test_one_job_without_timeout_stays_in_process(monkeypatch):
    """The serial sweep (``--jobs 1``, no budget) makes no pool at all."""

    def no_pool(*args, **kwargs):
        raise AssertionError("a serial sweep made a process pool")

    monkeypatch.setattr(containment, "ProcessPoolExecutor", no_pool)
    ctx = ExperimentContext(workloads=[], jobs=1)
    cells = [
        CellSpec(kind="chaos", extras=(("mode", "ok"), ("value", value)))
        for value in range(3)
    ]
    assert ctx.run_cells(cells) == [{"value": value} for value in range(3)]
    assert ctx.runner.stats.serial_fallbacks == 0
