"""The service's bounded worker pool: crash tolerance, generalized.

This is the ``BrokenProcessPool``/``TimeoutError`` hardening the
experiment runner grew in :mod:`repro.eval.runner`, lifted out of the
cell-sweep specifics into a reusable pool for batched jobs:

* **bounded** -- at most ``workers`` processes, ever;
* **per-job timeouts** -- a batch gets ``job_timeout x len(batch)``
  wall-clock; a breach quarantines the batch and its jobs are re-run
  one at a time under the per-job budget;
* **dead-worker replacement** -- a worker that dies (``kill -9``, OOM)
  breaks the executor; the pool tears it down, replaces it, and re-runs
  everything not yet collected in isolation;
* **isolated retry with jittered exponential backoff** -- suspect jobs
  retry in a fresh single-worker pool, sleeping
  :func:`repro.serve.backoff.backoff_delay` (keyed on the job, so
  concurrent failures de-correlate instead of retrying in lockstep);
* **serial fallback** -- if pools cannot be created at all, jobs run
  in-process (no hang/crash protection, but the service stays up).

A job that still fails becomes a structured error outcome; one bad job
costs one job, never the batch or the service.
"""

from __future__ import annotations

import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool

from repro.obs.metrics import NULL_SINK, MetricsSink
from repro.obs.runlog import NULL_RUN_LOG, RunLog
from repro.serve.backoff import backoff_delay, terminate_pool
from repro.serve.protocol import ResolvedJob
from repro.serve.worker import execute_batch, run_job


def _error_outcome(error: BaseException, attempts: int) -> dict:
    return {
        "error": {
            "type": type(error).__name__,
            "message": str(error) or type(error).__name__,
            "attempts": attempts,
        }
    }


class WorkerPool:
    """Executes group batches of :class:`ResolvedJob` with containment.

    Outcomes mirror :func:`repro.serve.worker.execute_batch`:
    ``{"ok": result}`` or ``{"error": {...}}`` per job, in order.
    """

    def __init__(
        self,
        *,
        workers: int = 1,
        job_timeout: float | None = None,
        max_retries: int = 2,
        retry_backoff: float = 0.1,
        sink: MetricsSink = NULL_SINK,
        run_log: RunLog = NULL_RUN_LOG,
    ):
        self.workers = max(1, workers)
        self.job_timeout = job_timeout
        self.max_retries = max(0, max_retries)
        self.retry_backoff = retry_backoff
        self.sink = sink
        self.run_log = run_log
        self._pool: ProcessPoolExecutor | None = None
        # Telemetry mirrors RunnerStats' failure counters.
        self.timeouts = 0
        self.crashes = 0
        self.retries = 0
        self.serial_fallbacks = 0

    # -- lifecycle -----------------------------------------------------
    def _ensure_pool(self) -> ProcessPoolExecutor | None:
        if self._pool is None:
            try:
                self._pool = ProcessPoolExecutor(max_workers=self.workers)
            except Exception:
                self._note_serial_fallback()
                return None
        return self._pool

    def _replace_pool(self) -> None:
        """Dead-worker replacement: discard the broken executor; the
        next batch gets a fresh one."""
        if self._pool is not None:
            terminate_pool(self._pool)
            self._pool = None

    def shutdown(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True, cancel_futures=True)
            self._pool = None

    # -- execution -----------------------------------------------------
    def run_batches(
        self, batches: list[tuple[ResolvedJob, ...]]
    ) -> list[list[dict]]:
        """Execute every batch; outcome lists come back in batch order.

        All batches are submitted up front so groups execute
        concurrently across workers; collection is in submission order
        (deterministic merge, same discipline as the cell runner).
        """
        if not batches:
            return []
        pool = self._ensure_pool()
        if pool is None:
            return [self._serial_batch(batch) for batch in batches]
        try:
            futures = [pool.submit(execute_batch, batch) for batch in batches]
        except Exception:
            # The pool broke between batches (e.g. its workers were
            # killed while idle): replace it and fall back to isolation.
            self._note_crash()
            self._replace_pool()
            return [
                [self._isolated(job) for job in batch] for batch in batches
            ]

        results: list[list[dict] | None] = [None] * len(batches)
        needs_isolation: list[int] = []
        broken = False
        hung = False
        for index, future in enumerate(futures):
            if broken and not future.done():
                needs_isolation.append(index)
                continue
            try:
                results[index] = future.result(
                    timeout=self._batch_timeout(batches[index])
                )
            except TimeoutError:
                # A worker is stuck inside this batch; healthy workers
                # keep draining the rest, stragglers die at the end.
                self.timeouts += 1
                if self.sink.enabled:
                    self.sink.count("serve.pool.timeouts")
                needs_isolation.append(index)
                hung = True
            except BrokenProcessPool:
                if not broken:
                    self._note_crash()
                broken = True
                needs_isolation.append(index)
            except Exception as error:  # executor-level failure
                results[index] = [
                    _error_outcome(error, 1) for _ in batches[index]
                ]
        if hung or broken:
            self._replace_pool()

        for index in needs_isolation:
            results[index] = [
                self._isolated(job) for job in batches[index]
            ]
        assert all(outcome is not None for outcome in results)
        return results  # type: ignore[return-value]

    def _batch_timeout(self, batch: tuple[ResolvedJob, ...]) -> float | None:
        if self.job_timeout is None:
            return None
        return self.job_timeout * len(batch)

    def _serial_batch(self, batch: tuple[ResolvedJob, ...]) -> list[dict]:
        return [self._in_process(job) for job in batch]

    @staticmethod
    def _in_process(job: ResolvedJob) -> dict:
        try:
            return {"ok": run_job(job)}
        except Exception as error:  # noqa: BLE001 -- structured outcome
            return _error_outcome(error, 1)

    def _isolated(self, job: ResolvedJob) -> dict:
        """Retry one suspect job in its own single-worker pool, with
        jittered backoff between attempts (shared helper, keyed on the
        job so simultaneous failures spread out)."""
        last_error: BaseException = RuntimeError("job never ran")
        attempts = 0
        while attempts <= self.max_retries:
            if attempts > 0:
                self.retries += 1
                if self.sink.enabled:
                    self.sink.count("serve.retried")
                if self.run_log.enabled:
                    self.run_log.event(
                        "serve.retry",
                        id=job.id,
                        key=job.key,
                        attempt=attempts,
                    )
                time.sleep(
                    backoff_delay(
                        attempts, base=self.retry_backoff, key=job.key
                    )
                )
            attempts += 1
            try:
                pool = ProcessPoolExecutor(max_workers=1)
            except Exception:
                self._note_serial_fallback()
                return self._in_process(job)
            try:
                outcomes = pool.submit(execute_batch, (job,)).result(
                    timeout=self.job_timeout
                )
                pool.shutdown(wait=True)
                return outcomes[0]
            except TimeoutError as error:
                self.timeouts += 1
                if self.sink.enabled:
                    self.sink.count("serve.pool.timeouts")
                last_error = error
                terminate_pool(pool)
            except BrokenProcessPool as error:
                self.crashes += 1
                if self.sink.enabled:
                    self.sink.count("serve.pool.worker_crashes")
                last_error = error
                terminate_pool(pool)
            except Exception as error:
                terminate_pool(pool)
                return _error_outcome(error, attempts)
        return _error_outcome(last_error, attempts)

    # -- telemetry helpers ---------------------------------------------
    def _note_crash(self) -> None:
        self.crashes += 1
        if self.sink.enabled:
            self.sink.count("serve.pool.worker_crashes")
        if self.run_log.enabled:
            self.run_log.event("serve.worker_crash")

    def _note_serial_fallback(self) -> None:
        self.serial_fallbacks += 1
        if self.sink.enabled:
            self.sink.count("serve.pool.serial_fallbacks")
