"""The service's worker pool: group batches of jobs on the shared containment.

One unit is one group batch (see :mod:`repro.serve.worker`), collected
under ``job_timeout x len(batch)``; a batch that hangs or loses its
worker is re-run as one-job batches, isolated and retried with keyed
backoff, by :class:`repro.containment.Containment`.  The pool is kept
across calls, so each worker's compile cache stays warm; it is replaced
only after it broke or hung.  A job that still fails becomes a
structured ``{"error": {...}}`` outcome: one bad job costs one job,
never the batch or the service.
"""

from __future__ import annotations

from repro.containment import Containment, FailureCounts, Work
from repro.obs.metrics import NULL_SINK, MetricsSink
from repro.obs.runlog import NULL_RUN_LOG, RunLog
from repro.serve.protocol import ResolvedJob
from repro.serve.worker import execute_batch, run_job


def _error_outcome(job: ResolvedJob, error: BaseException, attempts: int) -> dict:
    return {
        "error": {
            "type": type(error).__name__,
            "message": str(error) or type(error).__name__,
            "attempts": attempts,
        }
    }


class WorkerPool(Containment):
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
        super().__init__(
            Work(
                run=execute_batch,
                serial=lambda job: {"ok": run_job(job)},
                failed=_error_outcome,
                key=lambda job: job.key,
                describe=lambda job: {"id": job.id, "key": job.key},
                item_timeout=job_timeout,
                counters={
                    "timeouts": "serve.pool.timeouts",
                    "crashes": "serve.pool.worker_crashes",
                    "retries": "serve.retried",
                    "serial_fallbacks": "serve.pool.serial_fallbacks",
                },
                retry_event="serve.retry",
                crash_event="serve.worker_crash",
            ),
            workers=max(1, workers),
            max_retries=max_retries,
            retry_backoff=retry_backoff,
            counts=FailureCounts(),
            sink=sink,
            run_log=run_log,
        )
