"""The simulation service: admission, batching, durability, counters.

:class:`SimulationService` is frontend-agnostic -- the stdio and HTTP
layers both feed :meth:`handle_requests` a list of request lines and
write back the response list it returns (same order, one per request).

**Admission (bounded, deterministic).**  Requests are admitted in
arrival order under two limits checked atomically:

* a global bounded queue: at most ``queue_limit`` jobs pending across
  all clients -- the next job over the line gets an ``overloaded``
  response immediately (deterministic shedding, no unbounded growth,
  no hang);
* per-client quotas: at most ``client_quota`` pending jobs per client
  -- a greedy client gets ``rejected: quota`` while others keep flowing.

Malformed lines cost a ``rejected`` response; nothing kills the serve
loop.

**Batching.**  Admitted jobs are grouped by their ``group`` key (same
program text, model, machine config, training input) and each group is
shipped to the pool as one batch, so the worker compiles once per group
(see :mod:`repro.serve.worker`).  Jobs with identical *job* keys within
a submission execute once and fan out to every requester.

**Durability.**  With a journal, every admitted job is write-ahead
journaled *before* execution and marked done when its result is
collected; results already durable (this run or a previous life of the
server) are replayed without re-execution.  :meth:`recover` re-executes
exactly the accepted-but-incomplete jobs of a crashed server.

**Counters** (via the metrics sink): ``serve.accepted``,
``serve.completed``, ``serve.retried`` (in the pool), ``serve.rejected``,
``serve.replayed``, plus ``serve.errors`` for jobs that failed for good.
"""

from __future__ import annotations

import dataclasses
import threading
from collections import Counter
from dataclasses import dataclass

from repro.obs.metrics import NULL_SINK, MetricsSink
from repro.obs.runlog import NULL_RUN_LOG, RunLog
from repro.serve.journal import JobJournal
from repro.serve.pool import WorkerPool
from repro.serve.protocol import (
    ProtocolError,
    ResolvedJob,
    parse_request,
    resolve_request,
    response_error,
    response_ok,
    response_overloaded,
    response_rejected,
)


@dataclass(frozen=True)
class ServeSettings:
    """Operational knobs for one service instance."""

    workers: int = 1
    queue_limit: int = 64
    client_quota: int = 16
    job_timeout: float | None = None
    max_retries: int = 2
    retry_backoff: float = 0.1

    def __post_init__(self) -> None:
        if self.queue_limit < 1:
            raise ValueError("queue limit must be >= 1")
        if self.client_quota < 1:
            raise ValueError("client quota must be >= 1")


class SimulationService:
    """One serving engine; thread-safe for concurrent frontends."""

    def __init__(
        self,
        settings: ServeSettings | None = None,
        *,
        journal: JobJournal | None = None,
        sink: MetricsSink = NULL_SINK,
        run_log: RunLog = NULL_RUN_LOG,
    ):
        self.settings = settings if settings is not None else ServeSettings()
        self.journal = journal
        self.sink = sink
        self.run_log = run_log
        self.pool = WorkerPool(
            workers=self.settings.workers,
            job_timeout=self.settings.job_timeout,
            max_retries=self.settings.max_retries,
            retry_backoff=self.settings.retry_backoff,
            sink=sink,
            run_log=run_log,
        )
        # Admission state; the lock guards only these counters, so
        # admission stays O(batch) while execution runs outside it.
        self._lock = threading.Lock()
        self._pending = 0
        self._per_client: Counter[str] = Counter()
        # Durable results: journal-loaded plus everything completed in
        # this life.  Key -> deterministic result payload.
        self._completed: dict[str, dict] = {}
        self.stats: Counter[str] = Counter()

    # ------------------------------------------------------------------
    # Recovery.
    # ------------------------------------------------------------------
    def recover(self) -> int:
        """Replay a previous life's journal.

        Durable results become replayable immediately; jobs that were
        accepted but never completed (the server died mid-batch) are
        re-executed *now*, so their results are durable before the
        first client reconnects.  Returns the number re-executed.
        """
        if self.journal is None:
            return 0
        completed, incomplete = self.journal.load()
        self._completed.update(completed)
        if not incomplete:
            return 0
        jobs = list(incomplete.values())
        if self.run_log.enabled:
            self.run_log.event(
                "serve.recover", incomplete=len(jobs), durable=len(completed)
            )
        self._execute(jobs)
        self._count("serve.replayed", len(jobs))
        return len(jobs)

    @property
    def pending(self) -> int:
        with self._lock:
            return self._pending

    # ------------------------------------------------------------------
    # The request path.
    # ------------------------------------------------------------------
    def handle_requests(
        self, lines: list[str | dict], *, client: str | None = None
    ) -> list[dict]:
        """Process one submission; responses in request order.

        *client* overrides the per-request ``client`` field (the HTTP
        frontend passes the authenticated client; stdio trusts the
        request).
        """
        jobs: list[ResolvedJob | None] = []
        responses: list[dict | None] = []
        for line in lines:
            job_id = None
            try:
                spec = parse_request(line)
                job_id = spec.id
                if client is not None:
                    spec = dataclasses.replace(spec, client=client)
                jobs.append(resolve_request(spec))
                responses.append(None)
            except ProtocolError as error:
                if job_id is None and isinstance(line, dict):
                    raw_id = line.get("id")
                    job_id = raw_id if isinstance(raw_id, str) else None
                jobs.append(None)
                responses.append(response_rejected(job_id, str(error)))
                self._count("serve.rejected")
                if self.run_log.enabled:
                    self.run_log.event(
                        "serve.reject", id=job_id, reason=str(error)
                    )

        admitted = self._admit(jobs, responses)
        try:
            errors, executed = self._execute(admitted)
        finally:
            self._release(admitted)

        for index, job in enumerate(jobs):
            if responses[index] is not None or job is None:
                continue
            responses[index] = self._response_for(
                job, errors.get(job.key), executed
            )
        assert all(response is not None for response in responses)
        return responses  # type: ignore[return-value]

    # -- admission -----------------------------------------------------
    def _admit(
        self,
        jobs: list[ResolvedJob | None],
        responses: list[dict | None],
    ) -> list[ResolvedJob]:
        """Fill in shed responses; return the admitted jobs, in order.

        Runs under the lock and touches no job content: the admission
        decision is bounded work, which is what keeps the overloaded
        response inside the admission deadline however busy the pool is.
        """
        admitted: list[ResolvedJob] = []
        settings = self.settings
        with self._lock:
            for index, job in enumerate(jobs):
                if job is None:
                    continue
                if job.key in self._completed:
                    # Durable replay: costs no queue slot, sheds nothing,
                    # and needs no execution -- the response path serves
                    # it straight from the durable store.
                    continue
                if self._pending >= settings.queue_limit:
                    responses[index] = response_overloaded(
                        job.id,
                        pending=self._pending,
                        limit=settings.queue_limit,
                    )
                    self._count("serve.rejected")
                    if self.run_log.enabled:
                        self.run_log.event(
                            "serve.shed", id=job.id, pending=self._pending
                        )
                    continue
                if self._per_client[job.client] >= settings.client_quota:
                    responses[index] = response_rejected(
                        job.id,
                        f"client {job.client!r} quota exceeded "
                        f"({settings.client_quota} pending jobs)",
                    )
                    self._count("serve.rejected")
                    if self.run_log.enabled:
                        self.run_log.event(
                            "serve.quota", id=job.id, client=job.client
                        )
                    continue
                self._pending += 1
                self._per_client[job.client] += 1
                admitted.append(job)
                self._count("serve.accepted")
                if self.run_log.enabled:
                    self.run_log.event(
                        "serve.accept",
                        id=job.id,
                        key=job.key,
                        client=job.client,
                        job_kind=job.kind,
                    )
        return admitted

    def _release(self, admitted: list[ResolvedJob]) -> None:
        """Every admitted job took exactly one queue slot; give it back."""
        with self._lock:
            for job in admitted:
                self._pending -= 1
                self._per_client[job.client] -= 1

    # -- execution -----------------------------------------------------
    def _execute(
        self, jobs: list[ResolvedJob]
    ) -> tuple[dict[str, dict], set[str]]:
        """Run every not-yet-durable job once.

        Returns ``(errors, executed)``: error outcomes by job key, and
        the set of keys actually executed in this call (so the response
        path can tell a fresh result from a durable replay).

        The write-ahead discipline lives here: accept records land
        before any batch is submitted, done records the moment a batch's
        outcomes are collected.
        """
        errors: dict[str, dict] = {}
        todo: dict[str, ResolvedJob] = {}
        for job in jobs:
            if job.key in self._completed or job.key in todo:
                continue
            todo[job.key] = job
        if not todo:
            return errors, set()

        if self.journal is not None:
            for job in todo.values():
                self.journal.accept(job)

        groups: dict[str, list[ResolvedJob]] = {}
        for job in todo.values():
            groups.setdefault(job.group, []).append(job)
        batches = [tuple(group) for group in groups.values()]
        outcome_lists = self.pool.run_batches(batches)
        for batch, outcomes in zip(batches, outcome_lists):
            for job, outcome in zip(batch, outcomes):
                if "ok" in outcome:
                    result = outcome["ok"]
                    self._completed[job.key] = result
                    if self.journal is not None:
                        self.journal.complete(job.key, result)
                    self._count("serve.completed")
                    if self.run_log.enabled:
                        self.run_log.event(
                            "serve.result",
                            id=job.id,
                            key=job.key,
                            status="ok",
                        )
                else:
                    # Never journaled as done: a restart retries it.
                    errors[job.key] = outcome
                    self._count("serve.errors")
                    if self.run_log.enabled:
                        self.run_log.event(
                            "serve.result",
                            id=job.id,
                            key=job.key,
                            status="error",
                            error=outcome["error"]["type"],
                        )
        return errors, set(todo)

    def _response_for(
        self, job: ResolvedJob, error_outcome, executed: set[str]
    ) -> dict:
        durable = self._completed.get(job.key)
        if durable is not None:
            if job.key not in executed:
                # Served from the durable store without executing.
                self._count("serve.replayed")
                if self.run_log.enabled:
                    self.run_log.event(
                        "serve.replay", id=job.id, key=job.key
                    )
            return response_ok(job.id, job.key, durable)
        assert error_outcome is not None and "error" in error_outcome
        error = error_outcome["error"]
        return response_error(
            job.id,
            job.key,
            error["type"],
            error["message"],
            error.get("attempts", 1),
        )

    # ------------------------------------------------------------------
    # Introspection and shutdown.
    # ------------------------------------------------------------------
    def _count(self, name: str, value: int = 1) -> None:
        self.stats[name] += value
        if self.sink.enabled:
            self.sink.count(name, value)

    def counters(self) -> dict[str, int]:
        """JSON-native snapshot for the stats endpoint and shutdown line."""
        counters = {
            name: self.stats[name]
            for name in (
                "serve.accepted",
                "serve.completed",
                "serve.retried",
                "serve.rejected",
                "serve.replayed",
                "serve.errors",
            )
        }
        counters["serve.retried"] = self.pool.counts.retries
        counters["serve.pending"] = self._pending
        counters["serve.durable_results"] = len(self._completed)
        return counters

    def close(self) -> None:
        """Drain the pool and flush the journal."""
        self.pool.shutdown()
        if self.journal is not None:
            self.journal.close()
