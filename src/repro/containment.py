"""Process containment: one hung or dead worker costs one item, never the run.

The experiment runner (:mod:`repro.eval.runner`, one unit per cell) and
the service (:mod:`repro.serve.pool`, one unit per group batch of jobs)
both run their work here.  A unit is a tuple of items; a worker turns it
into one outcome per item.  :class:`Containment` provides

* **pool acquisition** -- :meth:`Containment._ensure_pool`; ``None``
  means no pool can be made and units run in this process;
* **one collection loop** -- every unit is submitted up front and
  collected in submission order (a deterministic merge) under a budget
  of ``item_timeout x len(unit)``; a unit that times out or whose worker
  dies (``BrokenProcessPool``) is quarantined, with everything not yet
  collected, and the pool is replaced;
* **one isolated-retry loop** -- each item of a quarantined unit runs
  alone in a fresh single-worker pool, up to ``max_retries`` more times,
  sleeping :func:`backoff_delay` keyed on the item in between, and
  in-process when even that pool cannot be made;
* :func:`terminate_pool`, and the four failure counts of
  :class:`FailureCounts`.

**Failure policy.**  An exception is an item's failure only when it
comes out of the item's own execution (``future.result()`` or the
in-process call); the consumer's :attr:`Work.failed` turns it into an
outcome.  An exception raised by a consumer callback -- ``failed``
itself, or the per-unit ``settle`` -- is the consumer's own and leaves
the primitive after its pool has been terminated.

The backoff jitter is *keyed*, not random: the fraction comes from a
SHA-256 of ``(key, attempt)``, so an item retries on the same schedule
every run while different items spread across ``[raw/2, raw]`` instead
of retrying a broken pool in lockstep.
"""

from __future__ import annotations

import hashlib
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Callable

from repro.obs.metrics import MetricsSink
from repro.obs.runlog import RunLog

#: Default multiplier between successive retries.
DEFAULT_FACTOR = 2.0

#: Default jitter width: delays land in ``[raw * (1 - jitter), raw]``.
DEFAULT_JITTER = 0.5


def backoff_fraction(key: str, attempt: int) -> float:
    """Deterministic uniform-ish fraction in ``[0, 1)`` for a retry."""
    digest = hashlib.sha256(f"{key}:{attempt}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") / 2**64


def backoff_delay(
    attempt: int,
    *,
    base: float,
    factor: float = DEFAULT_FACTOR,
    jitter: float = DEFAULT_JITTER,
    key: str = "",
    max_delay: float | None = None,
) -> float:
    """Seconds to sleep before retry number *attempt* (1-based).

    The undithered schedule is ``base * factor**(attempt - 1)``; jitter
    pulls each delay *down* by up to ``jitter`` of itself (never up, so
    existing timeout budgets still hold).  With ``jitter=0`` this is
    exactly the old deterministic schedule.
    """
    if attempt < 1:
        raise ValueError("attempt is 1-based")
    if not 0.0 <= jitter < 1.0:
        raise ValueError("jitter must be in [0, 1)")
    raw = base * factor ** (attempt - 1)
    if max_delay is not None:
        raw = min(raw, max_delay)
    if jitter:
        raw *= 1.0 - jitter * backoff_fraction(key, attempt)
    return raw


def terminate_pool(pool: ProcessPoolExecutor) -> None:
    """Tear a pool down even when a worker is hung or dead."""
    for process in list(pool._processes.values()):
        if process.is_alive():
            process.terminate()
    pool.shutdown(wait=True, cancel_futures=True)


@dataclass
class FailureCounts:
    """What containment had to do, tallied over a consumer's lifetime."""

    timeouts: int = 0
    crashes: int = 0
    retries: int = 0
    serial_fallbacks: int = 0


@dataclass(frozen=True)
class Work:
    """What one consumer runs, and how it shapes and names failures.

    *run* executes a unit in a worker and returns one outcome per item;
    it must be a picklable module-level function.  *serial* runs one item
    in this process.  *failed(item, error, attempts)* is the outcome of an
    item that failed for good; it may raise instead, which ends the run.
    *key* gives an item's backoff key, *describe* the fields of its retry
    event.  *counters* maps each :class:`FailureCounts` field to the sink
    counter it is reported under.
    """

    run: Callable[[tuple], list]
    serial: Callable[[object], object]
    failed: Callable[[object, BaseException, int], object]
    key: Callable[[object], str]
    describe: Callable[[object], dict]
    item_timeout: float | None
    counters: dict[str, str]
    retry_event: str
    crash_event: str | None = None


class Containment:
    """Runs units of :class:`Work` on a bounded process pool.

    ``workers=0`` runs everything in this process.  The pool is made on
    first use and kept until :meth:`shutdown` (or replaced after it broke
    or hung), so a consumer chooses its lifetime: per run, or across
    calls to keep per-worker caches warm.
    """

    def __init__(
        self,
        work: Work,
        *,
        workers: int,
        max_retries: int,
        retry_backoff: float,
        counts: FailureCounts,
        sink: MetricsSink,
        run_log: RunLog,
    ):
        self.work = work
        self.workers = workers
        self.max_retries = max(0, max_retries)
        self.retry_backoff = retry_backoff
        self.counts = counts
        self.sink = sink
        self.run_log = run_log
        self._pool: ProcessPoolExecutor | None = None

    # -- lifecycle -----------------------------------------------------
    def _ensure_pool(self) -> ProcessPoolExecutor | None:
        if self._pool is None and self.workers:
            try:
                self._pool = ProcessPoolExecutor(max_workers=self.workers)
            except Exception:
                self._count("serial_fallbacks")
        return self._pool

    def _replace_pool(self) -> None:
        """Discard a broken or hung executor; the next call makes a new one."""
        if self._pool is not None:
            terminate_pool(self._pool)
            self._pool = None

    def shutdown(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True, cancel_futures=True)
            self._pool = None

    # -- execution -----------------------------------------------------
    def run_batches(
        self,
        units: list[tuple],
        settle: Callable[[int, list], None] = lambda index, outcomes: None,
    ) -> list[list]:
        """One outcome list per unit, in unit order.

        *settle(index, outcomes)* is called once per unit, the moment its
        outcomes are final.
        """
        results: list = [None] * len(units)
        try:
            self._collect(units, results, settle)
        except BaseException:
            self._replace_pool()
            raise
        return results

    def _collect(self, units, results, settle) -> None:
        pool = self._ensure_pool()
        if pool is None:
            for index, unit in enumerate(units):
                results[index] = [self._in_process(item) for item in unit]
                settle(index, results[index])
            return

        quarantined: list[int] = []
        hung = broken = False
        try:
            futures = [pool.submit(self.work.run, unit) for unit in units]
        except Exception:
            # The pool broke between calls (e.g. its workers were killed
            # while idle): every unit goes to isolation.
            self._note_crash()
            futures, broken = [], True
            quarantined = list(range(len(units)))
        for index, future in enumerate(futures):
            if broken and not future.done():
                quarantined.append(index)
                continue
            try:
                results[index] = future.result(
                    timeout=self._timeout(len(units[index]))
                )
            except TimeoutError:
                # A worker is stuck in this unit; healthy workers keep
                # draining the rest, and the stragglers die below.
                self._count("timeouts")
                hung = True
                quarantined.append(index)
                continue
            except BrokenProcessPool:
                # A worker died: the executor fails every outstanding
                # future, so everything not yet collected goes isolated.
                if not broken:
                    self._note_crash()
                broken = True
                quarantined.append(index)
                continue
            except Exception as error:
                # The unit itself raised: deterministic, not retried.
                results[index] = [
                    self.work.failed(item, error, 1) for item in units[index]
                ]
            settle(index, results[index])
        if hung or broken:
            self._replace_pool()

        for index in quarantined:
            results[index] = [self._isolated(item) for item in units[index]]
            settle(index, results[index])

    def _timeout(self, items: int) -> float | None:
        timeout = self.work.item_timeout
        return None if timeout is None else timeout * items

    def _in_process(self, item):
        """Serial evaluation: no hang/crash protection, but an exception
        still becomes the item's outcome."""
        try:
            return self.work.serial(item)
        except Exception as error:
            return self.work.failed(item, error, 1)

    def _isolated(self, item):
        """Retry one suspect item in its own single-worker pool."""
        work = self.work
        error: BaseException = RuntimeError("never ran")
        for attempt in range(1, self.max_retries + 2):
            if attempt > 1:
                self._count("retries")
                if self.run_log.enabled:
                    self.run_log.event(
                        work.retry_event,
                        **work.describe(item),
                        attempt=attempt - 1,
                    )
                time.sleep(
                    backoff_delay(
                        attempt - 1, base=self.retry_backoff, key=work.key(item)
                    )
                )
            try:
                pool = ProcessPoolExecutor(max_workers=1)
            except Exception:
                self._count("serial_fallbacks")
                return self._in_process(item)
            try:
                [outcome] = pool.submit(work.run, (item,)).result(
                    timeout=work.item_timeout
                )
            except TimeoutError as caught:
                self._count("timeouts")
                error = caught
            except BrokenProcessPool as caught:
                self._count("crashes")
                error = caught
            except Exception as caught:
                terminate_pool(pool)
                return work.failed(item, caught, attempt)
            else:
                pool.shutdown(wait=True)
                return outcome
            terminate_pool(pool)
        return work.failed(item, error, self.max_retries + 1)

    # -- telemetry -----------------------------------------------------
    def _count(self, what: str) -> None:
        setattr(self.counts, what, getattr(self.counts, what) + 1)
        if self.sink.enabled:
            self.sink.count(self.work.counters[what])

    def _note_crash(self) -> None:
        self._count("crashes")
        if self.work.crash_event and self.run_log.enabled:
            self.run_log.event(self.work.crash_event)
