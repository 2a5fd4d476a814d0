"""Jittered exponential backoff and pool teardown, shared by every retry loop.

Two helpers, two consumers: the experiment runner's isolated-cell
retries (:mod:`repro.eval.runner`) and the service worker pool
(:mod:`repro.serve.pool`).  Both used to retry in deterministic
lockstep -- after a broken pool, every failed unit slept exactly
``base * 2**n`` seconds and hammered the machine again simultaneously.

The jitter here is *keyed*, not random: the fraction is derived from a
SHA-256 of ``(key, attempt)``, so

* a given unit retries on the same schedule every run (the repo's
  byte-identical-resume guarantees survive), while
* different units (different keys) spread across ``[raw/2, raw]``
  instead of thundering together.
"""

from __future__ import annotations

import hashlib
from concurrent.futures import ProcessPoolExecutor

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
