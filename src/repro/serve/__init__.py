"""``repro serve``: the simulator as a fault-tolerant batched service.

The evaluation posture of the ROADMAP -- sweeping the paper's
(branch predictability x ILP shape x machine model) space at scale --
outgrows one CLI invocation.  This package turns the compile-and-
simulate pipeline into a long-running engine behind a JSON-lines
protocol (HTTP and stdin), with the failure handling a production
service needs:

* :mod:`repro.serve.protocol` -- request/response schema, validation,
  and content-keyed job identity (the cell-cache keying discipline from
  :mod:`repro.eval.runner` applied to jobs);
* :mod:`repro.serve.worker` -- in-worker job execution with a
  content-keyed compiled-program cache (batch-mates sharing a program,
  model and config compile once);
* :mod:`repro.serve.pool` -- the worker pool: group batches of jobs
  on the process containment the experiment runner's cells share
  (:mod:`repro.containment`: per-job timeouts, dead-worker replacement,
  isolated retry with keyed backoff, serial fallback);
* :mod:`repro.serve.journal` -- the write-ahead job journal over the
  :mod:`repro.ckpt.journal` ledger format: accepted before execution,
  done after, so a killed worker or restarted server replays exactly
  the incomplete jobs and never loses or duplicates accepted work;
* :mod:`repro.serve.service` -- admission (bounded queue, per-client
  quotas, deterministic load shedding), batching by identical
  program+model+config, journal lifecycle, counters;
* :mod:`repro.serve.stdio` / :mod:`repro.serve.http` -- the two
  frontends behind ``repro serve [--stdio | --http PORT]``.

Imports are lazy (PEP 562): naming one export loads only its module,
not the whole service stack.
"""

from __future__ import annotations

_EXPORTS = {
    "backoff_delay": "repro.containment",
    "ProtocolError": "repro.serve.protocol",
    "JobSpec": "repro.serve.protocol",
    "ResolvedJob": "repro.serve.protocol",
    "SERVE_SCHEMA": "repro.serve.protocol",
    "parse_request": "repro.serve.protocol",
    "resolve_request": "repro.serve.protocol",
    "WorkerPool": "repro.serve.pool",
    "JobJournal": "repro.serve.journal",
    "ServeSettings": "repro.serve.service",
    "SimulationService": "repro.serve.service",
    "serve_stdio": "repro.serve.stdio",
    "serve_http": "repro.serve.http",
    "make_http_server": "repro.serve.http",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    if name in _EXPORTS:
        import importlib

        module = importlib.import_module(_EXPORTS[name])
        return getattr(module, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
