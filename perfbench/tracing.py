"""Spans and simulated counts for the traced run.

The untraced run calls the program exactly as a user would.  The traced
run wraps calls into the program's layers from here, without editing
the program: :class:`Probes` installs timing wrappers around the entry
points of each layer and attaches an :class:`repro.obs.metrics.CounterSink`
to every VLIW machine built while it is active, and removes all of it on
exit.

Spans are kept in memory as ``[name, start_ns, end_ns, parent]`` and
written out once, when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import json
import pkgutil
import sys
import time
from contextlib import contextmanager, nullcontext
from pathlib import Path

#: Sink counter -> per-layer metric name.  The machine counts itself
#: under ``machine.*``; the predicated state buffers count under
#: ``regfile.*`` / ``storebuffer.*`` and are reported under ``core.*``.
COUNTERS = {
    "machine.cycles": "machine.cycles",
    "machine.bundles": "machine.bundles",
    "machine.ops.issued": "machine.ops.issued",
    "machine.ops.speculative": "machine.ops.speculative",
    "machine.ops.squashed": "machine.ops.squashed",
    "machine.stall_cycles": "machine.stall_cycles",
    "machine.recovery.entries": "machine.recovery.entries",
    "machine.faults.handled": "machine.faults.handled",
    "regfile.commits": "core.regfile.commits",
    "regfile.squashes": "core.regfile.squashes",
    "storebuffer.commits": "core.storebuffer.commits",
    "storebuffer.squashes": "core.storebuffer.squashes",
}


class NullSpans:
    """Spans of an untraced run: recording nothing, costing one call."""

    enabled = False

    def span(self, name: str):
        return nullcontext()


class Spans:
    """In-memory span log with parent links (the innermost open span)."""

    enabled = True

    def __init__(self) -> None:
        self.records: list[list] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        index = len(self.records)
        parent = self._open[-1] if self._open else -1
        self.records.append([name, time.perf_counter_ns(), 0, parent])
        self._open.append(index)
        try:
            yield
        finally:
            self._open.pop()
            self.records[index][2] = time.perf_counter_ns()

    def extend(self, other: "Spans") -> None:
        """Append *other*'s spans, keeping their parent links."""
        offset = len(self.records)
        for name, start, end, parent in other.records:
            self.records.append([name, start, end, parent + offset if parent >= 0 else -1])

    def totals(self) -> dict[str, float]:
        """Seconds per span name."""
        totals: dict[str, float] = {}
        for name, start, end, _ in self.records:
            totals[name] = totals.get(name, 0.0) + (end - start) / 1e9
        return totals

    def write(self, path: Path) -> None:
        """Write the spans as Chrome trace events (viewable in Perfetto)."""
        origin = self.records[0][1] if self.records else 0
        events = [
            {
                "name": name,
                "ph": "X",
                "ts": (start - origin) / 1e3,
                "dur": (end - start) / 1e3,
                "pid": 1,
                "tid": 1,
                "args": {"id": index, "parent": parent},
            }
            for index, (name, start, end, parent) in enumerate(self.records)
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"traceEvents": events}))


def _timed(spans: Spans, name: str, function):
    @functools.wraps(function)
    def wrapper(*args, **kwargs):
        with spans.span(name):
            return function(*args, **kwargs)

    return wrapper


class Probes:
    """Context manager: layer wrappers and machine counters, while active.

    * ``machine.vliw_run`` -- ``VLIWMachine.run`` and the experiment
      runner's checkpointing machine loop;
    * ``machine.run_scalar`` -- every scalar-interpreter run (training,
      evaluation and golden runs);
    * ``compiler.compile`` -- ``compile_program``, wherever imported;
    * ``compiler.count_cycles`` -- the analytic cycle counter;
    * ``serve.resolve`` -- ``parse_request`` and ``resolve_request``;
    * ``serve.run_job`` / ``taint.run_job`` -- ``worker.run_job`` for
      ``simulate`` / ``security`` jobs, when the service runs them in
      this process.

    Every VLIW machine built without a sink of its own gets *sink*.

    Functions imported by name are rebound in every ``repro`` module, so
    all of them are imported first: a module first imported while the
    probes are active would otherwise keep a wrapper after they end.
    """

    def __init__(self, spans: Spans, sink) -> None:
        self.spans = spans
        self.sink = sink
        #: (owner, attribute, original) per installed probe.
        self._undo: list[tuple[object, str, object]] = []

    def _set(self, owner, attribute: str, value) -> None:
        self._undo.append((owner, attribute, getattr(owner, attribute)))
        setattr(owner, attribute, value)

    def _rebind(self, attribute: str, original, replacement) -> None:
        """Point every ``repro`` module's *attribute* at *replacement*
        where it names *original* (call sites look names up at call time)."""
        for name, module in list(sys.modules.items()):
            if name.startswith("repro") and vars(module).get(attribute) is original:
                self._set(module, attribute, replacement)

    def __enter__(self) -> "Probes":
        import repro
        from repro.compiler.pipeline import compile_program
        from repro.compiler.unit import ScheduledCode
        from repro.eval import runner
        from repro.machine.vliw import VLIWMachine
        from repro.serve import protocol, worker
        from repro.sim.interpreter import Interpreter

        for module in pkgutil.walk_packages(repro.__path__, "repro."):
            if not module.name.endswith("__main__"):
                importlib.import_module(module.name)
        spans, counter = self.spans, self.sink
        build = VLIWMachine.__init__

        def counted_init(machine, *args, sink=None, **kwargs):
            if sink is None or not sink.enabled:
                sink = counter
            build(machine, *args, sink=sink, **kwargs)

        self._set(VLIWMachine, "__init__", counted_init)
        for owner, attribute, name in (
            (VLIWMachine, "run", "machine.vliw_run"),
            (Interpreter, "run", "machine.run_scalar"),
            (ScheduledCode, "count_cycles", "compiler.count_cycles"),
        ):
            self._set(owner, attribute, _timed(spans, name, getattr(owner, attribute)))
        for attribute, function, name in (
            ("compile_program", compile_program, "compiler.compile"),
            ("run_vliw_checkpointed", runner.run_vliw_checkpointed, "machine.vliw_run"),
            ("parse_request", protocol.parse_request, "serve.resolve"),
            ("resolve_request", protocol.resolve_request, "serve.resolve"),
        ):
            self._rebind(attribute, function, _timed(spans, name, function))
        run_job = worker.run_job

        @functools.wraps(run_job)
        def timed_job(job):
            with spans.span("taint.run_job" if job.kind == "security" else "serve.run_job"):
                return run_job(job)

        self._rebind("run_job", run_job, timed_job)
        return self

    def __exit__(self, *exc_info) -> None:
        while self._undo:
            owner, attribute, original = self._undo.pop()
            setattr(owner, attribute, original)


def layer_counts(sink) -> dict[str, float]:
    """The exact simulated counts a traced window produced."""
    counts = {metric: sink.counter(counter) for counter, metric in COUNTERS.items()}
    speculative = counts["machine.ops.speculative"]
    counts["machine.squash_ratio"] = (
        counts["machine.ops.squashed"] / speculative if speculative else 0.0
    )
    return counts
