"""The benchmark harness: set-up, timed and traced runs, the result line.

One process, no threads.  Every workload is a closed loop: operation
``i + 1`` is sent only after operation ``i`` returned.

* **Set-up** (``setup_s``) is timed :data:`SETUP_REPEATS` times and
  reported as the median.  Each repetition imports the workload's
  modules in a fresh interpreter, then builds the workload's inputs and
  program state and runs its warm-up in this process, so warm-up is
  charged to set-up and never to the timed loop.
* **Timed run** (``--trace 0``): operations run in blocks of
  ``workload.block`` until ``--seconds`` have passed *and* at least
  :data:`MIN_LATENCY_SAMPLES` latency samples exist.  Rates are over
  the whole timed loop; latencies are Harrell-Davis quantiles over
  every sample.
* **Traced run** (``--trace 1``): the leading ``workload.window``
  operations run untraced, then again under :class:`tracing.Probes`,
  each on fresh program state, repeated until ``--seconds`` have
  passed.  A workload whose program runs a process pool runs both of
  those windows without it, in this process, and a third, untraced
  window with it; the difference is its pool overhead.  Layer times
  are means per traced window; simulated counts must repeat exactly
  across windows.

**Host-speed scaling.**  A shared host's speed flips between fast and
slow states within a second and drifts over minutes.
:class:`HostClock` times a short fixed pure-Python loop
(:func:`reference_loop`, independent of the program) between
operations, and every host time reported is scaled to a host that runs
that loop in :data:`REFERENCE_SECONDS`.  The process and its children
are pinned to one CPU, so the loop measures the CPU the work runs on.
The unscaled figures are printed on the summary line.

The leading window of every run is folded into a digest of simulated
statistics, so two commits can be compared exactly.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

from perfbench.tracing import NullSpans, Probes, Spans, layer_counts

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TRACE_DIR = Path(__file__).resolve().parent / "traces"

SETUP_REPEATS = 5
#: A percentile is reported only with at least this many samples beyond
#: it, so ``latency_p90_ms`` needs at least 100 samples.
SAMPLES_BEYOND = 10
MIN_LATENCY_SAMPLES = 100
#: The timed loop stops here even when short of samples, so one run
#: always ends well inside its time limit.
MAX_TIMED_SECONDS = 120.0
#: Nominal time of one :func:`reference_loop` call; host times are
#: scaled to a host this fast.
REFERENCE_SECONDS = 0.0025
REFERENCE_STEPS = 5_000
REFERENCE_CALLS = 2

END_TO_END_UNITS = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "machine_cycles_per_s": "cycles/s",
    "speedup_geomean": "ratio",
}

PER_LAYER_UNITS = {
    "machine.vliw_run_s": "s",
    "machine.vliw_cycles_per_s": "cycles/s",
    "machine.vliw_ns_per_op": "ns",
    "machine.run_scalar_s": "s",
    "compiler.compile_s": "s",
    "machine.cycles": "count",
    "machine.bundles": "count",
    "machine.ops.issued": "count",
    "machine.ops.speculative": "count",
    "machine.ops.squashed": "count",
    "core.regfile.commits": "count",
    "core.regfile.squashes": "count",
    "core.storebuffer.commits": "count",
    "core.storebuffer.squashes": "count",
    "machine.squash_ratio": "ratio",
    "obs.trace_overhead": "ratio",
}

#: Exact counts that read 0 on every listed workload (only ``fuzz``
#: faults and recovers; none stalls).  A traced run prints them with
#: the layer figures on its summary line, not in the result.
SUMMARY_COUNTS = ("machine.stall_cycles", "machine.recovery.entries", "machine.faults.handled")

#: Layer-figure names ending so are host times, and are scaled.
TIME_SUFFIXES = ("_s", "_ms")


class _Node:
    __slots__ = ("key", "value", "next")

    def __init__(self, key: int, value: int, next_node) -> None:
        self.key = key
        self.value = value
        self.next = next_node


def reference_loop(steps: int = REFERENCE_STEPS) -> int:
    """Fixed interpreter-bound work -- object allocation, attribute and
    dict access, small-int arithmetic -- with the simulator's profile
    but none of its code."""
    table: dict[int, _Node] = {}
    head = None
    acc = 0
    for i in range(steps):
        head = _Node(i & 63, acc, head if i & 7 else None)
        table[i & 1023] = head
        node = table.get((i * 7) & 1023)
        if node is not None:
            acc = (acc + node.value + node.key) & 0xFFFF
    return acc


def reference_seconds() -> float:
    start = time.perf_counter()
    for _ in range(REFERENCE_CALLS):
        reference_loop()
    return (time.perf_counter() - start) / REFERENCE_CALLS


class HostClock:
    """Host speed over timed intervals.

    :meth:`scale` times the reference loop at the end of an interval and
    returns the factor that scales host time measured in it to the
    nominal host: :data:`REFERENCE_SECONDS` over the mean of the loop
    times at its two edges and at any :meth:`sample` taken inside it.
    ``spent`` is the time those inner samples took, which the caller
    leaves out of the interval's host time.
    """

    def __init__(self) -> None:
        self.scales: list[float] = []
        self.mark()

    def mark(self) -> None:
        """Start an interval here."""
        self._samples = [reference_seconds()]
        self.spent = 0.0

    def sample(self) -> None:
        start = time.perf_counter()
        self._samples.append(reference_seconds())
        self.spent += time.perf_counter() - start

    def scale(self) -> float:
        now = reference_seconds()
        factor = REFERENCE_SECONDS / statistics.mean([*self._samples, now])
        self._samples = [now]
        self.spent = 0.0
        self.scales.append(factor)
        return factor


class TooFewSamples(ValueError):
    """A percentile was asked of fewer samples than it needs."""


def percentile(samples: list[float], q: float) -> float:
    """Harrell-Davis estimate of the *q*-quantile, refusing unless at
    least :data:`SAMPLES_BEYOND` samples lie beyond rank ``q * n``.

    The estimate is a beta-weighted mean of the order statistics, so it
    stays steady where a mix of operation kinds leaves a gap between
    clusters of latencies and the nearest-rank sample would jump across
    it."""
    count = len(samples)
    rank = max(1, math.ceil(q * count))
    if count - rank < SAMPLES_BEYOND:
        raise TooFewSamples(
            f"p{round(q * 100)} of {count} samples leaves {count - rank} "
            f"beyond it; need {SAMPLES_BEYOND}"
        )
    a, b = (count + 1) * q, (count + 1) * (1 - q)
    logs = [
        (a - 1) * math.log((i + 0.5) / count) + (b - 1) * math.log1p(-(i + 0.5) / count)
        for i in range(count)
    ]
    top = max(logs)
    weights = [math.exp(log - top) for log in logs]
    return sum(w * x for w, x in zip(weights, sorted(samples))) / sum(weights)


def geomean(values: list[float]) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values))


def digest(records: list) -> str:
    blob = json.dumps(records, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def _descendants(pid: int) -> list[int]:
    found = []
    for task in Path(f"/proc/{pid}/task").glob("*/children"):
        for child in task.read_text().split():
            found += [int(child), *_descendants(int(child))]
    return found


def _peak_kb(pid: int) -> int:
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1])
    return 0


def peak_rss_mb() -> float:
    """Peak resident set of this process plus that of each process it
    still runs (the serve pool worker).  The set-up's fresh interpreters
    have ended by then, so they are not counted."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return (own + sum(_peak_kb(pid) for pid in _descendants(os.getpid()))) / 1024


@dataclass
class Outcome:
    """What one operation did.

    *units* is the number of operations it counts as (cells, campaigns
    or jobs), *failed* how many of them failed their check.  *latencies*
    replaces the operation's own wall time as its latency samples when
    the work inside it is the unit a user waits for.
    """

    units: int
    failed: int = 0
    machine_cycles: int = 0
    speedups: tuple[float, ...] = ()
    record: object = None
    latencies: tuple[float, ...] | None = None
    errors: tuple[str, ...] = ()


@dataclass
class Tally:
    """Outcomes of one run: totals, the window's records and speedups."""

    window: int
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    records: list = field(default_factory=list)
    speedups: list[float] = field(default_factory=list)

    def add(self, index: int, outcome: Outcome) -> None:
        self.attempted += outcome.units
        self.failed += outcome.failed
        self.errors.extend(outcome.errors)
        if index < self.window:
            self.records.append(outcome.record)
            self.speedups.extend(outcome.speedups)

    def fail(self, message: str, units: int = 1) -> None:
        self.attempted += units
        self.failed += units
        self.errors.append(message)

    def merge(self, other: "Tally") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.errors.extend(other.errors)


def run_op(workload, index: int, spans, tally: Tally) -> Outcome | None:
    """Run one operation; an exception is a failed operation."""
    try:
        outcome = workload.run_op(index, spans)
    except Exception as error:  # noqa: BLE001 -- counted, not fatal
        tally.fail(f"op {index}: {type(error).__name__}: {error}")
        return None
    tally.add(index, outcome)
    return outcome


def import_fresh(modules: tuple[str, ...]) -> None:
    """Import *modules* in a fresh interpreter (cold-import cost)."""
    code = f"import sys; sys.path.insert(0, {str(SRC)!r}); import {', '.join(modules)}"
    subprocess.run([sys.executable, "-c", code], check=True)


def set_up(factory, seed: int):
    """Set the workload up :data:`SETUP_REPEATS` times.

    Returns the median scaled and unscaled set-up seconds and the last
    workload, open."""
    scaled, raw = [], []
    workload = None
    for _ in range(SETUP_REPEATS):
        if workload is not None:
            workload.close()
        clock = HostClock()
        start = time.perf_counter()
        import_fresh(factory.import_modules)
        imported = time.perf_counter()
        import_scale = clock.scale()
        workload = factory(seed)
        workload.open()
        done = time.perf_counter()
        raw.append(done - start)
        scaled.append((imported - start) * import_scale + (done - imported) * clock.scale())
    return statistics.median(scaled), statistics.median(raw), workload


def timed_run(workload, seconds: float) -> tuple[Tally, dict]:
    """The closed loop; returns the tally and the timing figures, each
    scaled (``ops_per_s``, ...) and unscaled (``raw``).  The peak RSS is
    read at the end, while the workload is still open."""
    tally = Tally(workload.window)
    spans = NullSpans()
    latencies: list[float] = []
    raw_latencies: list[float] = []
    units = cycles = blocks = index = 0
    busy = raw_busy = 0.0
    clock = workload.clock = HostClock()
    start = time.perf_counter()
    while True:
        for _ in range(workload.block):
            op_start = time.perf_counter()
            outcome = run_op(workload, index, spans, tally)
            wall = time.perf_counter() - op_start - clock.spent
            scale = clock.scale()
            index += 1
            busy += wall * scale
            raw_busy += wall
            if outcome is None:
                continue
            samples = (wall,) if outcome.latencies is None else outcome.latencies
            raw_latencies.extend(samples)
            latencies.extend(sample * scale for sample in samples)
            units += outcome.units
            cycles += outcome.machine_cycles
        blocks += 1
        elapsed = time.perf_counter() - start
        if elapsed >= MAX_TIMED_SECONDS:
            break
        if elapsed >= seconds and len(latencies) >= MIN_LATENCY_SAMPLES:
            break
    figures = {
        "ops": index,
        "blocks": blocks,
        "elapsed_s": elapsed,
        "latencies": latencies,
        "ops_per_s": units / busy,
        "machine_cycles_per_s": cycles / busy,
        "peak_rss_mb": peak_rss_mb(),
        "host_scale": busy / raw_busy,
        "raw": {
            "ops_per_s": units / raw_busy,
            "latency_p50_ms": percentile(raw_latencies, 0.5) * 1e3,
            "latency_p90_ms": percentile(raw_latencies, 0.9) * 1e3,
        },
    }
    return tally, figures


def window(workload, tally: Tally, clock: HostClock, spans=None, sink=None) -> tuple[float, float]:
    """Run the leading window on fresh state, traced when *spans* and
    *sink* are given.  Returns the raw and scaled wall time of its
    operations."""
    workload.open()
    try:
        probes = Probes(spans, sink) if spans is not None else nullcontext()
        with probes:
            clock.mark()
            workload.clock = clock
            raw = scaled = 0.0
            for index in range(workload.window):
                start = time.perf_counter()
                run_op(workload, index, spans or NullSpans(), tally)
                wall = time.perf_counter() - start - clock.spent
                raw += wall
                scaled += wall * clock.scale()
    finally:
        workload.close()
    return raw, scaled


def _scaled(figures: dict[str, float], scale: float) -> dict[str, float]:
    return {
        name: value * scale if name.endswith(TIME_SUFFIXES) else value
        for name, value in figures.items()
    }


def traced_run(workload, seconds: float) -> tuple[Tally, dict, Spans]:
    """Untraced and traced windows, paired, until *seconds* have passed.

    A pooled workload runs the pair on its serial path and adds an
    untraced pooled window to each round."""
    from repro.obs.metrics import CounterSink

    tally = Tally(workload.window)
    all_spans = Spans()
    pooled: list[float] = []
    untraced: list[float] = []
    traced: list[float] = []
    per_window: list[dict[str, float]] = []
    counts: dict | None = None
    digests: set[str] = set()
    clock = HostClock()
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < seconds:
        parts = []
        if workload.pooled:
            parts.append(Tally(workload.window))
            workload.serial = False
            pooled.append(window(workload, parts[-1], clock)[1])
            workload.serial = True
        plain = Tally(workload.window)
        untraced.append(window(workload, plain, clock)[1])
        spans = Spans()
        sink = CounterSink()
        observed = Tally(workload.window)
        raw, scaled = window(workload, observed, clock, spans, sink)
        traced.append(scaled)
        scale = scaled / raw  # time-weighted mean scale of the window
        figures = {f"{name}_s": total for name, total in spans.totals().items()}
        figures.update(workload.layer_details(spans, observed.records))
        per_window.append(_scaled(figures, scale))
        for part in (*parts, plain, observed):
            tally.merge(part)
            digests.add(digest(part.records))
        tally.records, tally.speedups = observed.records, observed.speedups
        window_counts = layer_counts(sink)
        if counts is None:
            counts = window_counts
        elif window_counts != counts:
            tally.fail("simulated counts differ between traced windows")
        all_spans.extend(spans)
    if len(digests) != 1:
        tally.fail(f"window digests differ between runs: {sorted(digests)}")
    workload.serial = False
    names = sorted({name for figures in per_window for name in figures})
    layers = {
        name: statistics.mean(figures.get(name, 0.0) for figures in per_window)
        for name in names
    }
    if pooled:
        extra = statistics.mean(pooled) - statistics.mean(untraced)
        layers[f"{workload.name}.pool_overhead_ms"] = extra * 1e3 / workload.window
    assert counts is not None
    for name in SUMMARY_COUNTS:
        layers[name] = counts.pop(name)
    vliw_s = layers.get("machine.vliw_run_s", 0.0)
    metrics = {
        "machine.vliw_run_s": vliw_s,
        "machine.vliw_cycles_per_s": counts["machine.cycles"] / vliw_s if vliw_s else 0.0,
        "machine.vliw_ns_per_op": (
            vliw_s * 1e9 / counts["machine.ops.issued"]
            if counts["machine.ops.issued"]
            else 0.0
        ),
        "machine.run_scalar_s": layers.get("machine.run_scalar_s", 0.0),
        "compiler.compile_s": layers.get("compiler.compile_s", 0.0),
        **counts,
        "obs.trace_overhead": sum(traced) / sum(untraced),
    }
    figures = {
        "windows": len(traced),
        "metrics": metrics,
        "layers": layers,
        "host_scale": statistics.median(clock.scales),
    }
    return tally, figures, all_spans


def _line(payload: dict) -> None:
    print(json.dumps(payload), flush=True)


def run(workload_name: str, seed: int, seconds: float, trace: bool) -> int:
    from perfbench.workloads import WORKLOADS

    factory = WORKLOADS[workload_name]
    if trace:
        workload = factory(seed)
        tally, figures, spans = traced_run(workload, seconds)
        for message in workload.verify():
            tally.fail(message)
        trace_path = TRACE_DIR / f"{workload_name}-seed{seed}.json"
        spans.write(trace_path)
        metrics = figures["metrics"]
        info = {
            "windows": figures["windows"],
            "host_scale": figures["host_scale"],
            "layers": figures["layers"],
            "spans": str(trace_path.relative_to(ROOT)),
        }
        units = PER_LAYER_UNITS
    else:
        setup_s, raw_setup_s, workload = set_up(factory, seed)
        try:
            tally, figures = timed_run(workload, seconds)
        finally:
            workload.close()
        for message in workload.verify():
            tally.fail(message)
        latencies = figures["latencies"]
        metrics = {
            "setup_s": setup_s,
            "peak_rss_mb": figures["peak_rss_mb"],
            "ops_per_s": figures["ops_per_s"],
            "latency_p50_ms": percentile(latencies, 0.5) * 1e3,
            "latency_p90_ms": percentile(latencies, 0.9) * 1e3,
            "machine_cycles_per_s": figures["machine_cycles_per_s"],
            "speedup_geomean": geomean(tally.speedups),
        }
        info = {
            "ops": figures["ops"],
            "blocks": figures["blocks"],
            "elapsed_s": figures["elapsed_s"],
            "latency_samples": len(latencies),
            "host_scale": figures["host_scale"],
            "raw": {"setup_s": raw_setup_s, **figures["raw"]},
        }
        units = END_TO_END_UNITS
    error_rate = tally.failed / tally.attempted if tally.attempted else 1.0
    summary = {
        "workload": workload_name,
        "seed": seed,
        "trace": int(trace),
        "digest": digest(tally.records),
        "error_rate": error_rate,
        "properties": workload.properties(tally.records),
        **info,
    }
    for message in tally.errors[:20]:
        print(f"perfbench: FAILED {message}", file=sys.stderr)
    for name, value in metrics.items():
        print(f"perfbench: {name} = {value:.6g} {units[name]}", file=sys.stderr)
    _line(summary)
    _line(
        {
            "correct": tally.failed == 0 and tally.attempted > 0,
            "attempted": tally.attempted,
            "failed": tally.failed,
            "metrics": {
                name: {"value": metrics[name], "unit": unit} for name, unit in units.items()
            },
        }
    )
    return 0


def main(argv: list[str]) -> int:
    from perfbench.workloads import WORKLOADS

    parser = argparse.ArgumentParser(prog="perfbench", description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    try:
        return run(args.workload, args.seed, args.seconds, bool(args.trace))
    except TooFewSamples as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 1
