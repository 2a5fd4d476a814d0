"""Metrics sinks: named counters and histograms for the simulator stack.

Components *push* increments into the :class:`MetricsSink` they were
handed.  The default :data:`NULL_SINK` is disabled (``enabled`` False,
methods no-ops): an executor given it attaches no counter subscriber.
:class:`CounterSink` collects, behind ``repro profile`` and the tests.

Counter naming convention (documented in DESIGN.md "Observability"):

* dotted component namespaces -- ``machine.cycles``, ``regfile.commits``,
  ``storebuffer.squashes``, ``btb.hits``, ``scalar.instructions``;
* *keyed* families append ``/<key>`` -- ``region.cycles/B0``,
  ``block.ops/B3`` -- so per-region attribution rides the same sink as
  the scalar counters.

Histograms are exact value->count maps (occupancies and slot counts are
small integers), with summary statistics computed at export time.
"""

from __future__ import annotations

from collections import Counter


class MetricsSink:
    """Protocol-by-inheritance base: a sink accepts counts and samples.

    ``enabled`` is a class attribute so the hot-path guard
    ``if sink.enabled:`` costs a plain attribute lookup.
    """

    enabled: bool = False

    def count(self, name: str, amount: int = 1) -> None:
        """Add *amount* to the counter *name*."""

    def observe(self, name: str, value: int) -> None:
        """Record one sample of *value* in the histogram *name*."""


class NullSink(MetricsSink):
    """The default sink: every call is a no-op (and callers skip even
    the call when they check ``enabled`` first)."""


#: Shared default instance -- components default to this, never to None.
NULL_SINK = NullSink()


class CounterSink(MetricsSink):
    """Collects named counters and histograms in memory."""

    enabled = True

    def __init__(self) -> None:
        self.counters: Counter[str] = Counter()
        self.histograms: dict[str, Counter[int]] = {}

    def count(self, name: str, amount: int = 1) -> None:
        self.counters[name] += amount

    def observe(self, name: str, value: int) -> None:
        histogram = self.histograms.get(name)
        if histogram is None:
            histogram = self.histograms[name] = Counter()
        histogram[value] += 1

    # ------------------------------------------------------------------
    # Reading the collected data.
    # ------------------------------------------------------------------
    def counter(self, name: str, default: int = 0) -> int:
        return self.counters.get(name, default)

    def keyed(self, family: str) -> dict[str, int]:
        """All counters of the family ``<family>/<key>``, keyed by key."""
        prefix = family + "/"
        return {
            name[len(prefix):]: value
            for name, value in self.counters.items()
            if name.startswith(prefix)
        }

    def histogram_summary(self, name: str) -> dict:
        """Count/min/max/mean plus the raw value->count map."""
        histogram = self.histograms.get(name, Counter())
        total = sum(histogram.values())
        if not total:
            return {"count": 0, "min": 0, "max": 0, "mean": 0.0, "values": {}}
        weighted = sum(value * times for value, times in histogram.items())
        return {
            "count": total,
            "min": min(histogram),
            "max": max(histogram),
            "mean": weighted / total,
            "values": {str(value): histogram[value] for value in sorted(histogram)},
        }

    # ------------------------------------------------------------------
    # Checkpoint state extraction.
    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        """Exact sink contents (raw value->count histograms, no summary
        statistics), so a checkpoint restore reproduces the sink bit for
        bit rather than approximately."""
        return {
            "counters": {
                name: self.counters[name] for name in sorted(self.counters)
            },
            "histograms": {
                name: {
                    str(value): histogram[value]
                    for value in sorted(histogram)
                }
                for name, histogram in sorted(self.histograms.items())
            },
        }

    def load_state(self, state: dict) -> None:
        """Replace this sink's contents with a :meth:`state_dict` capture."""
        self.counters = Counter(
            {name: value for name, value in state["counters"].items()}
        )
        self.histograms = {
            name: Counter(
                {int(value): times for value, times in histogram.items()}
            )
            for name, histogram in state["histograms"].items()
        }

    def to_dict(self) -> dict:
        """JSON-native snapshot: the ``metrics`` payload of artifacts
        and of ``repro profile --json``."""
        return {
            "counters": {
                name: self.counters[name] for name in sorted(self.counters)
            },
            "histograms": {
                name: self.histogram_summary(name)
                for name in sorted(self.histograms)
            },
        }
