"""Microarchitectural observability: metrics, traces, forensics, logging.

The subsystem's pieces are all near-zero-cost when unused:

* :mod:`repro.obs.events` / :mod:`repro.obs.subscribers` -- the
  executors' one event stream and its subscribers, which feed the
  outputs below;
* :mod:`repro.obs.metrics` -- the :class:`MetricsSink` protocol with the
  no-op :data:`NULL_SINK` default and the collecting
  :class:`CounterSink`;
* :mod:`repro.obs.trace_events` -- a Perfetto/Chrome ``trace_event``
  recorder (:class:`CycleTraceRecorder`) producing one track per FU
  class plus CCR/mode/region tracks;
* :mod:`repro.obs.attribution` -- per-region / per-original-block cycle
  attribution built from the keyed counter families the machine emits;
* :mod:`repro.obs.diagnostics` -- machine-state snapshots carried on
  abort exceptions;
* :mod:`repro.obs.flight` -- bounded ring-buffer flight recorder of
  architectural events (issue, CCR writes, commits/squashes, store
  buffer traffic, faults, recovery episodes);
* :mod:`repro.obs.effects` -- the canonical committed-effect stream the
  lockstep differ (``repro diff-trace``) aligns across models;
* :mod:`repro.obs.runlog` -- structured JSONL run logging behind the
  global ``--log-json`` CLI flag.

Counter names are part of the public surface and documented in
DESIGN.md ("Observability").
"""

from repro.obs.attribution import (
    AttributionReport,
    RegionRow,
    attribute_regions,
)
from repro.obs.diagnostics import (
    InterpreterSnapshot,
    MachineAbort,
    MachineSnapshot,
    ProgramOverrun,
    StoreBufferDeadlock,
)
from repro.obs.effects import (
    Effect,
    EffectDivergence,
    EffectStream,
    first_divergence,
)
from repro.obs.flight import (
    NULL_RECORDER,
    FlightEvent,
    FlightRecorder,
    NullRecorder,
    RingRecorder,
)
from repro.obs.metrics import NULL_SINK, CounterSink, MetricsSink, NullSink
from repro.obs.runlog import NULL_RUN_LOG, JsonlRunLog, RunLog
from repro.obs.trace_events import CycleTraceRecorder, validate_trace_events

__all__ = [
    "AttributionReport",
    "CounterSink",
    "CycleTraceRecorder",
    "Effect",
    "EffectDivergence",
    "EffectStream",
    "FlightEvent",
    "FlightRecorder",
    "InterpreterSnapshot",
    "JsonlRunLog",
    "MachineAbort",
    "MachineSnapshot",
    "MetricsSink",
    "NULL_RECORDER",
    "NULL_RUN_LOG",
    "NULL_SINK",
    "NullRecorder",
    "NullSink",
    "ProgramOverrun",
    "RegionRow",
    "RingRecorder",
    "RunLog",
    "StoreBufferDeadlock",
    "attribute_regions",
    "first_divergence",
    "validate_trace_events",
]
