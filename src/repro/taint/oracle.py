"""The security oracle: twin taint-off/taint-on machine runs.

``run_security`` executes one program on the predicating machine twice:

* a **baseline** run with taint tracking disabled (:data:`NULL_TAINT`),
  establishing the reference cycle count;
* a **taint** run with a live :class:`TaintTracker` and a flight
  recorder, collecting every source, propagation and leak.

The taint run's leaks are the direct channels (register / memory /
output / predicate-under-strict); the *timing* channel is the twin
comparison itself -- tracking is observation-only, so any cycle-count
delta between the runs means speculative data influenced timing (or the
instrumentation perturbed the machine, which is equally a finding).

Inputs are either a scalar :class:`~repro.isa.program.Program` (compiled
through the standard pipeline under an executable predicating model,
exactly like the equivalence oracle) or a prebuilt ``vliw=`` program for
the hand-scheduled gadget path.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.compiler.models import MODELS
from repro.compiler.pipeline import (
    analyze_program,
    compile_program,
    train_predictor,
)
from repro.core.exceptions import ScheduleViolation, UnhandledFault
from repro.isa.program import Program
from repro.machine.config import MachineConfig, base_machine
from repro.machine.program import VLIWProgram
from repro.machine.vliw import VLIWMachine
from repro.obs.diagnostics import MachineAbort
from repro.obs.flight import RingRecorder
from repro.obs.metrics import NULL_SINK, CounterSink, MetricsSink
from repro.sim.interpreter import StepLimitExceeded
from repro.sim.memory import Memory
from repro.taint.track import NULL_TAINT, LeakRecord, TaintTracker
from repro.verify.oracle import (
    DEFAULT_MAX_CYCLES,
    DEFAULT_MAX_STEPS,
    resolve_model,
)

#: Flight-recorder events kept around the first leak in reports.
WINDOW_K = 8

#: Ring capacity for the taint run's flight recorder.
FLIGHT_CAPACITY = 256

#: Model name reported for prebuilt (hand-scheduled) VLIW programs.
HAND_MODEL = "hand-vliw"


@dataclass
class SecurityResult:
    """Outcome of one twin-run taint check."""

    program: str
    model: str
    policy: str
    secure: bool
    leaks: tuple[LeakRecord, ...]
    baseline_cycles: int | None = None
    taint_cycles: int | None = None
    counters: dict = field(default_factory=dict)
    finals: dict = field(default_factory=dict)
    flight_window: list[dict] = field(default_factory=list)
    error: str | None = None

    @property
    def first_leak(self) -> LeakRecord | None:
        return self.leaks[0] if self.leaks else None

    def describe(self) -> str:
        head = f"{self.program} [{self.model}/{self.policy}]"
        if self.error is not None:
            return f"{head}: ERROR ({self.error.splitlines()[0]})"
        if self.secure:
            return (
                f"{head}: SECURE ({self.counters.get('sources', 0)} sources, "
                f"{self.counters.get('declassified', 0)} declassified, "
                f"{self.taint_cycles} cy)"
            )
        lines = [f"{head}: LEAKED ({len(self.leaks)} flows)"]
        lines.extend(f"  {leak.describe()}" for leak in self.leaks[:8])
        if len(self.leaks) > 8:
            lines.append(f"  ... and {len(self.leaks) - 8} more")
        return "\n".join(lines)

    def to_dict(self) -> dict:
        first = self.first_leak
        return {
            "program": self.program,
            "model": self.model,
            "policy": self.policy,
            "secure": self.secure,
            "error": self.error,
            "baseline_cycles": self.baseline_cycles,
            "taint_cycles": self.taint_cycles,
            "counters": dict(self.counters),
            "finals": dict(self.finals),
            "leaks": [leak.to_dict() for leak in self.leaks],
            "first_leak": None if first is None else first.to_dict(),
            "flight_window": list(self.flight_window),
        }


def run_security(
    program: Program | None = None,
    model: str = "region_pred",
    config: MachineConfig | None = None,
    *,
    vliw: VLIWProgram | None = None,
    policy: str = "committed",
    train_memory: Memory | None = None,
    eval_memory: Memory | None = None,
    fault_handler=None,
    max_steps: int | None = None,
    max_cycles: int | None = None,
    sink: MetricsSink = NULL_SINK,
    window_k: int = WINDOW_K,
) -> SecurityResult:
    """Taint-check *program* (compiled under *model*) or a prebuilt *vliw*.

    Returns a :class:`SecurityResult`; ``secure`` is True only when the
    taint run finished cleanly with zero leaks *and* the twin cycle
    counts agree (no timing channel).  *max_steps* / *max_cycles* of
    None mean the oracle defaults.
    """
    if (program is None) == (vliw is None):
        raise ValueError("pass exactly one of program= or vliw=")
    config = config if config is not None else base_machine()
    eval_memory = eval_memory if eval_memory is not None else Memory()
    max_steps = max_steps if max_steps is not None else DEFAULT_MAX_STEPS
    max_cycles = max_cycles if max_cycles is not None else DEFAULT_MAX_CYCLES

    name = HAND_MODEL
    compiled_vliw = vliw
    if program is not None:
        name = resolve_model(model)
        train = train_memory if train_memory is not None else eval_memory
        facts = analyze_program(program)
        try:
            predictor = train_predictor(
                program, facts.cfg, train.clone(), fault_handler=fault_handler,
                max_steps=max_steps,
            )
        except StepLimitExceeded as error:
            return _errored(program.name, name, policy, f"training run: {error}")
        compiled = compile_program(
            program, MODELS[name], config, predictor, facts
        )
        assert compiled.vliw is not None
        compiled_vliw = compiled.vliw
    assert compiled_vliw is not None
    label = program.name if program is not None else compiled_vliw.name

    # --- baseline: taint off ------------------------------------------
    baseline_cycles: int | None = None
    try:
        baseline = VLIWMachine(
            compiled_vliw,
            config,
            eval_memory.clone(),
            fault_handler=fault_handler,
            max_cycles=max_cycles,
        ).run()
        baseline_cycles = baseline.cycles
    except (UnhandledFault, ScheduleViolation, MachineAbort) as error:
        return _errored(
            label, name, policy, f"baseline run: {type(error).__name__}: {error}"
        )

    # --- twin: taint on -----------------------------------------------
    flight = RingRecorder(FLIGHT_CAPACITY, source="security")
    counters = sink if sink.enabled else CounterSink()
    tracker = TaintTracker(policy=policy, sink=counters, flight=flight)
    taint_cycles: int | None = None
    error_text: str | None = None
    try:
        tainted = VLIWMachine(
            compiled_vliw,
            config,
            eval_memory.clone(),
            fault_handler=fault_handler,
            max_cycles=max_cycles,
            flight=flight,
            taint=tracker,
        ).run()
        taint_cycles = tainted.cycles
    except (UnhandledFault, ScheduleViolation, MachineAbort) as error:
        error_text = f"taint run: {type(error).__name__}: {error}"

    leaks = list(tracker.leaks)
    if (
        error_text is None
        and baseline_cycles is not None
        and taint_cycles is not None
        and baseline_cycles != taint_cycles
    ):
        # The tracker only observes; a cycle delta between the twins
        # means timing depends on speculative data (or instrumentation
        # perturbed the machine -- equally a finding).
        leaks.append(
            tracker.leak(
                "timing",
                taint_cycles,
                0,
                None,
                f"cycles {baseline_cycles} (taint off) vs {taint_cycles}",
                frozenset(),
            )
        )

    window: list[dict] = []
    if leaks and leaks[0].flight_seq is not None:
        window = [
            event.to_dict()
            for event in flight.window(leaks[0].flight_seq, window_k)
        ]

    return SecurityResult(
        program=label,
        model=name,
        policy=policy,
        secure=error_text is None and not leaks,
        leaks=tuple(leaks),
        baseline_cycles=baseline_cycles,
        taint_cycles=taint_cycles,
        counters=tracker.counters(),
        finals=tracker.finals(),
        flight_window=window,
        error=error_text,
    )


def _errored(
    program: str, model: str, policy: str, message: str
) -> SecurityResult:
    return SecurityResult(
        program=program,
        model=model,
        policy=policy,
        secure=False,
        leaks=(),
        error=message,
    )
