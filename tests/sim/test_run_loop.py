"""The interpreter's one run loop: ``run()`` and ``step()`` agree.

``step()`` is the run loop with a budget of one instruction, so stepping
a program to halt must leave exactly what one ``run()`` leaves: output,
registers, memory, step and cycle counts, handled faults and the dynamic
trace.  The loop keeps its hot state in locals and writes it back before
observers, fault handlers and :class:`StepLimitExceeded`; these tests
pin that the write-back makes the two paths indistinguishable to every
hook, handler and exception.
"""

from __future__ import annotations

import pytest

from repro.core.exceptions import UnhandledFault
from repro.ir.cfg import build_cfg
from repro.obs.effects import EffectStream
from repro.obs.flight import RingRecorder
from repro.obs.metrics import CounterSink
from repro.sim.interpreter import Interpreter, StepLimitExceeded
from repro.taint.tags import TaintTag
from repro.taint.track import TaintTracker
from repro.verify.fuzz import build_case, derive_campaign
from repro.workloads import all_workloads, get_workload

WORKLOADS = [workload.name for workload in all_workloads()]

#: Paged fuzz campaigns (a random share of data words unmapped and
#: repaired by a pager), so handled-fault re-execution is exercised.
PAGED_CAMPAIGNS = 50


def _paged_cases():
    cases = []
    index = 0
    while len(cases) < PAGED_CAMPAIGNS:
        spec = derive_campaign(7, index)
        if spec.unmap_fraction > 0.0:
            cases.append(build_case(spec))
        index += 1
    return cases


def _handled_faults(case) -> int:
    program = case.program()
    interpreter = Interpreter(
        program,
        case.make_memory(),
        cfg=build_cfg(program),
        fault_handler=case.make_fault_handler(),
    )
    try:
        return interpreter.run().handled_faults
    except UnhandledFault:
        return 0


def _state(result) -> tuple:
    trace = result.trace
    return (
        result.output,
        result.registers,
        result.memory.snapshot(),
        result.steps,
        result.scalar_cycles,
        result.handled_faults,
        result.halted,
        None
        if trace is None
        else (trace.blocks, trace.branches, trace.instruction_count),
    )


def _outcome(interpreter: Interpreter, stepping: bool) -> tuple:
    """The state a run leaves, or the exception it ends with."""
    try:
        if stepping:
            while interpreter.step():
                pass
            result = interpreter.result()
        else:
            result = interpreter.run()
    except (UnhandledFault, StepLimitExceeded) as error:
        return type(error).__name__, str(error), _state(interpreter.result())
    return "ok", _state(result)


@pytest.mark.parametrize("name", WORKLOADS)
def test_stepping_to_halt_equals_one_run(name):
    workload = get_workload(name)
    cfg = build_cfg(workload.program)

    def fresh():
        return Interpreter(workload.program, workload.eval_memory(), cfg=cfg)

    stepped = _outcome(fresh(), stepping=True)
    assert stepped[0] == "ok"
    assert stepped == _outcome(fresh(), stepping=False)


def test_paged_fuzz_campaigns_step_and_run_alike():
    handled = 0
    for case in _paged_cases():
        program = case.program()
        cfg = build_cfg(program)

        def fresh():
            return Interpreter(
                program,
                case.make_memory(),
                cfg=cfg,
                fault_handler=case.make_fault_handler(),
                max_steps=200_000,
            )

        stepped = _outcome(fresh(), stepping=True)
        assert stepped == _outcome(fresh(), stepping=False), case.name
        handled += stepped[-1][5]
    assert handled > 0  # re-execution after a repaired fault was covered


def test_step_limit_under_run_matches_stepping():
    workload = get_workload("compress")
    cfg = build_cfg(workload.program)
    limit = 1234

    def raised(stepping: bool) -> StepLimitExceeded:
        interpreter = Interpreter(
            workload.program, workload.eval_memory(), cfg=cfg,
            max_steps=limit,
        )
        with pytest.raises(StepLimitExceeded) as info:
            if stepping:
                while interpreter.step():
                    pass
            else:
                interpreter.run()
        return info.value

    stepped, ran = raised(True), raised(False)
    assert ran.snapshot == stepped.snapshot
    assert ran.snapshot.steps == limit
    assert ran.snapshot.recent_blocks
    assert _state(ran.partial) == _state(stepped.partial)
    assert not ran.partial.halted
    assert str(ran) == str(stepped)


class _LoggingSink(CounterSink):
    """Logs every count with the interpreter state it was made in."""

    def __init__(self, recorder: RingRecorder) -> None:
        super().__init__()
        self.recorder = recorder
        self.interpreter: Interpreter | None = None
        self.log: list[tuple] = []

    def count(self, name: str, amount: int = 1) -> None:
        interpreter = self.interpreter
        self.log.append(
            (
                name,
                self.recorder.seq,
                interpreter.pc,
                interpreter.steps,
                interpreter.scalar_cycles,
                interpreter.handled_faults,
            )
        )
        super().count(name, amount)


def _observed(program, memory, fault_handler, seeds, stepping: bool):
    recorder = RingRecorder(capacity=1 << 20)
    sink = _LoggingSink(recorder)
    effects = EffectStream("scalar", recorder)
    taint = TaintTracker(flight=recorder)
    for reg in seeds["registers"]:
        taint.seed_register(reg, TaintTag("value", 0, 0, None, None, "seed"))
    for address in seeds["memory"]:
        taint.seed_memory(
            address, TaintTag("value", 0, 0, None, address, "seed")
        )
    interpreter = Interpreter(
        program,
        memory,
        cfg=build_cfg(program),
        fault_handler=fault_handler,
        sink=sink,
        flight=recorder,
        effects=effects,
        taint=taint,
    )
    sink.interpreter = interpreter
    outcome = _outcome(interpreter, stepping)
    return (
        outcome,
        sink.log,
        recorder.to_dicts(),
        effects.to_dicts(),
        [leak.to_dict() for leak in taint.leaks],
        taint.finals(),
        taint.counters(),
    )


def test_observers_see_the_same_events_under_run_and_step():
    workload = get_workload("compress")
    words = sorted(workload.eval_memory().snapshot())
    seeds = {"registers": [1, 2], "memory": words[:: max(1, len(words) // 8)]}

    def observed(stepping: bool):
        return _observed(
            workload.program, workload.eval_memory(), None, seeds, stepping
        )

    stepped = observed(True)
    assert stepped == observed(False)
    outcome, sink_log, flight, effects, leaks, _, _ = stepped
    assert outcome[0] == "ok"
    assert sink_log and flight and effects and leaks


def test_observers_see_the_same_fault_events_under_run_and_step():
    case = next(case for case in _paged_cases() if _handled_faults(case))
    program = case.program()
    seeds = {"registers": [1], "memory": sorted(case.memory_words)[:4]}

    def observed(stepping: bool):
        return _observed(
            program, case.make_memory(), case.make_fault_handler(), seeds,
            stepping,
        )

    stepped = observed(True)
    assert stepped == observed(False)
    flight = stepped[2]
    assert any(event["kind"] == "fault.handled" for event in flight)
