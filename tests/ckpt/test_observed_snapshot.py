"""A snapshot of an observed run, written before the event stream.

``fixtures/campaign-0-71-mid-recovery.json`` was captured from fuzz
campaign ``(0, 71)`` with a ``CounterSink`` and the Perfetto tracer
attached, at cycle 13: in recovery mode (entered at cycle 11), inside
region 1 (entered at cycle 6), away from any region start.  So it
carries the counters' and tracer's region-visit state and the sink's
counters.  The machine must still write exactly this document at that
boundary, and restoring it must finish with the uninterrupted run's
counters and the same trace of the remainder.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from repro.ckpt.state import canonical_dumps, restore_vliw, snapshot_vliw
from repro.compiler.pipeline import analyze_program
from repro.core.exceptions import MachineMode
from repro.machine.vliw import VLIWMachine
from repro.obs.metrics import CounterSink
from repro.obs.trace_events import CycleTraceRecorder
from repro.verify.fuzz import build_case, derive_campaign
from repro.verify.oracle import OracleSetup

FIXTURE = Path(__file__).parent / "fixtures" / "campaign-0-71-mid-recovery.json"
SNAPSHOT_CYCLE = 13
#: sha256 of the final ``CounterSink.to_dict()`` (canonical JSON).
FINAL_COUNTERS = "9b36bf3069951777ef9e6130e4500cbef87bb041f5e794d36c02f7f039e0be65"
#: sha256 of the restored run's trace (the remainder after cycle 13).
TRACE_SUFFIX = "072775b5651ed0766d7b0ef0b16bba7f442a1da8fb798ea026c6309ddf750750"


class _Paused(VLIWMachine):
    """Built and compiled by the oracle setup, but not run."""

    def run(self):
        return None


def _campaign_machine(**observers):
    case = build_case(derive_campaign(0, 71))
    setup = OracleSetup(
        case.model, case.config, train_memory=None,
        eval_memory=case.make_memory(),
        fault_handler=case.make_fault_handler(), max_steps=None,
        max_cycles=None, policy_overrides=case.policy_overrides,
        machine_factory=_Paused,
    )
    program = case.program()
    machine = setup.run_machine(program, analyze_program(program), **observers).machine
    return case, machine


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def test_machine_writes_the_fixture_byte_identically():
    _, machine = _campaign_machine(sink=CounterSink(), tracer=CycleTraceRecorder("ckpt"))
    while machine.cycle < SNAPSHOT_CYCLE:
        assert machine.step()
    assert machine.mode is MachineMode.RECOVERY
    text = canonical_dumps(snapshot_vliw(machine)) + "\n"
    assert text == FIXTURE.read_text()


def test_restored_fixture_finishes_with_the_same_counters_and_trace():
    case, fresh = _campaign_machine()
    document = json.loads(FIXTURE.read_text())
    assert document["state"]["observation"] == {
        "current_region": 1, "region_entry_cycle": 6, "recovery_entry_cycle": 11,
    }
    sink, tracer = CounterSink(), CycleTraceRecorder("ckpt")
    machine = restore_vliw(
        document, fresh.program, fresh.config,
        fault_handler=case.make_fault_handler(), sink=sink, tracer=tracer,
    )
    while machine.step():
        pass
    assert _sha(canonical_dumps(sink.to_dict())) == FINAL_COUNTERS
    assert _sha(tracer.to_json()) == TRACE_SUFFIX

    uninterrupted = CounterSink()
    _, whole = _campaign_machine(sink=uninterrupted)
    while whole.step():
        pass
    assert uninterrupted.to_dict() == sink.to_dict()
