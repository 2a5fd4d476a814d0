"""The machine event stream: pinned subscriber outputs and zero cost.

Every observability output now comes from subscribers of one event
stream (``repro.obs.events``).  The digests below were computed from
the hook-per-family executors that preceded it, so they pin that each
subscriber reproduces its output byte for byte:

* the counters (``CounterSink.to_dict()``), the Perfetto trace, the
  flight-recorder events and the committed-effect stream, for the six
  workloads under ``region_pred`` and ``trace_pred`` (and three of them
  with a finite BTB and unbounded shadow storage, which exercise the
  ``btb.*`` counters and several commits of one register per tick);
* the same outputs of the scalar interpreter on each workload;
* the Table 1 ``CycleEvents`` of the paper's walkthrough program;
* fuzz campaigns ``(0, 71)`` and ``(0, 74)``, whose faults exercise the
  fault-buffered, fault-handled and recovery enter/exit events.

A run with all subscribers attached goes through the fan-out; a run with
one goes to it directly (checked on compress and the campaigns), and
both must agree.  The structural half: a
register-file or store-buffer tick, and a machine or interpreter run
with nothing attached, make no call into ``repro/obs``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import sys
from pathlib import Path

import pytest

import repro
from repro.compiler.pipeline import analyze_program, compile_program, train_predictor
from repro.core.ccr import CCR
from repro.core.predicate import Predicate
from repro.core.regfile import PredicatedRegisterFile
from repro.core.store_buffer import PredicatedStoreBuffer
from repro.machine.config import base_machine
from repro.machine.vliw import VLIWMachine
from repro.obs.effects import EffectStream
from repro.obs.flight import RingRecorder
from repro.obs.metrics import CounterSink
from repro.obs.trace_events import CycleTraceRecorder
from repro.sim.interpreter import Interpreter
from repro.sim.memory import Memory
from repro.verify.fuzz import build_case, derive_campaign
from repro.verify.oracle import OracleSetup
from repro.workloads import get_workload
from tests.machine.test_vliw import TestPaperTable1

WORKLOADS = ("compress", "eqntott", "espresso", "grep", "li", "nroff")

#: sha256 prefixes of each output, computed before the event stream.
PINNED = {
    "compress/region_pred": {"counters": "3d00a22846c25f41", "trace": "50e8da44a691119d", "flight": "577a4940e3aca4a8", "effects": "d6a230d111ad5178"},
    "compress/trace_pred": {"counters": "9faac523dab2e167", "trace": "3567eacaa23cb3a9", "flight": "1bf87e3537cb2381", "effects": "02a55e3de0842303"},
    "eqntott/region_pred": {"counters": "9f07812c3df3521f", "trace": "d438d3b14b2cdec6", "flight": "fcb75a68d567156e", "effects": "331992a11f0c9bda"},
    "eqntott/trace_pred": {"counters": "f914757c39ef5b4d", "trace": "92d68493e2a90ca8", "flight": "6861b32a4a822b23", "effects": "c9d15038ef2533f2"},
    "espresso/region_pred": {"counters": "8e281c639e6818f4", "trace": "75b52b93acf61c3e", "flight": "3b7d54b36c8a6bb1", "effects": "ba21795aec483639"},
    "espresso/trace_pred": {"counters": "df4f0b36b80b60f7", "trace": "a18282385934bd3a", "flight": "02fd411186a500b0", "effects": "d98d5749ad9af421"},
    "grep/region_pred": {"counters": "a28355049849e844", "trace": "b32a88cae99c601c", "flight": "db9cb4dd1b72eb62", "effects": "682731352a9f371d"},
    "grep/trace_pred": {"counters": "5e734488edfc55d2", "trace": "1b3c17bdf4410451", "flight": "46d91342c0c927db", "effects": "7166042b8cd85b2c"},
    "li/region_pred": {"counters": "2e51f957dda0697f", "trace": "eb59e3963a01d90f", "flight": "2059a97349942512", "effects": "cdad47f886ec07ea"},
    "li/trace_pred": {"counters": "45e86ed2dfd6ee58", "trace": "981c394a2019e1b8", "flight": "21be10d774402d76", "effects": "7b352cfa55c0f443"},
    "nroff/region_pred": {"counters": "edfa93bb7198cabc", "trace": "4a7a50217d4af470", "flight": "de91226367b9c906", "effects": "24e2b99a2e1477fd"},
    "nroff/trace_pred": {"counters": "edfa93bb7198cabc", "trace": "4a7a50217d4af470", "flight": "de91226367b9c906", "effects": "24e2b99a2e1477fd"},
    "compress/region_pred+btb4+deep": {"counters": "4b9203300c7d0bc8", "trace": "4dfd0e4eca7f1d91", "flight": "9c22dc6fa1185f32", "effects": "593d0108e8db47ea"},
    "eqntott/region_pred+btb4+deep": {"counters": "d6c15e9831c0343b", "trace": "6950ad6d68e21bea", "flight": "aa351d9b524c1e09", "effects": "bfc680946893794b"},
    "espresso/region_pred+btb4+deep": {"counters": "57f2da89ac69079a", "trace": "f3aa2cf9e6f03c19", "flight": "15d29b733348fa92", "effects": "22b5b0f3972c7cae"},
    "compress/scalar": {"counters": "064aa2a73a03c551", "flight": "f617ad92b6a67374", "effects": "bf584063a29162e8"},
    "eqntott/scalar": {"counters": "f9d2da046f4e8328", "flight": "362da675faddf99c", "effects": "13adfb267b21aff4"},
    "espresso/scalar": {"counters": "c46b1c85ed8e3139", "flight": "a884d4ae55002ef8", "effects": "4aee0708c1b594e5"},
    "grep/scalar": {"counters": "db7f5ef0c0998321", "flight": "2d95c3b68289ee92", "effects": "e57ed5cdbe035088"},
    "li/scalar": {"counters": "839598aa5624e003", "flight": "34d5f1a8d8418877", "effects": "ee8396485c872c32"},
    "nroff/scalar": {"counters": "5ca7e4329dfa31d6", "flight": "2a6a7127175be530", "effects": "e02e7ff7aaf72ea5"},
    "campaign-71": {"counters": "9b36bf3069951777", "trace": "dd40757ef2c0bda7", "flight": "b204a2721b8a519e", "effects": "5f54a472f260f3aa"},
    "campaign-71/scalar": {"counters": "d8e89eb0137ab4b8", "flight": "283b7329f399ff6e", "effects": "7779fad4e0c92660"},
    "campaign-74": {"counters": "abded8ec257374cc", "trace": "be65bb91718b70b2", "flight": "540a8a7ff5f61023", "effects": "34adcad196e4512b"},
    "campaign-74/scalar": {"counters": "22dad366378f3d85", "flight": "934dbbe4a9c79416", "effects": "51c652367271a1d1"},
}
TABLE1_EVENTS = "ac962b8c376df944"

#: Deep-shadow machine with a small finite BTB.
WIDE = dataclasses.replace(base_machine(), btb_entries=4, shadow_capacity=None)


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _digests(run, kinds) -> dict[str, str]:
    """Run *run(**observers)* with the subscribers for *kinds*
    attached; the sha256 prefix of each one's output."""
    observers = {}
    if "counters" in kinds:
        sink = observers["sink"] = CounterSink()
    if "trace" in kinds:
        tracer = observers["tracer"] = CycleTraceRecorder("pin")
    if "flight" in kinds:
        flight = observers["flight"] = RingRecorder(1 << 22)
        effects = observers["effects"] = EffectStream("x", flight)
    run(**observers)
    digests = {}
    if "counters" in kinds:
        digests["counters"] = _sha(_canonical(sink.to_dict()))
    if "trace" in kinds:
        digests["trace"] = _sha(tracer.to_json())
    if "flight" in kinds:
        rows = [
            {
                "seq": event.seq, "cycle": event.cycle, "pc": event.pc,
                "region": event.region, "kind": event.kind,
                "detail": event.detail, "pred": event.pred,
            }
            for event in flight.events()
        ]  # FlightEvent.to_dict's rows, built without dataclasses.asdict
        digests["flight"] = _sha(_canonical(rows))
        digests["effects"] = _sha(_canonical(effects.to_dicts()))
    return digests


def _check(key: str, run) -> None:
    """All subscribers at once (the fan-out); on compress and the fault
    campaigns, each one alone as well (the direct slot)."""
    pinned = PINNED[key]
    kinds = [kind for kind in ("counters", "trace", "flight") if kind in pinned]
    assert _digests(run, kinds) == pinned, key
    if not key.startswith(("compress/", "campaign-")):
        return
    for kind in kinds:
        alone = _digests(run, [kind])
        assert alone == {name: pinned[name] for name in alone}, (key, kind)


@pytest.fixture(scope="module")
def trained():
    cache = {}

    def get(name: str):
        if name not in cache:
            workload = get_workload(name)
            facts = analyze_program(workload.program)
            predictor = train_predictor(
                workload.program, facts.cfg, workload.train_memory()
            )
            cache[name] = (workload, facts, predictor)
        return cache[name]

    return get


@pytest.mark.parametrize("name", WORKLOADS)
@pytest.mark.parametrize("model", ["region_pred", "trace_pred"])
def test_machine_outputs_are_pinned(trained, name, model):
    workload, facts, predictor = trained(name)
    config = base_machine()
    vliw = compile_program(workload.program, model, config, predictor, facts).vliw
    _check(
        f"{name}/{model}",
        lambda **kw: VLIWMachine(vliw, config, workload.eval_memory(), **kw).run(),
    )


@pytest.mark.parametrize("name", WORKLOADS[:3])
def test_btb_and_deep_shadow_outputs_are_pinned(trained, name):
    workload, facts, predictor = trained(name)
    vliw = compile_program(
        workload.program, "region_pred", WIDE, predictor, facts
    ).vliw
    _check(
        f"{name}/region_pred+btb4+deep",
        lambda **kw: VLIWMachine(vliw, WIDE, workload.eval_memory(), **kw).run(),
    )


@pytest.mark.parametrize("name", WORKLOADS)
def test_interpreter_outputs_are_pinned(trained, name):
    workload, facts, _ = trained(name)
    _check(
        f"{name}/scalar",
        lambda **kw: Interpreter(
            workload.program, workload.eval_memory(), cfg=facts.cfg, **kw
        ).run(),
    )


def test_table1_cycle_events_are_pinned():
    machine = TestPaperTable1().setup_machine()
    machine.run()
    rows = [dataclasses.asdict(row) for row in machine.events]
    assert _sha(_canonical(rows)) == TABLE1_EVENTS


@pytest.mark.parametrize(
    "index, model, recoveries", [(71, "region_pred", 3), (74, "trace_pred", 1)]
)
def test_fault_campaign_outputs_are_pinned(index, model, recoveries):
    case = build_case(derive_campaign(0, index))
    assert case.model == model
    setup = OracleSetup(
        case.model, case.config, train_memory=None,
        eval_memory=case.make_memory(),
        fault_handler=case.make_fault_handler(), max_steps=None,
        max_cycles=None, policy_overrides=case.policy_overrides,
        machine_factory=None,
    )
    program = case.program()
    facts = analyze_program(program)
    runs = []

    def run(**observers):
        runs.append(setup.run_machine(program, facts, **observers))

    _check(f"campaign-{index}", run)
    assert {machine_run.result.recoveries for machine_run in runs} == {recoveries}
    _check(
        f"campaign-{index}/scalar",
        lambda **kw: Interpreter(
            program, case.make_memory(), cfg=facts.cfg,
            fault_handler=case.make_fault_handler(), **kw,
        ).run(),
    )


# ----------------------------------------------------------------------
# Zero cost when nothing is attached.
# ----------------------------------------------------------------------
_OBS_ROOT = Path(repro.__file__).resolve().parent / "obs"


def _obs_calls(run) -> list[str]:
    """The ``repro/obs`` functions *run()* calls."""
    called = []

    def profile(frame, event, arg) -> None:
        if event == "call" and Path(frame.f_code.co_filename).parent == _OBS_ROOT:
            called.append(frame.f_code.co_name)

    sys.setprofile(profile)
    try:
        run()
    finally:
        sys.setprofile(None)
    return called


def test_buffer_ticks_never_call_obs():
    regfile = PredicatedRegisterFile(8, shadow_capacity=None)
    buffer = PredicatedStoreBuffer()
    ccr = CCR(4)
    regfile.write_speculative(1, 5, Predicate({0: True}))
    regfile.write_speculative(2, 6, Predicate({0: False}))
    buffer.append(100, 7, Predicate({0: True}), speculative=True)
    buffer.append(None, 8, Predicate({0: False}), speculative=True)
    ccr.set(0, True)

    def tick():
        regfile.tick(ccr)
        buffer.tick(ccr, Memory(), [])
        buffer.drain(Memory(), [])

    assert _obs_calls(tick) == []


def test_unobserved_runs_never_call_obs(trained):
    workload, facts, predictor = trained("compress")
    config = base_machine()
    vliw = compile_program(
        workload.program, "region_pred", config, predictor, facts
    ).vliw
    machine = VLIWMachine(vliw, config, workload.eval_memory())
    interpreter = Interpreter(workload.program, workload.eval_memory(), cfg=facts.cfg)
    assert machine._obs is None and interpreter._obs is None
    assert _obs_calls(machine.run) == []
    assert _obs_calls(interpreter.run) == []
