"""The ``repro-checkpoint/v1`` snapshot format.

A snapshot is a deterministic, self-validating JSON document capturing
the *complete* architectural and microarchitectural state of one
execution engine at a step/cycle boundary:

* **interpreter** -- pc, registers, condition registers, the output
  stream, the memory image, the dynamic-trace position, step/cycle
  counters, the load-use interlock state and recent-block ring;
* **vliw** -- the shadow register file including every buffered
  speculative write with its predicate and E flag (the paper's W/V/E
  state), the predicated store buffer entries with predicates and
  serials, the CCR *and* the future CCR, RPC/EPC/mode (so a snapshot
  taken mid-recovery restores mid-recovery), BTB tags, issue position,
  in-flight writebacks, the stall counter and all statistics.

Two integrity mechanisms make restoring safe:

* a **content hash** over the canonical serialization of the whole
  envelope (minus the hash itself) detects corrupt or truncated files;
* a **config fingerprint** binds the snapshot to the exact program and
  machine configuration it was taken under, so restoring under a
  mismatched machine shape fails loudly instead of silently corrupting
  state.

Captured sink metrics (when the engine ran with a
:class:`~repro.obs.metrics.CounterSink`) ride the snapshot so that
*checkpoint + restore + continue* reproduces the uninterrupted run's
final counters bit for bit -- the property the ckpt tests assert at
every boundary.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from collections import deque
from pathlib import Path

from repro.core.exceptions import FaultRecord, MachineMode
from repro.core.predicate import parse_predicate
from repro.isa.printer import format_instruction, format_program
from repro.isa.program import Program
from repro.machine.config import MachineConfig
from repro.machine.program import VLIWProgram
from repro.machine.vliw import VLIWMachine, _InFlight
from repro.obs.metrics import NULL_SINK, MetricsSink
from repro.obs.subscribers import RegionVisits
from repro.sim.interpreter import Interpreter
from repro.sim.memory import Memory
from repro.sim.trace import BranchEvent
from repro.taint.tags import taint_from_state, taint_to_state

#: Envelope identifier; bump on breaking layout changes.
CKPT_SCHEMA = "repro-checkpoint/v1"

#: Engine kinds a snapshot can capture.
ENGINE_VLIW = "vliw"
ENGINE_INTERPRETER = "interpreter"
ENGINES = (ENGINE_VLIW, ENGINE_INTERPRETER)


class CheckpointError(ValueError):
    """A snapshot could not be taken, validated, or restored.

    Carries the offending *path* (when the snapshot came from disk) and
    a human-readable *reason*; the message always contains both, so CLI
    surfaces can print it verbatim instead of a traceback.
    """

    def __init__(self, reason: str, path: str | Path | None = None):
        self.reason = reason
        self.path = str(path) if path is not None else None
        super().__init__(
            f"{self.path}: {reason}" if self.path is not None else reason
        )


def schema_mismatch_message(found: object, expected: str) -> str:
    """The shared version-mismatch phrasing (also used by verify/case)."""
    return f"schema mismatch: found {found!r}, expected {expected!r}"


# ----------------------------------------------------------------------
# Canonical serialization and hashing.
# ----------------------------------------------------------------------
def canonical_dumps(obj) -> str:
    """Canonical JSON: sorted keys, no whitespace -- stable bytes."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def content_hash(document: dict) -> str:
    """SHA-256 over the canonical envelope, excluding the hash field."""
    body = {key: value for key, value in document.items() if key != "hash"}
    return hashlib.sha256(canonical_dumps(body).encode("utf-8")).hexdigest()


def _config_state(config: MachineConfig) -> dict:
    return dataclasses.asdict(config)


def vliw_fingerprint(program: VLIWProgram, config: MachineConfig) -> str:
    """Identity of (scheduled program, machine shape) for a VLIW snapshot."""
    payload = {
        "engine": ENGINE_VLIW,
        "name": program.name,
        "bundles": [
            [format_instruction(op) for op in bundle]
            for bundle in program.bundles
        ],
        "labels": sorted(program.labels.items()),
        "regions": [
            [span.label, span.start, span.end] for span in program.regions
        ],
        "provenance": (
            None
            if program.provenance is None
            else [list(origins) for origins in program.provenance]
        ),
        "config": _config_state(config),
    }
    return hashlib.sha256(canonical_dumps(payload).encode("utf-8")).hexdigest()


def interpreter_fingerprint(program: Program) -> str:
    """Identity of the scalar program for an interpreter snapshot."""
    payload = {
        "engine": ENGINE_INTERPRETER,
        "name": program.name,
        "program": format_program(program),
    }
    return hashlib.sha256(canonical_dumps(payload).encode("utf-8")).hexdigest()


# ----------------------------------------------------------------------
# Envelope validation and file loading.
# ----------------------------------------------------------------------
def validate_snapshot(
    document: object, *, path: str | Path | None = None
) -> dict:
    """Check envelope shape, schema, and integrity hash.

    Returns the document on success; raises :class:`CheckpointError`
    carrying *path* plus the reason otherwise -- never lets a corrupt or
    truncated snapshot through to the restore layer.
    """
    if not isinstance(document, dict):
        raise CheckpointError("snapshot must be a JSON object", path)
    schema = document.get("schema")
    if schema != CKPT_SCHEMA:
        raise CheckpointError(
            schema_mismatch_message(schema, CKPT_SCHEMA), path
        )
    engine = document.get("engine")
    if engine not in ENGINES:
        raise CheckpointError(f"unknown engine kind {engine!r}", path)
    if not isinstance(document.get("fingerprint"), str):
        raise CheckpointError("missing config fingerprint", path)
    if not isinstance(document.get("state"), dict):
        raise CheckpointError("missing state object", path)
    recorded = document.get("hash")
    if not isinstance(recorded, str):
        raise CheckpointError("missing integrity hash", path)
    actual = content_hash(document)
    if recorded != actual:
        raise CheckpointError(
            f"integrity hash mismatch: recorded {recorded[:12]}..., "
            f"computed {actual[:12]}... (corrupt or truncated snapshot)",
            path,
        )
    return document


def load_snapshot(path: str | Path) -> dict:
    """Read and validate one snapshot file.

    Any failure -- unreadable file, bad JSON, wrong schema, hash
    mismatch -- raises :class:`CheckpointError` with the path and the
    reason, never a raw traceback type.
    """
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as error:
        raise CheckpointError(f"unreadable snapshot ({error})", path) from error
    try:
        document = json.loads(text)
    except json.JSONDecodeError as error:
        raise CheckpointError(f"not JSON ({error})", path) from error
    return validate_snapshot(document, path=path)


def _seal(engine: str, fingerprint: str, state: dict) -> dict:
    document = {
        "schema": CKPT_SCHEMA,
        "engine": engine,
        "fingerprint": fingerprint,
        "state": state,
    }
    document["hash"] = content_hash(document)
    return document


def _metrics_state(sink: MetricsSink) -> dict | None:
    state_dict = getattr(sink, "state_dict", None)
    return state_dict() if callable(state_dict) else None


def _region_visits(machine: VLIWMachine) -> list[RegionVisits]:
    """The counters' and tracer's region-visit state, when attached."""
    return [
        subscriber
        for subscriber in getattr(machine._obs, "subscribers", (machine._obs,))
        if isinstance(subscriber, RegionVisits)
    ]


def _restore_metrics(sink: MetricsSink, state: dict | None) -> None:
    if state is None:
        return
    load_state = getattr(sink, "load_state", None)
    if callable(load_state):
        load_state(state)


# ----------------------------------------------------------------------
# VLIW machine snapshots.
# ----------------------------------------------------------------------
def snapshot_vliw(machine: VLIWMachine) -> dict:
    """Freeze a running machine at its current cycle boundary."""
    if machine.halted:
        raise CheckpointError("machine already halted; nothing to resume")
    if machine.record_events:
        raise CheckpointError(
            "record_events runs are not checkpointable "
            "(the per-cycle event log is a debugging view)"
        )
    state = {
        "pc": machine.pc,
        "rpc": machine.rpc,
        "epc": machine.epc,
        "cycle": machine.cycle,
        "mode": machine.mode.value,
        "stalls": machine._stalls,
        "ccr": machine.ccr.state_list(),
        "future_ccr": (
            None
            if machine.future_ccr is None
            else machine.future_ccr.state_list()
        ),
        "regfile": machine.regfile.state_dict(),
        "store_buffer": machine.store_buffer.state_dict(),
        "btb": None if machine.btb is None else machine.btb.state_dict(),
        "memory": machine.memory.state_dict(),
        "output": list(machine.output),
        "in_flight": [
            {
                "due_cycle": entry.due_cycle,
                "reg": entry.reg,
                "value": entry.value,
                "pred": str(entry.pred),
                "fault": (
                    None if entry.fault is None else entry.fault.to_state()
                ),
                # Emitted only when present: taint-off snapshots stay
                # byte-identical to the pre-taint layout.
                **(
                    {}
                    if entry.taint is None
                    else {"taint": taint_to_state(entry.taint)}
                ),
            }
            for entry in machine._in_flight
        ],
        "stats": {
            "bundles_issued": machine.bundles_issued,
            "issued_ops": machine.issued_ops,
            "recoveries": machine.recoveries,
            "handled_faults": machine.handled_faults,
            "squashed_ops": machine.squashed_ops,
            "speculative_ops": machine.speculative_ops,
        },
        "last_issued": [list(item) for item in machine._last_issued],
        "observation": next(
            (visits.state_dict() for visits in _region_visits(machine)), None
        ),
        "metrics": _metrics_state(machine.sink),
    }
    return _seal(
        ENGINE_VLIW, vliw_fingerprint(machine.program, machine.config), state
    )


def restore_vliw(
    document: dict,
    program: VLIWProgram,
    config: MachineConfig,
    *,
    fault_handler=None,
    max_cycles: int | None = None,
    sink: MetricsSink = NULL_SINK,
    tracer=None,
    path: str | Path | None = None,
) -> VLIWMachine:
    """Rebuild a machine from *document*, ready to continue bit-identically.

    *program* and *config* are the non-state inputs the snapshot was
    taken under; the fingerprint check fails loudly when they do not
    match.  *fault_handler*, *sink* and *tracer* are re-supplied by the
    caller (callables and observers do not serialize); a restored sink
    with ``load_state`` is preloaded with the captured counters so the
    continued run's final metrics equal an uninterrupted run's.
    """
    validate_snapshot(document, path=path)
    if document["engine"] != ENGINE_VLIW:
        raise CheckpointError(
            f"engine mismatch: snapshot is {document['engine']!r}, "
            f"expected {ENGINE_VLIW!r}",
            path,
        )
    expected = vliw_fingerprint(program, config)
    if document["fingerprint"] != expected:
        raise CheckpointError(
            "config fingerprint mismatch: snapshot was taken under a "
            "different program or machine configuration "
            f"(snapshot {document['fingerprint'][:12]}..., "
            f"here {expected[:12]}...)",
            path,
        )
    state = document["state"]
    kwargs = {} if max_cycles is None else {"max_cycles": max_cycles}
    machine = VLIWMachine(
        program,
        config,
        Memory.from_state(state["memory"]),
        fault_handler=fault_handler,
        sink=sink,
        tracer=tracer,
        **kwargs,
    )
    machine.pc = state["pc"]
    machine.rpc = state["rpc"]
    machine.epc = state["epc"]
    machine.cycle = state["cycle"]
    machine.mode = MachineMode(state["mode"])
    machine._stalls = state["stalls"]
    machine.ccr.load_state(state["ccr"])
    if state["future_ccr"] is None:
        machine.future_ccr = None
    else:
        machine.future_ccr = machine.ccr.clone()
        machine.future_ccr.load_state(state["future_ccr"])
    machine.regfile.load_state(state["regfile"])
    machine.store_buffer.load_state(state["store_buffer"])
    if state["btb"] is not None:
        if machine.btb is None:
            raise CheckpointError(
                "snapshot carries BTB state but this configuration "
                "models no BTB",
                path,
            )
        machine.btb.load_state(state["btb"])
    machine.output[:] = state["output"]
    machine._in_flight = [
        _InFlight(
            due_cycle=entry["due_cycle"],
            reg=entry["reg"],
            value=entry["value"],
            pred=parse_predicate(entry["pred"]),
            fault=(
                None
                if entry.get("fault") is None
                else FaultRecord.from_state(entry["fault"])
            ),
            # Pre-taint snapshots have no "taint" key: all-clear.
            taint=taint_from_state(entry.get("taint")),
        )
        for entry in state["in_flight"]
    ]
    stats = state["stats"]
    machine.bundles_issued = stats["bundles_issued"]
    machine.issued_ops = stats["issued_ops"]
    machine.recoveries = stats["recoveries"]
    machine.handled_faults = stats["handled_faults"]
    machine.squashed_ops = stats["squashed_ops"]
    machine.speculative_ops = stats["speculative_ops"]
    machine._last_issued = deque(
        (tuple(item) for item in state["last_issued"]),
        maxlen=machine._last_issued.maxlen,
    )
    observation = state.get("observation")
    if observation is not None:
        for visits in _region_visits(machine):
            visits.load_state(observation)
    _restore_metrics(sink, state.get("metrics"))
    return machine


# ----------------------------------------------------------------------
# Interpreter snapshots.
# ----------------------------------------------------------------------
def _uid_to_index(program: Program) -> dict[int, int]:
    return {
        instruction.uid: index
        for index, instruction in enumerate(program.instructions)
    }


def snapshot_interpreter(interpreter: Interpreter) -> dict:
    """Freeze the scalar interpreter at its current step boundary."""
    if interpreter.halted:
        raise CheckpointError(
            "interpreter already halted; nothing to resume"
        )
    trace = interpreter.trace
    uid_index = _uid_to_index(interpreter.program)
    state = {
        "pc": interpreter.pc,
        "steps": interpreter.steps,
        "scalar_cycles": interpreter.scalar_cycles,
        "handled_faults": interpreter.handled_faults,
        "registers": list(interpreter.registers),
        "cregs": list(interpreter.cregs),
        "output": list(interpreter.output),
        "memory": interpreter.memory.state_dict(),
        "last_load_dest": interpreter._last_load_dest,
        "recent_blocks": list(interpreter.recent_blocks),
        "started": interpreter._started,
        # Branch events carry instruction *uids*, which are process-local
        # identities; serialize them as instruction indices so a restore
        # under a freshly parsed (but textually identical) program maps
        # them back onto its own uids and the spliced trace stays
        # self-consistent for downstream consumers.
        "trace": (
            None
            if trace is None
            else {
                "blocks": list(trace.blocks),
                "branches": [
                    [event.block, uid_index[event.uid], event.taken]
                    for event in trace.branches
                ],
                "instruction_count": trace.instruction_count,
            }
        ),
        "metrics": _metrics_state(interpreter.sink),
    }
    return _seal(
        ENGINE_INTERPRETER,
        interpreter_fingerprint(interpreter.program),
        state,
    )


def restore_interpreter(
    document: dict,
    program: Program,
    *,
    cfg=None,
    fault_handler=None,
    max_steps: int | None = None,
    sink: MetricsSink = NULL_SINK,
    path: str | Path | None = None,
) -> Interpreter:
    """Rebuild an interpreter from *document* at its captured step."""
    validate_snapshot(document, path=path)
    if document["engine"] != ENGINE_INTERPRETER:
        raise CheckpointError(
            f"engine mismatch: snapshot is {document['engine']!r}, "
            f"expected {ENGINE_INTERPRETER!r}",
            path,
        )
    expected = interpreter_fingerprint(program)
    if document["fingerprint"] != expected:
        raise CheckpointError(
            "config fingerprint mismatch: snapshot was taken under a "
            "different program "
            f"(snapshot {document['fingerprint'][:12]}..., "
            f"here {expected[:12]}...)",
            path,
        )
    state = document["state"]
    if state["trace"] is not None and cfg is None:
        raise CheckpointError(
            "snapshot carries a dynamic trace; restore needs the same CFG",
            path,
        )
    kwargs = {} if max_steps is None else {"max_steps": max_steps}
    interpreter = Interpreter(
        program,
        Memory.from_state(state["memory"]),
        cfg=cfg,
        fault_handler=fault_handler,
        sink=sink,
        **kwargs,
    )
    interpreter.pc = state["pc"]
    interpreter.steps = state["steps"]
    interpreter.scalar_cycles = state["scalar_cycles"]
    interpreter.handled_faults = state["handled_faults"]
    interpreter.registers[:] = state["registers"]
    interpreter.cregs[:] = state["cregs"]
    interpreter.output[:] = state["output"]
    interpreter._last_load_dest = state["last_load_dest"]
    interpreter._started = state["started"]
    # ``recent_blocks`` needs no restore: it is the trace's tail.
    if state["trace"] is not None and interpreter.trace is not None:
        interpreter.trace.blocks = list(state["trace"]["blocks"])
        interpreter.trace.branches = [
            BranchEvent(block, program.instructions[index].uid, taken)
            for block, index, taken in state["trace"]["branches"]
        ]
        interpreter.trace.instruction_count = state["trace"][
            "instruction_count"
        ]
    _restore_metrics(sink, state.get("metrics"))
    return interpreter


# ----------------------------------------------------------------------
# Introspection (the ``repro ckpt inspect`` verb).
# ----------------------------------------------------------------------
def describe_snapshot(document: dict, *, hash_ok: bool = True) -> dict:
    """A JSON-ready summary of one snapshot for the inspect verb."""
    state = document.get("state", {})
    info: dict = {
        "schema": document.get("schema"),
        "engine": document.get("engine"),
        "fingerprint": document.get("fingerprint"),
        "hash_valid": hash_ok,
    }
    if document.get("engine") == ENGINE_VLIW:
        pending = state.get("regfile", {}).get("pending", {})
        info.update(
            {
                "cycle": state.get("cycle"),
                "pc": state.get("pc"),
                "mode": state.get("mode"),
                "rpc": state.get("rpc"),
                "epc": state.get("epc"),
                "shadow_occupancy": sum(
                    len(writes) for writes in pending.values()
                ),
                "store_buffer_occupancy": len(
                    state.get("store_buffer", {}).get("entries", [])
                ),
                "in_flight": len(state.get("in_flight", [])),
                "output_length": len(state.get("output", [])),
            }
        )
    elif document.get("engine") == ENGINE_INTERPRETER:
        info.update(
            {
                "steps": state.get("steps"),
                "scalar_cycles": state.get("scalar_cycles"),
                "pc": state.get("pc"),
                "output_length": len(state.get("output", [])),
            }
        )
    return info


def summary_line(document: dict, *, hash_ok: bool = True) -> str:
    """Grep-able one-line form of :func:`describe_snapshot` for CI."""
    info = describe_snapshot(document, hash_ok=hash_ok)
    if info.get("engine") == ENGINE_VLIW:
        position = f"cycle={info['cycle']} pc={info['pc']} mode={info['mode']}"
        occupancy = (
            f"shadow={info['shadow_occupancy']} "
            f"sb={info['store_buffer_occupancy']}"
        )
    else:
        position = f"steps={info['steps']} pc={info['pc']}"
        occupancy = f"out={info['output_length']}"
    return (
        f"ckpt engine={info['engine']} {position} {occupancy} "
        f"fingerprint={str(info['fingerprint'])[:12]} "
        f"hash={'ok' if info['hash_valid'] else 'INVALID'}"
    )
