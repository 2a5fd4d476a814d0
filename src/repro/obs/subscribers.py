"""The event-stream subscribers: counters (``MachineCounters``,
``ScalarCounters``), the Perfetto trace (``CycleTrace``), the flight
recorder and effect stream (``Forensics``, shared by both executors) and
the Table 1 log (``CycleEventLog``).  :func:`machine_observer` and
:func:`scalar_observer` build an executor's observer slot."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.exceptions import MachineMode
from repro.core.predicate import PredValue
from repro.core.regfile import CommitEvents
from repro.isa.printer import format_instruction
from repro.obs.events import Observer, combine

_RECOVERY = MachineMode.RECOVERY
_UNSPEC = PredValue.UNSPEC
_NO_COMMITS = CommitEvents()
_REGION_STATE = ("current_region", "region_entry_cycle", "recovery_entry_cycle")


def _pred_text(pred) -> str | None:
    return None if pred is None or pred.is_always else str(pred)


class RegionVisits(Observer):
    """The region PC is in and the open recovery episode: the tracer draws
    each closed visit; the counters keep the same state so a counted
    run's checkpoint is the same document with or without a tracer."""

    def __init__(self, program) -> None:
        self._region_of = program.bundle_regions
        self._labels = [span.label for span in program.regions]
        self.current_region: int | None = None
        self.region_entry_cycle = 0
        self.recovery_entry_cycle: int | None = None

    def _closed(self, track: str, name: str, start: int, end: int) -> None:
        """A region visit or recovery episode ended."""

    def _enter(self, region: int, cycle: int) -> None:
        if self.current_region is not None:
            label = self._labels[self.current_region]
            self._closed("region", label, self.region_entry_cycle, cycle)
        self.current_region = region
        self.region_entry_cycle = cycle

    def cycle(self, m) -> None:
        region = self._region_of[m.pc]
        if region != self.current_region:
            self._enter(region, m.cycle)

    def recovery_enter(self, m) -> None:
        self.recovery_entry_cycle = m.cycle

    def recovery_exit(self, m) -> None:
        if self.recovery_entry_cycle is not None:
            self._closed("mode", "recovery", self.recovery_entry_cycle, m.cycle + 1)
            self.recovery_entry_cycle = None

    def halt(self, m) -> None:
        if self.current_region is not None:
            self._enter(None, m.cycle + 1)
        self.recovery_exit(m)

    def state_dict(self) -> dict:
        """The checkpoint's ``observation`` block."""
        return {name: getattr(self, name) for name in _REGION_STATE}

    def load_state(self, state: dict) -> None:
        for name in _REGION_STATE:
            setattr(self, name, state[name])


class MachineCounters(RegionVisits):
    """The machine's counters and occupancy histograms.  A transfer's
    penalty cycles go to the departing region (PC is still the source)."""

    def __init__(self, sink, program) -> None:
        super().__init__(program)
        self.sink = sink
        self._provenance = program.provenance

    def _occupancy(self, m) -> None:
        """Both buffers' occupancy, sampled before a commit tick."""
        self.sink.observe("regfile.shadow_occupancy", m.regfile.shadow_occupancy())
        self.sink.observe("storebuffer.occupancy", len(m.store_buffer.entries))

    def cycle(self, m) -> None:
        region = self._region_of[m.pc]
        if region != self.current_region:
            self._enter(region, m.cycle)
        self.sink.count("machine.cycles")
        self.sink.count(f"region.cycles/{self._labels[region]}")
        if m.mode is _RECOVERY:
            self.sink.count("machine.recovery.cycles")
        self._occupancy(m)

    def issue(self, m) -> None:
        sink, pc = self.sink, m.pc
        label = self._labels[self._region_of[pc]]
        width = len(m.program.bundles[pc].ops)
        sink.count("machine.bundles")
        sink.count("machine.ops.issued", width)
        sink.count(f"region.bundles/{label}")
        sink.count(f"region.ops/{label}", width)
        sink.observe("machine.issue_slots", width)
        if self._provenance is not None:
            for origin in self._provenance[pc]:
                sink.count(f"block.ops/B{origin}")

    def op(self, m, op, verdict) -> None:
        if verdict is None:
            self.sink.count("machine.ops.squashed")
        elif verdict is _UNSPEC:
            self.sink.count("machine.ops.speculative")

    def stall(self, m) -> None:
        self.sink.count("machine.stall_cycles")

    def tick(self, m, rf_events, sb_events) -> None:
        self.sink.count("regfile.commits", len(rf_events.committed))
        self.sink.count("regfile.squashes", len(rf_events.squashed))
        self._buffer_counts(sb_events)

    def _buffer_counts(self, sb_events) -> None:
        sink = self.sink
        sink.count("storebuffer.commits", len(sb_events.committed))
        sink.count("storebuffer.squashes", len(sb_events.squashed))
        sink.count("storebuffer.retired_stores", len(sb_events.retired_stores))
        sink.count("storebuffer.retired_outputs", len(sb_events.retired_outputs))

    def ccr_set(self, m, index, value) -> None:
        self.sink.count("machine.ccr_sets")

    def fault_handled(self, m, fault, pred) -> None:
        self.sink.count("machine.faults.handled")

    def recovery_enter(self, m) -> None:
        self.sink.count("machine.recovery.entries")
        self.recovery_entry_cycle = m.cycle

    def transfer(self, m, target, destination, penalty, btb_hit) -> None:
        if btb_hit is not None:
            self.sink.count("btb.hits" if btb_hit else "btb.misses")
        if penalty:
            label = self._labels[self._region_of[m.pc]]
            self.sink.count("machine.cycles", penalty)
            self.sink.count("machine.transfer_penalty_cycles", penalty)
            self.sink.count(f"region.cycles/{label}", penalty)

    def halt(self, m) -> None:
        self._occupancy(m)

    def drain(self, m, ticks) -> None:
        for occupancy, sb_events in ticks:
            self.sink.observe("storebuffer.occupancy", occupancy)
            self._buffer_counts(sb_events)


class ScalarCounters(Observer):
    """The interpreter's ``scalar.*`` counters."""

    def __init__(self, sink) -> None:
        self.sink = sink

    def issue(self, m) -> None:
        self.sink.count("scalar.instructions")
        self.sink.count("scalar.cycles")

    def interlock(self, m) -> None:
        self.sink.count("scalar.cycles")
        self.sink.count("scalar.load_use_stalls")

    def transfer(self, m, target, destination, penalty, btb_hit) -> None:
        self.sink.count("scalar.cycles")
        self.sink.count("scalar.taken_transfers")

    def fault_handled(self, m, fault, pred) -> None:
        self.sink.count("scalar.faults.handled")


class CycleTrace(RegionVisits):
    """Issued operations, CCR sets, region visits and recovery episodes
    on a :class:`~repro.obs.trace_events.CycleTraceRecorder`."""

    def __init__(self, tracer, program) -> None:
        super().__init__(program)
        self.tracer = tracer

    def _closed(self, track: str, name: str, start: int, end: int) -> None:
        self.tracer.span(track, name, start, end)

    def op(self, m, op, verdict) -> None:
        squashed = verdict is None
        args = {
            "instr": format_instruction(op),
            "pred": str(op.pred),
            "verdict": "SQUASHED" if squashed else verdict.name,
            "pc": m.pc,
        }
        duration = 1 if squashed else op.latency
        self.tracer.op(m.cycle, op.fu.value, op.opcode, duration=duration, args=args)

    def ccr_set(self, m, index, value) -> None:
        self.tracer.instant(m.cycle, "ccr", f"c{index}={int(value)}")


class Forensics(Observer):
    """Flight records and committed effects (emitted only at commit
    points), stamped by :meth:`_where` with cycle, pc and region."""

    def __init__(self, flight, effects) -> None:
        self.flight = flight if flight.enabled else None
        self.effects = effects

    def _where(self, m) -> tuple[int, int, str | None]:
        raise NotImplementedError

    def _record(self, m, kind: str, detail: str, pred: str | None = None) -> None:
        if self.flight is not None:
            cycle, pc, region = self._where(m)
            self.flight.record(cycle, pc, region, kind, detail, pred)

    def sequential_write(self, m, reg, value, pred) -> None:
        if reg == 0:
            return
        cycle, pc, region = self._where(m)
        pred = None if pred is None or pred.is_always else str(pred)
        if self.flight is not None:
            self.flight.record(cycle, pc, region, "reg.write", f"r{reg} = {value}", pred)
        if self.effects is not None:
            self.effects.emit_reg(reg, value, cycle=cycle, pc=pc, region=region, pred=pred)

    def ccr_set(self, m, index, value) -> None:
        self._record(m, "ccr.write", f"c{index} = {int(value)}")

    def _fault(self, m, kind: str, fault, pred) -> None:
        cycle, pc, region = self._where(m)
        pred = _pred_text(pred)
        address = fault.address
        if self.flight is not None:
            where = "?" if address is None else address
            self.flight.record(cycle, pc, region, kind, f"{fault.kind.value}@{where}", pred)
        if kind == "fault.handled" and self.effects is not None:
            self.effects.emit_fault(
                fault.kind.value, -1 if address is None else address,
                cycle=cycle, pc=pc, region=region, pred=pred,
            )

    def fault_handled(self, m, fault, pred) -> None:
        self._fault(m, "fault.handled", fault, pred)

    def fault_unhandled(self, m, fault, pred) -> None:
        self._fault(m, "fault.unhandled", fault, pred)


class MachineForensics(Forensics):
    """The machine's records: issue, write-backs, commit ticks, store
    buffer traffic, faults, recovery, transfers and the halt drain."""

    def __init__(self, flight, effects, program) -> None:
        super().__init__(flight, effects)
        self._labels = [program.regions[index].label for index in program.bundle_regions]
        self._region_starts = program.region_starts()

    def _where(self, m) -> tuple[int, int, str | None]:
        pc, labels = m.pc, self._labels
        return m.cycle, pc, labels[pc] if 0 <= pc < len(labels) else None

    def issue(self, m) -> None:
        if self.flight is not None:
            ops = "; ".join(format_instruction(op) for op in m.program.bundles[m.pc])
            mode = "[recovery] " if m.mode is _RECOVERY else ""
            self._record(m, "issue", f"{mode}{ops}")

    def tick(self, m, rf_events, sb_events) -> None:
        cycle, pc, region = self._where(m)
        flight, effects = self.flight, self.effects
        if flight is not None:
            for reg in rf_events.squashed:
                flight.record(cycle, pc, region, "reg.squash", f"r{reg}")
            for serial in sb_events.committed:
                flight.record(cycle, pc, region, "sb.commit", f"entry {serial}")
            for serial in sb_events.squashed:
                flight.record(cycle, pc, region, "sb.squash", f"entry {serial}")
        for reg, value in rf_events.committed_values:
            if flight is not None:
                flight.record(cycle, pc, region, "reg.commit", f"r{reg} = {value}")
            if effects is not None:
                effects.emit_reg(reg, value, cycle=cycle, pc=pc, region=region)
        for address, value in sb_events.retired_stores:
            if flight is not None:
                flight.record(cycle, pc, region, "sb.retire", f"mem[{address}] = {value}")
            if effects is not None:
                effects.emit_mem(address, value, cycle=cycle, pc=pc, region=region)
        for value in sb_events.retired_outputs:
            if flight is not None:
                flight.record(cycle, pc, region, "sb.retire", f"out {value}")
            if effects is not None:
                effects.emit_out(value, cycle=cycle, pc=pc, region=region)

    def shadow_write(self, m, reg, value, pred) -> None:
        if reg != 0:
            self._record(m, "reg.shadow", f"r{reg} = {value}", _pred_text(pred))

    flush_write = Forensics.sequential_write

    def sb_insert(self, m, serial, address, value, pred) -> None:
        what = "out" if address is None else f"mem[{address}] ="
        self._record(m, "sb.insert", f"entry {serial}: {what} {value}", _pred_text(pred))

    def sb_lookup(self, m, address, forwarded, pred) -> None:
        outcome = "miss" if forwarded is None else f"hit {forwarded}"
        self._record(m, "sb.lookup", f"mem[{address}] {outcome}", _pred_text(pred))

    def fault_buffered(self, m, fault, pred) -> None:
        self._fault(m, "fault.buffer", fault, pred)

    def recovery_enter(self, m) -> None:
        self._record(m, "recovery.enter", f"rollback to rpc={m.rpc}, epc={m.epc}")

    def recovery_exit(self, m) -> None:
        self._record(m, "recovery.exit", f"resume at pc={m.pc}")

    def transfer(self, m, target, destination, penalty, btb_hit) -> None:
        kind = "region" if destination in self._region_starts else "local"
        self._record(m, "transfer", f"{kind} -> {target} (pc={destination})")

    def drain(self, m, ticks) -> None:
        for _, sb_events in ticks:
            self.tick(m, _NO_COMMITS, sb_events)
        self._record(m, "halt", "store buffer drained")


class ScalarForensics(Forensics):
    """The interpreter's records: every write is architectural at once."""

    def _where(self, m) -> tuple[int, int, str | None]:
        return m.scalar_cycles, m.pc, m.region_name()

    def issue(self, m) -> None:
        if self.flight is not None:
            cycle, pc, region = self._where(m)
            op = format_instruction(m.program.instructions[pc])
            self.flight.record(cycle, pc, region, "issue", op)

    def transfer(self, m, target, destination, penalty, btb_hit) -> None:
        self._record(m, "transfer", f"-> pc={destination}")

    def store(self, m, address, value) -> None:
        self._record(m, "mem.store", f"mem[{address}] = {value}")
        if self.effects is not None:
            cycle, pc, region = self._where(m)
            self.effects.emit_mem(address, value, cycle=cycle, pc=pc, region=region)

    def output(self, m, value) -> None:
        self._record(m, "out", f"out {value}")
        if self.effects is not None:
            cycle, pc, region = self._where(m)
            self.effects.emit_out(value, cycle=cycle, pc=pc, region=region)


@dataclass
class CycleEvents:
    """What one cycle did -- the rows of the paper's Table 1."""

    cycle: int
    sequential_writes: list[int] = field(default_factory=list)
    speculative_writes: list[tuple[str, str]] = field(default_factory=list)
    committed: list[str] = field(default_factory=list)
    squashed: list[str] = field(default_factory=list)
    ccr_sets: list[tuple[int, bool]] = field(default_factory=list)


class CycleEventLog(Observer):
    """One :class:`CycleEvents` row per cycle.  The halt-time tick and
    drain belong to no row, and early completions are not rows."""

    def __init__(self, events: list[CycleEvents]) -> None:
        self.events = events
        self._row: CycleEvents | None = None

    def cycle(self, m) -> None:
        self._row = CycleEvents(cycle=m.cycle)
        self.events.append(self._row)

    def tick(self, m, rf_events, sb_events) -> None:
        row = self._row
        if row is None:
            return
        if rf_events.committed:
            row.committed += [f"r{reg}" for reg in rf_events.committed]
        if rf_events.squashed:
            row.squashed += [f"r{reg}" for reg in rf_events.squashed]
        if sb_events.committed:
            row.committed += [f"sb{serial}" for serial in sb_events.committed]
        if sb_events.squashed:
            row.squashed += [f"sb{serial}" for serial in sb_events.squashed]

    def shadow_write(self, m, reg, value, pred) -> None:
        self._row.speculative_writes.append((f"r{reg}", str(pred)))

    def sequential_write(self, m, reg, value, pred) -> None:
        self._row.sequential_writes.append(reg)

    def sb_insert(self, m, serial, address, value, pred) -> None:
        if address is not None and pred is not None:
            self._row.speculative_writes.append((f"sb{serial}", str(pred)))

    def ccr_set(self, m, index, value) -> None:
        self._row.ccr_sets.append((index, value))

    def halt(self, m) -> None:
        self._row = None


def machine_observer(program, *, sink, tracer, flight, effects, events):
    """The machine's slot (*events*: the Table 1 list to fill, or None)."""
    subscribers: list[Observer] = []
    if sink.enabled:
        subscribers.append(MachineCounters(sink, program))
    if tracer is not None:
        subscribers.append(CycleTrace(tracer, program))
    if flight.enabled or effects is not None:
        subscribers.append(MachineForensics(flight, effects, program))
    if events is not None:
        subscribers.append(CycleEventLog(events))
    return combine(subscribers)


def scalar_observer(*, sink, flight, effects):
    """The interpreter's slot."""
    subscribers: list[Observer] = []
    if sink.enabled:
        subscribers.append(ScalarCounters(sink))
    if flight.enabled or effects is not None:
        subscribers.append(ScalarForensics(flight, effects))
    return combine(subscribers)
