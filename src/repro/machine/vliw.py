"""The predicating VLIW machine (Figure 1), cycle by cycle.

Each cycle proceeds in the order the paper's Table 1 walkthrough implies:

1. **Commit tick** -- the per-entry hardware of the predicated register
   file and store buffer re-evaluates every buffered predicate against the
   CCR (whose conditions were updated at the end of the previous cycle)
   and commits or squashes buffered state.  Valid non-speculative store
   buffer heads retire to the D-cache.
2. **Issue** -- the bundle at PC issues.  The control path evaluates each
   operation's predicate: TRUE executes non-speculatively, FALSE squashes
   at issue, UNSPEC executes speculatively (results are routed to the
   speculative state at writeback).  Control transfers must be specified
   at issue.
3. **End of cycle** -- condition-set results update the CCR; then the
   *combinational* exception check runs: if any buffered E flag's
   predicate became TRUE, the CCR update is suppressed (the new value goes
   to the future CCR), all speculative state is invalidated, and the
   machine rolls back to the RPC in recovery mode (Section 3.5).
   Otherwise due writebacks are applied (each re-evaluating its predicate:
   TRUE to the sequential state, UNSPEC to the shadow, FALSE discarded)
   and a taken transfer updates PC, resets the CCR and records the RPC.

**Recovery mode** issues the same bundles from the RPC, squashing every
instruction whose predicate is decided (TRUE or FALSE) by the *current
condition* held in the CCR, and re-executing the rest speculatively.  A
fault re-raised during recovery is decided against the *future condition*:
TRUE invokes the fault handler (which repairs state; the access then
retries), FALSE is ignored, UNSPEC is buffered again.  Recovery ends after
re-issuing the commit-point bundle (EPC); the future condition is then
copied into the CCR and normal execution resumes at EPC+1.

Two deliberate timing simplifications, both documented in DESIGN.md:

* a *faulting* speculative operation buffers its E flag at the end of its
  issue cycle rather than after its full latency, so exception commits are
  always detected by the combinational check (faults are rare; this does
  not perturb the non-faulting timing the evaluation measures);
* at a recovery trigger or region transfer, in-flight results whose
  predicate is TRUE under the pre-trigger CCR complete immediately, and
  the remainder are discarded.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Callable
from dataclasses import dataclass

from repro.core.ccr import CCR
from repro.core.exceptions import (
    FaultKind,
    FaultRecord,
    MachineMode,
    ScheduleViolation,
    UnhandledFault,
)
from repro.core.predicate import ALWAYS, PredValue, Predicate
from repro.core.regfile import PredicatedRegisterFile
from repro.core.store_buffer import PredicatedStoreBuffer
from repro.isa.decode import (
    ALU,
    BRANCH,
    COND,
    HALT,
    JUMP,
    LOAD,
    OUT,
    STORE,
    DecodedOp,
)
from repro.isa.opcodes import FuClass
from repro.isa.registers import NUM_REGS
from repro.isa.semantics import (
    I64_MAX,
    I64_MIN,
    ArithmeticFault,
    effective_address,
    to_i64,
)
from repro.isa.printer import format_instruction
from repro.machine.btb import BranchTargetBuffer
from repro.machine.config import MachineConfig
from repro.machine.program import VLIWProgram
from repro.obs.diagnostics import (
    SNAPSHOT_BUNDLES,
    IssuedBundle,
    MachineAbort,
    MachineSnapshot,
    ProgramOverrun,
    StoreBufferDeadlock,
)
from repro.obs.effects import EffectStream
from repro.obs.flight import NULL_RECORDER, FlightRecorder
from repro.obs.metrics import NULL_SINK, MetricsSink
from repro.obs.subscribers import CycleEvents, machine_observer
from repro.obs.trace_events import CycleTraceRecorder
from repro.sim.memory import Memory, MemoryFault
from repro.taint.tags import TaintTag, merge_taint, rekind_address
from repro.taint.track import NULL_TAINT, TaintTracker

FaultHandler = Callable[[FaultRecord, "VLIWMachine"], bool]

DEFAULT_MAX_CYCLES = 50_000_000
_MAX_CONSECUTIVE_STALLS = 1_000

_TRUE = PredValue.TRUE
_UNSPEC = PredValue.UNSPEC


@dataclass(slots=True)
class _InFlight:
    """A result waiting for its writeback cycle.

    A faulting speculative access flies with its E flag attached so the
    writeback lands in the shadow regfile at the same cycle a clean
    access would -- landing it early would let an earlier-in-program-order
    write from the same bundle supersede it in the wrong direction.
    """

    due_cycle: int
    reg: int
    value: int
    pred: Predicate
    fault: FaultRecord | None = None
    taint: frozenset[TaintTag] | None = None


@dataclass
class VLIWResult:
    """Architectural outcome of one VLIW run."""

    output: list[int]
    registers: tuple[int, ...]
    memory: Memory
    cycles: int
    bundles_issued: int
    _issued_ops: int
    recoveries: int
    handled_faults: int
    squashed_ops: int
    speculative_ops: int

    @property
    def architectural_output(self) -> tuple[int, ...]:
        return tuple(self.output)

    @property
    def ipc(self) -> float:
        """Useful operations per cycle (squashed issues excluded)."""
        if self.cycles == 0:
            return 0.0
        return (self.useful_ops) / self.cycles

    @property
    def useful_ops(self) -> int:
        """Issued operations that were not squashed at issue."""
        return max(0, self._issued_ops - self.squashed_ops)


class VLIWMachine:
    """In-order N-issue machine with predicated state buffering."""

    def __init__(
        self,
        program: VLIWProgram,
        config: MachineConfig,
        memory: Memory | None = None,
        *,
        fault_handler: FaultHandler | None = None,
        max_cycles: int = DEFAULT_MAX_CYCLES,
        record_events: bool = False,
        sink: MetricsSink = NULL_SINK,
        tracer: CycleTraceRecorder | None = None,
        flight: FlightRecorder = NULL_RECORDER,
        effects: EffectStream | None = None,
        taint: TaintTracker = NULL_TAINT,
    ):
        program.validate()
        self.program = program
        self.config = config
        self.memory = memory if memory is not None else Memory()
        self.fault_handler = fault_handler
        self.max_cycles = max_cycles
        self.sink = sink
        self.tracer = tracer
        self.flight = flight
        self.effects = effects
        self.taint = taint

        self.ccr = CCR(config.ccr_entries)
        self.regfile = PredicatedRegisterFile(
            NUM_REGS, shadow_capacity=config.shadow_capacity
        )
        self.store_buffer = PredicatedStoreBuffer(config.store_buffer_capacity)
        self.output: list[int] = []

        self.pc = 0
        self.rpc = 0
        self.cycle = 0
        self.mode = MachineMode.NORMAL
        self.future_ccr: CCR | None = None
        self.epc: int | None = None

        self._in_flight: list[_InFlight] = []
        self._region_starts = program.region_starts()
        # Decode once: every bundle becomes a list of issue-ready records
        # (kind, semantics, operands, resolved target, predicate bits),
        # so issue never re-derives an instruction's facts.
        resolve = program.resolve
        self._decoded = [
            [DecodedOp(op, resolve) for op in bundle]
            for bundle in program.bundles
        ]
        # Store-buffer demand per bundle is static: precompute it so the
        # per-cycle stall check is two comparisons, not an opcode scan.
        self._bundle_store_ops = [
            sum(1 for rec in bundle if rec.kind == STORE or rec.kind == OUT)
            for bundle in self._decoded
        ]
        # Conservative "might a speculative fault be buffered?" flag.
        # Faults are rare; ``_exception_commits`` short-circuits on this
        # and re-scans (self-clearing it) only while it is raised.  Any
        # code that plants an E flag outside the machine's own buffering
        # paths (e.g. the fault injector) must raise it again.
        self._maybe_fault = True
        self._btb = (
            BranchTargetBuffer(config.btb_entries)
            if config.btb_entries is not None
            else None
        )

        # The event stream's one observer slot (``repro.obs.events``):
        # the attached sink, tracer, flight recorder, effect stream and
        # Table 1 log (``events``), or None when nothing is attached.
        self.events: list[CycleEvents] = []
        self.record_events = record_events
        self._obs = machine_observer(
            program, sink=sink, tracer=tracer, flight=flight, effects=effects,
            events=self.events if record_events else None,
        )
        # Taint is a propagation layer, not a subscriber: one cached bool.
        self._taint = taint.enabled
        self._last_issued: deque[tuple[int, int]] = deque(
            maxlen=SNAPSHOT_BUNDLES
        )

        # Statistics.
        self.bundles_issued = 0
        self.issued_ops = 0
        self.recoveries = 0
        self.handled_faults = 0
        self.squashed_ops = 0
        self.speculative_ops = 0

        # Run-loop state.  Promoted from locals of ``run`` so that a
        # checkpoint between any two :meth:`step` calls captures the
        # complete machine (the consecutive-stall count survives a
        # save/restore mid-stall).
        self._stalls = 0
        self._halted = False
        self._result: VLIWResult | None = None

        self._check_resources()

    @property
    def btb(self) -> BranchTargetBuffer | None:
        """The finite BTB, when the config models one."""
        return self._btb

    # ------------------------------------------------------------------
    # Static checks.
    # ------------------------------------------------------------------
    def _check_resources(self) -> None:
        """Reject schedules that oversubscribe the machine's resources."""
        for index, bundle in enumerate(self.program.bundles):
            if len(bundle) > self.config.issue_width:
                raise ScheduleViolation(
                    f"bundle {index} exceeds issue width: {len(bundle)}"
                )
            usage: dict[FuClass, int] = {}
            for op in bundle:
                usage[op.fu] = usage.get(op.fu, 0) + 1
            for fu, used in usage.items():
                limit = self.config.fu_count(fu)
                if limit is not None and used > limit:
                    raise ScheduleViolation(
                        f"bundle {index} oversubscribes {fu.value}: {used} > {limit}"
                    )

    # ------------------------------------------------------------------
    # Main loop.
    # ------------------------------------------------------------------
    def run(self) -> VLIWResult:
        while self.step():
            pass
        return self.result()

    def step(self) -> bool:
        """Advance the machine by one cycle.

        Returns True while the machine is still running; the first call
        that executes the halting bundle finalizes the run (drains the
        store buffer, closes observation) and returns False, as does any
        call after halt.  ``step`` boundaries are exactly the machine's
        cycle boundaries, which is what makes the checkpoint layer's
        save-anywhere guarantee well-defined.
        """
        if self._halted:
            return False
        if self.cycle >= self.max_cycles:
            raise MachineAbort(
                f"{self.program.name}: exceeded {self.max_cycles} cycles",
                self.snapshot(),
            )
        if self.pc >= len(self.program.bundles):
            raise ProgramOverrun(
                "ran off the end of the program", self.snapshot()
            )

        self.cycle += 1
        obs = self._obs
        if obs is not None:
            obs.cycle(self)
        self._tick()

        needs_buffer = self._bundle_store_ops[self.pc]
        if needs_buffer and (
            len(self.store_buffer.entries) + needs_buffer
            > self.store_buffer.capacity
        ):
            self._stalls += 1
            if obs is not None:
                obs.stall(self)
            if self._stalls > _MAX_CONSECUTIVE_STALLS:
                raise StoreBufferDeadlock(
                    "store buffer deadlock", self.snapshot()
                )
            if self._in_flight:
                self._apply_due_writebacks(self.ccr)
            return True
        self._stalls = 0

        if self._issue_and_finish(self._decoded[self.pc]):
            self._finalize()
            return False
        return True

    @property
    def halted(self) -> bool:
        return self._halted

    def _finalize(self) -> None:
        self._halted = True
        self._drain_at_halt()
        self._result = VLIWResult(
            output=list(self.output),
            registers=self.regfile.sequential_snapshot(),
            memory=self.memory,
            cycles=self.cycle,
            bundles_issued=self.bundles_issued,
            _issued_ops=self.issued_ops,
            recoveries=self.recoveries,
            handled_faults=self.handled_faults,
            squashed_ops=self.squashed_ops,
            speculative_ops=self.speculative_ops,
        )

    def result(self) -> VLIWResult:
        """The architectural outcome; only available once halted."""
        if self._result is None:
            raise RuntimeError("machine has not halted yet")
        return self._result

    def _tick(self) -> None:
        """The commit tick, at the top of every cycle (the fault injector
        overrides it to corrupt buffered state just before the tick)."""
        # Quiet cycle: nothing buffered anywhere, so the commit hardware
        # has nothing to evaluate.
        if not (self.regfile.occupied or self.store_buffer.entries):
            return
        rf_events = self.regfile.tick(self.ccr)
        sb_events = self.store_buffer.tick(self.ccr, self.memory, self.output)
        if self._obs is not None:
            self._obs.tick(self, rf_events, sb_events)
        if self._taint and rf_events.committed:
            # Shadow entries confirmed TRUE moved to sequential storage
            # with their taint declassified (the committed value equals
            # sequential execution's); drop any stale sequential taint.
            reg_taint = self.taint.reg_taint
            for reg in rf_events.committed:
                reg_taint.pop(reg, None)
        if self._taint and (rf_events.declassified or sb_events.declassified):
            self.taint.declassify(
                rf_events.declassified + sb_events.declassified
            )
        if rf_events.detected_faults or sb_events.detected_faults:
            # The combinational end-of-cycle check catches every commit of a
            # buffered E flag before the tick can see it.
            raise AssertionError(
                "exception commit escaped the combinational check"
            )

    # ------------------------------------------------------------------
    # Observability.
    # ------------------------------------------------------------------
    def snapshot(self) -> MachineSnapshot:
        """The machine's current state, for abort diagnostics."""
        recent = tuple(
            IssuedBundle(
                cycle=cycle,
                pc=pc,
                ops=tuple(
                    format_instruction(op) for op in self.program.bundles[pc]
                ),
            )
            for cycle, pc in self._last_issued
        )
        return MachineSnapshot(
            cycle=self.cycle,
            pc=self.pc,
            mode=self.mode.value,
            rpc=self.rpc,
            epc=self.epc,
            shadow_occupancy=self.regfile.shadow_occupancy(),
            store_buffer_occupancy=len(self.store_buffer),
            in_flight=len(self._in_flight),
            last_bundles=recent,
        )

    # ------------------------------------------------------------------
    # Issue.
    # ------------------------------------------------------------------
    def _issue_and_finish(self, bundle: list[DecodedOp]) -> bool:
        """Issue *bundle*, run end-of-cycle steps; returns True on halt."""
        self.bundles_issued += 1
        self.issued_ops += len(bundle)
        self._last_issued.append((self.cycle, self.pc))
        obs = self._obs
        on_op = None
        if obs is not None:
            obs.issue(self)
            on_op = obs.op
        in_recovery = self.mode is MachineMode.RECOVERY
        ccr = self.ccr
        regfile = self.regfile
        entries = regfile.entries
        pending_ccr: list[tuple[int, bool]] = []
        pending_transfer: DecodedOp | None = None
        halted = False

        for rec in bundle:
            # The control path (Figure 1): the predicate's masked match
            # against the CCR.  UNSPEC executes speculatively, FALSE
            # squashes at issue, and recovery squashes everything the
            # current condition decides.
            care = rec.care
            if care & ~ccr.spec:
                if rec.strict:
                    raise ScheduleViolation(self._unspec_message(rec))
                speculative = True
                self.speculative_ops += 1
            elif in_recovery or (ccr.val ^ rec.bits) & care:
                self.squashed_ops += 1
                if on_op is not None:
                    on_op(self, rec.op, None)
                continue
            else:
                speculative = False
            if on_op is not None:
                on_op(self, rec.op, _UNSPEC if speculative else _TRUE)

            kind = rec.kind
            if kind == ALU:
                # The hot path: operand fetch inlined.  A ``.s`` source
                # with nothing buffered falls back to the sequential
                # storage, exactly as :meth:`PredicatedRegisterFile.read`.
                reg = rec.src0
                if reg is None:
                    a = rec.imm
                elif rec.shadow0 and entries[reg].pending:
                    a = regfile.read(reg, shadow=True, reader_pred=rec.pred)
                else:
                    a = entries[reg].sequential
                try:
                    if rec.unary:
                        value = rec.fn(a)
                    else:
                        reg = rec.src1
                        if reg is None:
                            b = rec.imm
                        elif rec.shadow1 and entries[reg].pending:
                            b = regfile.read(
                                reg, shadow=True, reader_pred=rec.pred
                            )
                        else:
                            b = entries[reg].sequential
                        value = rec.fn(a, b)
                except ArithmeticFault as error:
                    self._handle_fault(
                        rec,
                        speculative,
                        FaultRecord(
                            kind=FaultKind.ARITHMETIC,
                            instruction_uid=rec.op.uid,
                            detail=str(error),
                        ),
                        retry=lambda: self._compute(rec),
                    )
                    continue
                if not I64_MIN <= value <= I64_MAX:
                    value = to_i64(value)
                self._schedule_writeback(
                    rec,
                    value,
                    speculative,
                    taint=self._operand_taint(rec) if self._taint else None,
                )
            elif kind == LOAD:
                self._execute_load(rec, speculative)
            elif kind == COND:
                if self._taint:
                    taint = self._operand_taint(rec)
                    if taint is not None:
                        # Propagation, not (by default) a leak: compiled
                        # condition-sets are re-predicated ``alw`` yet keep
                        # their home path, so they legitimately read shadow
                        # state of unresolved speculative loads.
                        self.taint.ccr_write(
                            rec.creg,
                            taint,
                            self.cycle,
                            self.pc,
                            self.program.region_at(self.pc),
                        )
                pending_ccr.append((rec.creg, self._compute(rec)))
            elif kind == JUMP or kind == BRANCH:
                if kind == BRANCH:
                    condition = ccr.get(rec.creg)
                    if condition is None:
                        raise ScheduleViolation(
                            f"branch on unspecified condition: {rec.op}"
                        )
                    if condition is not rec.sense:
                        continue
                if pending_transfer is not None:
                    raise ScheduleViolation("two taken transfers in one bundle")
                pending_transfer = rec
            elif kind == STORE:
                self._execute_store(rec, speculative)
            elif kind == OUT:
                self._execute_out(rec, speculative)
            elif kind == HALT:
                halted = True
            # NOP: nothing to do.

        # ---- end of cycle -------------------------------------------------
        # A separate next-state register is only needed when a buffered
        # fault could commit under it; otherwise condition-set results
        # land in the live register directly.
        check_faults = self._maybe_fault and self.mode is MachineMode.NORMAL
        ccr_next = ccr
        if pending_ccr:
            if check_faults:
                ccr_next = ccr.clone()
            for index, value in pending_ccr:
                ccr_next.set(index, value)
                if obs is not None:
                    obs.ccr_set(self, index, value)

        if check_faults and self._exception_commits(ccr_next):
            # The future CCR must be a private instance even when no
            # condition was set this cycle (CCR-corruption injection can
            # commit an E flag under the *unchanged* register).
            if ccr_next is ccr:
                ccr_next = ccr.clone()
            self._enter_recovery(ccr_next)
            return False

        if ccr_next is not ccr:
            ccr.copy_from(ccr_next)
        if self._in_flight:
            self._apply_due_writebacks(ccr)

        if self.mode is MachineMode.RECOVERY and self.pc == self.epc:
            self._finish_recovery()
            return False

        if halted:
            return True

        if pending_transfer is not None:
            self._transfer(pending_transfer)
        else:
            self.pc += 1
        return False

    @staticmethod
    def _unspec_message(rec: DecodedOp) -> str:
        if rec.kind == COND:
            return f"condition-set issued with unspecified predicate: {rec.op}"
        return f"control transfer issued with unspecified predicate: {rec.op}"

    def _compute(self, rec: DecodedOp) -> int | bool:
        """Evaluate an ALU or condition-set op from freshly read operands."""
        values = self._source_values(rec)
        if rec.kind == COND:
            return rec.fn(*values)
        return to_i64(rec.fn(*values))

    def _execute_out(self, rec: DecodedOp, speculative: bool) -> None:
        value = self._read_src(rec, 0)
        taint = None
        if self._taint:
            taint = self._sink_taint(
                rec,
                self._src_taint(rec, 0),
                speculative,
                "output",
                f"out {value}",
            )
        serial = self.store_buffer.append(
            None, value, rec.pred, speculative=speculative, taint=taint
        )
        if self._obs is not None:
            self._obs.sb_insert(
                self, serial, None, value, rec.pred if speculative else None
            )

    def _execute_load(self, rec: DecodedOp, speculative: bool) -> None:
        address = effective_address(self._read_src(rec, 0), rec.imm)
        reader_pred = rec.pred if speculative else ALWAYS
        forwarded = self.store_buffer.lookup(address, reader_pred)
        if self._obs is not None:
            self._obs.sb_lookup(
                self, address, forwarded, rec.pred if speculative else None
            )
        if forwarded is None:
            try:
                value = self.memory.load(address)
            except MemoryFault as error:
                self._handle_fault(
                    rec,
                    speculative,
                    FaultRecord(
                        kind=FaultKind.MEMORY,
                        instruction_uid=rec.op.uid,
                        address=error.address,
                        detail=str(error),
                    ),
                    retry=lambda: self.memory.load(address),
                )
                return
        else:
            value = forwarded
        self._schedule_writeback(
            rec,
            value,
            speculative,
            taint=(
                self._load_taint(rec, address, reader_pred, speculative)
                if self._taint
                else None
            ),
        )

    def _execute_store(self, rec: DecodedOp, speculative: bool) -> None:
        value = self._read_src(rec, 0)
        address = effective_address(self._read_src(rec, 1), rec.imm)
        fault: FaultRecord | None = None
        if not self.memory.is_valid(address):
            fault = FaultRecord(
                kind=FaultKind.MEMORY,
                instruction_uid=rec.op.uid,
                address=address,
                detail=f"store to invalid address {address}",
            )
            if not speculative:
                self._handle_nonspeculative_fault(rec, fault)
                # The handler repaired state; the store proceeds.
                fault = None
            else:
                decision = self._future_verdict(rec)
                if decision is PredValue.TRUE:
                    self._handle_nonspeculative_fault(rec, fault)
                    fault = None
                elif decision is PredValue.FALSE:
                    fault = None
        if fault is not None:
            self._maybe_fault = True
            if self._obs is not None:
                self._obs.fault_buffered(self, fault, rec.pred)
        taint = None
        if self._taint:
            taint = merge_taint(
                self._src_taint(rec, 0),
                rekind_address(self._src_taint(rec, 1)),
            )
            taint = self._sink_taint(
                rec, taint, speculative, "memory", f"mem[{address}] = {value}"
            )
            if taint is not None and not speculative:
                tracker = self.taint
                tracker.mem_taint[address] = merge_taint(
                    tracker.mem_taint.get(address), taint
                )
        serial = self.store_buffer.append(
            address,
            value,
            rec.pred,
            speculative=speculative,
            fault=fault,
            taint=taint,
        )
        if self._obs is not None:
            self._obs.sb_insert(
                self, serial, address, value, rec.pred if speculative else None
            )

    # ------------------------------------------------------------------
    # Faults.
    # ------------------------------------------------------------------
    def _handle_fault(
        self,
        rec: DecodedOp,
        speculative: bool,
        fault: FaultRecord,
        retry: Callable[[], int],
    ) -> None:
        """Route a fault: trap now (non-speculative) or buffer the E flag.

        In recovery mode a speculative fault is decided against the future
        condition (Section 3.5): TRUE handles it now (the handler repairs
        state and the access retries), FALSE squashes it, UNSPEC buffers
        the E flag again.
        """
        if not speculative:
            self._handle_nonspeculative_fault(rec, fault)
            value = retry()  # the handler repaired state; must now succeed
            self._schedule_writeback(rec, value, speculative=False)
            return
        decision = self._future_verdict(rec)
        if decision is PredValue.TRUE:
            self._handle_nonspeculative_fault(rec, fault)
            value = retry()
            self._schedule_writeback(rec, value, speculative=True)
        elif decision is PredValue.FALSE:
            self._schedule_writeback(rec, 0, speculative=True)
        else:
            if self._obs is not None:
                self._obs.fault_buffered(self, fault, rec.pred)
            self._schedule_writeback(rec, 0, speculative=True, fault=fault)

    def _future_verdict(self, rec: DecodedOp) -> PredValue:
        """Decide *rec*'s fault fate: UNSPEC outside recovery (buffer it)."""
        if self.mode is MachineMode.NORMAL or self.future_ccr is None:
            return PredValue.UNSPEC
        return self.future_ccr.evaluate(rec.pred)

    def _handle_nonspeculative_fault(
        self, rec: DecodedOp, fault: FaultRecord
    ) -> None:
        if self.fault_handler is None or not self.fault_handler(fault, self):
            if self._obs is not None:
                self._obs.fault_unhandled(self, fault, rec.pred)
            raise UnhandledFault(fault)
        self.handled_faults += 1
        if self._obs is not None:
            self._obs.fault_handled(self, fault, rec.pred)

    # ------------------------------------------------------------------
    # Operand access and writeback.
    # ------------------------------------------------------------------
    def _read_src(self, rec: DecodedOp, source_number: int) -> int:
        reg, shadow = rec.srcs[source_number]
        entry = self.regfile.entries[reg]
        if shadow and entry.pending:
            return self.regfile.read(reg, shadow=True, reader_pred=rec.pred)
        return entry.sequential

    def _source_values(self, rec: DecodedOp) -> list[int]:
        values = [
            self._read_src(rec, number) for number in range(len(rec.srcs))
        ]
        if rec.imm is not None:
            values.append(rec.imm)
        return values

    # ------------------------------------------------------------------
    # Taint flow.  Every call site is guarded by the cached ``_taint``
    # boolean (the NULL_SINK zero-cost convention), so a taint-off run
    # pays one branch per site and none of these methods execute.
    # ------------------------------------------------------------------
    def _src_taint(
        self, rec: DecodedOp, source_number: int
    ) -> frozenset[TaintTag] | None:
        """The taint the matching :meth:`_read_src` observed: a shadow
        hit's buffered taint, else the sequential register's tracker
        taint."""
        reg, shadow = rec.srcs[source_number]
        if shadow:
            hit, taint = self.regfile.shadow_taint(reg, rec.pred)
            if hit:
                return taint
        return self.taint.reg_taint.get(reg)

    def _operand_taint(self, rec: DecodedOp) -> frozenset[TaintTag] | None:
        taint: frozenset[TaintTag] | None = None
        for number in range(len(rec.srcs)):
            taint = merge_taint(taint, self._src_taint(rec, number))
        return taint

    def _load_taint(
        self,
        rec: DecodedOp,
        address: int,
        reader_pred: Predicate,
        speculative: bool,
    ) -> frozenset[TaintTag] | None:
        """Value taint of a load: the forwarded entry's (or committed
        memory's) taint, plus the address operand's taint re-kinded
        ``address``, plus -- for an UNSPEC load -- a fresh source tag
        (this is the E-flag moment the threat model keys on)."""
        hit, taint = self.store_buffer.lookup_taint(address, reader_pred)
        if not hit:
            taint = self.taint.mem_taint.get(address)
        taint = merge_taint(taint, rekind_address(self._src_taint(rec, 0)))
        if speculative:
            taint = merge_taint(
                taint,
                self.taint.source(
                    self.cycle, self.pc, self.program.region_at(self.pc), address
                ),
            )
        return taint

    def _sink_taint(
        self,
        rec: DecodedOp,
        taint: frozenset[TaintTag] | None,
        speculative: bool,
        kind: str,
        detail: str,
    ) -> frozenset[TaintTag] | None:
        """Police tainted data entering a committed sink (store/out).

        Speculative inserts keep their taint buffered (commit
        declassifies, squash discards).  A non-speculative insert of
        tainted data under the ``alw`` predicate is the leak the
        subsystem exists to catch: unconfirmed speculative data bound
        for architectural state.  A *predicated* op whose verdict was
        already TRUE at issue is architecturally confirmed -- compiled
        code reads shadow state this way routinely -- so it declassifies
        instead.
        """
        if taint is None or speculative:
            return taint
        if rec.pred.is_always:
            region = self.program.region_at(self.pc)
            self.taint.leak(kind, self.cycle, self.pc, region, detail, taint)
            return taint
        self.taint.declassify()
        return None

    def _commit_taint(self, entry: _InFlight) -> None:
        """An in-flight result just TRUE-committed to sequential state."""
        tracker = self.taint
        if entry.taint is None:
            tracker.reg_taint.pop(entry.reg, None)
        elif entry.pred.is_always:
            # An always-predicate consumer committed data that depends
            # on a still-unconfirmed speculative load.  Compiled code is
            # clean by construction here (the dependence graph forces
            # ``alw`` consumers onto committed sequential state), so
            # this fires only for hand-scheduled gadgets.
            tracker.leak(
                "register",
                self.cycle,
                self.pc,
                self.program.region_at(self.pc),
                f"r{entry.reg} = {entry.value}",
                entry.taint,
            )
            tracker.reg_taint[entry.reg] = entry.taint
        else:
            # The entry's own predicate resolved TRUE: architecturally
            # confirmed, so the value equals sequential execution's.
            tracker.declassify()
            tracker.reg_taint.pop(entry.reg, None)

    def _schedule_writeback(
        self,
        rec: DecodedOp,
        value: int,
        speculative: bool,
        fault: FaultRecord | None = None,
        taint: frozenset[TaintTag] | None = None,
    ) -> None:
        dest = rec.dest
        if dest is None:
            return
        if fault is not None:
            self._maybe_fault = True
        if taint is not None and not speculative and not rec.pred.is_always:
            # A predicated op whose verdict was TRUE at issue flies with
            # the ALWAYS predicate below, which would defeat the
            # is_always leak test at commit -- declassify here instead
            # (the op's own speculation is already confirmed).
            self.taint.declassify()
            taint = None
        self._in_flight.append(
            _InFlight(
                self.cycle + rec.latency - 1,
                dest,
                value,
                rec.pred if speculative else ALWAYS,
                fault,
                taint,
            )
        )

    def _apply_due_writebacks(self, ccr: CCR) -> None:
        cycle = self.cycle
        regfile = self.regfile
        obs = self._obs
        still_flying: list[_InFlight] = []
        for entry in self._in_flight:
            if entry.due_cycle > cycle:
                still_flying.append(entry)
                continue
            pred = entry.pred
            care = pred.care
            if care & ~ccr.spec:  # UNSPEC: to the shadow storage
                regfile.write_speculative(
                    entry.reg,
                    entry.value,
                    pred,
                    fault=entry.fault,
                    taint=entry.taint,
                )
                if obs is not None:
                    obs.shadow_write(self, entry.reg, entry.value, pred)
            elif not (ccr.val ^ pred.bits) & care:  # TRUE: sequential
                if entry.fault is not None:
                    # Unreachable: _exception_commits scans in-flight
                    # faults before any CCR update can make them TRUE.
                    raise AssertionError(
                        "exception commit escaped the combinational check"
                    )
                regfile.write_committed(entry.reg, entry.value, ccr)
                if self._taint:
                    self._commit_taint(entry)
                if obs is not None:
                    obs.sequential_write(self, entry.reg, entry.value, pred)
            # FALSE: discarded.
        self._in_flight = still_flying

    def _flush_in_flight(self) -> None:
        """Complete TRUE-under-current in-flight results; drop the rest."""
        for entry in self._in_flight:
            if entry.fault is None and (
                self.ccr.evaluate(entry.pred) is PredValue.TRUE
            ):
                self.regfile.write_committed(entry.reg, entry.value, self.ccr)
                if self._taint:
                    self._commit_taint(entry)
                if self._obs is not None:
                    self._obs.flush_write(
                        self, entry.reg, entry.value, entry.pred
                    )
        self._in_flight = []

    # ------------------------------------------------------------------
    # Exception commit and recovery.
    # ------------------------------------------------------------------
    def _exception_commits(self, ccr_next: CCR) -> bool:
        """Would updating the CCR commit any buffered E flag?

        Guarded by ``_maybe_fault``: the flag is raised whenever the
        machine buffers an E flag (or the fault injector plants one) and
        lowered again by a full scan that finds no buffered fault left,
        so fault-free execution pays one boolean test per cycle.
        """
        if not self._maybe_fault:
            return False
        fault_seen = False
        for flying in self._in_flight:
            if flying.fault is not None:
                fault_seen = True
                if ccr_next.evaluate(flying.pred) is PredValue.TRUE:
                    return True
        for entry in self.regfile.entries:
            for write in entry.pending:
                if write.fault is not None:
                    fault_seen = True
                    if ccr_next.evaluate(write.pred) is PredValue.TRUE:
                        return True
        for entry in self.store_buffer.pending_entries():
            if (
                entry.valid
                and entry.speculative
                and entry.fault is not None
            ):
                fault_seen = True
                if ccr_next.evaluate(entry.pred) is PredValue.TRUE:
                    return True
        if not fault_seen:
            self._maybe_fault = False
        return False

    def _enter_recovery(self, ccr_next: CCR) -> None:
        """Suppress the CCR update and roll back to the region top."""
        self.recoveries += 1
        self.future_ccr = ccr_next
        self._flush_in_flight()
        self.regfile.invalidate_speculative()
        self.store_buffer.invalidate_speculative()
        self.epc = self.pc
        self.pc = self.rpc
        self.mode = MachineMode.RECOVERY
        if self._obs is not None:
            self._obs.recovery_enter(self)

    def _finish_recovery(self) -> None:
        assert self.future_ccr is not None
        self._apply_due_writebacks(self.ccr)
        self.ccr.copy_from(self.future_ccr)
        self.future_ccr = None
        self.mode = MachineMode.NORMAL
        self.pc = self.epc + 1
        self.epc = None
        if self._obs is not None:
            self._obs.recovery_exit(self)

    # ------------------------------------------------------------------
    # Transfers and halt.
    # ------------------------------------------------------------------
    def _transfer(self, rec: DecodedOp) -> None:
        destination = rec.target_pc
        self._flush_in_flight()
        if destination in self._region_starts:
            # Region transfer: speculative state is closed in the region --
            # anything still pending belongs to an untaken path.
            self.regfile.invalidate_speculative()
            self.store_buffer.invalidate_speculative()
            self.ccr.reset()
            if self._taint:
                # The CCR reset discards the conditions; their taint
                # goes with them.
                self.taint.clear_ccr()
            self.rpc = destination
        btb_hit = None if self._btb is None else self._btb.access(self.pc)
        if btb_hit is False:
            penalty = self.config.taken_penalty_indirect
        else:
            penalty = self.config.taken_penalty_btb
        if self._obs is not None:
            self._obs.transfer(self, rec.target, destination, penalty, btb_hit)
        self.cycle += penalty
        self.pc = destination

    def _drain_at_halt(self) -> None:
        self._flush_in_flight()
        obs = self._obs
        if obs is not None:
            obs.halt(self)
        rf_events = self.regfile.tick(self.ccr)
        sb_events = self.store_buffer.tick(self.ccr, self.memory, self.output)
        if obs is not None:
            obs.tick(self, rf_events, sb_events)
        self.regfile.invalidate_speculative()
        self.store_buffer.invalidate_speculative()
        ticks = self.store_buffer.drain(self.memory, self.output)
        if obs is not None:
            obs.drain(self, ticks)
