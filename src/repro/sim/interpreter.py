"""The scalar functional interpreter -- this reproduction's *pixie*.

Executes a linear scalar program (every instruction ``alw``-predicated)
with the shared opcode semantics, while

* recording the dynamic trace (block sequence + branch outcomes) used by
  every trace-driven cycle counter and by the branch-prediction analysis;
* counting cycles under the R3000-like scalar timing model that is the
  paper's speedup baseline: one cycle per instruction, a one-cycle
  load-use interlock stall, and a one-cycle taken-control-transfer
  penalty.

Faults (NULL/bounds loads, zero divisors) invoke an optional handler
callback; a handler that repairs machine state returns True and the
faulting instruction re-executes -- the same contract the predicating
machine's recovery mode uses, so scalar and speculative executions of a
faulting program remain comparable.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

from repro.core.exceptions import FaultKind, FaultRecord, UnhandledFault
from repro.ir.cfg import CFG
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
from repro.isa.instruction import Instruction
from repro.isa.program import Program
from repro.isa.registers import NUM_CREGS, NUM_REGS, ZERO_REG
from repro.isa.semantics import I64_MAX, I64_MIN, ArithmeticFault, to_i64
from repro.obs.diagnostics import InterpreterSnapshot
from repro.obs.effects import EffectStream
from repro.obs.events import Observer
from repro.obs.flight import NULL_RECORDER, FlightRecorder
from repro.obs.metrics import NULL_SINK, MetricsSink
from repro.obs.subscribers import scalar_observer
from repro.sim.memory import Memory, MemoryFault
from repro.sim.trace import BranchEvent, DynamicTrace
from repro.taint.tags import merge_taint, rekind_address
from repro.taint.track import NULL_TAINT, TaintTracker

FaultHandler = Callable[[FaultRecord, "Interpreter"], bool]

DEFAULT_MAX_STEPS = 20_000_000

#: CFG blocks the interpreter remembers for the livelock snapshot.
RECENT_BLOCKS = 8

#: Stands in for a missing observer on a taint-tracked run, whose taint
#: sites ride the observer sites.
_NO_OBSERVER = Observer()


class StepLimitExceeded(RuntimeError):
    """The program ran past the configured step budget (likely livelock).

    Carries a :class:`~repro.obs.diagnostics.InterpreterSnapshot`
    (where the interpreter was spinning) and the partial
    :class:`InterpreterResult` accumulated so far, so a livelocked fuzz
    case or workload is debuggable from the exception alone.
    """

    def __init__(
        self,
        message: str,
        snapshot: InterpreterSnapshot | None = None,
        partial: "InterpreterResult | None" = None,
    ):
        if snapshot is not None:
            message = f"{message}\n{snapshot.describe()}"
        super().__init__(message)
        self.snapshot = snapshot
        self.partial = partial


@dataclass
class InterpreterResult:
    """Everything one scalar run produced."""

    output: list[int]
    registers: tuple[int, ...]
    memory: Memory
    steps: int
    scalar_cycles: int
    trace: DynamicTrace | None
    handled_faults: int
    halted: bool = True

    @property
    def architectural_output(self) -> tuple[int, ...]:
        """The observable output stream (the scalar/VLIW comparison key)."""
        return tuple(self.output)


class Interpreter:
    """One-frame scalar executor with trace and timing observers."""

    def __init__(
        self,
        program: Program,
        memory: Memory | None = None,
        *,
        cfg: CFG | None = None,
        fault_handler: FaultHandler | None = None,
        max_steps: int = DEFAULT_MAX_STEPS,
        sink: MetricsSink = NULL_SINK,
        flight: FlightRecorder = NULL_RECORDER,
        effects: EffectStream | None = None,
        taint: TaintTracker = NULL_TAINT,
    ):
        program.validate()
        for instruction in program.instructions:
            if not instruction.pred.is_always:
                raise ValueError(
                    "the scalar interpreter only executes unpredicated code: "
                    f"{instruction}"
                )
        self.program = program
        self.memory = memory if memory is not None else Memory()
        self.fault_handler = fault_handler
        self.max_steps = max_steps
        self.sink = sink
        # The event stream's one observer slot, as in the machine; every
        # scalar effect is architectural at once.
        self.flight = flight
        self.effects = effects
        self._obs = scalar_observer(sink=sink, flight=flight, effects=effects)
        # Information flow: the scalar model has no speculation, so the
        # only sources are taints seeded by a campaign or test; every
        # architectural write is an immediate commit, hence an immediate
        # sink check.
        self.taint = taint
        self._taint = taint.enabled
        self._current_block: int | None = None
        self.registers = [0] * NUM_REGS
        self.cregs = [False] * NUM_CREGS
        self.output: list[int] = []
        self.pc = 0
        self.steps = 0
        self.scalar_cycles = 0
        self.handled_faults = 0
        self._last_load_dest: int | None = None
        # Run-loop state, promoted to fields so execution can pause and
        # resume at any step boundary (the checkpoint layer's contract).
        self._started = False
        self._halted = False

        # Decode once: one issue-ready record per instruction, with
        # transfer targets resolved.
        resolve = program.resolve
        self._decoded = [
            DecodedOp(instruction, resolve)
            for instruction in program.instructions
        ]
        self._length = len(self._decoded)

        self.trace: DynamicTrace | None = None
        self._block_of_index: dict[int, int] = {}
        self._block_at: list[int] = []
        if cfg is not None:
            self.trace = DynamicTrace()
            self._block_of_index = {
                index: bid for bid, index in getattr(cfg, "start_of", {}).items()
            }
            # The block each instruction belongs to (-1 before the first
            # block start): a branch's trace event names it without a
            # backward walk to the block start.
            block = -1
            for index in range(self._length):
                block = self._block_of_index.get(index, block)
                self._block_at.append(block)

    # ------------------------------------------------------------------
    # Execution.
    # ------------------------------------------------------------------
    def run(self) -> InterpreterResult:
        """Run to ``halt``; returns the collected result."""
        self._execute(None)
        return self._result(halted=self._halted)

    def step(self) -> bool:
        """Execute one instruction: the run loop with a budget of one.

        Returns True while the program is still running; executing the
        ``halt`` instruction (or falling off the end) returns False.
        Step boundaries are the interpreter's checkpointable states.
        """
        return self._execute(1)

    @property
    def halted(self) -> bool:
        return self._halted

    @property
    def recent_blocks(self) -> tuple[int, ...]:
        """The last CFG blocks entered (empty without a CFG)."""
        if self.trace is None:
            return ()
        return tuple(self.trace.blocks[-RECENT_BLOCKS:])

    def result(self) -> InterpreterResult:
        """The collected result of the run so far."""
        return self._result(halted=self._halted)

    def _execute(self, budget: int | None) -> bool:
        """The run loop: execute decoded instructions in this one frame.

        Stops at ``halt``, at the end of the program, or after *budget*
        instructions (None: no budget).  Returns True while the program
        is still running.

        ``pc``, ``steps``, ``scalar_cycles``, the last load's destination
        and the current block live in locals.  They are written back to
        the fields before every observer event, before the fault handler
        (which receives the interpreter), before
        :class:`StepLimitExceeded` and on exit, so hooks, handlers and
        exceptions see exactly the state of a step-at-a-time executor;
        after a handled fault they are reloaded.  Registers, CCR,
        output, memory and the trace lists are mutated in place.
        """
        trace = self.trace
        block_of_index = self._block_of_index
        if not self._started:
            self._started = True
            if self.pc in block_of_index:
                self._current_block = block_of_index[self.pc]
                trace.blocks.append(self._current_block)
        if self._halted:
            return False

        decoded = self._decoded
        length = self._length
        max_steps = self.max_steps
        block_at = self._block_at
        blocks = None if trace is None else trace.blocks
        branches = None if trace is None else trace.branches
        # The observer slot; a taint-tracked run without observers still
        # needs the sites, so it watches through the no-op observer.
        taint = self._taint
        obs = self._obs
        if obs is None and taint:
            obs = _NO_OBSERVER
        regs = self.registers  # r0 is never written, so regs[0] == 0
        cregs = self.cregs
        memory = self.memory
        pc = self.pc
        steps = self.steps
        cycles = self.scalar_cycles
        last_load = self._last_load_dest
        current_block = self._current_block
        stop = -1 if budget is None else steps + budget

        while pc < length:
            if steps >= max_steps:
                self._write_back(pc, steps, cycles, last_load, current_block)
                raise StepLimitExceeded(
                    f"{self.program.name}: exceeded {max_steps} steps",
                    snapshot=self.snapshot(),
                    partial=self._result(halted=False),
                )
            rec = decoded[pc]
            kind = rec.kind
            steps += 1
            cycles += 1
            if kind == HALT:
                self._halted = True
                break
            if obs is not None:
                self._write_back(pc, steps, cycles, last_load, current_block)
                obs.issue(self)
            if last_load is not None and (
                last_load == rec.src0 or last_load == rec.src1
            ):
                cycles += 1  # load-use interlock stall
                if obs is not None:
                    self.scalar_cycles = cycles
                    obs.interlock(self)
            next_pc = pc + 1
            load_dest = None

            try:
                if kind == ALU or kind == COND:
                    a = rec.imm if rec.src0 is None else regs[rec.src0]
                    if rec.unary:
                        value = rec.fn(a)
                    else:
                        b = rec.imm if rec.src1 is None else regs[rec.src1]
                        value = rec.fn(a, b)
                    if kind == ALU:
                        if not I64_MIN <= value <= I64_MAX:
                            value = to_i64(value)
                        if rec.dest != ZERO_REG:
                            regs[rec.dest] = value
                        if obs is not None:
                            if taint:
                                self._taint_write(rec)
                            obs.sequential_write(self, rec.dest, value, None)
                    else:
                        cregs[rec.creg] = value
                        if obs is not None:
                            if taint:
                                self._taint_condition(rec)
                            obs.ccr_set(self, rec.creg, value)
                elif kind == LOAD:
                    address = regs[rec.src0] + rec.imm
                    if not I64_MIN <= address <= I64_MAX:
                        address = to_i64(address)
                    value = memory.load(address)
                    if rec.dest != ZERO_REG:
                        regs[rec.dest] = value
                    if obs is not None:
                        if taint:
                            self._taint_write(rec, address)
                        obs.sequential_write(self, rec.dest, value, None)
                    load_dest = rec.dest
                elif kind == BRANCH:
                    condition = cregs[rec.creg]
                    taken = condition if rec.sense else not condition
                    if branches is not None:
                        branches.append(
                            BranchEvent(block_at[pc], rec.op.uid, taken)
                        )
                    if taken:
                        next_pc = rec.target_pc
                        cycles += 1  # taken-transfer penalty
                        if obs is not None:
                            self.scalar_cycles = cycles
                            obs.transfer(self, rec.target, next_pc, 1, None)
                elif kind == JUMP:
                    next_pc = rec.target_pc
                    cycles += 1  # taken-transfer penalty
                    if obs is not None:
                        self.scalar_cycles = cycles
                        obs.transfer(self, rec.target, next_pc, 1, None)
                elif kind == STORE:
                    address = regs[rec.src1] + rec.imm
                    if not I64_MIN <= address <= I64_MAX:
                        address = to_i64(address)
                    memory.store(address, regs[rec.src0])
                    if obs is not None:
                        if taint:
                            self._taint_store(rec, address)
                        obs.store(self, address, regs[rec.src0])
                elif kind == OUT:
                    self.output.append(regs[rec.src0])
                    if obs is not None:
                        if taint:
                            self._taint_out(rec)
                        obs.output(self, regs[rec.src0])
                # NOP: nothing to do.
            except (MemoryFault, ArithmeticFault) as error:
                self._write_back(pc, steps, cycles, last_load, current_block)
                self._handle_fault(error, rec)
                # Re-execute the repaired instruction; the handler may
                # have touched any field, so reload the loop's view.
                pc, steps, cycles = self.pc, self.steps, self.scalar_cycles
                last_load = self._last_load_dest
                current_block = self._current_block
                regs, cregs, memory = self.registers, self.cregs, self.memory
                if steps == stop:
                    break
                continue

            last_load = load_dest
            pc = next_pc
            if pc in block_of_index:
                current_block = block_of_index[pc]
                blocks.append(current_block)
            if steps == stop:
                break

        self._write_back(pc, steps, cycles, last_load, current_block)
        return not self._halted and pc < length

    def _write_back(self, pc, steps, cycles, last_load, current_block) -> None:
        """Store the run loop's locals in the fields."""
        self.pc = pc
        self.steps = steps
        self.scalar_cycles = cycles
        self._last_load_dest = last_load
        self._current_block = current_block

    def _handle_fault(self, error: Exception, rec: DecodedOp) -> None:
        """Offer a fault to the handler; raise if it is not repaired."""
        fault = _fault_record(error, rec.op)
        if self.fault_handler is None or not self.fault_handler(fault, self):
            if self._obs is not None:
                self._obs.fault_unhandled(self, fault, None)
            raise UnhandledFault(fault) from error
        self.handled_faults += 1
        if self._obs is not None:
            self._obs.fault_handled(self, fault, None)

    # ------------------------------------------------------------------
    # Taint plumbing (guarded by ``taint`` at every site in the loop, and
    # entered with the loop's locals written back).
    # ------------------------------------------------------------------
    def _taint_write(self, rec: DecodedOp, address: int | None = None) -> None:
        """An ALU result, or a load's value read from *address*:
        overwrite the destination's taint (r0 stays clean)."""
        if rec.dest == ZERO_REG:
            return
        tracker = self.taint
        if rec.kind == LOAD:
            taint = merge_taint(
                tracker.mem_taint.get(address),
                rekind_address(tracker.reg_taint.get(rec.src0)),
            )
        else:
            taint = self._union_reg_taint(rec.op.src_regs)
        if taint is None:
            tracker.reg_taint.pop(rec.dest, None)
        else:
            tracker.reg_taint[rec.dest] = taint

    def _taint_condition(self, rec: DecodedOp) -> None:
        operand = self._union_reg_taint(rec.op.src_regs)
        if operand is not None:
            self.taint.ccr_write(
                rec.creg,
                operand,
                self.scalar_cycles,
                self.pc,
                self.region_name(),
            )
        else:
            self.taint.ccr_taint.pop(rec.creg, None)

    def _taint_store(self, rec: DecodedOp, address: int) -> None:
        """Every scalar store commits at once: tainted data is a leak."""
        value_reg, addr_reg = rec.src0, rec.src1
        tracker = self.taint
        stored = merge_taint(
            tracker.reg_taint.get(value_reg),
            rekind_address(tracker.reg_taint.get(addr_reg)),
        )
        if stored is not None:
            tracker.leak(
                "memory",
                self.scalar_cycles,
                self.pc,
                self.region_name(),
                f"mem[{address}] = {self.registers[value_reg]}",
                stored,
            )
            tracker.mem_taint[address] = merge_taint(
                tracker.mem_taint.get(address), stored
            )
        else:
            tracker.mem_taint.pop(address, None)

    def _taint_out(self, rec: DecodedOp) -> None:
        emitted = self.taint.reg_taint.get(rec.src0)
        if emitted is not None:
            self.taint.leak(
                "output",
                self.scalar_cycles,
                self.pc,
                self.region_name(),
                f"out {self.registers[rec.src0]}",
                emitted,
            )

    def _union_reg_taint(self, regs):
        """The merged taint of a source-register tuple (None if clean)."""
        taint = None
        for reg in regs:
            taint = merge_taint(taint, self.taint.reg_taint.get(reg))
        return taint

    def region_name(self) -> str | None:
        """The current CFG block as ``B<id>`` (None without a CFG)."""
        if self._current_block is None:
            return None
        return f"B{self._current_block}"

    def snapshot(self) -> InterpreterSnapshot:
        """Where the interpreter is right now (block path needs a CFG)."""
        return InterpreterSnapshot(
            pc=self.pc,
            steps=self.steps,
            scalar_cycles=self.scalar_cycles,
            recent_blocks=self.recent_blocks,
        )

    def _result(self, halted: bool) -> InterpreterResult:
        if self.trace is not None:
            self.trace.instruction_count = self.steps
        return InterpreterResult(
            output=list(self.output),
            registers=tuple(self.registers),
            memory=self.memory,
            steps=self.steps,
            scalar_cycles=self.scalar_cycles,
            trace=self.trace,
            handled_faults=self.handled_faults,
            halted=halted,
        )


def _fault_record(error: Exception, instruction: Instruction) -> FaultRecord:
    if isinstance(error, MemoryFault):
        return FaultRecord(
            kind=FaultKind.MEMORY,
            instruction_uid=instruction.uid,
            address=error.address,
            detail=str(error),
        )
    return FaultRecord(
        kind=FaultKind.ARITHMETIC,
        instruction_uid=instruction.uid,
        detail=str(error),
    )


def run_program(
    program: Program,
    memory: Memory | None = None,
    *,
    cfg: CFG | None = None,
    fault_handler: FaultHandler | None = None,
    max_steps: int = DEFAULT_MAX_STEPS,
    sink: MetricsSink = NULL_SINK,
    flight: FlightRecorder = NULL_RECORDER,
    effects: EffectStream | None = None,
    taint: TaintTracker = NULL_TAINT,
) -> InterpreterResult:
    """Convenience wrapper: construct an :class:`Interpreter` and run it."""
    interpreter = Interpreter(
        program,
        memory,
        cfg=cfg,
        fault_handler=fault_handler,
        max_steps=max_steps,
        sink=sink,
        flight=flight,
        effects=effects,
        taint=taint,
    )
    return interpreter.run()
