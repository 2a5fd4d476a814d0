"""Lockstep differential checker: VLIW machine vs scalar golden model.

``run_oracle`` compiles a program under an executable predicating model,
runs the result on the cycle-level :class:`~repro.machine.vliw.VLIWMachine`,
runs the *same* program through the scalar
:class:`~repro.sim.interpreter.Interpreter` (the golden model), and
compares everything architecturally observable:

* the output stream (``out`` values, in order);
* the full sequential register file at halt;
* the final memory snapshot (every stored word);
* fault behaviour (an unhandled fault on one side must be the *same*
  unhandled fault on the other).

Any difference produces a structured :class:`DivergenceReport` naming the
first divergent register/address, the region holding the machine's final
PC, and the machine's committed-vs-squashed buffer state via the existing
:class:`~repro.obs.diagnostics.MachineSnapshot`.

The comparison is exact, not approximate: predicated state buffering is
*supposed* to reach bit-identical sequential state (Section 3), and the
scheduler orders every architecturally visible write before region exits,
so full register/memory equality is an invariant, not a heuristic.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

from repro.compiler.models import MODELS
from repro.compiler.pipeline import (
    ProgramFacts,
    analyze_program,
    compile_program,
    train_predictor,
)
from repro.compiler.policy import ModelPolicy
from repro.core.exceptions import ScheduleViolation, UnhandledFault
from repro.isa.program import Program
from repro.machine.config import MachineConfig, base_machine
from repro.machine.vliw import VLIWMachine, VLIWResult
from repro.obs.diagnostics import MachineAbort, MachineSnapshot
from repro.obs.metrics import NULL_SINK, MetricsSink
from repro.sim.interpreter import (
    Interpreter,
    InterpreterResult,
    StepLimitExceeded,
)
from repro.sim.memory import Memory

#: CLI aliases accepted everywhere a model is named; the paper's
#: "predicating" model is region predication.
MODEL_ALIASES = {"predicating": "region_pred"}

#: The model names ``repro verify`` / ``repro fuzz`` accept.
VERIFY_MODELS = ("predicating", "region_pred", "trace_pred")

#: Divergence sites reported before the comparison stops enumerating.
MAX_SITES = 8

#: Default execution budgets -- far above any workload, far below the
#: interpreter/machine global defaults so a livelocked candidate fails
#: fast during fuzzing and shrinking.
DEFAULT_MAX_STEPS = 2_000_000
DEFAULT_MAX_CYCLES = 20_000_000


def resolve_model(model: str) -> str:
    """Canonical executable model name for *model* (accepts aliases)."""
    name = MODEL_ALIASES.get(model, model)
    policy = MODELS.get(name)
    if policy is None:
        raise ValueError(
            f"unknown model {model!r}; choose from {sorted(VERIFY_MODELS)}"
        )
    if not policy.executable:
        raise ValueError(
            f"model {model!r} is analytic-only; the oracle needs an "
            f"executable model ({sorted(VERIFY_MODELS)})"
        )
    return name


@dataclass(frozen=True)
class DivergenceSite:
    """One observable difference between machine and golden model."""

    kind: str  # "output" | "register" | "memory" | "fault" | "error"
    locus: str  # e.g. "out[3]", "r7", "mem[204]", "machine"
    expected: object  # what the scalar golden model produced
    actual: object  # what the machine produced

    def describe(self) -> str:
        return f"{self.locus}: expected {self.expected!r}, got {self.actual!r}"


@dataclass
class DivergenceReport:
    """Structured description of one machine/golden divergence."""

    program: str
    model: str
    category: str  # the first (most severe) site kind
    sites: tuple[DivergenceSite, ...]
    region: str | None = None
    snapshot: MachineSnapshot | None = None
    machine_error: str | None = None
    scalar_error: str | None = None

    def describe(self) -> str:
        lines = [f"{self.program} [{self.model}]: DIVERGED ({self.category})"]
        for site in self.sites:
            lines.append(f"  {site.describe()}")
        if self.region is not None:
            lines.append(f"  final region: {self.region}")
        if self.scalar_error:
            lines.append(f"  scalar error: {self.scalar_error.splitlines()[0]}")
        if self.machine_error:
            lines.append(
                f"  machine error: {self.machine_error.splitlines()[0]}"
            )
        if self.snapshot is not None:
            lines.append("  machine state at divergence:")
            lines.extend(
                f"    {line}" for line in self.snapshot.describe().splitlines()
            )
        return "\n".join(lines)

    def to_dict(self) -> dict:
        return {
            "program": self.program,
            "model": self.model,
            "category": self.category,
            "region": self.region,
            "scalar_error": self.scalar_error,
            "machine_error": self.machine_error,
            "sites": [
                {
                    "kind": site.kind,
                    "locus": site.locus,
                    "expected": _jsonable(site.expected),
                    "actual": _jsonable(site.actual),
                }
                for site in self.sites
            ],
        }


def _jsonable(value):
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    return repr(value)


@dataclass
class OracleResult:
    """Outcome of one differential check."""

    program: str
    model: str
    equivalent: bool
    report: DivergenceReport | None
    scalar_cycles: int | None = None
    machine_cycles: int | None = None
    scalar_faults: int = 0
    machine_faults: int = 0
    recoveries: int = 0
    compared_registers: int = 0
    compared_words: int = 0

    @property
    def speedup(self) -> float | None:
        if not self.scalar_cycles or not self.machine_cycles:
            return None
        return self.scalar_cycles / self.machine_cycles

    def describe(self) -> str:
        if self.equivalent:
            detail = (
                f"scalar {self.scalar_cycles} cy, machine "
                f"{self.machine_cycles} cy"
            )
            if self.speedup:
                detail += f", speedup {self.speedup:.2f}x"
            if self.recoveries:
                detail += f", {self.recoveries} recoveries"
            if self.machine_faults:
                detail += f", {self.machine_faults} handled faults"
            return f"{self.program} [{self.model}]: EQUIVALENT ({detail})"
        assert self.report is not None
        return self.report.describe()

    def to_dict(self) -> dict:
        return {
            "program": self.program,
            "model": self.model,
            "equivalent": self.equivalent,
            "scalar_cycles": self.scalar_cycles,
            "machine_cycles": self.machine_cycles,
            "scalar_faults": self.scalar_faults,
            "machine_faults": self.machine_faults,
            "recoveries": self.recoveries,
            "compared_registers": self.compared_registers,
            "compared_words": self.compared_words,
            "report": None if self.report is None else self.report.to_dict(),
        }


@dataclass
class MachineRun:
    """The machine side of one check: *error* is a livelocked training
    run (the machine never ran), a schedule violation or a machine
    abort; *fault* is an unhandled fault."""

    machine: VLIWMachine | None = None
    result: VLIWResult | None = None
    fault: UnhandledFault | None = None
    error: str | None = None


class OracleSetup:
    """The arguments :func:`run_oracle` and
    :func:`repro.verify.tracediff.run_diff_trace` share, resolved: model
    aliases and *policy_overrides* applied, None meaning the default."""

    def __init__(
        self, model: str | ModelPolicy, config: MachineConfig | None, *,
        train_memory: Memory | None, eval_memory: Memory | None,
        fault_handler, max_steps: int | None, max_cycles: int | None,
        policy_overrides: dict | None, machine_factory,
    ):
        if isinstance(model, str):
            self.name = resolve_model(model)
            self.policy = MODELS[self.name]
        else:
            self.name, self.policy = model.name, model
        if policy_overrides:
            self.policy = dataclasses.replace(self.policy, **policy_overrides)
        self.config = config if config is not None else base_machine()
        self.eval_memory = eval_memory if eval_memory is not None else Memory()
        self.train_memory = (
            train_memory if train_memory is not None else self.eval_memory
        )
        self.fault_handler = fault_handler
        self.max_steps = max_steps if max_steps is not None else DEFAULT_MAX_STEPS
        self.max_cycles = (
            max_cycles if max_cycles is not None else DEFAULT_MAX_CYCLES
        )
        self.factory = machine_factory or VLIWMachine

    def run_machine(
        self, program: Program, facts: ProgramFacts, **observers
    ) -> MachineRun:
        """Train, compile and run the factory machine (*observers* go to
        its constructor).  A livelocked training run becomes a
        structured error, not a raw traceback: the step limit is the
        whole point of ``--max-cycles`` on replayed cases."""
        run = MachineRun()
        try:
            predictor = train_predictor(
                program, facts.cfg, self.train_memory.clone(),
                fault_handler=self.fault_handler, max_steps=self.max_steps,
            )
        except StepLimitExceeded as error:
            run.error = f"StepLimitExceeded: training run: {error}"
            return run
        try:
            compiled = compile_program(
                program, self.policy, self.config, predictor, facts
            )
            assert compiled.vliw is not None
            run.machine = self.factory(
                compiled.vliw,
                self.config,
                self.eval_memory.clone(),
                fault_handler=self.fault_handler,
                max_cycles=self.max_cycles,
                **observers,
            )
            run.result = run.machine.run()
        except UnhandledFault as fault:
            run.fault = fault
        except (ScheduleViolation, MachineAbort) as error:
            run.error = f"{type(error).__name__}: {error}"
        return run


def run_oracle(
    program: Program,
    model: str | ModelPolicy,
    config: MachineConfig | None = None,
    *,
    train_memory: Memory | None = None,
    eval_memory: Memory | None = None,
    fault_handler=None,
    max_steps: int | None = None,
    max_cycles: int | None = None,
    policy_overrides: dict | None = None,
    machine_factory=None,
    sink: MetricsSink = NULL_SINK,
) -> OracleResult:
    """Differentially check *program* under *model* against the golden model.

    *machine_factory* (signature-compatible with :class:`VLIWMachine`)
    exists so tests can seed a deliberately broken machine and watch the
    oracle catch it.  *policy_overrides* are ``dataclasses.replace``
    fields applied to the resolved policy (the fuzzer sweeps
    ``window_blocks`` / ``share_equivalent_joins`` this way).  *max_steps*
    / *max_cycles* of None mean :data:`DEFAULT_MAX_STEPS` /
    :data:`DEFAULT_MAX_CYCLES`.
    """
    setup = OracleSetup(
        model, config, train_memory=train_memory, eval_memory=eval_memory,
        fault_handler=fault_handler, max_steps=max_steps,
        max_cycles=max_cycles, policy_overrides=policy_overrides,
        machine_factory=machine_factory,
    )
    if sink.enabled:
        sink.count("oracle.runs")

    # --- golden model: the scalar interpreter -------------------------
    golden: InterpreterResult | None = None
    golden_fault: UnhandledFault | None = None
    scalar_error: str | None = None
    facts = analyze_program(program)
    interpreter = Interpreter(
        program,
        setup.eval_memory.clone(),
        cfg=facts.cfg,
        fault_handler=setup.fault_handler,
        max_steps=setup.max_steps,
    )
    try:
        golden = interpreter.run()
    except UnhandledFault as fault:
        golden_fault = fault
    except StepLimitExceeded as error:
        scalar_error = str(error)

    # --- machine: train, compile, run ---------------------------------
    side = setup.run_machine(program, facts)
    machine, machine_result = side.machine, side.result
    machine_fault, machine_error = side.fault, side.error
    snapshot = machine.snapshot() if machine is not None else None

    # --- compare -------------------------------------------------------
    sites = _compare(
        golden, golden_fault, scalar_error,
        machine_result, machine_fault, machine_error,
    )
    report: DivergenceReport | None = None
    if sites:
        final_region = (
            machine.program.region_at(snapshot.pc)
            if machine is not None
            else None
        )
        report = DivergenceReport(
            program=program.name,
            model=setup.name,
            category=sites[0].kind,
            sites=tuple(sites[:MAX_SITES]),
            region=final_region,
            snapshot=snapshot,
            machine_error=(
                machine_error
                if machine_error is not None
                else (str(machine_fault) if machine_fault else None)
            ),
            scalar_error=(
                scalar_error
                if scalar_error is not None
                else (str(golden_fault) if golden_fault else None)
            ),
        )
        if sink.enabled:
            sink.count("oracle.divergences")
            sink.count(f"oracle.divergences.{report.category}")
    elif sink.enabled:
        sink.count("oracle.equivalent")

    return OracleResult(
        program=program.name,
        model=setup.name,
        equivalent=report is None,
        report=report,
        scalar_cycles=golden.scalar_cycles if golden is not None else None,
        machine_cycles=(
            machine_result.cycles if machine_result is not None else None
        ),
        scalar_faults=golden.handled_faults if golden is not None else 0,
        machine_faults=(
            machine_result.handled_faults if machine_result is not None else 0
        ),
        recoveries=(
            machine_result.recoveries if machine_result is not None else 0
        ),
        compared_registers=(
            len(golden.registers)
            if golden is not None and machine_result is not None
            else 0
        ),
        compared_words=(
            len(golden.memory.snapshot())
            if golden is not None and machine_result is not None
            else 0
        ),
    )


def _compare(
    golden: InterpreterResult | None,
    golden_fault: UnhandledFault | None,
    scalar_error: str | None,
    machine_result: VLIWResult | None,
    machine_fault: UnhandledFault | None,
    machine_error: str | None,
) -> list[DivergenceSite]:
    """All observable differences, most severe first."""
    sites: list[DivergenceSite] = []

    # Hard failures first: a machine abort or a step-limit blowout is
    # never equivalence, whatever the other side did.
    if machine_error is not None:
        sites.append(
            DivergenceSite(
                kind="error",
                locus="machine",
                expected="completion",
                actual=machine_error.splitlines()[0],
            )
        )
        return sites
    if scalar_error is not None:
        sites.append(
            DivergenceSite(
                kind="error",
                locus="scalar",
                expected="completion",
                actual=scalar_error.splitlines()[0],
            )
        )
        return sites

    # Fault parity: both sides must trap identically or not at all.
    if golden_fault is not None or machine_fault is not None:
        g = golden_fault.fault if golden_fault is not None else None
        m = machine_fault.fault if machine_fault is not None else None
        g_key = (g.kind.value, g.address) if g is not None else None
        m_key = (m.kind.value, m.address) if m is not None else None
        if g_key != m_key:
            sites.append(
                DivergenceSite(
                    kind="fault",
                    locus="unhandled-fault",
                    expected=g_key,
                    actual=m_key,
                )
            )
        return sites  # equivalent-by-fault: no state to compare

    assert golden is not None and machine_result is not None

    # Output stream.
    g_out, m_out = golden.output, machine_result.output
    for index, (expected, actual) in enumerate(zip(g_out, m_out)):
        if expected != actual:
            sites.append(
                DivergenceSite("output", f"out[{index}]", expected, actual)
            )
            break
    if not sites and len(g_out) != len(m_out):
        sites.append(
            DivergenceSite("output", "len(out)", len(g_out), len(m_out))
        )

    # Full register file.
    for reg, (expected, actual) in enumerate(
        zip(golden.registers, machine_result.registers)
    ):
        if expected != actual:
            sites.append(DivergenceSite("register", f"r{reg}", expected, actual))
            if len(sites) >= MAX_SITES:
                return sites

    # Final memory image.
    g_mem = golden.memory.snapshot()
    m_mem = machine_result.memory.snapshot()
    for address in sorted(g_mem.keys() | m_mem.keys()):
        expected, actual = g_mem.get(address), m_mem.get(address)
        if expected != actual:
            sites.append(
                DivergenceSite("memory", f"mem[{address}]", expected, actual)
            )
            if len(sites) >= MAX_SITES:
                return sites
    return sites
