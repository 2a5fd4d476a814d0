"""The compile-and-evaluate pipeline.

``compile_program`` turns a scalar program into scheduled units under a
model policy (region formation -> predication -> renaming -> dependence ->
list scheduling), and -- for the predicating models -- emits executable
VLIW code.  What it reads of the program itself (the CFG, exit liveness,
dominators and loop headers) is a :class:`ProgramFacts` value that
:func:`analyze_program` derives once per program; a caller that trains
and compiles, or compiles one program many times, builds the facts once
and passes them in.

``train_predictor`` (profile a training run into the static predictor) and
``check_equivalent`` (the scheduled code's output must match the scalar
run's) are the one training path and the one equivalence check every
caller shares.  ``evaluate_model`` reproduces the paper's methodology end
to end for one (program, model, machine) triple:

1. run the scalar program on a *training* input to profile branches;
2. compile with the profile-driven static predictor;
3. run the scalar program on the *evaluation* input for the baseline
   cycle count and the evaluation trace;
4. count the scheduled code's cycles against the evaluation trace
   (and, for executable models, actually run the code on the cycle-level
   machine, checking architectural equivalence with the scalar run).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from repro.analysis.branch_prediction import StaticPredictor
from repro.compiler.dependence import DepGraph, build_dependence
from repro.compiler.list_scheduler import list_schedule
from repro.compiler.models import get_policy
from repro.compiler.policy import Mechanism, ModelPolicy
from repro.compiler.predication import linearize
from repro.compiler.regiontree import grow_region, merge_equivalent_joins
from repro.compiler.rename import apply_renaming
from repro.compiler.unit import CycleCount, ScheduledCode, ScheduledUnit, make_unit
from repro.compiler.vliw_codegen import emit_vliw
from repro.ir.cfg import CFG, build_cfg
from repro.ir.dataflow import compute_liveness
from repro.ir.dominators import DominatorInfo, compute_dominators
from repro.ir.loops import find_natural_loops
from repro.isa.program import Program
from repro.machine.config import MachineConfig
from repro.machine.program import VLIWProgram
from repro.machine.scalar import ScalarRun, run_scalar
from repro.machine.vliw import VLIWMachine, VLIWResult
from repro.obs.metrics import NULL_SINK, MetricsSink
from repro.obs.trace_events import CycleTraceRecorder
from repro.sim.interpreter import FaultHandler
from repro.sim.memory import Memory


@dataclass(frozen=True)
class ProgramFacts:
    """The program-only analyses compilation reads, derived once.

    None of them depends on the model, the machine or the predictor, so
    one value serves every compile of *program*.  The members are shared
    with every compile they feed and must be treated as read-only: the
    CFG is the one training and evaluation runs use too (region formation
    and unrolling work on copies).
    """

    program: Program
    cfg: CFG
    #: Live-in general registers of every block (renaming and exit
    #: dependences read them at region exits).
    exit_live_in: Mapping[int, frozenset[int]]
    dominators: DominatorInfo
    loop_headers: frozenset[int]


def analyze_program(program: Program) -> ProgramFacts:
    """Build the CFG of *program* and its liveness, dominators and loops."""
    cfg = build_cfg(program)
    liveness = compute_liveness(cfg)
    dominators = compute_dominators(cfg)
    return ProgramFacts(
        program=program,
        cfg=cfg,
        exit_live_in={
            bid: frozenset(liveness.blocks[bid].live_in_regs)
            for bid in cfg.blocks
        },
        dominators=dominators,
        loop_headers=frozenset(
            loop.header for loop in find_natural_loops(cfg, dominators)
        ),
    )


def train_predictor(
    program: Program,
    cfg: CFG,
    train_memory: Memory,
    *,
    fault_handler: FaultHandler | None = None,
    max_steps: int | None = None,
) -> StaticPredictor:
    """Profile *program* on *train_memory*: the static branch predictor
    region formation compiles against.

    Mirrors :func:`run_scalar` (which consumes *train_memory*);
    ``StepLimitExceeded`` from a livelocked training run propagates.
    """
    train = run_scalar(
        program, cfg, train_memory, fault_handler=fault_handler,
        max_steps=max_steps,
    )
    return StaticPredictor.from_trace(train.trace)


def check_equivalent(
    label: str, machine_result: VLIWResult, scalar_output
) -> None:
    """Raise unless the machine's architectural output is the scalar run's."""
    expected = tuple(scalar_output)
    if machine_result.architectural_output != expected:
        raise AssertionError(
            f"{label}: scheduled code diverged from scalar semantics: "
            f"{machine_result.architectural_output[:8]} != {expected[:8]}"
        )


@dataclass
class CompiledProgram:
    """Everything compilation produced for one model."""

    policy: ModelPolicy
    cfg: CFG
    code: ScheduledCode
    vliw: VLIWProgram | None

    def unit_count(self) -> int:
        return len(self.code.units)


def compile_program(
    program: Program,
    model: str | ModelPolicy,
    config: MachineConfig,
    predictor: StaticPredictor,
    facts: ProgramFacts | None = None,
) -> CompiledProgram:
    """Compile *program* under *model* for *config*.

    *facts* are :func:`analyze_program`'s for *program*, derived here
    when not given.
    """
    policy = get_policy(model) if isinstance(model, str) else model
    policy = policy.with_depth(config.ccr_entries, config.speculation_depth)

    if facts is None:
        facts = analyze_program(program)
    elif facts.program is not program:
        raise ValueError(
            f"facts of {facts.program.name!r} given to compile {program.name!r}"
        )
    cfg = facts.cfg
    exit_live_in = facts.exit_live_in
    # The region-growth benefit heuristic is resource-aware: a narrow
    # machine cannot afford to fill issue slots with low-probability arms,
    # so duplication is restricted to likelier arms as width shrinks.
    min_arm_probability = max(
        policy.min_arm_probability, 1.0 / config.issue_width
    )
    uses_renaming = any(
        rule.mechanism is Mechanism.RENAME and rule.depth > 0
        for rule in (policy.safe, policy.unsafe, policy.load, policy.store)
    )
    single_shadow = config.shadow_capacity == 1

    units: dict[int, ScheduledUnit] = {}
    graphs: dict[int, DepGraph] = {}
    worklist = [cfg.entry]
    while worklist:
        header = worklist.pop()
        if header in units:
            continue
        tree = grow_region(
            cfg,
            header,
            both_arms=policy.both_arms,
            window_blocks=policy.window_blocks,
            max_conditions=config.ccr_entries,
            predictor=predictor,
            min_arm_probability=min_arm_probability,
            loop_headers=facts.loop_headers,
        )
        if policy.share_equivalent_joins:
            merge_equivalent_joins(tree, cfg, facts.dominators)
        region = linearize(
            tree, cfg, eliminate_branches=policy.eliminate_branches
        )
        if uses_renaming:
            apply_renaming(region, policy, exit_live_in)
        graph = build_dependence(
            region, policy, exit_live_in, single_shadow=single_shadow
        )
        schedule = list_schedule(graph, config)
        units[header] = make_unit(tree, region, schedule)
        graphs[header] = graph
        worklist.extend(tree.exit_targets())

    code = ScheduledCode(units, cfg)
    vliw = (
        emit_vliw(units, graphs, cfg.entry, name=f"{program.name}:{policy.name}")
        if policy.executable
        else None
    )
    return CompiledProgram(policy=policy, cfg=cfg, code=code, vliw=vliw)


@dataclass
class ModelEvaluation:
    """Cycle counts and validation results for one model run."""

    model: str
    scalar: ScalarRun
    analytic: CycleCount
    machine: VLIWResult | None
    compiled: CompiledProgram

    @property
    def cycles(self) -> int:
        """The headline cycle count (machine-measured when available)."""
        if self.machine is not None:
            return self.machine.cycles
        return self.analytic.cycles

    @property
    def speedup(self) -> float:
        return self.scalar.cycles / self.cycles


def evaluate_model(
    program: Program,
    model: str | ModelPolicy,
    config: MachineConfig,
    *,
    train_memory: Memory,
    eval_memory: Memory,
    fault_handler=None,
    run_machine: bool | None = None,
    max_steps: int | None = None,
    sink: MetricsSink = NULL_SINK,
    tracer: CycleTraceRecorder | None = None,
    machine_runner=None,
) -> ModelEvaluation:
    """The full paper methodology for one (program, model, machine) triple.

    *sink* and *tracer* instrument the cycle-level machine run only (the
    scalar baseline runs un-instrumented); both default to off.

    *machine_runner*, when given, is called as ``machine_runner(machine)
    -> VLIWResult`` in place of ``machine.run()`` -- the hook the
    checkpoint layer uses to run the machine with periodic snapshots,
    resume it from a prior snapshot (the machine exposes its program,
    config, sink and tracer for reconstruction), or stop it gracefully
    on a signal.  The architectural-equivalence check still applies to
    whatever result the runner returns.
    """
    facts = analyze_program(program)
    predictor = train_predictor(
        program, facts.cfg, train_memory, fault_handler=fault_handler,
        max_steps=max_steps,
    )
    compiled = compile_program(program, model, config, predictor, facts)

    evaluation = run_scalar(
        program, facts.cfg, eval_memory.clone(), fault_handler=fault_handler,
        max_steps=max_steps,
    )
    analytic = compiled.code.count_cycles(evaluation.trace, config)

    machine_result: VLIWResult | None = None
    should_run = (
        compiled.vliw is not None if run_machine is None else run_machine
    )
    if should_run and compiled.vliw is not None:
        machine = VLIWMachine(
            compiled.vliw,
            config,
            eval_memory.clone(),
            fault_handler=fault_handler,
            sink=sink,
            tracer=tracer,
        )
        machine_result = (
            machine.run() if machine_runner is None else machine_runner(machine)
        )
        check_equivalent(
            f"{program.name}/{compiled.policy.name}", machine_result,
            evaluation.output,
        )
    return ModelEvaluation(
        model=compiled.policy.name,
        scalar=evaluation,
        analytic=analytic,
        machine=machine_result,
        compiled=compiled,
    )
