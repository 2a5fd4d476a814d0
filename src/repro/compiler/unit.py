"""Scheduled units and the trace-driven cycle counter.

The paper counts cycles for the scheduled machine "using the trace
information of the R3000 code by pixie".  Our equivalent: every scheduled
region knows, for each of its exits, the cycle of the departing jump (or
retained branch); the counter walks the scalar dynamic trace through the
region trees, charging each region visit its departure cycle + 1 and the
configured taken-transfer penalty.

Because the dependence builder gives every exit closure edges (conditions,
live-out producers, stores), the schedule itself guarantees everything an
early exit needs has issued -- no compensation-code accounting is needed
(DESIGN.md discusses this modelling choice for the trace-scheduling
baseline).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.compiler.list_scheduler import Schedule
from repro.compiler.predication import LinearRegion, Role
from repro.compiler.regiontree import RegionTree
from repro.ir.cfg import CFG
from repro.machine.config import MachineConfig
from repro.sim.trace import DynamicTrace


@dataclass
class ScheduledUnit:
    """One region's schedule plus the exit-cycle table."""

    tree: RegionTree
    region: LinearRegion
    schedule: Schedule
    # (node_id, arm_value) -> issue cycle of the departing control point.
    exit_cycle: dict[tuple[int, bool | None], int] = field(default_factory=dict)
    halt_cycle: dict[int, int] = field(default_factory=dict)  # node_id -> cycle

    @property
    def header_origin(self) -> int:
        return self.tree.header_origin

    @property
    def length(self) -> int:
        return self.schedule.length


def make_unit(
    tree: RegionTree, region: LinearRegion, schedule: Schedule
) -> ScheduledUnit:
    """Assemble a unit, extracting exit/halt cycles from the schedule."""
    unit = ScheduledUnit(tree=tree, region=region, schedule=schedule)
    for index, item in enumerate(region.items):
        cycle = schedule.cycle_of[index]
        if item.role in (Role.EXIT, Role.BRANCH):
            for key in item.exit_keys:
                unit.exit_cycle[key] = cycle
        elif item.role is Role.HALT:
            unit.halt_cycle[item.node_id] = cycle
    return unit


class TraceWalkError(RuntimeError):
    """The dynamic trace and the scheduled code disagree (a compiler bug)."""


@dataclass
class CycleCount:
    """Result of a trace-driven count."""

    cycles: int
    region_entries: int
    # Finite-BTB model statistics (both zero under the paper's optimistic
    # infinite-BTB assumption, where no buffer is modelled at all).
    btb_hits: int = 0
    btb_misses: int = 0

    @property
    def btb_hit_rate(self) -> float:
        total = self.btb_hits + self.btb_misses
        return self.btb_hits / total if total else 1.0


class ScheduledCode:
    """All units of a compiled program, keyed by header origin block.

    :meth:`count_cycles` walks a trace through a transition memo keyed
    ``(unit header, tree node, next trace block)``: each entry is filled
    once by :meth:`_transition`, so every later visit of the same tree
    edge is one dict lookup.  The memo depends only on the units, never
    on a trace or a machine config, so it stays valid across calls.
    """

    def __init__(self, units: dict[int, ScheduledUnit], cfg: CFG):
        self.units = units
        self.cfg = cfg
        self._transitions: dict[
            tuple[int, int | None, int | None], tuple[int | None, int | None]
        ] = {}

    def count_cycles(
        self, trace: DynamicTrace, config: MachineConfig
    ) -> CycleCount:
        """Walk *trace* through the scheduled units and count cycles."""
        from repro.machine.btb import BranchTargetBuffer

        blocks = trace.blocks
        end = len(blocks)
        transitions = self._transitions
        btb = (
            BranchTargetBuffer(config.btb_entries)
            if config.btb_entries is not None
            else None
        )
        penalty_btb = config.taken_penalty_btb
        penalty_indirect = config.taken_penalty_indirect
        total = 0
        entries = 0
        position = 0
        previous_header: int | None = None
        while position < end:
            header = blocks[position]
            position += 1
            node = None
            while True:
                successor = blocks[position] if position < end else None
                key = (header, node, successor)
                try:
                    node, cycles = transitions[key]
                except KeyError:
                    node, cycles = transitions[key] = self._transition(*key)
                if node is None:
                    break
                position += 1
            entries += 1
            total += cycles
            if btb is not None and not btb.access((previous_header, header)):
                total += penalty_indirect
            else:
                total += penalty_btb
            previous_header = header
        return CycleCount(
            cycles=total,
            region_entries=entries,
            btb_hits=btb.hits if btb is not None else 0,
            btb_misses=btb.misses if btb is not None else 0,
        )

    def _transition(
        self, header: int, node_id: int | None, next_origin: int | None
    ) -> tuple[int | None, int | None]:
        """One memo entry: where the walk goes from *node_id* (None: the
        unit's root) when the trace continues with *next_origin* (None:
        the trace ends).  ``(child, None)`` stays in the unit at node
        *child*; ``(None, N)`` leaves it after N cycles.

        The rules apply in order: a halt block leaves at its halt cycle;
        the end of the trace leaves after the whole schedule; otherwise
        the arm leading to *next_origin* enters a child, or leaves at
        that arm's exit cycle.
        """
        unit = self.units.get(header)
        if unit is None:
            raise TraceWalkError(f"no unit headed by block {header}")
        tree = unit.tree
        node = tree.nodes[tree.root if node_id is None else node_id]
        block = self.cfg.blocks[node.origin]
        terminator = block.terminator
        if terminator is not None and terminator.opcode == "halt":
            return None, unit.halt_cycle[node.node_id] + 1
        if next_origin is None:
            # Trace ended without halt (non-halting program tail).
            return None, unit.length

        if node.cond_index is None:
            arm = True if node.children else None
        elif block.taken_target == next_origin:
            arm = node.taken_value
        elif block.fall_through == next_origin:
            arm = not node.taken_value
        else:
            raise TraceWalkError(
                f"block {node.origin}: successor {next_origin} matches "
                "neither arm"
            )
        child_id = node.children.get(arm)
        if child_id is not None and tree.nodes[child_id].origin == next_origin:
            return child_id, None
        key = (node.node_id, arm)
        if key in unit.exit_cycle:
            return None, unit.exit_cycle[key] + 1
        raise TraceWalkError(
            f"block {node.origin}: no child or exit for successor "
            f"{next_origin} (arm {arm})"
        )
