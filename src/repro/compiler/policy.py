"""Scheduling-model policies.

A :class:`ModelPolicy` captures everything that distinguishes the paper's
eight evaluated models: the scheduling window shape, whether branches are
eliminated by predication, and -- per operation class -- how many branch
conditions an instruction may speculatively cross and by what mechanism.

Mechanisms:

* ``rename`` -- compiler-only: the instruction's destination is renamed to
  a dead register and executed unconditionally; a predicated copy restores
  the value at the home point (the paper's Section 2.1 legal-motion
  transform).  Needs no hardware.
* ``squash`` -- squashing speculation: the instruction issues while its
  conditions are still being computed and the pipeline squashes the write
  if they resolve against it.  State lives only in the pipeline, so the
  instruction may issue no earlier than the cycle its condition is
  computed (a latency-0 edge from the condition-set).
* ``buffer`` -- predicated state buffering (this paper's mechanism, and
  boosting's shadow structures): results are buffered with commit
  conditions; crossed conditions impose no issue-order constraint at all.

Conditions an instruction is *not* allowed to cross get guard edges
(latency 1 from the condition-set): the instruction issues only after its
predicate is specified.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace


class Mechanism(enum.Enum):
    RENAME = "rename"
    SQUASH = "squash"
    BUFFER = "buffer"


@dataclass(frozen=True, slots=True)
class CrossingRule:
    """How one operation class speculates past branch conditions."""

    depth: int  # conditions the op may cross (large number = unlimited)
    mechanism: Mechanism = Mechanism.SQUASH

    @staticmethod
    def none() -> CrossingRule:
        return CrossingRule(depth=0)


UNLIMITED = 10**6


@dataclass(frozen=True, slots=True)
class ModelPolicy:
    """Full policy of one evaluated model."""

    name: str
    both_arms: bool  # region window (else trace/predicted-path window)
    window_blocks: int  # max blocks per scheduling unit
    eliminate_branches: bool  # predicated exits instead of real branches
    safe: CrossingRule  # safe ALU ops
    unsafe: CrossingRule  # div/rem
    load: CrossingRule  # loads (unsafe + 2-cycle latency)
    store: CrossingRule  # stores and observable output
    max_conditions: int = 4  # CCR entries available to a unit (K)
    ordered_cond_sets: bool = False  # counter-predicate restriction
    min_arm_probability: float = 0.25  # region growth: skip rarer arms
    executable: bool = False  # emits real VLIW code for the machine
    # Footnote-2 option: share join blocks equivalent to their branch
    # instead of duplicating them (introduces commit dependences).
    share_equivalent_joins: bool = False

    def rule_for(self, instruction) -> CrossingRule:
        """The crossing rule governing *instruction*."""
        if instruction.is_store or instruction.opcode == "out":
            return self.store
        if instruction.is_load:
            return self.load
        if instruction.is_unsafe:
            return self.unsafe
        return self.safe

    def with_depth(self, max_conditions: int, crossing: int) -> ModelPolicy:
        """Clone with a different CCR size / speculation depth (Figure 8)."""

        def clamp(rule: CrossingRule) -> CrossingRule:
            if rule.depth == 0:
                return rule
            return CrossingRule(
                depth=min(rule.depth, crossing), mechanism=rule.mechanism
            )

        return replace(
            self,
            safe=clamp(self.safe),
            unsafe=clamp(self.unsafe),
            load=clamp(self.load),
            store=clamp(self.store),
            max_conditions=max_conditions,
        )
