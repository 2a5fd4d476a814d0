"""Decode-once instruction records for the two executors.

The scalar interpreter and the VLIW machine execute the same opcode
semantics millions of times per run.  Rather than re-derive an
instruction's class, operands and semantic function on every issue, each
executor decodes its program once, at construction, into
:class:`DecodedOp` records and dispatches on the integer ``kind``.

A record holds everything issue needs, already resolved:

* ``kind`` -- one of the module-level kind constants below;
* ``fn`` -- the :data:`~repro.isa.semantics.ALU_SEMANTICS` or
  :data:`~repro.isa.semantics.COND_SEMANTICS` function;
* ``src0``/``src1`` -- source registers (None when absent), with the
  ``.s`` shadow-read flags ``shadow0``/``shadow1``; ``srcs`` is the
  same as a tuple of ``(reg, shadow)`` pairs;
* ``unary`` -- the semantic function takes one operand (``li``, ``mov``);
  otherwise a missing ``src1`` (or ``src0`` for ``li``) is the immediate;
* ``dest``, ``creg`` (condition written, or branched on), ``imm`` and
  ``latency``;
* ``target``/``target_pc`` -- the transfer label and its resolved index;
  ``sense`` -- the condition value that takes a ``br`` (True) or ``brf``
  (False);
* ``pred``, ``care``, ``bits`` -- the predicate and its vector encoding;
* ``strict`` -- an UNSPEC verdict at issue is a schedule violation
  (control transfers and condition-sets).
"""

from __future__ import annotations

from collections.abc import Callable

from repro.isa.instruction import Instruction
from repro.isa.semantics import ALU_SEMANTICS, COND_SEMANTICS

ALU, LOAD, STORE, OUT, COND, BRANCH, JUMP, NOP, HALT = range(9)

_FIXED_KINDS = {
    "ld": LOAD,
    "st": STORE,
    "out": OUT,
    "br": BRANCH,
    "brf": BRANCH,
    "jmp": JUMP,
    "nop": NOP,
    "halt": HALT,
}


class DecodedOp:
    """One instruction with its issue-time facts resolved."""

    __slots__ = (
        "op",
        "kind",
        "fn",
        "srcs",
        "src0",
        "shadow0",
        "src1",
        "shadow1",
        "unary",
        "dest",
        "creg",
        "imm",
        "latency",
        "target",
        "target_pc",
        "sense",
        "pred",
        "care",
        "bits",
        "strict",
    )

    def __init__(self, op: Instruction, resolve: Callable[[str], int]):
        opcode = op.opcode
        self.op = op
        kind = _FIXED_KINDS.get(opcode)
        if kind is None:
            kind = COND if opcode in COND_SEMANTICS else ALU
        self.kind = kind
        self.fn = ALU_SEMANTICS.get(opcode) or COND_SEMANTICS.get(opcode)
        shadow = op.shadow
        self.srcs = tuple(
            (reg, position in shadow)
            for reg, position in zip(op.src_regs, op.source_positions)
        )
        self.src0, self.shadow0 = self.srcs[0] if self.srcs else (None, False)
        self.src1, self.shadow1 = (
            self.srcs[1] if len(self.srcs) > 1 else (None, False)
        )
        self.imm = op.imm
        self.unary = len(self.srcs) + (self.imm is not None) == 1
        self.dest = op.dest_reg
        self.creg = op.dest_creg if kind == COND else (
            op.src_cregs[0] if op.src_cregs else None
        )
        self.latency = op.latency
        self.target = op.target
        self.target_pc = None if op.target is None else resolve(op.target)
        self.sense = opcode != "brf"
        pred = op.pred
        self.pred = pred
        self.care = pred.care
        self.bits = pred.bits
        self.strict = not op.is_speculable or op.is_cond_set
