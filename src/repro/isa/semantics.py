"""Functional semantics of every opcode -- the single source of truth.

Both the scalar interpreter (:mod:`repro.sim.interpreter`) and the
cycle-level VLIW machine (:mod:`repro.machine.vliw`) evaluate instructions
through this module, so the two executors cannot diverge semantically.

Values are 64-bit two's-complement integers.  Unsafe operations raise
:class:`ArithmeticFault` (zero divisor) here; memory faults are raised by
the memory model (:mod:`repro.sim.memory`) because address validity is a
property of machine state, not of the opcode.
"""

from __future__ import annotations

from collections.abc import Callable

_MASK = (1 << 64) - 1
_SIGN = 1 << 63

#: The i64 range: a result inside it is already wrapped, so an executor
#: can skip the :func:`to_i64` call with one chained comparison.
I64_MIN = -_SIGN
I64_MAX = _SIGN - 1


class SimFault(Exception):
    """Base class for architectural faults raised during execution."""


class ArithmeticFault(SimFault):
    """Division or remainder by zero."""


def to_i64(value: int) -> int:
    """Wrap *value* to a 64-bit two's-complement integer."""
    value &= _MASK
    return value - (1 << 64) if value & _SIGN else value


def _shift_amount(value: int) -> int:
    return value & 63


def _div(a: int, b: int) -> int:
    if b == 0:
        raise ArithmeticFault("division by zero")
    # Truncating division, like MIPS.
    return abs(a) // abs(b) * (1 if (a >= 0) == (b >= 0) else -1)


def _rem(a: int, b: int) -> int:
    if b == 0:
        raise ArithmeticFault("remainder by zero")
    return a - _div(a, b) * b


# Each entry maps an opcode to a function of its *source values* (register
# sources in operand order, then the immediate if the opcode has one).
ALU_SEMANTICS: dict[str, Callable[..., int]] = {
    "add": lambda a, b: a + b,
    "sub": lambda a, b: a - b,
    "mul": lambda a, b: a * b,
    "div": _div,
    "rem": _rem,
    "and": lambda a, b: a & b,
    "or": lambda a, b: a | b,
    "xor": lambda a, b: a ^ b,
    "nor": lambda a, b: ~(a | b),
    "sll": lambda a, b: a << _shift_amount(b),
    "srl": lambda a, b: (a & _MASK) >> _shift_amount(b),
    "sra": lambda a, b: a >> _shift_amount(b),
    "slt": lambda a, b: int(a < b),
    "sle": lambda a, b: int(a <= b),
    "seq": lambda a, b: int(a == b),
    "sne": lambda a, b: int(a != b),
    "min": lambda a, b: min(a, b),
    "max": lambda a, b: max(a, b),
    "addi": lambda a, imm: a + imm,
    "muli": lambda a, imm: a * imm,
    "andi": lambda a, imm: a & imm,
    "ori": lambda a, imm: a | imm,
    "xori": lambda a, imm: a ^ imm,
    "slli": lambda a, imm: a << _shift_amount(imm),
    "srli": lambda a, imm: (a & _MASK) >> _shift_amount(imm),
    "srai": lambda a, imm: a >> _shift_amount(imm),
    "slti": lambda a, imm: int(a < imm),
    "seqi": lambda a, imm: int(a == imm),
    "snei": lambda a, imm: int(a != imm),
    "li": lambda imm: imm,
    "mov": lambda a: a,
}

COND_SEMANTICS: dict[str, Callable[..., bool]] = {
    "clt": lambda a, b: a < b,
    "cle": lambda a, b: a <= b,
    "cgt": lambda a, b: a > b,
    "cge": lambda a, b: a >= b,
    "ceq": lambda a, b: a == b,
    "cne": lambda a, b: a != b,
    "clti": lambda a, imm: a < imm,
    "clei": lambda a, imm: a <= imm,
    "cgti": lambda a, imm: a > imm,
    "cgei": lambda a, imm: a >= imm,
    "ceqi": lambda a, imm: a == imm,
    "cnei": lambda a, imm: a != imm,
}


def eval_alu(opcode: str, *source_values: int) -> int:
    """Evaluate an ALU opcode on *source_values*; result is wrapped to i64."""
    return to_i64(ALU_SEMANTICS[opcode](*source_values))


def eval_cond(opcode: str, *source_values: int) -> bool:
    """Evaluate a condition-set opcode on *source_values*."""
    return COND_SEMANTICS[opcode](*source_values)


def effective_address(base: int, offset: int) -> int:
    """Compute a load/store effective address."""
    return to_i64(base + offset)
