"""The condition code register (CCR).

The CCR holds the branch conditions a region's predicates refer to.  Each
entry is tri-state: True, False, or *unspecified* (``None``).  All entries
are reset to unspecified by hardware on every exit from a region, because
the speculative state is closed in the region (Section 3.3):

    "Since the speculative state is closed in a region, all branch
    conditions are reset to an unspecified value by the hardware on an
    exit from the current region."

The *future CCR* used during exception recovery (Section 3.5) is simply a
second instance of this class.
"""

from __future__ import annotations

from repro.core.predicate import Predicate, PredValue

_TRUE = PredValue.TRUE
_FALSE = PredValue.FALSE
_UNSPEC = PredValue.UNSPEC


class CCR:
    """A K-entry condition code register with unspecified values.

    The register is two bit vectors, as in the hardware: ``spec`` has
    bit *i* set when entry *i* is specified, and ``val`` holds the
    specified entries' values (bits outside ``spec`` are always 0).
    Predicate evaluation is then the paper's masked match against a
    predicate's ``care``/``bits`` pair -- two ANDs and an XOR, with no
    per-entry walk and nothing to memoize.
    """

    __slots__ = ("num_entries", "spec", "val")

    def __init__(self, num_entries: int):
        if num_entries < 1:
            raise ValueError("CCR needs at least one entry")
        self.num_entries = num_entries
        self.spec = 0
        self.val = 0

    def set(self, index: int, value: bool) -> None:
        """Specify condition *index* (a condition-set instruction's write)."""
        self._check(index)
        bit = 1 << index
        self.spec |= bit
        if value:
            self.val |= bit
        else:
            self.val &= ~bit

    def get(self, index: int) -> bool | None:
        """Current value of condition *index* (None = unspecified)."""
        self._check(index)
        if not self.spec >> index & 1:
            return None
        return bool(self.val >> index & 1)

    def is_specified(self, index: int) -> bool:
        self._check(index)
        return bool(self.spec >> index & 1)

    def reset(self) -> None:
        """Reset every entry to unspecified (hardware region-exit action)."""
        self.spec = 0
        self.val = 0

    def values(self) -> dict[int, bool | None]:
        """The entries as an index -> True/False/None mapping."""
        return dict(enumerate(self.state_list()))

    def evaluate(self, pred: Predicate) -> PredValue:
        """Tri-state masked match of *pred* against this register.

        Any constrained entry still unspecified gives UNSPEC; otherwise
        any constrained entry that differs gives FALSE; else TRUE.
        Identical to ``pred.evaluate(self.values())``.
        """
        care = pred.care
        if care & ~self.spec:
            return _UNSPEC
        if (self.val ^ pred.bits) & care:
            return _FALSE
        return _TRUE

    def copy_from(self, other: CCR) -> None:
        """Copy *other*'s contents (recovery-mode exit: future CCR -> CCR)."""
        if other.num_entries != self.num_entries:
            raise ValueError("CCR size mismatch")
        self.spec = other.spec
        self.val = other.val

    def clone(self) -> CCR:
        other = CCR(self.num_entries)
        other.spec = self.spec
        other.val = self.val
        return other

    # ------------------------------------------------------------------
    # Checkpoint state extraction (JSON-native).
    # ------------------------------------------------------------------
    def state_list(self) -> list[bool | None]:
        """The entry values as a JSON-ready list (True/False/None)."""
        spec, val = self.spec, self.val
        return [
            bool(val >> index & 1) if spec >> index & 1 else None
            for index in range(self.num_entries)
        ]

    def load_state(self, values: list[bool | None]) -> None:
        """Restore entry values captured by :meth:`state_list`."""
        if len(values) != self.num_entries:
            raise ValueError("CCR size mismatch")
        spec = val = 0
        for index, value in enumerate(values):
            if value is not None:
                spec |= 1 << index
                if value:
                    val |= 1 << index
        self.spec = spec
        self.val = val

    def _check(self, index: int) -> None:
        if not 0 <= index < self.num_entries:
            raise IndexError(f"CCR index out of range: {index}")

    def __repr__(self) -> str:
        body = ",".join(
            "U" if v is None else ("T" if v else "F") for v in self.state_list()
        )
        return f"CCR[{body}]"
