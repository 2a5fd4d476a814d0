"""Workload registry.

A :class:`Workload` bundles a scalar program with its input generator and
the metadata Table 2 reports.  ``all_workloads`` returns the six
benchmark analogues in the paper's order.
"""

from __future__ import annotations

import threading
from collections.abc import Callable
from dataclasses import dataclass

from repro.isa.program import Program
from repro.sim.memory import Memory


@dataclass(frozen=True)
class Workload:
    """One benchmark-analogue kernel."""

    name: str
    description: str
    program: Program
    make_memory: Callable[[int], Memory]  # seed -> initialized memory
    train_seed: int = 1
    eval_seed: int = 2
    remarks: str = ""

    def train_memory(self) -> Memory:
        return self.make_memory(self.train_seed)

    def eval_memory(self) -> Memory:
        return self.make_memory(self.eval_seed)


_BUILT: dict[str, Workload] = {}  # by name, in Table 2 order
_BUILD_LOCK = threading.Lock()


def all_workloads() -> list[Workload]:
    """The six kernels, in the paper's Table 2 order.

    Each is built at most once per process and shared by every caller,
    so a workload's program must never be mutated (its memories are
    fresh on every call).
    """
    with _BUILD_LOCK:
        if not _BUILT:
            from repro.workloads import compress, eqntott, espresso, grep, li, nroff

            for module in (compress, eqntott, espresso, grep, li, nroff):
                workload = module.workload()
                _BUILT[workload.name] = workload
    return list(_BUILT.values())


def get_workload(name: str) -> Workload:
    """The registered workload *name*: the same object on every call."""
    all_workloads()
    if name not in _BUILT:
        raise KeyError(f"unknown workload {name!r}")
    return _BUILT[name]
