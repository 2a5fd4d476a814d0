"""Serializable repro cases: a divergence, frozen to JSON.

A :class:`ReproCase` captures everything a divergence needs to reproduce
deterministically: the program text, the initial memory image (resident
words plus, for demand-paged campaigns, the pager's backing store), the
model with any policy overrides, and the machine configuration.  Cases
round-trip through JSON (``repro verify --replay CASE.json``) so a fuzz
finding shrunk on one machine replays bit-identically anywhere.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field
from pathlib import Path

from repro.compiler.models import MODELS
from repro.core.exceptions import FaultKind
from repro.isa.parser import parse_program
from repro.isa.program import Program
from repro.machine.config import MachineConfig
from repro.obs.metrics import NULL_SINK, MetricsSink
from repro.sim.memory import Memory

#: Envelope identifier; bump on breaking layout changes.
CASE_SCHEMA = "repro-verify-case/v1"


def _with_path(path, reason: str) -> str:
    return f"{path}: {reason}" if path is not None else reason


@dataclass
class ReproCase:
    """One self-contained, replayable differential-check input."""

    name: str
    program_text: str
    model: str
    config: MachineConfig
    memory_words: dict[int, int] = field(default_factory=dict)
    mapped_only: bool = False
    backing: dict[int, int] | None = None  # pager backing store
    policy_overrides: dict = field(default_factory=dict)
    metadata: dict = field(default_factory=dict)

    # -- reconstruction ------------------------------------------------
    def program(self) -> Program:
        return parse_program(self.program_text, name=self.name)

    def make_memory(self) -> Memory:
        memory = Memory(mapped_only=self.mapped_only)
        for address, value in self.memory_words.items():
            if self.mapped_only:
                memory.map(address, value)
            else:
                memory.store(address, value)
        return memory

    def make_fault_handler(self):
        """A pager over the backing store, or None for plain memory."""
        if self.backing is None:
            return None
        backing = self.backing

        def pager(fault, executor) -> bool:
            if fault.kind is FaultKind.MEMORY and fault.address in backing:
                executor.memory.map(fault.address, backing[fault.address])
                return True
            return False

        return pager

    def run(
        self,
        *,
        machine_factory=None,
        max_steps: int | None = None,
        max_cycles: int | None = None,
        sink: MetricsSink = NULL_SINK,
    ):
        """Replay the case through the oracle; returns an OracleResult."""
        from repro.verify.oracle import run_oracle

        return run_oracle(
            self.program(),
            self.model,
            self.config,
            eval_memory=self.make_memory(),
            fault_handler=self.make_fault_handler(),
            max_steps=max_steps,
            max_cycles=max_cycles,
            policy_overrides=self.policy_overrides,
            machine_factory=machine_factory,
            sink=sink,
        )

    # -- serialization -------------------------------------------------
    def to_dict(self) -> dict:
        return {
            "schema": CASE_SCHEMA,
            "name": self.name,
            "program": self.program_text,
            "model": self.model,
            "config": dataclasses.asdict(self.config),
            "memory": {str(a): v for a, v in sorted(self.memory_words.items())},
            "mapped_only": self.mapped_only,
            "backing": (
                None
                if self.backing is None
                else {str(a): v for a, v in sorted(self.backing.items())}
            ),
            "policy_overrides": dict(self.policy_overrides),
            "metadata": dict(self.metadata),
        }

    @classmethod
    def from_dict(cls, document: dict, *, path=None) -> "ReproCase":
        from repro.ckpt.state import schema_mismatch_message

        if not isinstance(document, dict):
            raise ValueError(
                _with_path(path, "repro case must be a JSON object")
            )
        schema = document.get("schema")
        if schema != CASE_SCHEMA:
            raise ValueError(
                _with_path(
                    path,
                    "not a repro case: "
                    + schema_mismatch_message(schema, CASE_SCHEMA),
                )
            )
        model = document["model"]
        from repro.verify.oracle import resolve_model

        resolve_model(model)  # validate early, not at replay time
        backing = document.get("backing")
        return cls(
            name=document["name"],
            program_text=document["program"],
            model=model,
            config=MachineConfig(**document["config"]),
            memory_words={
                int(a): v for a, v in document.get("memory", {}).items()
            },
            mapped_only=bool(document.get("mapped_only", False)),
            backing=(
                None
                if backing is None
                else {int(a): v for a, v in backing.items()}
            ),
            policy_overrides=dict(document.get("policy_overrides", {})),
            metadata=dict(document.get("metadata", {})),
        )

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2) + "\n"

    @classmethod
    def from_json(cls, text: str, *, path=None) -> "ReproCase":
        try:
            document = json.loads(text)
        except json.JSONDecodeError as error:
            raise ValueError(
                _with_path(path, f"not JSON ({error})")
            ) from error
        return cls.from_dict(document, path=path)

    def save(self, path: str | Path) -> Path:
        """Freeze the case atomically (temp + ``os.replace``): a kill
        mid-write can never leave a truncated, unreplayable JSON."""
        from repro.ckpt.engine import atomic_write_text

        return atomic_write_text(path, self.to_json())

    @classmethod
    def load(cls, path: str | Path) -> "ReproCase":
        """Read one case file.  Every failure mode -- unreadable file,
        bad JSON, wrong schema -- reports the path plus the reason in a
        :class:`ValueError`, never a raw traceback type."""
        try:
            text = Path(path).read_text()
        except OSError as error:
            raise ValueError(
                _with_path(path, f"unreadable case ({error})")
            ) from error
        return cls.from_json(text, path=path)

    def instruction_count(self) -> int:
        return len(self.program().instructions)

    @classmethod
    def from_synthetic(
        cls,
        synthetic,
        model: str,
        config: MachineConfig,
        *,
        resident: Memory | None = None,
        backing: dict[int, int] | None = None,
        policy_overrides: dict | None = None,
        metadata: dict | None = None,
    ) -> "ReproCase":
        """Freeze a synthetic-program campaign input into a case."""
        from repro.isa.printer import format_program

        if resident is not None:
            memory_words = resident.snapshot()
            mapped_only = resident.mapped_only
        else:
            memory_words = synthetic.make_memory().snapshot()
            mapped_only = False
        return cls(
            name=synthetic.program.name,
            program_text=format_program(synthetic.program),
            model=model,
            config=config,
            memory_words=memory_words,
            mapped_only=mapped_only,
            backing=backing,
            policy_overrides=dict(policy_overrides or {}),
            metadata=dict(metadata or {}),
        )
