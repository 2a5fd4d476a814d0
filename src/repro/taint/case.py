"""Serializable security cases: a leak gadget, frozen to JSON.

A :class:`SecurityCase` captures everything a detected leak needs to
reproduce deterministically: the hand-scheduled VLIW program text (the
:mod:`repro.machine.text` grammar), the initial memory image, the taint
policy, and the machine configuration.  Cases round-trip through JSON
(``repro verify --security --replay CASE.json``) so a campaign finding
shrunk on one machine replays bit-identically anywhere; the expected
leak kind is pinned in the document so a replay asserts the *same*
channel, not just any leak.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field
from pathlib import Path

from repro.machine.config import MachineConfig, base_machine
from repro.machine.text import parse_vliw
from repro.obs.metrics import NULL_SINK, MetricsSink
from repro.sim.memory import Memory
from repro.taint.track import POLICIES

#: Envelope identifier; bump on breaking layout changes.
SECURITY_CASE_SCHEMA = "repro-security-case/v1"


def _with_path(path, reason: str) -> str:
    return f"{path}: {reason}" if path is not None else reason


@dataclass
class SecurityCase:
    """One self-contained, replayable taint-check input."""

    name: str
    vliw_text: str
    config: MachineConfig
    policy: str = "committed"
    memory_words: dict[int, int] = field(default_factory=dict)
    expected_kind: str | None = None  # pin the leak channel on replay
    metadata: dict = field(default_factory=dict)

    # -- reconstruction ------------------------------------------------
    def vliw(self):
        return parse_vliw(self.vliw_text, name=self.name)

    def make_memory(self) -> Memory:
        memory = Memory()
        for address, value in self.memory_words.items():
            memory.store(address, value)
        return memory

    def run(
        self,
        *,
        max_cycles: int | None = None,
        sink: MetricsSink = NULL_SINK,
    ):
        """Replay through the security oracle; returns a SecurityResult."""
        from repro.taint.oracle import run_security

        return run_security(
            vliw=self.vliw(),
            policy=self.policy,
            eval_memory=self.make_memory(),
            max_cycles=max_cycles,
            sink=sink,
        )

    def bundle_count(self) -> int:
        return len(self.vliw().bundles)

    # -- serialization -------------------------------------------------
    def to_dict(self) -> dict:
        return {
            "schema": SECURITY_CASE_SCHEMA,
            "name": self.name,
            "vliw": self.vliw_text,
            "config": dataclasses.asdict(self.config),
            "policy": self.policy,
            "memory": {str(a): v for a, v in sorted(self.memory_words.items())},
            "expected_kind": self.expected_kind,
            "metadata": dict(self.metadata),
        }

    @classmethod
    def from_dict(cls, document: dict, *, path=None) -> "SecurityCase":
        from repro.ckpt.state import schema_mismatch_message

        if not isinstance(document, dict):
            raise ValueError(
                _with_path(path, "security case must be a JSON object")
            )
        schema = document.get("schema")
        if schema != SECURITY_CASE_SCHEMA:
            raise ValueError(
                _with_path(
                    path,
                    "not a security case: "
                    + schema_mismatch_message(schema, SECURITY_CASE_SCHEMA),
                )
            )
        policy = document.get("policy", "committed")
        if policy not in POLICIES:
            raise ValueError(
                _with_path(path, f"unknown taint policy {policy!r}")
            )
        return cls(
            name=document["name"],
            vliw_text=document["vliw"],
            config=MachineConfig(**document["config"]),
            policy=policy,
            memory_words={
                int(a): v for a, v in document.get("memory", {}).items()
            },
            expected_kind=document.get("expected_kind"),
            metadata=dict(document.get("metadata", {})),
        )

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2) + "\n"

    @classmethod
    def from_json(cls, text: str, *, path=None) -> "SecurityCase":
        try:
            document = json.loads(text)
        except json.JSONDecodeError as error:
            raise ValueError(
                _with_path(path, f"not JSON ({error})")
            ) from error
        return cls.from_dict(document, path=path)

    def save(self, path: str | Path) -> Path:
        """Freeze the case atomically (temp + ``os.replace``)."""
        from repro.ckpt.engine import atomic_write_text

        return atomic_write_text(path, self.to_json())

    @classmethod
    def load(cls, path: str | Path) -> "SecurityCase":
        """Read one case file; every failure mode reports the path plus
        the reason in a :class:`ValueError`, never a raw traceback."""
        try:
            text = Path(path).read_text()
        except OSError as error:
            raise ValueError(
                _with_path(path, f"unreadable case ({error})")
            ) from error
        return cls.from_json(text, path=path)

    @classmethod
    def from_gadget(
        cls,
        spec,
        config: MachineConfig | None = None,
        *,
        policy: str = "committed",
    ) -> "SecurityCase":
        """Freeze a :class:`~repro.taint.gadget.GadgetSpec` into a case."""
        return cls(
            name=f"taint-{spec.seed}-{spec.index}",
            vliw_text=spec.vliw_text,
            config=config if config is not None else base_machine(),
            policy=policy,
            memory_words=dict(spec.memory_words),
            expected_kind=spec.expected_kind,
            metadata={
                "variant": spec.variant,
                "seed": spec.seed,
                "index": spec.index,
                "expected_leak": spec.expected_leak,
                "secret_address": spec.secret_address,
                "bound": spec.bound,
                "oob_index": spec.oob_index,
            },
        )
