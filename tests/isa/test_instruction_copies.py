"""Instruction copies that keep their decode.

``Instruction.replace`` with only ``pred``/``shadow`` changes hands the
copy its original's computed decode views and skips operand validation.
These tests check, over every instruction of the six workloads and of
their ``region_pred``/``trace_pred`` regions, that such a copy is
indistinguishable from an instruction built from scratch with the same
fields: same views, same ``==``/``hash``, a fresh ``uid``, the same
shadow-position check, and a faithful pickle round trip.
"""

import pickle

import pytest

from repro.compiler.pipeline import (
    analyze_program,
    compile_program,
    train_predictor,
)
from repro.core.predicate import Predicate
from repro.isa import Instruction
from repro.machine.config import base_machine
from repro.workloads import all_workloads

#: Every decode view an instruction computes from its opcode and operands.
VIEWS = (
    "info", "fu", "latency", "is_cond_set", "dest_reg", "dest_creg",
    "src_regs", "src_cregs", "target", "imm", "source_positions",
    "is_unsafe", "is_control", "is_conditional_branch", "is_load",
    "is_store", "is_speculable",
)

PRED = Predicate({0: True, 2: False})


def _instructions() -> list[Instruction]:
    config = base_machine()
    found = []
    for workload in all_workloads():
        found.extend(workload.program.instructions)
        facts = analyze_program(workload.program)
        predictor = train_predictor(
            workload.program, facts.cfg, workload.train_memory()
        )
        for model in ("region_pred", "trace_pred"):
            compiled = compile_program(
                workload.program, model, config, predictor, facts
            )
            for unit in compiled.code.units.values():
                found.extend(item.instr for item in unit.region.items)
    return found


@pytest.fixture(scope="module")
def instructions() -> list[Instruction]:
    return _instructions()


def _views(instruction: Instruction) -> dict:
    return {name: getattr(instruction, name) for name in VIEWS}


def _fresh(instruction: Instruction) -> Instruction:
    """The same fields, built (and validated) from scratch."""
    return Instruction(
        instruction.opcode, instruction.operands, instruction.pred,
        instruction.shadow, uid=instruction.uid,
    )


def _originals(instruction: Instruction) -> tuple[Instruction, Instruction]:
    """*instruction* with every view computed, and a twin with none."""
    _views(instruction)
    cold = Instruction(
        instruction.opcode, instruction.operands, instruction.pred,
        instruction.shadow,
    )
    return instruction, cold


def test_the_corpus_covers_predicated_and_shadowed_copies(instructions):
    assert len(instructions) > 500
    assert any(not i.pred.is_always for i in instructions)
    assert any(i.source_positions for i in instructions)


def test_pred_copy_matches_a_fresh_instruction(instructions):
    for instruction in instructions:
        for original in _originals(instruction):
            copy = original.replace(pred=PRED)
            fresh = _fresh(copy)
            assert copy.pred == PRED
            assert _views(copy) == _views(fresh) == _views(original)
            assert copy == fresh and hash(copy) == hash(fresh)


def test_shadow_copy_matches_a_fresh_instruction(instructions):
    for instruction in instructions:
        shadow = frozenset(instruction.source_positions)
        for original in _originals(instruction):
            copy = original.replace(shadow=shadow)
            fresh = _fresh(copy)
            assert copy.shadow == shadow
            assert _views(copy) == _views(fresh) == _views(original)
            assert copy == fresh and hash(copy) == hash(fresh)


def test_invalid_shadow_through_replace_raises(instructions):
    for instruction in instructions:
        signature = instruction.info.signature
        invalid = [len(signature)] + [
            position
            for position, role in enumerate(signature)
            if role != "rs"
        ]
        for original in _originals(instruction):
            for position in invalid:
                with pytest.raises(ValueError, match="shadow marker"):
                    original.replace(shadow=frozenset({position}))
                with pytest.raises(ValueError, match="shadow marker"):
                    original.replace(pred=PRED, shadow=frozenset({position}))


def test_copies_have_fresh_uids_and_value_identity(instructions):
    for instruction in instructions:
        for original in _originals(instruction):
            first = original.replace(pred=PRED)
            second = original.replace(pred=PRED)
            assert len({original.uid, first.uid, second.uid}) == 3
            # uid is a field: copies differ from their original and from
            # each other, exactly as dataclasses.replace copies did.
            assert first != original and first != second
            restored = first.replace(uid=original.uid, pred=original.pred)
            assert restored == original
            assert hash(first.replace(uid=second.uid)) == hash(second)


def test_pickle_round_trip_preserves_copies(instructions):
    copies = [
        original.replace(pred=PRED, shadow=frozenset(original.source_positions))
        for instruction in instructions
        for original in _originals(instruction)
    ]
    restored = pickle.loads(pickle.dumps(copies))
    assert restored == copies
    for copy, back in zip(copies, restored):
        assert back.uid == copy.uid
        assert hash(back) == hash(copy)
        assert _views(back) == _views(copy)
