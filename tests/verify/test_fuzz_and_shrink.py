"""Fuzzing determinism and the seeded-bug acceptance path.

The ISSUE's headline acceptance test lives here: a deliberately broken
machine (the classic commit/squash inversion -- squashed speculative
writes land in sequential state) must be *caught* by the fuzzer,
*shrunk* to a handful of instructions, and *replayable* from the
serialized JSON case.
"""

import pytest

from repro.core.predicate import PredValue
from repro.core.regfile import CommitEvents, PredicatedRegisterFile
from repro.isa.registers import NUM_REGS
from repro.machine.vliw import VLIWMachine
from repro.verify import ReproCase, run_fuzz, shrink_case
from repro.verify.case import CASE_SCHEMA
from repro.verify.fuzz import build_case, derive_campaign
from repro.verify.oracle import OracleResult
from repro.verify.shrink import (
    SHRINK_BUDGET_MARGIN,
    SHRINK_MAX_CYCLES,
    SHRINK_MAX_STEPS,
    SHRINK_MIN_CYCLES,
    SHRINK_MIN_STEPS,
    candidate_budgets,
)


class _SquashCommitsRegfile(PredicatedRegisterFile):
    """Commit/squash inversion: FALSE-predicate writes reach sequential
    state instead of being dropped."""

    def tick(self, ccr):
        events = CommitEvents()
        values = ccr.values()
        for reg, entry in enumerate(self.entries):
            if not entry.pending:
                continue
            kept = []
            for write in entry.pending:
                verdict = write.pred.evaluate(values)
                if verdict is PredValue.UNSPEC:
                    kept.append(write)
                elif verdict is PredValue.TRUE:
                    if write.fault is not None:
                        events.detected_faults.append(write.fault)
                    else:
                        entry.sequential = write.value
                    events.committed.append(reg)
                else:
                    entry.sequential = write.value  # the seeded bug
                    events.squashed.append(reg)
            entry.pending = kept
        return events


class BuggyMachine(VLIWMachine):
    """A VLIW machine wired to the inverted commit hardware."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.regfile = _SquashCommitsRegfile(
            NUM_REGS, shadow_capacity=self.config.shadow_capacity
        )


class TestFuzzDeterminism:
    def test_campaign_derivation_is_pure(self):
        for index in range(10):
            assert derive_campaign(7, index) == derive_campaign(7, index)

    def test_different_indices_differ(self):
        specs = {derive_campaign(0, index) for index in range(10)}
        assert len(specs) == 10

    def test_built_cases_are_reproducible(self):
        spec = derive_campaign(3, 1)
        assert build_case(spec).to_json() == build_case(spec).to_json()

    def test_reports_are_identical_across_runs(self):
        first = run_fuzz(6, seed=3)
        second = run_fuzz(6, seed=3)
        assert first.to_dict() == second.to_dict()


class TestCleanFuzz:
    def test_correct_machine_survives_fuzzing(self):
        report = run_fuzz(12, seed=1)
        assert report.divergences == 0, report.summary()
        assert report.equivalent == 12
        # The sweep exercised the interesting paths, not just straight
        # lines: at least one campaign took page faults.
        assert report.faulting_campaigns > 0


class TestSeededBug:
    """The acceptance pipeline: catch -> shrink -> replay."""

    def test_fuzzer_catches_the_buggy_machine(self):
        report = run_fuzz(14, seed=0, machine_factory=BuggyMachine)
        assert report.divergences >= 2, report.summary()
        categories = {
            finding.result.report.category for finding in report.findings
        }
        assert categories <= {"output", "register", "memory"}

    def test_finding_shrinks_small_and_replays(self, tmp_path):
        # Campaign (seed 0, index 13) deterministically exposes the
        # inverted commit on a small program.
        spec = derive_campaign(0, 13)
        case = build_case(spec)
        result = case.run(machine_factory=BuggyMachine)
        assert not result.equivalent

        shrunk = shrink_case(
            case,
            machine_factory=BuggyMachine,
            category=result.report.category,
        )
        assert shrunk.shrunk_instructions <= 10, shrunk.describe()
        assert shrunk.shrunk_instructions < shrunk.original_instructions
        assert shrunk.case.metadata["shrunk"] is True

        # Round-trip through JSON on disk, then replay.
        path = shrunk.case.save(tmp_path / "case.json")
        replayed = ReproCase.load(path)
        assert replayed.to_dict()["schema"] == CASE_SCHEMA
        again = replayed.run(machine_factory=BuggyMachine)
        assert not again.equivalent
        assert again.report.category == shrunk.category

        # The same minimal case passes on the correct machine: the
        # repro pins the bug, not an oracle artifact.
        assert replayed.run().equivalent

    def test_run_fuzz_saves_repro_cases(self, tmp_path):
        report = run_fuzz(
            14,
            seed=0,
            machine_factory=BuggyMachine,
            out_dir=tmp_path,
        )
        assert report.findings
        for finding in report.findings:
            assert finding.case_path is not None
            loaded = ReproCase.load(finding.case_path)
            assert loaded.model == finding.spec.model


class TestShrinkGuards:
    def test_non_divergent_case_is_rejected(self):
        case = build_case(derive_campaign(0, 0))
        assert case.run().equivalent
        with pytest.raises(ValueError, match="does not diverge"):
            shrink_case(case)


def _oracle_result(scalar_cycles, machine_cycles) -> OracleResult:
    return OracleResult(
        program="p",
        model="region_pred",
        equivalent=False,
        report=None,
        scalar_cycles=scalar_cycles,
        machine_cycles=machine_cycles,
    )


class TestAdaptiveBudgets:
    """Livelock regression: candidates are bounded by a small multiple
    of what the unshrunk case needed, not the worst-case ceilings.

    Before the adaptive budgets, a ddmin mutation that turned the
    program into an infinite loop burned the full static cycle budget
    (~1s) per candidate -- a shrink of a few hundred candidates could
    stall for minutes."""

    def test_unknown_initial_falls_back_to_ceilings(self):
        assert candidate_budgets(None) == (
            SHRINK_MAX_STEPS,
            SHRINK_MAX_CYCLES,
        )
        assert candidate_budgets(_oracle_result(None, None)) == (
            SHRINK_MAX_STEPS,
            SHRINK_MAX_CYCLES,
        )

    def test_tiny_runs_get_the_floors(self):
        assert candidate_budgets(_oracle_result(5, 9)) == (
            SHRINK_MIN_STEPS,
            SHRINK_MIN_CYCLES,
        )

    def test_midrange_scales_with_the_slower_side(self):
        steps, cycles = candidate_budgets(_oracle_result(1_000, 3_000))
        assert steps == 3_000 * SHRINK_BUDGET_MARGIN
        assert cycles == 3_000 * SHRINK_BUDGET_MARGIN

    def test_huge_runs_clamp_at_the_ceilings(self):
        assert candidate_budgets(_oracle_result(10**9, 10**9)) == (
            SHRINK_MAX_STEPS,
            SHRINK_MAX_CYCLES,
        )

    def test_candidates_run_under_the_adaptive_budget(self, monkeypatch):
        spec = derive_campaign(0, 13)
        case = build_case(spec)
        initial = case.run(machine_factory=BuggyMachine)
        assert not initial.equivalent
        expected = candidate_budgets(initial)
        assert expected[0] < SHRINK_MAX_STEPS
        assert expected[1] < SHRINK_MAX_CYCLES

        seen = []
        original_run = ReproCase.run

        def spy(self, **kwargs):
            seen.append((kwargs.get("max_steps"), kwargs.get("max_cycles")))
            return original_run(self, **kwargs)

        monkeypatch.setattr(ReproCase, "run", spy)
        shrink_case(
            case,
            machine_factory=BuggyMachine,
            category=initial.report.category,
            initial_result=initial,
        )
        # With category and initial_result supplied, every run here is a
        # candidate -- and every one got the adaptive budget.
        assert seen
        assert all(budgets == expected for budgets in seen)

    def test_livelocking_candidates_are_rejected_cheaply(self, monkeypatch):
        # Synthetic livelocking oracle: every mutated candidate "runs
        # forever", i.e. raises the budget-exhausted error the real
        # executor raises -- after proving its budget was adaptive.
        spec = derive_campaign(0, 13)
        case = build_case(spec)
        initial = case.run(machine_factory=BuggyMachine)
        _, cycles_budget = candidate_budgets(initial)
        assert cycles_budget < SHRINK_MAX_CYCLES

        candidates = 0
        original_run = ReproCase.run

        def livelocking(self, **kwargs):
            nonlocal candidates
            if self.program_text != case.program_text:
                candidates += 1
                assert kwargs.get("max_cycles") == cycles_budget
                raise RuntimeError("cycle budget exhausted (livelock)")
            return original_run(self, **kwargs)

        monkeypatch.setattr(ReproCase, "run", livelocking)
        shrunk = shrink_case(
            case,
            machine_factory=BuggyMachine,
            category=initial.report.category,
            initial_result=initial,
        )
        assert candidates > 0
        assert shrunk.accepted == 0
        assert shrunk.shrunk_instructions == shrunk.original_instructions
