"""The bit-vector representations agree with their term-wise definitions.

The CCR is held as a specified-mask/value-bits pair and a predicate as a
care-mask/value-bits pair, so a verdict is one masked match; the
register file's commit hardware visits only occupied registers.  These
properties pin each fast form to the straightforward one it replaced:

* ``CCR.evaluate`` equals ``Predicate.evaluate(ccr.values())`` -- the
  per-term walk over a plain mapping -- for predicates over indices up
  to ``num_entries + 2`` (past the register's end reads unspecified),
  on CCR states reached through every mutator;
* ``Predicate.implies``/``disjoint_with`` equal their term-set
  definitions;
* the occupied-set regfile tick yields the same ``CommitEvents``, in
  the same order, as a scan of all 32 registers, over random write,
  supersede, invalidate and ``load_state`` sequences.
"""

from __future__ import annotations

import copy

from hypothesis import given, settings, strategies as st

from repro.core.ccr import CCR
from repro.core.exceptions import FaultKind, FaultRecord, ScheduleViolation
from repro.core.predicate import PredValue, Predicate
from repro.core.regfile import CommitEvents, PredicatedRegisterFile

NUM_REGS = 32


# ----------------------------------------------------------------------
# CCR verdicts.
# ----------------------------------------------------------------------
def _ccr_program(num_entries: int):
    """A sequence of CCR mutations valid for *num_entries* entries."""
    index = st.integers(0, num_entries - 1)
    state = st.lists(
        st.sampled_from([True, False, None]),
        min_size=num_entries,
        max_size=num_entries,
    )
    return st.lists(
        st.one_of(
            st.tuples(st.just("set"), index, st.booleans()),
            st.tuples(st.just("reset")),
            st.tuples(st.just("copy_from"), state),
            st.tuples(st.just("clone")),
            st.tuples(st.just("load_state"), state),
        ),
        max_size=12,
    )


@st.composite
def _ccr_case(draw):
    num_entries = draw(st.integers(1, 8))
    program = draw(_ccr_program(num_entries))
    preds = draw(
        st.lists(
            st.dictionaries(
                st.integers(0, num_entries + 2), st.booleans(), max_size=4
            ),
            min_size=1,
            max_size=6,
        )
    )
    return num_entries, program, [Predicate(terms) for terms in preds]


def _apply(ccr: CCR, model: list, step) -> CCR:
    """Apply one mutation to *ccr* and to the plain-list *model*.

    Returns the register to keep using (``clone`` switches to the copy).
    """
    kind = step[0]
    if kind == "set":
        ccr.set(step[1], step[2])
        model[step[1]] = step[2]
    elif kind == "reset":
        ccr.reset()
        model[:] = [None] * len(model)
    elif kind == "copy_from":
        source = CCR(ccr.num_entries)
        source.load_state(step[1])
        ccr.copy_from(source)
        model[:] = step[1]
    elif kind == "clone":
        ccr = ccr.clone()
    else:
        ccr.load_state(step[1])
        model[:] = step[1]
    return ccr


@settings(max_examples=300, deadline=None)
@given(_ccr_case())
def test_ccr_masked_match_equals_term_walk(case):
    num_entries, program, preds = case
    ccr = CCR(num_entries)
    model: list[bool | None] = [None] * num_entries
    for step in [None, *program]:
        if step is not None:
            ccr = _apply(ccr, model, step)
        assert ccr.state_list() == model
        assert ccr.values() == dict(enumerate(model))
        assert [ccr.get(i) for i in range(num_entries)] == model
        for pred in preds:
            verdict = pred.evaluate(dict(enumerate(model)))
            assert ccr.evaluate(pred) is verdict, (pred, ccr)


def test_clone_is_independent():
    ccr = CCR(4)
    ccr.set(1, True)
    twin = ccr.clone()
    twin.set(1, False)
    twin.set(2, True)
    assert ccr.state_list() == [None, True, None, None]
    assert twin.state_list() == [None, False, True, None]


terms = st.dictionaries(st.integers(0, 9), st.booleans(), max_size=5)


@given(terms, terms)
def test_implies_equals_term_subset(p_terms, q_terms):
    p, q = Predicate(p_terms), Predicate(q_terms)
    assert p.implies(q) == all(p_terms.get(i) == v for i, v in q_terms.items())


@given(terms, terms)
def test_disjoint_equals_conflicting_term(p_terms, q_terms):
    p, q = Predicate(p_terms), Predicate(q_terms)
    assert p.disjoint_with(q) == any(
        i in p_terms and p_terms[i] != v for i, v in q_terms.items()
    )


# ----------------------------------------------------------------------
# Occupied-set regfile tick.
# ----------------------------------------------------------------------
def _full_scan_tick(regfile: PredicatedRegisterFile, ccr: CCR) -> CommitEvents:
    """The commit hardware as a scan of every register, term-wise."""
    events = CommitEvents()
    values = ccr.values()
    for reg, entry in enumerate(regfile.entries):
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
                    events.committed_values.append((reg, write.value))
                if write.taint is not None:
                    events.declassified += 1
                events.committed.append(reg)
            else:
                events.squashed.append(reg)
        entry.pending = kept
    return events


_FAULT = FaultRecord(kind=FaultKind.MEMORY, instruction_uid=-1, detail="e")

_reg = st.integers(0, NUM_REGS - 1)
_pred = st.dictionaries(
    st.integers(0, 3), st.booleans(), min_size=1, max_size=3
).map(Predicate)
_regfile_step = st.one_of(
    st.tuples(
        st.just("spec"), _reg, st.integers(-9, 9), _pred, st.booleans()
    ),
    st.tuples(st.just("commit"), _reg, st.integers(-9, 9)),
    st.tuples(st.just("supersede"), _reg),
    st.tuples(st.just("invalidate")),
    st.tuples(st.just("load_state"), st.integers(0, 50)),
    st.tuples(st.just("ccr_set"), st.integers(0, 3), st.booleans()),
    st.tuples(st.just("ccr_reset")),
    st.tuples(st.just("tick")),
)


def test_tick_visits_registers_in_order():
    # Filled r17, r9, r1 in that order: a set of these small ints
    # iterates 17, 9, 1, so only an ordered visit gives register order.
    regfile = PredicatedRegisterFile(NUM_REGS)
    pred = Predicate({0: True})
    for reg in (17, 9, 1):
        regfile.write_speculative(reg, reg * 10, pred)
    ccr = CCR(4)
    ccr.set(0, True)
    events = regfile.tick(ccr)
    assert events.committed == [1, 9, 17]
    assert events.committed_values == [(1, 10), (9, 90), (17, 170)]
    assert regfile.occupied == set()


def _events(events: CommitEvents) -> tuple:
    return (
        events.committed,
        events.squashed,
        events.committed_values,
        events.detected_faults,
        events.declassified,
    )


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from([1, None]),
    st.lists(_regfile_step, max_size=40),
)
def test_occupied_set_tick_equals_full_scan(capacity, program):
    fast = PredicatedRegisterFile(NUM_REGS, shadow_capacity=capacity)
    reference = PredicatedRegisterFile(NUM_REGS, shadow_capacity=capacity)
    ccr = CCR(4)
    snapshots = [fast.state_dict()]
    for step in program:
        kind = step[0]
        if kind == "spec":
            _, reg, value, pred, faulty = step
            fault = _FAULT if faulty else None
            outcomes = []
            for regfile in (fast, reference):
                try:
                    regfile.write_speculative(reg, value, pred, fault=fault)
                    outcomes.append(None)
                except ScheduleViolation as error:
                    outcomes.append(str(error))
            assert outcomes[0] == outcomes[1]
        elif kind == "commit":
            fast.write_committed(step[1], step[2], ccr)
            reference.supersede_pending(step[1], ccr)
            reference.write_sequential(step[1], step[2])
        elif kind == "supersede":
            fast.supersede_pending(step[1], ccr)
            reference.supersede_pending(step[1], ccr)
        elif kind == "invalidate":
            fast.invalidate_speculative()
            reference.invalidate_speculative()
        elif kind == "load_state":
            state = copy.deepcopy(snapshots[step[1] % len(snapshots)])
            fast.load_state(state)
            reference.load_state(copy.deepcopy(state))
        elif kind == "ccr_set":
            ccr.set(step[1], step[2])
        elif kind == "ccr_reset":
            ccr.reset()
        else:
            assert _events(fast.tick(ccr)) == _events(
                _full_scan_tick(reference, ccr)
            )
        snapshots.append(fast.state_dict())
        # The occupied set is exact after every operation.
        assert fast.occupied == {
            reg for reg, entry in enumerate(fast.entries) if entry.pending
        }
        assert fast.state_dict() == reference.state_dict()
