"""One event vocabulary for both executors (DESIGN.md §7).

:class:`Observer` has one no-op method per moment of the paper's
mechanism (§3, Table 1), named after the transition rules of Colvin &
Winter's abstract speculative semantics (arXiv:2004.00577); subscribers
override the ones they read, and the interpreter emits the same names
where the meaning is the same.  An executor keeps one observer slot,
None when nothing is attached, so every emission point is a single ``if
obs is not None:`` test and no event object is allocated.
"""

from __future__ import annotations

__all__ = ["EVENTS", "Fanout", "Observer", "combine"]


class Observer:
    """Base subscriber: every event is a no-op.

    ``m`` is the :class:`~repro.machine.vliw.VLIWMachine` or
    :class:`~repro.sim.interpreter.Interpreter`.  A ``pred`` is a
    :class:`~repro.core.predicate.Predicate`, or None for an unpredicated
    (interpreter) write or a non-speculative store-buffer access.
    """

    def cycle(self, m) -> None:
        """A machine cycle starts, before its commit tick."""

    def issue(self, m) -> None:
        """The bundle (or scalar instruction) at ``m.pc`` issues."""

    #: ``op(m, op, verdict)``: one operation's control-path verdict,
    #: ``PredValue.TRUE``, ``PredValue.UNSPEC`` or None (squashed).  The
    #: one per-operation event, so it is optional: None unless a
    #: subscriber defines it, and the machine then skips it.
    op = None

    def stall(self, m) -> None:
        """The bundle at ``m.pc`` waits for store-buffer space."""

    def interlock(self, m) -> None:
        """A scalar load-use interlock stall."""

    def tick(self, m, rf_events, sb_events) -> None:
        """The commit hardware ran (``CommitEvents``, ``StoreBufferEvents``)."""

    def shadow_write(self, m, reg, value, pred) -> None:
        """An UNSPEC write-back was buffered in shadow storage."""

    def sequential_write(self, m, reg, value, pred) -> None:
        """A TRUE write-back reached sequential state."""

    def flush_write(self, m, reg, value, pred) -> None:
        """An in-flight TRUE result completed early (recovery, transfer)."""

    def sb_insert(self, m, serial, address, value, pred) -> None:
        """Store-buffer entry *serial* inserted (``address`` None: ``out``)."""

    def sb_lookup(self, m, address, forwarded, pred) -> None:
        """A load searched the store buffer (*forwarded*: value or None)."""

    def store(self, m, address, value) -> None:
        """A scalar store updated memory."""

    def output(self, m, value) -> None:
        """A scalar ``out`` appended to the output."""

    def ccr_set(self, m, index, value) -> None:
        """Condition *index* took *value* at the end of the cycle."""

    def fault_buffered(self, m, fault, pred) -> None:
        """A speculative fault's E flag was buffered."""

    def fault_handled(self, m, fault, pred) -> None:
        """The fault handler repaired state; the access retries."""

    def fault_unhandled(self, m, fault, pred) -> None:
        """No handler repaired the fault; the run stops."""

    def recovery_enter(self, m) -> None:
        """A buffered E flag committed: rolled back to the RPC."""

    def recovery_exit(self, m) -> None:
        """The EPC bundle re-issued: normal mode resumes."""

    def transfer(self, m, target, destination, penalty, btb_hit) -> None:
        """A taken transfer from ``m.pc`` to label *target* (index
        *destination*) costing *penalty* cycles; *btb_hit* is None
        without a finite BTB."""

    def halt(self, m) -> None:
        """The halting bundle issued; the final tick and drain follow."""

    def drain(self, m, ticks) -> None:
        """The halt-time drain: ``(occupancy, StoreBufferEvents)`` per tick."""


#: The event names, in declaration order.
EVENTS = tuple(name for name in vars(Observer) if not name.startswith("_"))


class Fanout(Observer):
    """Several subscribers behind one slot: each event is bound once to
    the subscribers that override it -- one directly, several in attach
    order -- and an event nobody reads keeps the base no-op."""

    def __init__(self, subscribers) -> None:
        self.subscribers = tuple(subscribers)
        for name in EVENTS:
            methods = tuple(
                getattr(subscriber, name)
                for subscriber in self.subscribers
                if getattr(type(subscriber), name) is not getattr(Observer, name)
            )
            if len(methods) == 1:
                setattr(self, name, methods[0])
            elif methods:
                setattr(self, name, _chain(methods))


def _chain(methods):
    def emit(*args) -> None:
        for method in methods:
            method(*args)

    return emit


def combine(subscribers: list[Observer]) -> Observer | None:
    """The observer slot: None, the one subscriber, or a :class:`Fanout`."""
    if len(subscribers) > 1:
        return Fanout(subscribers)
    return subscribers[0] if subscribers else None
