"""Execution recording and trace extraction.

The recorder captures every non-time-passage action with:

- the global real time (``now``) at which it fired;
- the owning entity (the automaton that controls the action);
- the owner's local clock value at that instant, when it has one.

From the raw record it derives the paper's trace notions:

- :meth:`Recorder.timed_trace` — ``t-trace``: visible actions with real
  times (what Definition 2.10's *solves* relation inspects);
- :meth:`Recorder.timed_schedule` — ``t-sched``: all non-``nu`` actions;
- :meth:`Recorder.clock_stamped_trace` — the ``gamma'_alpha`` sequence
  of Definition 4.2 (clock stamps instead of real times), plus the
  re-sorted ``gamma_alpha`` used by the Theorem 4.6/4.7 argument.

The recorder is a :class:`~repro.obs.trace.Tracer` sink: the simulator
calls its :meth:`~Recorder.action` / :meth:`~Recorder.injection` hooks
once per fired action, alone or teed with a trace-file writer, and
:meth:`Recorder.from_trace` feeds a trace file's records back through
the same hooks — so a ``--trace-out`` file reloads into the record of
the run that wrote it.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, NamedTuple, Optional

from repro.automata.actions import Action, ActionSet
from repro.automata.executions import TimedEvent, TimedSequence
from repro.errors import SimulationLimitError
from repro.obs.trace import Tracer


class EventRecord(NamedTuple):
    """One recorded action occurrence (an immutable tuple)."""

    index: int
    action: Action
    now: float
    owner: str
    clock: Optional[float]
    visible: bool

    def __repr__(self) -> str:
        vis = "" if self.visible else " (hidden)"
        clk = "" if self.clock is None else f", clock={self.clock:g}"
        return f"[{self.index}] {self.action} @now={self.now:g}{clk} by {self.owner}{vis}"


_new_record = tuple.__new__  # EventRecord(...) without its Python-level __new__


class Recorder(Tracer):
    """Accumulates :class:`EventRecord` values during a run.

    As a :class:`~repro.obs.trace.Tracer` it takes the ``action`` and
    ``injection`` hooks; every other hook is the inherited no-op.

    By default the event list grows without bound. Long-horizon runs can
    cap it with ``max_events``:

    - ``on_overflow="raise"`` (default) raises
      :class:`~repro.errors.SimulationLimitError` when the cap is hit —
      the explicit failure mode for runs that must keep everything;
    - ``on_overflow="ring"`` keeps only the *last* ``max_events``
      records (a ring buffer; O(1) per record), counting the overwritten
      ones in :attr:`dropped`. Indices stay globally monotone, so the
      surviving window still orders and diffs correctly.
    """

    def __init__(
        self,
        max_events: Optional[int] = None,
        on_overflow: str = "raise",
    ):
        if max_events is not None and max_events <= 0:
            raise ValueError("max_events must be positive")
        if on_overflow not in ("raise", "ring"):
            raise ValueError(f"unknown overflow policy {on_overflow!r}")
        self.max_events = max_events
        self.on_overflow = on_overflow
        self.dropped = 0
        self._events: List[EventRecord] = []
        self._ring_start = 0
        self._next_index = 0

    @property
    def events(self) -> List[EventRecord]:
        """All retained records in chronological order."""
        if self._ring_start == 0:
            return self._events
        return self._events[self._ring_start:] + self._events[: self._ring_start]

    @classmethod
    def from_trace(cls, records: Iterable[Dict[str, object]]) -> "Recorder":
        """Replay :func:`~repro.obs.trace.read_trace` records (any format
        version) into a fresh recorder.

        ``action`` and ``inject`` records go through the same hooks the
        simulator calls; every other record kind is skipped.
        """
        recorder = cls()
        for record in records:
            kind = record.get("k")
            if kind == "action":
                recorder.action(
                    record["now"], record["owner"], record["action"],
                    record.get("clock"), record["vis"],
                )
            elif kind == "inject":
                recorder.injection(record["now"], record["action"])
        return recorder

    # -- sink hooks ---------------------------------------------------------

    def action(
        self,
        now: float,
        owner: str,
        action: Action,
        clock: Optional[float],
        visible: bool,
    ) -> None:
        self.record(action, now, owner, clock, visible)

    def injection(self, now: float, action: Action) -> None:
        self.record(action, now, "environment", None, True)

    def record(
        self,
        action: Action,
        now: float,
        owner: str,
        clock: Optional[float],
        visible: bool,
    ) -> None:
        """Append one action occurrence."""
        entry = _new_record(
            EventRecord, (self._next_index, action, now, owner, clock, visible)
        )
        self._next_index += 1
        if self.max_events is not None and len(self._events) >= self.max_events:
            if self.on_overflow == "raise":
                raise SimulationLimitError(
                    f"recorder exceeded max_events={self.max_events} "
                    f"at now={now:g} (use on_overflow='ring' to keep the tail)"
                )
            self._events[self._ring_start] = entry
            self._ring_start = (self._ring_start + 1) % self.max_events
            self.dropped += 1
            return
        self._events.append(entry)

    # -- derived traces -----------------------------------------------------

    def timed_schedule(self) -> TimedSequence:
        """All recorded actions with real times (``t-sched``)."""
        return TimedSequence(TimedEvent(e.action, e.now) for e in self.events)

    def timed_trace(self, restrict_to: Optional[ActionSet] = None) -> TimedSequence:
        """Visible actions with real times (``t-trace``)."""
        events = (
            TimedEvent(e.action, e.now) for e in self.events if e.visible
        )
        seq = TimedSequence(events)
        if restrict_to is not None:
            seq = seq.restrict(restrict_to)
        return seq

    def clock_stamped_trace(
        self,
        restrict_to: Optional[ActionSet] = None,
        visible_only: bool = True,
        resort: bool = True,
    ) -> TimedSequence:
        """The ``gamma`` sequences of Definition 4.2.

        Events are stamped with the owner's *clock* value (falling back
        to ``now`` for clockless owners such as channels). With
        ``resort=True`` the result is ``gamma_alpha``: reordered into
        non-decreasing stamp order, ties keeping their original order;
        with ``resort=False`` it is the raw ``gamma'_alpha``.
        """
        events = []
        for e in self.events:
            if visible_only and not e.visible:
                continue
            stamp = e.clock if e.clock is not None else e.now
            events.append(TimedEvent(e.action, stamp))
        if restrict_to is not None:
            events = [ev for ev in events if ev.action in restrict_to]
        if not resort:
            seq = TimedSequence.__new__(TimedSequence)
            object.__setattr__(seq, "_events", tuple(events))
            return seq
        raw = TimedSequence.__new__(TimedSequence)
        object.__setattr__(raw, "_events", tuple(events))
        return raw.stable_sort_by_time()

    def filter(self, predicate: Callable[[EventRecord], bool]) -> List[EventRecord]:
        """Records satisfying the predicate, in order."""
        return [e for e in self.events if predicate(e)]

    def count(self, name: str) -> int:
        """How many recorded actions carry the given name."""
        return sum(1 for e in self.events if e.action.name == name)

    def __len__(self) -> int:
        return len(self._events)

    def __repr__(self) -> str:
        extra = f" (+{self.dropped} dropped)" if self.dropped else ""
        return f"<Recorder: {len(self._events)} events{extra}>"
