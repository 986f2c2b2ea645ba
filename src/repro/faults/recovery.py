"""Node failures: crash-stop and crash–recovery.

:class:`RecoverableEntity` proxies any entity and takes it down and back
up, possibly several times, per a :class:`RecoverySchedule` of
``[crash, recover)`` windows. A window with ``recover = INFINITY`` is a
crash-stop failure — what a plan's ``crash`` event with no ``recover``
lowers to — so this is the one node-crash model. The paper's Section 7.3
points to Welch [17] for how the first simulation extends to faulty
processes: operationally, a down node constrains nothing, so the
transformation machinery is untouched.

Semantics per window:

- at the crash instant the node's state is snapshotted to "stable
  storage" (the structural encoding of
  :func:`repro.sim.persistence.encode_state`) and the node goes silent —
  no enabled actions, inputs fall on deaf ears, no time-passage
  constraints except the window boundaries themselves;
- at the recovery instant the state is restored from the snapshot and
  the node resumes. Restoring through the encoding guarantees the
  revived state shares no mutable structure with anything that escaped
  before the crash — exactly like re-reading a disk image.

Messages delivered to a down node are lost (the channel still delivers;
the node ignores the input) — the classic reason crash–recovery is
strictly harder than a pause. Entities with a local clock additionally
get an ``on_recover(state, now)`` hook (see
:class:`~repro.core.clock_transform.ClockNodeEntity`) so a rebooting
node can re-read its hardware clock instead of resuming a stale one.

Both window boundaries are surfaced as deadlines, so the engine never
silently advances time across a crash or a recovery, and the proxy works
identically under the incremental and full-scan engine cores (it makes
no scheduling promises at all).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, List, Optional, Sequence, Tuple

from repro.automata.actions import Action
from repro.components.base import Entity
from repro.constants import TOLERANCE as _TOLERANCE
from repro.errors import SpecificationError
from repro.obs.metrics import NULL_COUNTER
from repro.sim.persistence import decode_state, encode_state

INFINITY = float("inf")


@dataclass(frozen=True)
class RecoverySchedule:
    """Sorted, disjoint ``[crash, recover)`` windows for one node.

    ``recover`` may be :data:`INFINITY` (the node never comes back —
    crash-stop as a special case).
    """

    windows: Tuple[Tuple[float, float], ...] = ()

    @classmethod
    def of(cls, windows: Sequence[Tuple[float, float]]) -> "RecoverySchedule":
        ordered = tuple(sorted((float(a), float(b)) for a, b in windows))
        last_end = -INFINITY
        for crash_t, recover_t in ordered:
            if crash_t < 0 or recover_t <= crash_t:
                raise SpecificationError(
                    f"invalid crash window [{crash_t:g}, {recover_t:g})"
                )
            if crash_t < last_end - _TOLERANCE:
                raise SpecificationError(
                    f"overlapping crash windows at t={crash_t:g}"
                )
            last_end = recover_t
        return cls(ordered)

    def down(self, now: float) -> bool:
        """Whether the node is down at real time ``now``."""
        return any(
            a - _TOLERANCE <= now < b - _TOLERANCE for a, b in self.windows
        )

    def next_boundary(self, now: float) -> float:
        """The next crash or recovery instant strictly after ``now``."""
        best = INFINITY
        for a, b in self.windows:
            for t in (a, b):
                if t > now + _TOLERANCE and t < best:
                    best = t
        return best


@dataclass
class RecoverableState:
    inner: Any
    down: bool = False
    snapshot: Any = None
    crashes: int = 0
    recoveries: int = 0
    lost_inputs: int = 0
    log: List[Tuple[str, float]] = field(default_factory=list)


class RecoverableEntity(Entity):
    """An entity that crashes and recovers per a :class:`RecoverySchedule`."""

    def __init__(self, inner: Entity, schedule: RecoverySchedule):
        super().__init__(inner.name, inner.signature)
        self.inner = inner
        self.schedule = schedule
        # The enabled set *grows* again at a recovery boundary with no
        # fire/apply_input to signal it, so the purity promise must NOT
        # carry over: the incremental core would keep serving the cached
        # empty set and timelock at the recovery instant. Impure
        # entities are re-derived every round, which also keeps both
        # engine cores trace-identical.
        self.pure_enabled = False
        self._c_crashes = NULL_COUNTER
        self._c_recoveries = NULL_COUNTER
        self._c_lost = NULL_COUNTER

    def instrument(self, metrics) -> None:
        self.inner.instrument(metrics)
        self._c_crashes = metrics.counter("repro.chaos.crashes")
        self._c_recoveries = metrics.counter("repro.chaos.recoveries")
        self._c_lost = metrics.counter("repro.chaos.inputs_lost")

    def initial_state(self) -> RecoverableState:
        return RecoverableState(inner=self.inner.initial_state())

    # -- window transitions ------------------------------------------------

    def _sync(self, state: RecoverableState, now: float) -> bool:
        """Align the up/down phase with the schedule; returns ``down``.

        Idempotent and a pure function of ``(state, now)``, so calling
        it from ``enabled`` preserves the inner entity's ``pure_enabled``
        promise.
        """
        down_now = self.schedule.down(now)
        if down_now and not state.down:
            state.snapshot = encode_state(state.inner)
            state.down = True
            state.crashes += 1
            state.log.append(("crash", now))
            self._c_crashes.inc()
        elif not down_now and state.down:
            state.inner = decode_state(state.snapshot)
            state.snapshot = None
            state.down = False
            state.recoveries += 1
            state.log.append(("recover", now))
            self._c_recoveries.inc()
            on_recover = getattr(self.inner, "on_recover", None)
            if on_recover is not None:
                on_recover(state.inner, now)
        return state.down

    # -- entity interface --------------------------------------------------

    def apply_input(self, state: RecoverableState, action: Action, now: float) -> None:
        if self._sync(state, now):
            state.lost_inputs += 1
            self._c_lost.inc()
            return  # inputs fall on deaf ears while down
        self.inner.apply_input(state.inner, action, now)

    def enabled(self, state: RecoverableState, now: float) -> List[Action]:
        if self._sync(state, now):
            return []
        return self.inner.enabled(state.inner, now)

    def fire(self, state: RecoverableState, action: Action, now: float) -> None:
        if self._sync(state, now):
            return
        self.inner.fire(state.inner, action, now)

    def deadline(self, state: RecoverableState, now: float) -> float:
        boundary = self.schedule.next_boundary(now)
        if self._sync(state, now):
            return boundary  # wake exactly at recovery, constrain nothing else
        return min(self.inner.deadline(state.inner, now), boundary)

    def advance(self, state: RecoverableState, old_now: float, new_now: float) -> None:
        if self._sync(state, old_now):
            # the engine never advances past next_boundary (it is our
            # deadline), so a down node simply sits out the interval
            return
        self.inner.advance(state.inner, old_now, new_now)

    def clock_value(self, state: RecoverableState, now: float):
        return self.inner.clock_value(state.inner, now)

    def __repr__(self) -> str:
        windows = ", ".join(
            f"[{a:g},{b:g})" for a, b in self.schedule.windows
        )
        return f"<RecoverableEntity {self.name} down {windows or 'never'}>"
