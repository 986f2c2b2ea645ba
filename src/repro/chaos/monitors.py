"""Online safety monitors for chaos runs.

A :class:`MonitorTracer` plugs into a tracer slot
(:class:`~repro.obs.trace.Tracer` hooks) — the simulator engine's, or a
live cluster's, whose nodes report every machine action on the same
hook — and feeds every fired action to a set of :class:`ChaosMonitor`
instances, each watching one guarantee of the paper:

- :class:`ClockPredicateMonitor` — the ``C_eps`` envelope
  ``|now - clock| <= eps`` (Section 4's standing assumption; scripted
  ``clock_fault`` windows exist precisely to break it);
- :class:`ChannelBoundMonitor` — every channel delivery happened within
  the declared ``[d1, d2]`` window (Figure 1's delivery precondition);
- :class:`HeartbeatMonitor` — detector *accuracy* (never suspect a
  sender that was up when the beat was due; the Theorem 4.7 guarantee
  under ``timeout = d2 + 2*eps``) and *completeness* (a sender that was
  down at a beat's due time is eventually suspected).

Each :class:`Violation` is attributed to the plan event most plausibly
responsible (:meth:`~repro.chaos.plan.FaultPlan.attribute`), so a chaos
run's output reads "guarantee X broke at t because of event E" — the
attribution the shrinker then minimizes to a smallest witness.

Monitors only *observe*: they never mutate entity state, never consume
randomness, and are therefore incapable of perturbing the run — a
monitored run is trace-identical to an unmonitored one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.automata.actions import Action
from repro.constants import INFINITY, TOLERANCE as _TOLERANCE
from repro.chaos.plan import FaultEvent, FaultPlan
from repro.errors import TransitionError
from repro.faults.recovery import RecoverySchedule
from repro.faults.retransmit import arq_frame
from repro.obs.trace import TeeTracer, Tracer

Edge = Tuple[int, int]

# |now - clock| may legitimately exceed eps by float-clamp noise; the
# clock-predicate monitor only flags genuine breaches.
_SKEW_SLOP = 1e-6


@dataclass
class Violation:
    """One observed breach of a monitored guarantee."""

    monitor: str
    kind: str
    time: float
    detail: str
    node: Optional[int] = None
    edge: Optional[Edge] = None
    event: Optional[FaultEvent] = None
    event_index: Optional[int] = None

    def describe(self) -> str:
        """One human-readable line: kind, time, location, attribution."""
        where = f" node={self.node}" if self.node is not None else ""
        where += f" edge={self.edge}" if self.edge is not None else ""
        cause = (
            f" <- {self.event.describe()}" if self.event is not None else ""
        )
        return (
            f"[{self.kind}] t={self.time:g}{where}: {self.detail}{cause}"
        )


def attribute_violations(
    plan: Optional[FaultPlan],
    violations: List[Violation],
    counter=None,
) -> List[Violation]:
    """Attribute each violation to the responsible plan event, in place.

    The collection step of :class:`MonitorTracer` on either backend, and
    of the live report's end-of-run linearizability verdict, so "every
    violation is attributed and counted" means the same thing
    everywhere. Violations that already carry an event are left alone;
    ``counter`` (if given) is incremented once per violation.
    """
    for violation in violations:
        if plan is not None and violation.event is None:
            event, index = plan.attribute(
                violation.time, node=violation.node, edge=violation.edge
            )
            violation.event = event
            violation.event_index = index
        if counter is not None:
            counter.inc()
    return violations


class ChaosMonitor:
    """Base monitor: every hook returns a list of new violations."""

    name = "monitor"

    def on_action(
        self,
        now: float,
        owner: str,
        action: Action,
        clock: Optional[float],
        visible: bool,
    ) -> List[Violation]:
        """Observe one engine event; return any violations it exposes.

        Called for *every* action (hidden ones included) with the same
        arguments the engine hands its tracer. Monitors must not
        perturb the run — no RNG, no mutation of anything but their
        own bookkeeping — so a monitored run stays trace-identical to
        an unmonitored one.
        """
        return []

    def on_run_end(self, now: float) -> List[Violation]:
        """End-of-run check (e.g. heartbeat completeness)."""
        return []


class ClockPredicateMonitor(ChaosMonitor):
    """Flags ``|now - clock| > eps`` once per excursion of each node.

    Edge-triggered: a node is flagged by the first action that observes
    it outside the envelope, and again only after an observed action
    back inside it — so a second clock fault on one node is a violation
    of its own instead of hiding behind the first.
    """

    name = "clock_predicate"

    def __init__(self, eps: float):
        self.eps = eps
        self._outside: set = set()

    def on_action(self, now, owner, action, clock, visible) -> List[Violation]:
        if clock is None:
            return []
        node = action.params[0] if action.params else None
        key = node if node is not None else owner
        skew = abs(now - clock)
        if skew <= self.eps + _SKEW_SLOP:
            self._outside.discard(key)
            return []
        if key in self._outside:
            return []
        self._outside.add(key)
        return [
            Violation(
                monitor=self.name,
                kind="clock_predicate",
                time=now,
                node=node if isinstance(node, int) else None,
                detail=(
                    f"|now - clock| = |{now:g} - {clock:g}| = {skew:g} "
                    f"> eps = {self.eps:g} at {owner}"
                ),
            )
        ]


class ChannelBoundMonitor(ChaosMonitor):
    """Checks every channel delivery against the ``[d1, d2]`` window.

    Sends are the ``SENDMSG``/``ESENDMSG`` actions of processes,
    deliveries the ``RECVMSG``/``ERECVMSG`` actions of channel entities.
    Two matching rules, by payload:

    - an ARQ ``DATA`` frame (:func:`~repro.faults.retransmit.arq_frame`)
      is one message however often it is sent: it is keyed by
      ``(src, dst, seq)``, timed from its *first* attempt and checked at
      its first delivery only, so later copies (retransmissions, channel
      duplicates) are skipped. That end-to-end delay is what
      :func:`~repro.faults.retransmit.effective_delay_bounds` bounds: a
      drop burst that holds a message past ``d2`` is one violation,
      although the copy that got through crossed the wire in time;
    - any other payload (an ``ACK``, a raw message) is matched to *some*
      outstanding send of the same payload on the edge, and a delivery
      is a violation only when **no** candidate explains it in bounds.

    An unmatched send is legal (channels may lose) and never reported.
    """

    name = "channel_bound"

    def __init__(self, d1: float, d2: float):
        self.d1 = d1
        self.d2 = d2
        self._outstanding: Dict[tuple, List[float]] = {}
        self._delivered: set = set()  # ARQ frames past their first delivery

    @staticmethod
    def _key(name: str, src: int, dst: int, payload) -> Tuple[tuple, bool]:
        """The message a send or delivery is about, and whether it is an
        ARQ ``DATA`` frame: ``(src, dst, seq)`` for one (the ``E`` actions
        carry ``(m, stamp)``, the frame is ``m``), else the payload."""
        external = name[0] == "E"
        try:
            _, seq = arq_frame(payload[0] if external else payload)
        except TransitionError:
            seq = None
        if seq is None:
            return (src, dst, repr(payload)), False
        return (src, dst, external, seq), True

    def on_action(self, now, owner, action, clock, visible) -> List[Violation]:
        name = action.name
        if name in ("SENDMSG", "ESENDMSG") and not owner.startswith(
            ("chan[", "lossychan[")
        ):
            src, dst, payload = action.params[0], action.params[1], action.params[2]
            key, frame = self._key(name, src, dst, payload)
            sends = self._outstanding.setdefault(key, [])
            if not (frame and sends):  # a frame keeps its first attempt
                sends.append(now)
            return []
        if name in ("RECVMSG", "ERECVMSG") and owner.startswith(
            ("chan[", "lossychan[")
        ):
            dst, src, payload = action.params[0], action.params[1], action.params[2]
            key, frame = self._key(name, src, dst, payload)
            if frame:
                if key in self._delivered:
                    return []  # a copy after the frame's first delivery
                self._delivered.add(key)
            sends = self._outstanding.get(key, [])
            if not sends:
                return [
                    Violation(
                        monitor=self.name,
                        kind="channel_bound",
                        time=now,
                        edge=(src, dst),
                        detail=f"delivery of {payload!r} with no matching send",
                    )
                ]
            for index, sent in enumerate(sends):
                delay = now - sent
                if (
                    self.d1 - _TOLERANCE <= delay <= self.d2 + _TOLERANCE
                ):
                    del sends[index]
                    return []
            closest = min(sends, key=lambda sent: abs(now - sent))
            sends.remove(closest)
            return [
                Violation(
                    monitor=self.name,
                    kind="channel_bound",
                    time=now,
                    edge=(src, dst),
                    detail=(
                        f"delivery delay {now - closest:g} outside "
                        f"[{self.d1:g}, {self.d2:g}] for {payload!r}"
                    ),
                )
            ]
        return []


class HeartbeatMonitor(ChaosMonitor):
    """Detector accuracy and completeness against the plan's ground truth.

    The plan is the oracle: the sender was *actually* down at beat
    ``k``'s due time iff its compiled recovery schedule says so. A
    ``SUSPECT`` of a beat whose due time the sender was up for is an
    accuracy violation; a beat the sender was down for that is never
    suspected (although the run outlived its give-up deadline) is a
    completeness violation.
    """

    name = "heartbeat"

    def __init__(
        self,
        sender: int,
        monitor_node: int,
        period: float,
        timeout: float,
        count: int,
        eps: float = 0.0,
        sender_schedule: Optional[RecoverySchedule] = None,
        monitor_schedule: Optional[RecoverySchedule] = None,
    ):
        self.sender = sender
        self.monitor_node = monitor_node
        self.period = period
        self.timeout = timeout
        self.count = count
        self.eps = eps
        self.sender_schedule = sender_schedule or RecoverySchedule()
        self.monitor_schedule = monitor_schedule or RecoverySchedule()
        self.suspected: Dict[int, float] = {}

    def _sender_down_for_beat(self, k: int) -> bool:
        due = k * self.period
        # clock skew shifts the send instant by at most eps either way
        return (
            self.sender_schedule.down(due)
            or self.sender_schedule.down(max(due - self.eps, 0.0))
            or self.sender_schedule.down(due + self.eps)
        )

    def on_action(self, now, owner, action, clock, visible) -> List[Violation]:
        if action.name != "SUSPECT" or not action.params:
            return []
        if action.params[0] != self.monitor_node:
            return []
        k = action.params[1]
        self.suspected.setdefault(k, now)
        if self._sender_down_for_beat(k):
            return []  # a true positive
        return [
            Violation(
                monitor=self.name,
                kind="heartbeat_accuracy",
                time=now,
                node=self.monitor_node,
                detail=(
                    f"SUSPECT(beat {k}) but node {self.sender} was up at "
                    f"the beat's due time {k * self.period:g}"
                ),
            )
        ]

    def on_run_end(self, now: float) -> List[Violation]:
        violations = []
        for k in range(1, self.count + 1):
            if not self._sender_down_for_beat(k):
                continue
            # give-up deadline in monitor clock is k*P + timeout; in real
            # time at most eps later (plus slack for a down monitor)
            give_up = k * self.period + self.timeout + 2.0 * self.eps
            if now < give_up - _TOLERANCE:
                continue  # run ended before the detector had to decide
            if self.monitor_schedule.down(give_up):
                continue  # the monitor itself was down at decision time
            if k not in self.suspected:
                violations.append(
                    Violation(
                        monitor=self.name,
                        kind="heartbeat_completeness",
                        time=give_up,
                        node=self.monitor_node,
                        detail=(
                            f"node {self.sender} was down for beat {k} "
                            f"(due {k * self.period:g}) but was never "
                            f"suspected by {give_up:g}"
                        ),
                    )
                )
        return violations


class MonitorTracer(Tracer):
    """Feeds engine events to monitors and collects attributed violations."""

    enabled = True

    def __init__(
        self,
        monitors: List[ChaosMonitor],
        plan: Optional[FaultPlan] = None,
    ):
        self.monitors = list(monitors)
        self.plan = plan
        self.violations: List[Violation] = []
        self._counter = None

    def bind_metrics(self, metrics) -> None:
        """Count violations into ``repro.chaos.violations``."""
        self._counter = metrics.counter("repro.chaos.violations")

    def _collect(self, new: List[Violation]) -> None:
        attribute_violations(self.plan, new, counter=self._counter)
        self.violations.extend(new)

    def action(self, now, owner, action, clock, visible) -> None:
        for monitor in self.monitors:
            out = monitor.on_action(now, owner, action, clock, visible)
            if out:
                self._collect(out)

    def run_end(self, now, steps) -> None:
        for monitor in self.monitors:
            out = monitor.on_run_end(now)
            if out:
                self._collect(out)

    @property
    def first_violation(self) -> Optional[Violation]:
        """The earliest violation — the *first violated guarantee*."""
        if not self.violations:
            return None
        return min(
            enumerate(self.violations), key=lambda pair: (pair[1].time, pair[0])
        )[1]
