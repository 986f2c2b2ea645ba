"""The channel automaton ``E_{ij,[d1,d2]}`` of Figure 1.

State: a buffer of in-transit messages, each remembering its send time.
Transitions (Figure 1):

- ``SENDMSG_i(j, m)`` (input) adds ``(m, now)`` to the buffer;
- ``RECVMSG_j(i, m)`` (output) removes a message, with precondition
  ``t + d1 <= now <= t + d2``;
- ``nu(Δt)`` is blocked from passing any message's latest delivery time
  ``t + d2`` — the operational deadline.

The *choice* of delivery time within the window belongs to the
environment; the executable channel resolves it by sampling a target
delivery time from a :class:`~repro.sim.delay.DelayModel` on arrival and
treating delivery as urgent at that instant. Every such resolution is a
legal behavior of the Figure 1 automaton, and delivery remains within
``[d1, d2]`` by construction.

The same class implements the clock-model channel ``E^c`` (Section 4.1):
only the action names change (``ESENDMSG``/``ERECVMSG``) and the message
domain becomes ``M x R+`` (payloads carry the sender's clock stamp) —
pass ``prefix="E"``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.automata.actions import Action, ActionPattern, PatternActionSet
from repro.automata.signature import Signature
from repro.components.base import Entity
from repro.errors import TransitionError
from repro.obs.metrics import (
    LATENCY_BUCKETS,
    NULL_COUNTER,
    NULL_GAUGE,
    NULL_HISTOGRAM,
    NULL_SKETCH,
    OCCUPANCY_BUCKETS,
)
from repro.sim.delay import ConstantFractionDelay, DelayModel

INFINITY = float("inf")


@dataclass
class InTransit:
    """One message in flight."""

    message: object
    send_time: float
    deliver_at: float


@dataclass
class ChannelState:
    """Mutable channel state: the in-transit buffer and counters."""

    buffer: List[InTransit] = field(default_factory=list)
    sent: int = 0
    delivered: int = 0


class ChannelEntity(Entity):
    """Executable ``E_{ij,[d1,d2]}`` (or ``E^c`` with ``prefix="E"``)."""

    # deadline == min deliver_at over the buffer (state-only; delays are
    # sampled on apply_input, not in queries), and deliveries only become
    # enabled when time reaches that minimum.
    static_deadline = True
    wakes_at_deadline = True

    def __init__(
        self,
        src: int,
        dst: int,
        d1: float,
        d2: float,
        delay_model: Optional[DelayModel] = None,
        prefix: str = "",
    ):
        if d1 < 0 or d2 < d1:
            raise ValueError(f"invalid delay bounds [{d1}, {d2}]")
        self.src = src
        self.dst = dst
        self.d1 = d1
        self.d2 = d2
        self.delay_model = delay_model or ConstantFractionDelay(0.5)
        self.send_name = f"{prefix}SENDMSG"
        self.recv_name = f"{prefix}RECVMSG"
        signature = Signature(
            inputs=PatternActionSet([ActionPattern(self.send_name, (src, dst))]),
            outputs=PatternActionSet([ActionPattern(self.recv_name, (dst, src))]),
        )
        super().__init__(f"chan[{src}->{dst}]{prefix and '^c' or ''}", signature)
        self._sent = NULL_COUNTER
        self._delivered = NULL_COUNTER
        self._latency = NULL_HISTOGRAM
        self._latency_sketch = NULL_SKETCH
        self._occupancy = NULL_HISTOGRAM
        self._depth = NULL_GAUGE

    # -- observability -------------------------------------------------------

    def instrument(self, metrics) -> None:
        """Publish per-delivery latencies and in-transit queue depths."""
        self._sent = metrics.counter("repro.channel.sent")
        self._delivered = metrics.counter("repro.channel.delivered")
        self._latency = metrics.histogram(
            "repro.channel.delivery_latency", LATENCY_BUCKETS
        )
        self._latency_sketch = metrics.sketch("repro.phase.channel")
        self._occupancy = metrics.histogram(
            "repro.channel.occupancy", OCCUPANCY_BUCKETS
        )
        self._depth = metrics.gauge(
            f"repro.channel.queue_depth[{self.src}->{self.dst}]"
        )

    # -- entity interface ----------------------------------------------------

    def initial_state(self) -> ChannelState:
        return ChannelState()

    def apply_input(self, state: ChannelState, action: Action, now: float) -> None:
        # SENDMSG_src(dst, m): buffer (m, now) with a sampled delivery time.
        message = action.params[2]
        delay = self.delay_model.sample(
            (self.src, self.dst), message, now, self.d1, self.d2
        )
        if not (self.d1 - 1e-12 <= delay <= self.d2 + 1e-12):
            raise TransitionError(
                f"{self.name}: delay model produced {delay:g} outside "
                f"[{self.d1:g}, {self.d2:g}]"
            )
        # repro: lint-ignore[ISO003] -- ownership transfer: a SENDMSG
        # hands the message to the channel; the sender never reads or
        # mutates it afterwards (the lossy channel deep-copies when it
        # duplicates, which is the one case two aliases would coexist)
        state.buffer.append(InTransit(message, now, now + delay))
        state.sent += 1
        self._sent.inc()
        depth = float(len(state.buffer))
        self._occupancy.observe(depth)
        self._depth.set(depth)

    def enabled(self, state: ChannelState, now: float) -> List[Action]:
        ready = [
            item
            for item in state.buffer
            if item.deliver_at <= now + 1e-12 and item.send_time + self.d1 <= now + 1e-12
        ]
        return [
            Action(self.recv_name, (self.dst, self.src, item.message))
            for item in ready
        ]

    def fire(self, state: ChannelState, action: Action, now: float) -> None:
        message = action.params[2]
        for idx, item in enumerate(state.buffer):
            if item.message == message and item.deliver_at <= now + 1e-12:
                del state.buffer[idx]
                state.delivered += 1
                self._delivered.inc()
                self._latency.observe(now - item.send_time)
                self._latency_sketch.observe(now - item.send_time)
                self._depth.set(float(len(state.buffer)))
                return
        raise TransitionError(f"{self.name}: no deliverable message {message!r}")

    def deadline(self, state: ChannelState, now: float) -> float:
        if not state.buffer:
            return INFINITY
        return min(item.deliver_at for item in state.buffer)

    def __repr__(self) -> str:
        return f"<ChannelEntity {self.name} [{self.d1:g},{self.d2:g}]>"


def channel_actions(prefix: str = "") -> PatternActionSet:
    """The action families of all channels with the given prefix.

    Used by system builders to hide the node/channel interface
    (Sections 3.3 and 4.1).
    """
    return PatternActionSet(
        [
            ActionPattern(f"{prefix}SENDMSG"),
            ActionPattern(f"{prefix}RECVMSG"),
        ]
    )
