"""Heartbeat sender and deadline monitor processes.

Both are ordinary :class:`~repro.components.base.Process` algorithms in
the paper's programming model — they read only the time handed to them,
so they are eps-time independent and transform with Simulation 1/2
unchanged.

Accuracy analysis (timed model, delays ``[d1', d2']``): heartbeat ``k``
is sent at ``k*P`` and arrives by ``k*P + d2'``, so a monitor with
``timeout >= d2'`` never suspects a live sender. By the Theorem 4.7 rule
this means ``timeout = d2 + 2*eps`` when deployed on a ``[d1, d2]``
network with eps-accurate clocks — :func:`detector_timeout`.

Completeness: if the sender crashes at real time ``T``, no heartbeat
with ``k*P > T + eps`` (clock skew) is ever sent, so the monitor's
deadline for the first missing heartbeat fires by roughly
``T + P + timeout + 2*eps``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Set

from repro.automata.actions import Action
from repro.automata.signature import Signature
from repro.components.base import Process, ProcessContext
from repro.automata.actions import ActionPattern, PatternActionSet
from repro.core.pipeline import Design, Lowering, SystemSpec, lower
from repro.network.topology import Topology

from repro.constants import INFINITY, TOLERANCE as _TOLERANCE


def detector_timeout(d2: float, eps: float) -> float:
    """The deployment timeout per the Theorem 4.7 design rule."""
    return d2 + 2.0 * eps


@dataclass
class SenderState:
    next_beat: int = 1
    pending_send: Optional[int] = None


class HeartbeatSender(Process):
    """Sends heartbeat ``k`` at time ``k * period`` to the monitor.

    Each send is announced by a visible ``BEAT_i(k)`` marker so traces
    expose the sender's schedule.
    """

    def __init__(self, node: int, monitor: int, period: float, count: int):
        if period <= 0:
            raise ValueError("period must be positive")
        signature = Signature(
            outputs=PatternActionSet(
                [ActionPattern("SENDMSG", (node,)), ActionPattern("BEAT", (node,))]
            ),
        )
        super().__init__(node, signature, name=f"hbsender({node})")
        self.monitor = monitor
        self.period = period
        self.count = count

    def initial_state(self) -> SenderState:
        return SenderState()

    def apply_input(self, state, action, ctx):
        raise AssertionError("sender has no inputs")

    def _due(self, state: SenderState) -> float:
        if state.next_beat > self.count:
            return INFINITY
        return state.next_beat * self.period

    def enabled(self, state: SenderState, ctx: ProcessContext) -> List[Action]:
        if state.pending_send is not None:
            return [
                Action(
                    "SENDMSG",
                    (self.node, self.monitor, ("hb", state.pending_send)),
                )
            ]
        # ``>=``, not equality: normally the clock deadline stops the
        # clock exactly at the due time, but a crash–recovery clock
        # jump can land past it — the overdue beats then fire
        # back-to-back at the resumed clock.
        if ctx.time >= self._due(state) - _TOLERANCE:
            return [Action("BEAT", (self.node, state.next_beat))]
        return []

    def fire(self, state: SenderState, action: Action, ctx) -> None:
        if action.name == "BEAT":
            state.pending_send = action.params[1]
            state.next_beat += 1
        else:
            state.pending_send = None

    def deadline(self, state: SenderState, ctx) -> float:
        if state.pending_send is not None:
            return ctx.time
        return self._due(state)


@dataclass
class MonitorState:
    expected: int = 1
    received: Set[int] = field(default_factory=set)
    suspicions: List[int] = field(default_factory=list)


class DeadlineMonitor(Process):
    """Suspects the sender when heartbeat ``k`` misses ``k*P + timeout``."""

    def __init__(self, node: int, period: float, timeout: float, count: int):
        if period <= 0 or timeout < 0:
            raise ValueError("invalid period/timeout")
        signature = Signature(
            inputs=PatternActionSet([ActionPattern("RECVMSG", (node,))]),
            outputs=PatternActionSet([ActionPattern("SUSPECT", (node,))]),
        )
        super().__init__(node, signature, name=f"hbmonitor({node})")
        self.period = period
        self.timeout = timeout
        self.count = count

    def initial_state(self) -> MonitorState:
        return MonitorState()

    def _deadline_for(self, k: int) -> float:
        return k * self.period + self.timeout

    def _advance_expected(self, state: MonitorState) -> None:
        while state.expected in state.received and state.expected <= self.count:
            state.expected += 1

    def apply_input(self, state: MonitorState, action: Action, ctx) -> None:
        _, k = action.params[2]
        state.received.add(k)  # repro: lint-ignore[ISO003] -- k is an immutable int
        self._advance_expected(state)

    def enabled(self, state: MonitorState, ctx) -> List[Action]:
        if state.expected > self.count:
            return []
        if ctx.time >= self._deadline_for(state.expected) - _TOLERANCE:
            return [Action("SUSPECT", (self.node, state.expected))]
        return []

    def fire(self, state: MonitorState, action: Action, ctx) -> None:
        k = action.params[1]
        state.suspicions.append(k)  # repro: lint-ignore[ISO003] -- k is an immutable int
        # give up on k, move on
        # repro: lint-ignore[ISO003] -- k is an immutable int
        state.received.add(k)
        self._advance_expected(state)

    def deadline(self, state: MonitorState, ctx) -> float:
        if state.expected > self.count:
            return INFINITY
        return self._deadline_for(state.expected)


def build_detector_system(
    lowering: Lowering,
    period: float,
    timeout: float,
    count: int,
    d1: float,
    d2: float,
    delay_model=None,
    fault_model=None,
) -> SystemSpec:
    """A two-node sender/monitor system on a ``[d1, d2]`` network, in
    ``lowering``'s model.

    The timed-model verification of a clock deployment runs ``Timed()``
    on that deployment's design bounds:
    ``simulation1_delay_bounds(d1, d2, eps)``.
    """
    topology = Topology(2, [(0, 1)])

    def processes(i: int) -> Process:
        if i == 0:
            return HeartbeatSender(0, 1, period, count)
        return DeadlineMonitor(1, period, timeout, count)

    return lower(
        Design(topology, processes, d1, d2), lowering, delay_model, fault_model
    )
