"""The pinger/echo pair: the minimal visible-traffic workload.

The pinger/echo pair is the smallest algorithm exercising the network
interface with externally visible behavior, used by the simulation
theorems' tests, the paper-experiment harness, and campaign smoke grids:

- :class:`PingerProcess` (node 0) emits a visible ``PING_0(k)`` marker at
  each scheduled time, immediately followed by a ``SENDMSG`` carrying
  ``("ping", k)`` to the peer; on receiving ``("pong", k)`` it emits a
  visible ``GOTPONG_0(k)``.
- :class:`EchoProcess` (node 1) answers every ``("ping", k)`` with
  ``("pong", k)``.

Both are trivially eps-time independent (their decisions read only the
time handed to them), so they are legal inputs to both simulations. The
visible trace — ``PING`` and ``GOTPONG`` events — supports round-trip
specifications used by the Theorem 4.7 / 5.1 tests.

(Historically these lived in ``tests/helpers.py``; they moved into the
installed package so benchmarks and campaign workers can import them
without ``sys.path`` manipulation. ``tests/helpers.py`` re-exports them.)
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Set

from repro.automata.actions import Action, ActionPattern, PatternActionSet
from repro.automata.signature import Signature
from repro.components.base import Process, ProcessContext
from repro.errors import TransitionError

from repro.constants import INFINITY, TOLERANCE as _TOLERANCE


@dataclass
class PingerState:
    """Mutable state of a :class:`PingerProcess`."""

    next_index: int = 1
    pending_send: Optional[int] = None
    pending_pongs: List[int] = field(default_factory=list)
    sent: Set[int] = field(default_factory=set)
    got: Set[int] = field(default_factory=set)


class PingerProcess(Process):
    """Sends ``count`` pings at ``interval, 2*interval, ...``."""

    # Whenever nothing is enabled (no pending send/pongs), the deadline
    # is the absolute next ping time — state-only — and nothing becomes
    # enabled before time reaches it.
    static_deadline = True
    wakes_at_deadline = True

    def __init__(self, node: int, peer: int, count: int, interval: float):
        signature = Signature(
            inputs=PatternActionSet([ActionPattern("RECVMSG", (node,))]),
            outputs=PatternActionSet(
                [
                    ActionPattern("SENDMSG", (node,)),
                    ActionPattern("PING", (node,)),
                    ActionPattern("GOTPONG", (node,)),
                ]
            ),
        )
        super().__init__(node, signature, name=f"pinger({node})")
        self.peer = peer
        self.count = count
        self.interval = interval

    def initial_state(self) -> PingerState:
        return PingerState()

    def _next_ping_time(self, state: PingerState) -> float:
        if state.next_index > self.count:
            return INFINITY
        return state.next_index * self.interval

    def apply_input(self, state: PingerState, action: Action, ctx: ProcessContext) -> None:
        if action.name != "RECVMSG":
            raise TransitionError(f"{self.name}: unexpected input {action}")
        payload = action.params[2]
        kind, k = payload
        if kind != "pong":
            raise TransitionError(f"{self.name}: unexpected payload {payload!r}")
        state.pending_pongs.append(k)  # repro: lint-ignore[ISO003] -- k is an immutable int

    def enabled(self, state: PingerState, ctx: ProcessContext) -> List[Action]:
        actions: List[Action] = []
        if state.pending_send is not None:
            actions.append(
                Action("SENDMSG", (self.node, self.peer, ("ping", state.pending_send)))
            )
            return actions  # send before anything else at this instant
        for k in state.pending_pongs:
            actions.append(Action("GOTPONG", (self.node, k)))
        # ``>=``, not equality: the deadline normally stops time exactly
        # at the due instant, but a crash–recovery can resume the node
        # past it — the overdue pings then fire at the recovery time.
        if ctx.time >= self._next_ping_time(state) - _TOLERANCE:
            actions.append(Action("PING", (self.node, state.next_index)))
        return actions

    def fire(self, state: PingerState, action: Action, ctx: ProcessContext) -> None:
        if action.name == "PING":
            k = action.params[1]
            state.pending_send = k
            state.next_index += 1
        elif action.name == "SENDMSG":
            payload = action.params[2]
            state.sent.add(payload[1])  # repro: lint-ignore[ISO003] -- ping index is an immutable int
            state.pending_send = None
        elif action.name == "GOTPONG":
            k = action.params[1]
            state.pending_pongs.remove(k)
            state.got.add(k)  # repro: lint-ignore[ISO003] -- k is an immutable int
        else:
            raise TransitionError(f"{self.name}: cannot fire {action}")

    def deadline(self, state: PingerState, ctx: ProcessContext) -> float:
        if state.pending_send is not None or state.pending_pongs:
            # ctx.time is returned only while actions are enabled ("fire
            # now"): the engine fires before advancing time, so this branch
            # is never cached across an advance; the idle branch is
            # state-only
            return ctx.time
        return self._next_ping_time(state)


@dataclass
class EchoState:
    """Mutable state of an :class:`EchoProcess`."""

    pending: List[int] = field(default_factory=list)
    answered: int = 0


class EchoProcess(Process):
    """Replies ``("pong", k)`` to every ``("ping", k)``."""

    # Enabled set is a pure function of state (never of time); with
    # nothing pending the deadline is INFINITY.
    static_deadline = True
    wakes_at_deadline = True

    def __init__(self, node: int, peer: int):
        signature = Signature(
            inputs=PatternActionSet([ActionPattern("RECVMSG", (node,))]),
            outputs=PatternActionSet([ActionPattern("SENDMSG", (node,))]),
        )
        super().__init__(node, signature, name=f"echo({node})")
        self.peer = peer

    def initial_state(self) -> EchoState:
        return EchoState()

    def apply_input(self, state: EchoState, action: Action, ctx: ProcessContext) -> None:
        if action.name != "RECVMSG":
            raise TransitionError(f"{self.name}: unexpected input {action}")
        kind, k = action.params[2]
        if kind != "ping":
            raise TransitionError(f"{self.name}: unexpected payload {(kind, k)!r}")
        state.pending.append(k)  # repro: lint-ignore[ISO003] -- k is an immutable int

    def enabled(self, state: EchoState, ctx: ProcessContext) -> List[Action]:
        return [
            Action("SENDMSG", (self.node, self.peer, ("pong", k)))
            for k in state.pending
        ]

    def fire(self, state: EchoState, action: Action, ctx: ProcessContext) -> None:
        payload = action.params[2]
        state.pending.remove(payload[1])
        state.answered += 1

    def deadline(self, state: EchoState, ctx: ProcessContext) -> float:
        # ctx.time is returned only while replies are enabled (fired
        # before time advances); idle is INFINITY
        return ctx.time if state.pending else INFINITY


def pinger_process_factory(count: int, interval: float):
    """Factory for a two-node pinger/echo system (node 0 pings node 1)."""

    def make(i: int) -> Process:
        if i == 0:
            return PingerProcess(0, 1, count, interval)
        if i == 1:
            return EchoProcess(1, 0)
        raise ValueError(f"pinger system has nodes 0 and 1 only, got {i}")

    return make


def pinger_topology():
    """The two-node topology (0 -> 1 and 1 -> 0) the pinger pair runs on."""
    from repro.network.topology import Topology

    return Topology(2, [(0, 1), (1, 0)])
