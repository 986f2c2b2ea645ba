"""Algorithm L (Section 6.1) and the shared register-process machinery.

Algorithm L implements a linearizable read-write register in the *timed*
model with message delay ``[d1', d2']``:

- on ``READ_i``, wait ``c + delta`` and return the local value;
- on ``WRITE_i(v)``, send ``(v, t)`` with ``t = now + d2'`` to every
  processor (including ``i`` itself), then ACK after ``d2' - c``;
- on receiving ``(v, t)``, schedule a local update at time ``t + delta``;
  among same-time updates, the one from the largest sender index wins;
- all local copies update at the *same* real time ``send + d2' + delta``
  everywhere, which is what makes every read of a local copy safe.

``c`` is the read/write tradeoff knob, any value in ``[0, d2' - 2*eps]``
(Lemma 6.1: read ``c + delta``, write ``d2' - c``). ``delta`` is the
arbitrarily small wait inserted so that an output depending on all the
inputs at a time strictly follows them (Section 6.1's adaptation of [10]
to the timed automaton model).

Algorithm S (Figure 3) is this process with an extra ``2*eps`` read
delay; the shared transition relation lives in :class:`RegisterProcess`
with the read delay as a parameter, and
:class:`~repro.registers.algorithm_s.AlgorithmSProcess` instantiates it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.automata.actions import Action, ActionPattern, PatternActionSet
from repro.automata.signature import Signature
from repro.components.base import Process, ProcessContext
from repro.errors import TransitionError

from repro.constants import INFINITY, TOLERANCE as _TOLERANCE

INACTIVE = "inactive"
ACTIVE = "active"
SEND = "send"
ACK_PENDING = "ack"


@dataclass
class RegisterState:
    """The Figure 3 state: ``value``, ``read``, ``write``, ``updates``."""

    value: object = None
    read_status: str = INACTIVE
    read_time: Optional[float] = None
    write_status: str = INACTIVE
    send_value: object = None
    send_procs: Set[int] = field(default_factory=set)
    send_time: Optional[float] = None
    ack_time: Optional[float] = None
    # updates: update-time -> (sender index, value); at most one record
    # per time, the largest sender index winning (Figure 3's RECVMSG).
    updates: Dict[float, Tuple[int, object]] = field(default_factory=dict)

    def mintime(self) -> float:
        """The derived ``mintime`` variable: the next urgent instant."""
        candidates: List[float] = []
        if self.read_status == ACTIVE and self.read_time is not None:
            candidates.append(self.read_time)
        if self.write_status == SEND and self.send_time is not None:
            candidates.append(self.send_time)
        if self.write_status == ACK_PENDING and self.ack_time is not None:
            candidates.append(self.ack_time)
        if self.updates:
            candidates.append(min(self.updates))
        return min(candidates) if candidates else INFINITY


def register_signature(node: int) -> Signature:
    """The register node's action signature (Figure 3)."""
    return Signature(
        inputs=PatternActionSet(
            [
                ActionPattern("READ", (node,)),
                ActionPattern("WRITE", (node,)),
                ActionPattern("RECVMSG", (node,)),
            ]
        ),
        outputs=PatternActionSet(
            [
                ActionPattern("RETURN", (node,)),
                ActionPattern("ACK", (node,)),
                ActionPattern("SENDMSG", (node,)),
            ]
        ),
        internals=PatternActionSet([ActionPattern("UPDATE", (node,))]),
    )


class RegisterProcess(Process):
    """The shared L/S transition relation, parameterized by read delay.

    Parameters
    ----------
    node:
        this processor's index ``i``.
    peers:
        destinations of update messages — all processors *including*
        ``i`` itself (the algorithm updates its own copy by message).
    d2_prime:
        the design-model maximum message delay ``d2'``.
    c:
        the read/write tradeoff parameter, in ``[0, d2' - 2*eps]``.
    delta:
        the small ordering wait ``delta > 0``.
    read_extra:
        extra read delay: ``0`` for algorithm L, ``2*eps`` for S.
    initial_value:
        the register's initial value ``v0``.
    """

    # The deadline is the state's ``mintime`` and every ``enabled`` guard
    # is ``now == scheduled`` for one of the instants ``mintime`` ranges
    # over, so nothing becomes enabled before time reaches it.
    static_deadline = True
    wakes_at_deadline = True

    def __init__(
        self,
        node: int,
        peers: Sequence[int],
        d2_prime: float,
        c: float,
        delta: float = 0.01,
        read_extra: float = 0.0,
        initial_value: object = None,
        name: str = "",
    ):
        if delta <= 0:
            raise ValueError("delta must be positive")
        if not 0 <= c <= d2_prime:
            raise ValueError(f"c={c:g} outside [0, d2'={d2_prime:g}]")
        super().__init__(node, register_signature(node), name or f"L({node})")
        self.peers = sorted(peers)
        self.d2_prime = d2_prime
        self.c = c
        self.delta = delta
        self.read_extra = read_extra
        self.initial_value = initial_value

    # -- analytic latency bounds (Lemmas 6.1, 6.2) ---------------------------

    @property
    def read_bound(self) -> float:
        """Analytic read time: ``c + delta`` (+``read_extra`` for S)."""
        return self.c + self.delta + self.read_extra

    @property
    def write_bound(self) -> float:
        """Analytic write time: ``d2' - c``."""
        return self.d2_prime - self.c

    # -- process interface -------------------------------------------------------

    def initial_state(self) -> RegisterState:
        return RegisterState(value=self.initial_value)

    def apply_input(
        self, state: RegisterState, action: Action, ctx: ProcessContext
    ) -> None:
        now = ctx.time
        if action.name == "READ":
            state.read_status = ACTIVE
            state.read_time = now + self.read_bound
        elif action.name == "WRITE":
            value = action.params[1]
            state.write_status = SEND
            state.send_value = value
            state.send_procs = set(self.peers)
            state.send_time = now
            state.ack_time = now + (self.d2_prime - self.c)
        elif action.name == "RECVMSG":
            sender = action.params[1]
            value, t = action.params[2]
            update_time = t + self.delta
            existing = state.updates.get(update_time)
            if existing is None or existing[0] < sender:
                # repro: lint-ignore[ISO003] -- the written value is held
                # read-only until its apply time, then returned to readers
                # verbatim (register semantics: last write wins by value)
                state.updates[update_time] = (sender, value)
        else:
            raise TransitionError(f"{self.name}: unexpected input {action}")

    def enabled(self, state: RegisterState, ctx: ProcessContext) -> List[Action]:
        now = ctx.time
        actions: List[Action] = []
        if state.write_status == SEND and _at(now, state.send_time):
            t = now + self.d2_prime
            for j in sorted(state.send_procs):
                actions.append(
                    Action("SENDMSG", (self.node, j, (state.send_value, t)))
                )
        if state.write_status == ACK_PENDING and _at(now, state.ack_time):
            actions.append(Action("ACK", (self.node,)))
        due_updates = [t for t in state.updates if _at(now, t)]
        for t in sorted(due_updates):
            actions.append(Action("UPDATE", (self.node, t)))
        if (
            state.read_status == ACTIVE
            and _at(now, state.read_time)
            and not due_updates
        ):
            # Figure 3's RETURN guard: pending same-instant updates
            # apply first (the register reads the *post-update* value).
            actions.append(Action("RETURN", (self.node, state.value)))
        return actions

    def fire(
        self, state: RegisterState, action: Action, ctx: ProcessContext
    ) -> None:
        if action.name == "SENDMSG":
            j = action.params[1]
            if j not in state.send_procs:
                raise TransitionError(f"{self.name}: duplicate send to {j}")
            state.send_procs.discard(j)
            if not state.send_procs:
                state.write_status = ACK_PENDING
                state.send_time = None
        elif action.name == "ACK":
            state.write_status = INACTIVE
            state.ack_time = None
            state.send_value = None
        elif action.name == "RETURN":
            state.read_status = INACTIVE
            state.read_time = None
        elif action.name == "UPDATE":
            t = action.params[1]
            if t not in state.updates:
                raise TransitionError(f"{self.name}: no update at {t:g}")
            _, value = state.updates.pop(t)
            state.value = value
        else:
            raise TransitionError(f"{self.name}: cannot fire {action}")

    def deadline(self, state: RegisterState, ctx: ProcessContext) -> float:
        return state.mintime()

    # -- the algorithm/transport seam ----------------------------------------

    def due_actions(self, state: RegisterState, now: float) -> List[Action]:
        """Locally controlled actions *due* at or before time ``now``.

        The live-backend counterpart of :meth:`enabled`. The simulator
        advances time to exact deadlines, so :meth:`enabled` guards with
        ``now == scheduled`` (within tolerance); a real scheduler wakes
        *after* the deadline by some jitter, so the live service needs
        late-firing ``now >= scheduled`` semantics — the same convention
        crash recovery uses for overdue timetable work. State
        transitions stay shared: callers fire the returned actions
        through the ordinary :meth:`fire`.

        Same ordering discipline as :meth:`enabled`: pending same-or-
        earlier-instant updates suppress ``RETURN`` (the register reads
        the post-update value), so callers must re-poll after firing a
        batch until it comes back empty.
        """
        actions: List[Action] = []
        if (
            state.write_status == SEND
            and state.send_time is not None
            and state.send_time <= now + _TOLERANCE
        ):
            t = now + self.d2_prime
            for j in sorted(state.send_procs):
                actions.append(
                    Action("SENDMSG", (self.node, j, (state.send_value, t)))
                )
        if (
            state.write_status == ACK_PENDING
            and state.ack_time is not None
            and state.ack_time <= now + _TOLERANCE
        ):
            actions.append(Action("ACK", (self.node,)))
        due_updates = sorted(t for t in state.updates if t <= now + _TOLERANCE)
        for t in due_updates:
            actions.append(Action("UPDATE", (self.node, t)))
        if (
            state.read_status == ACTIVE
            and state.read_time is not None
            and state.read_time <= now + _TOLERANCE
            and not due_updates
        ):
            actions.append(Action("RETURN", (self.node, state.value)))
        return actions


class AlgorithmLProcess(RegisterProcess):
    """Algorithm L: linearizable in the timed model (Lemma 6.1)."""

    def __init__(
        self,
        node: int,
        peers: Sequence[int],
        d2_prime: float,
        c: float,
        delta: float = 0.01,
        initial_value: object = None,
    ):
        super().__init__(
            node,
            peers,
            d2_prime,
            c,
            delta=delta,
            read_extra=0.0,
            initial_value=initial_value,
            name=f"L({node})",
        )


def _at(now: float, scheduled: Optional[float]) -> bool:
    return scheduled is not None and abs(now - scheduled) <= _TOLERANCE
