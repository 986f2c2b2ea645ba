"""Algorithm L (Section 6.1) and the one Figure 3 automaton.

Algorithm L implements a linearizable read-write register in the *timed*
model with message delay ``[d1', d2']``:

- on ``READ_i``, wait ``c + delta`` and return the local value;
- on ``WRITE_i(v)``, send ``(v, t)`` with ``t = now + d2'`` to every
  processor (including ``i`` itself), then ACK after ``d2' - c``;
- on receiving ``(v, t)``, schedule a local update at time ``t + delta``;
  same-time updates apply in sender order, so the one from the largest
  sender index wins;
- all local copies update at the *same* real time ``send + d2' + delta``
  everywhere, which is what makes every read of a local copy safe.

``c`` is the read/write tradeoff knob, any value in ``[0, d2' - 2*eps]``
(Lemma 6.1: read ``c + delta``, write ``d2' - c``). ``delta`` is the
arbitrarily small wait inserted so that an output depending on all the
inputs at a time strictly follows them (Section 6.1's adaptation of [10]
to the timed automaton model).

:class:`RegisterProcess` is the only copy of that transition relation.
Algorithm S (:class:`~repro.registers.algorithm_s.AlgorithmSProcess`) is
it with an extra ``2*eps`` read delay, and the generalized object of
Section 6's closing remark
(:class:`~repro.objects.algorithm.BlindUpdateObjectProcess`) is it with
the action names and the two value hooks rebound to a sequential spec —
the register is the blind-update object whose update overwrites and
whose query reads back.

**One firing guard.** A locally controlled action scheduled at ``t`` is
enabled when ``t <= now`` (within tolerance). Time never passes
``mintime`` in a fault-free simulation, so there this is Figure 3's
``now = t``; a node whose time jumped past ``t`` (crash recovery, a
clock fault, a live event loop waking late) fires the overdue action
instead of owing a deadline nothing can discharge.
"""

from __future__ import annotations

from bisect import bisect_right, insort
from dataclasses import dataclass, field
from operator import itemgetter
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
    # the pending query's argument; a register READ carries none
    read_query: object = None
    write_status: str = INACTIVE
    send_value: object = None
    send_procs: Set[int] = field(default_factory=set)
    send_time: Optional[float] = None
    ack_time: Optional[float] = None
    # updates: update-time -> [(sender index, update)] in sender order,
    # the order every replica applies a same-instant bucket in.
    updates: Dict[float, List[Tuple[int, object]]] = field(default_factory=dict)
    # the keys of ``updates`` in ascending order: at the fast-write end
    # hundreds are pending, and the next or latest due one is a bisection
    instants: List[float] = field(default_factory=list)

    def mintime(self) -> float:
        """The derived ``mintime`` variable: the next urgent instant."""
        candidates: List[float] = []
        if self.read_status == ACTIVE:
            candidates.append(self.read_time)
        if self.write_status == SEND:
            candidates.append(self.send_time)
        if self.write_status == ACK_PENDING:
            candidates.append(self.ack_time)
        if self.instants:
            candidates.append(self.instants[0])
        return min(candidates) if candidates else INFINITY


class RegisterProcess(Process):
    """The Figure 3 transition relation, parameterized by read delay.

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

    # The action vocabulary: query and update invocations, their
    # responses, and the internal replica update.
    READ, WRITE, RETURN, ACK, UPDATE = "READ", "WRITE", "RETURN", "ACK", "UPDATE"

    # The deadline is the state's ``mintime`` and every ``enabled`` guard
    # is ``scheduled <= now`` for one of the instants ``mintime`` ranges
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
        super().__init__(node, self.node_signature(node), name or f"L({node})")
        self.peers = sorted(peers)
        self.d2_prime = d2_prime
        self.c = c
        self.delta = delta
        self.read_extra = read_extra
        self.initial_value = initial_value

    @classmethod
    def node_signature(cls, node: int) -> Signature:
        """Node ``i``'s action signature in this class's vocabulary."""
        return Signature(
            inputs=PatternActionSet(
                [
                    ActionPattern(cls.READ, (node,)),
                    ActionPattern(cls.WRITE, (node,)),
                    ActionPattern("RECVMSG", (node,)),
                ]
            ),
            outputs=PatternActionSet(
                [
                    ActionPattern(cls.RETURN, (node,)),
                    ActionPattern(cls.ACK, (node,)),
                    ActionPattern("SENDMSG", (node,)),
                ]
            ),
            internals=PatternActionSet([ActionPattern(cls.UPDATE, (node,))]),
        )

    # -- the two value hooks ---------------------------------------------------

    def apply_update(self, value: object, update: object) -> object:
        """The replica value after ``update``: a write overwrites."""
        return update

    def evaluate(self, value: object, query: object) -> object:
        """A query's response on the replica value: a read reads back."""
        return value

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
        if action.name == "RECVMSG":
            sender = action.params[1]
            update, t = action.params[2]
            instant = t + self.delta
            if instant not in state.updates:
                insort(state.instants, instant)
            # repro: lint-ignore[ISO003] -- the update is held read-only
            # until its apply time, then handed to ``apply_update`` by value
            state.updates[instant] = sorted(
                [*state.updates.get(instant, ()), (sender, update)],
                key=itemgetter(0),
            )
        elif action.name == self.READ:
            state.read_status = ACTIVE
            state.read_time = now + self.read_bound
            state.read_query = action.params[1] if len(action.params) > 1 else None
        elif action.name == self.WRITE:
            state.write_status = SEND
            state.send_value = action.params[1]
            state.send_procs = set(self.peers)
            state.send_time = now
            state.ack_time = now + (self.d2_prime - self.c)
        else:
            raise TransitionError(f"{self.name}: unexpected input {action}")

    def enabled(self, state: RegisterState, ctx: ProcessContext) -> List[Action]:
        now = ctx.time
        horizon = now + _TOLERANCE
        actions: List[Action] = []
        if state.write_status == SEND and state.send_time <= horizon:
            t = now + self.d2_prime
            for j in sorted(state.send_procs):
                actions.append(
                    Action("SENDMSG", (self.node, j, (state.send_value, t)))
                )
        if state.write_status == ACK_PENDING and state.ack_time <= horizon:
            actions.append(Action(self.ACK, (self.node,)))
        # One UPDATE brings the replica up to the latest due instant, so
        # several overdue instants cannot be fired out of order.
        due = bisect_right(state.instants, horizon)
        if due:
            latest = state.instants[due - 1]
            actions.append(Action(self.UPDATE, (self.node, latest)))
        elif state.read_status == ACTIVE and state.read_time <= horizon:
            # Figure 3's RETURN guard: pending same-instant updates
            # apply first (the register reads the *post-update* value).
            response = self.evaluate(state.value, state.read_query)
            actions.append(Action(self.RETURN, (self.node, response)))
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
        elif action.name == self.ACK:
            state.write_status = INACTIVE
            state.ack_time = None
            state.send_value = None
        elif action.name == self.RETURN:
            state.read_status = INACTIVE
            state.read_time = None
            state.read_query = None
        elif action.name == self.UPDATE:
            t = action.params[1]
            if t not in state.updates:
                raise TransitionError(f"{self.name}: no update at {t:g}")
            # every bucket up to ``t``, in the agreed (instant, sender) order
            due = bisect_right(state.instants, t)
            for instant in state.instants[:due]:
                for _, update in state.updates.pop(instant):
                    state.value = self.apply_update(state.value, update)
            del state.instants[:due]
        else:
            raise TransitionError(f"{self.name}: cannot fire {action}")

    def deadline(self, state: RegisterState, ctx: ProcessContext) -> float:
        return state.mintime()

    def due_actions(self, state: RegisterState, now: float) -> List[Action]:
        """:meth:`enabled` at time ``now``.

        Nothing under ``src/`` calls it: the live node drives
        :class:`~repro.core.clock_transform.ClockMachine`. It stays only
        because ``benchmarks/suite/workloads.py`` wraps it by name.
        """
        return self.enabled(state, ProcessContext(now))


def register_signature(node: int) -> Signature:
    """The register node's action signature (Figure 3)."""
    return RegisterProcess.node_signature(node)


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
