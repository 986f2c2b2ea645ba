"""The [10]-style native clock-model register (Section 6.3 baseline).

Mavronicolas's thesis [10] is not publicly available; the paper reports
only that its clock-model algorithm "involves some complicated
time-slicing" and achieves read time ``4u`` and write time ``d2 + 3u``
in the model where clocks differ from each other by at most ``u``
(``u = 2*eps`` in our model's terms). This module reconstructs a
time-sliced algorithm with exactly those bounds, so the Section 6.3
comparison can be *run* rather than merely quoted.

Design (all times are local clock times; slots have width ``u``):

- **Write** at clock ``w``: broadcast ``(v, T)`` immediately, where
  ``T = ceil((w + d2 + u) / u) * u`` is a slot boundary; ACK when the
  local clock reaches ``T``. Since any receiver's clock at message
  arrival is at most ``w + d2 + u <= T``, every replica can apply the
  update exactly when its local clock reads ``T`` — same-``T`` ties
  broken by the larger sender index. Write latency: ``T - w < d2 + 2u``
  in clock time, at most ``d2 + 3u`` in real time.
- **Read** at clock ``r``: snapshot the local value when the clock
  reads ``r + 2u``, respond with it at ``r + 4u``. The two-slot lead of
  the snapshot guarantees the snapshot point exceeds the ``T`` of every
  write acknowledged before the read was invoked, and the two-slot lag
  of the response keeps snapshot points of real-time-ordered reads
  monotone despite clock skew. Read latency: exactly ``4u``.

Why this is the fair comparison: both the transformed algorithm S and
this baseline solve plain linearizability against clocks that are ``eps``
from real time; S (Theorem 6.5) costs read ``c + u`` / write
``d2 - c + u`` (combined ``d2 + 2u``), the slotted baseline read ``4u`` /
write ``d2 + 3u`` (combined ``d2 + 7u``) — the paper's stated gap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.automata.actions import Action
from repro.components.base import Process, ProcessContext
from repro.errors import TransitionError
from repro.registers.algorithm_l import (
    ACK_PENDING,
    ACTIVE,
    INACTIVE,
    SEND,
    register_signature,
)

from repro.constants import INFINITY, TOLERANCE as _TOLERANCE


@dataclass
class SlottedState:
    """Baseline state: register value plus slot-scheduled bookkeeping."""

    value: object = None
    # pending updates: slot boundary T -> (sender, value)
    pending: Dict[float, Tuple[int, object]] = field(default_factory=dict)
    # read record
    read_status: str = INACTIVE
    snap_time: Optional[float] = None
    resp_time: Optional[float] = None
    snap_value: object = None
    snap_taken: bool = False
    # write record
    write_status: str = INACTIVE
    send_value: object = None
    send_procs: Set[int] = field(default_factory=set)
    send_time: Optional[float] = None
    apply_slot: Optional[float] = None


class SlottedRegisterProcess(Process):
    """Time-sliced register designed natively for the clock model.

    Run it as ``ClockNodeEntity(PassThroughMachine(process), driver)``,
    which is what lowering its design
    (:func:`repro.registers.system.register_design` with
    ``algorithm="slotted"``) by
    ``Clock(eps, drivers, machine=PassThroughMachine)`` builds: no
    buffers, and the process's notion of time *is* the node clock.
    """

    SNAP = "SNAP"
    APPLY = "APPLY"

    def __init__(
        self,
        node: int,
        peers: Sequence[int],
        d2: float,
        u: float,
        initial_value: object = None,
    ):
        if u <= 0:
            raise ValueError("the slot width u must be positive")
        from repro.automata.actions import ActionPattern, PatternActionSet
        from repro.automata.signature import Signature

        base = register_signature(node)
        internals = PatternActionSet(
            [
                ActionPattern(self.SNAP, (node,)),
                ActionPattern(self.APPLY, (node,)),
            ]
        )
        signature = Signature(
            inputs=base.inputs,
            outputs=base.outputs,
            internals=internals,
        )
        super().__init__(node, signature, name=f"slotted({node})")
        self.peers = sorted(peers)
        self.d2 = d2
        self.u = u
        self.initial_value = initial_value

    # -- analytic bounds (Section 6.3, clock time) ---------------------------

    @property
    def read_bound(self) -> float:
        """Read latency in clock time: ``4u``."""
        return 4.0 * self.u

    @property
    def write_bound(self) -> float:
        """Worst-case write latency in clock time: ``d2 + 2u``
        (``d2 + 3u`` in real time once clock skew is accounted)."""
        return self.d2 + 2.0 * self.u

    def _slot_ceiling(self, t: float) -> float:
        """The smallest slot boundary ``>= t``."""
        return math.ceil(t / self.u - _TOLERANCE) * self.u

    # -- process interface -------------------------------------------------------

    def initial_state(self) -> SlottedState:
        return SlottedState(value=self.initial_value)

    def apply_input(
        self, state: SlottedState, action: Action, ctx: ProcessContext
    ) -> None:
        clock = ctx.time
        if action.name == "READ":
            state.read_status = ACTIVE
            state.snap_time = clock + 2.0 * self.u
            state.resp_time = clock + 4.0 * self.u
            state.snap_taken = False
            state.snap_value = None
        elif action.name == "WRITE":
            value = action.params[1]
            state.write_status = SEND
            state.send_value = value
            state.send_procs = set(self.peers)
            state.send_time = clock
            state.apply_slot = self._slot_ceiling(clock + self.d2 + self.u)
        elif action.name == "RECVMSG":
            sender = action.params[1]
            value, slot = action.params[2]
            existing = state.pending.get(slot)
            if existing is None or existing[0] < sender:
                # repro: lint-ignore[ISO003] -- the written value is held
                # read-only until its slot boundary, then applied by value
                state.pending[slot] = (sender, value)
        else:
            raise TransitionError(f"{self.name}: unexpected input {action}")

    def enabled(self, state: SlottedState, ctx: ProcessContext) -> List[Action]:
        # the one Figure 3 firing guard: ``scheduled <= clock`` (see
        # :mod:`repro.registers.algorithm_l`)
        clock = ctx.time
        horizon = clock + _TOLERANCE
        actions: List[Action] = []
        if state.write_status == SEND and state.send_time <= horizon:
            for j in sorted(state.send_procs):
                actions.append(
                    Action(
                        "SENDMSG",
                        (self.node, j, (state.send_value, state.apply_slot)),
                    )
                )
        due = [slot for slot in state.pending if slot <= horizon]
        for slot in sorted(due):
            actions.append(Action(self.APPLY, (self.node, slot)))
        if state.write_status == ACK_PENDING and state.apply_slot <= horizon:
            # ACK only after the local copy applied this write's slot.
            if not any(slot <= state.apply_slot + _TOLERANCE for slot in due):
                actions.append(Action("ACK", (self.node,)))
        if state.read_status == ACTIVE and not state.snap_taken:
            if state.snap_time <= horizon and not any(
                slot <= state.snap_time + _TOLERANCE for slot in due
            ):
                actions.append(Action(self.SNAP, (self.node,)))
        if (
            state.read_status == ACTIVE
            and state.snap_taken
            and state.resp_time <= horizon
        ):
            actions.append(Action("RETURN", (self.node, state.snap_value)))
        return actions

    def fire(
        self, state: SlottedState, action: Action, ctx: ProcessContext
    ) -> None:
        if action.name == "SENDMSG":
            j = action.params[1]
            if j not in state.send_procs:
                raise TransitionError(f"{self.name}: duplicate send to {j}")
            state.send_procs.discard(j)
            if not state.send_procs:
                state.write_status = ACK_PENDING
                state.send_time = None
        elif action.name == self.APPLY:
            slot = action.params[1]
            if slot not in state.pending:
                raise TransitionError(f"{self.name}: no pending update at {slot:g}")
            _, value = state.pending.pop(slot)
            state.value = value
        elif action.name == "ACK":
            state.write_status = INACTIVE
            state.apply_slot = None
            state.send_value = None
        elif action.name == self.SNAP:
            state.snap_value = state.value
            state.snap_taken = True
        elif action.name == "RETURN":
            state.read_status = INACTIVE
            state.snap_time = None
            state.resp_time = None
            state.snap_taken = False
        else:
            raise TransitionError(f"{self.name}: cannot fire {action}")

    def deadline(self, state: SlottedState, ctx: ProcessContext) -> float:
        candidates: List[float] = []
        if state.write_status == SEND and state.send_time is not None:
            candidates.append(state.send_time)
        if state.write_status == ACK_PENDING and state.apply_slot is not None:
            candidates.append(state.apply_slot)
        if state.read_status == ACTIVE:
            if not state.snap_taken and state.snap_time is not None:
                candidates.append(state.snap_time)
            if state.snap_taken and state.resp_time is not None:
                candidates.append(state.resp_time)
        if state.pending:
            candidates.append(min(state.pending))
        return min(candidates) if candidates else INFINITY

