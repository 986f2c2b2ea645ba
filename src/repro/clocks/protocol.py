"""Clock synchronization as an in-engine protocol (hybrid model).

Section 4.3 remarks that the paper's clock model matches the
"clocks within u of each other" model *"if some of the nodes in the
distributed system are attached to real time sources such as atomic
clocks"*. This module builds that hybrid system inside the simulator:

- a **time server** runs as a timed-model node (its clock *is* real
  time — the atomic clock);
- each **client** runs on a free-running hardware clock (a drifting
  :class:`~repro.sim.clock_drivers.ClockDriver` with a generous
  envelope) and maintains a *software clock*
  ``software = hardware + correction`` in its state;
- every ``period`` (of hardware time) the client performs a
  request/response exchange and applies Cristian's midpoint estimate:
  ``correction += server_time + rtt/2 − software_at_response``.

The achieved software-clock error is measurable from the trace: clients
emit ``SAMPLE_i(software_time)`` actions, and the recorder stamps each
with the real time at which it fired, so ``|software − now|`` is exact.
The analytic envelope is the same as the standalone simulation's
(:func:`repro.clocks.sync.achievable_epsilon`), with the hardware rate
``rho`` and the exchange network's ``[d1, d2]``.

This closes the loop of the whole repository: the ``eps`` that every
transformation assumes is here *produced* by a protocol running in the
very model the transformations target.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.automata.actions import Action, ActionPattern, PatternActionSet
from repro.automata.signature import Signature
from repro.components.base import Process, ProcessContext
from repro.core.pipeline import SystemSpec
from repro.components.base import TimedNodeEntity
from repro.core.clock_transform import ClockNodeEntity, PassThroughMachine
from repro.errors import SpecificationError, TransitionError
from repro.network.channel import ChannelEntity, channel_actions
from repro.network.topology import Topology
from repro.sim.clock_drivers import DriftingClockDriver
from repro.sim.delay import DelayModel

from repro.constants import INFINITY, TOLERANCE as _TOLERANCE


@dataclass
class ServerState:
    pending: List[Tuple[int, int]] = field(default_factory=list)  # (client, nonce)


class TimeServerProcess(Process):
    """Answers every request with the current (true) time.

    Runs as a timed-model node: ``ctx.time`` is real time — the atomic
    clock of the Section 4.3 remark.
    """

    def __init__(self, node: int):
        signature = Signature(
            inputs=PatternActionSet([ActionPattern("RECVMSG", (node,))]),
            outputs=PatternActionSet([ActionPattern("SENDMSG", (node,))]),
        )
        super().__init__(node, signature, name=f"timeserver({node})")

    def initial_state(self) -> ServerState:
        return ServerState()

    def apply_input(self, state: ServerState, action: Action, ctx) -> None:
        kind, client, nonce = action.params[2]
        if kind != "timereq":
            raise TransitionError(f"{self.name}: unexpected {action}")
        # repro: lint-ignore[ISO003] -- client/nonce are immutable ints
        state.pending.append((client, nonce))

    def enabled(self, state: ServerState, ctx) -> List[Action]:
        if not state.pending:
            return []
        client, nonce = state.pending[0]
        return [
            Action(
                "SENDMSG",
                (self.node, client, ("timeresp", nonce, ctx.time)),
            )
        ]

    def fire(self, state: ServerState, action: Action, ctx) -> None:
        state.pending.pop(0)

    def deadline(self, state: ServerState, ctx) -> float:
        return ctx.time if state.pending else INFINITY


@dataclass
class ClientState:
    correction: float = 0.0
    next_exchange: float = 0.0  # hardware time
    nonce: int = 0
    outstanding: Optional[Tuple[int, float]] = None  # (nonce, software at send)
    next_sample: float = 0.0
    exchanges: int = 0


class SyncClientProcess(Process):
    """Maintains a software clock disciplined by server exchanges.

    ``ctx.time`` here is the node's free-running *hardware* clock. The
    software clock is ``ctx.time + correction``. Corrections are
    applied as steps to the correction variable; the emitted ``SAMPLE``
    values (used for measurement) always report the software clock.
    """

    def __init__(
        self,
        node: int,
        server: int,
        period: float,
        sample_every: float,
        samples_offset: float = 0.05,
    ):
        if period <= 0 or sample_every <= 0:
            raise SpecificationError("period and sample_every must be positive")
        signature = Signature(
            inputs=PatternActionSet([ActionPattern("RECVMSG", (node,))]),
            outputs=PatternActionSet(
                [
                    ActionPattern("SENDMSG", (node,)),
                    ActionPattern("SAMPLE", (node,)),
                ]
            ),
        )
        super().__init__(node, signature, name=f"syncclient({node})")
        self.server = server
        self.period = period
        self.sample_every = sample_every
        self.samples_offset = samples_offset

    def initial_state(self) -> ClientState:
        state = ClientState()
        state.next_sample = self.samples_offset
        return state

    def software(self, state: ClientState, hardware: float) -> float:
        """The software clock: hardware reading plus correction."""
        return hardware + state.correction

    def apply_input(self, state: ClientState, action: Action, ctx) -> None:
        kind, nonce, server_time = action.params[2]
        if kind != "timeresp":
            raise TransitionError(f"{self.name}: unexpected {action}")
        if state.outstanding is None or state.outstanding[0] != nonce:
            return  # stale response
        _, software_at_send = state.outstanding
        software_now = self.software(state, ctx.time)
        rtt = software_now - software_at_send
        estimate = server_time + rtt / 2.0
        state.correction += estimate - software_now
        state.outstanding = None
        state.exchanges += 1

    def enabled(self, state: ClientState, ctx) -> List[Action]:
        actions: List[Action] = []
        if state.outstanding is None and ctx.time >= state.next_exchange - _TOLERANCE:
            actions.append(
                Action(
                    "SENDMSG",
                    (self.node, self.server, ("timereq", self.node, state.nonce)),
                )
            )
        if ctx.time >= state.next_sample - _TOLERANCE:
            actions.append(
                Action("SAMPLE", (self.node, self.software(state, ctx.time)))
            )
        return actions

    def fire(self, state: ClientState, action: Action, ctx) -> None:
        if action.name == "SENDMSG":
            state.outstanding = (state.nonce, self.software(state, ctx.time))
            state.nonce += 1
            state.next_exchange = ctx.time + self.period
        elif action.name == "SAMPLE":
            state.next_sample = ctx.time + self.sample_every
        else:
            raise TransitionError(f"{self.name}: cannot fire {action}")

    def deadline(self, state: ClientState, ctx) -> float:
        deadline = state.next_sample
        if state.outstanding is None:
            deadline = min(deadline, state.next_exchange)
        return deadline


def build_sync_protocol_system(
    n_clients: int,
    d1: float,
    d2: float,
    period: float,
    rhos: List[float],
    sample_every: float = 0.25,
    delay_model: Optional[DelayModel] = None,
) -> SystemSpec:
    """Server (node 0, timed) + ``n_clients`` drifting clients.

    ``rhos[i]`` is client ``i+1``'s hardware rate. Hardware clocks are
    free-running: their drivers use an envelope wide enough to never
    clamp over typical horizons (the protocol, not the envelope, is
    what bounds the *software* clocks).
    """
    if len(rhos) != n_clients:
        raise SpecificationError("need one rho per client")
    topology = Topology(
        n_clients + 1,
        [(0, i) for i in range(1, n_clients + 1)]
        + [(i, 0) for i in range(1, n_clients + 1)],
    )
    entities = []
    server = TimeServerProcess(0)
    entities.append(TimedNodeEntity(server))
    for index, rho in enumerate(rhos, start=1):
        client = SyncClientProcess(index, 0, period, sample_every)
        # free-running hardware: envelope sized to the worst drift over
        # a long horizon so the driver never clamps
        envelope = abs(rho - 1.0) * 10_000.0 + 1.0
        entities.append(
            ClockNodeEntity(
                PassThroughMachine(client), DriftingClockDriver(envelope, rho)
            )
        )
    for i, j in sorted(topology.edges):
        entities.append(ChannelEntity(i, j, d1, d2, delay_model=delay_model))
    return SystemSpec(
        entities=entities,
        hidden=channel_actions(""),
        label=f"sync-protocol[{d1:g},{d2:g}] period={period:g}",
    )


def software_clock_errors(result) -> Dict[int, List[Tuple[float, float]]]:
    """Per-client ``(real time, software − real)`` series from SAMPLEs."""
    series: Dict[int, List[Tuple[float, float]]] = {}
    for record in result.recorder.events:
        if record.action.name == "SAMPLE":
            node, software = record.action.params
            series.setdefault(node, []).append(
                (record.now, software - record.now)
            )
    return series
