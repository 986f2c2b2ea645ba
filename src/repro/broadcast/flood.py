"""Flooding broadcast and timeout-based leader election.

Both processes follow the paper's design discipline — decisions read
only the time handed to them — so they are eps-time independent and the
Theorem 4.7 transformation applies directly:

- **Flooding** guarantee (timed model, delays ``<= d2'``): a message
  injected at node ``s`` at time ``t`` is delivered at every node ``v``
  by ``t + dist(s, v) * d2'``. Transformed guarantee: the same bound
  holds on the *clock-stamped* trace, so real-time delivery lags by at
  most an extra ``eps`` at each end.
- **Leader election** (timed model): every node floods its identifier
  at time 0; by ``T = diameter * d2'`` every identifier has reached
  everyone, so announcing the minimum at exactly ``T`` is safe and
  *simultaneous*. Transformed: all nodes announce the same leader, at
  clock time ``T``, i.e. within ``2*eps`` of each other in real time.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.automata.actions import Action, ActionPattern, PatternActionSet
from repro.automata.signature import Signature
from repro.components.base import Process, ProcessContext
from repro.core.pipeline import Design, Lowering, SystemSpec, lower
from repro.errors import SpecificationError, TransitionError
from repro.network.topology import Topology

from repro.constants import INFINITY, TOLERANCE as _TOLERANCE


@dataclass
class FloodState:
    seen: Set[object] = field(default_factory=set)
    outbox: deque = field(default_factory=deque)  # (neighbor, message)
    pending_deliver: deque = field(default_factory=deque)


class FloodProcess(Process):
    """Reliable flooding: deliver once, forward to all other neighbors.

    Inputs: ``BCAST_i(m)`` (inject a broadcast here) and the network
    interface. Outputs: ``DELIVER_i(m)`` plus ``SENDMSG``. Forwarding
    and delivery are urgent (zero local processing time).
    """

    def __init__(self, node: int, neighbors: Sequence[int]):
        signature = Signature(
            inputs=PatternActionSet(
                [ActionPattern("BCAST", (node,)), ActionPattern("RECVMSG", (node,))]
            ),
            outputs=PatternActionSet(
                [
                    ActionPattern("DELIVER", (node,)),
                    ActionPattern("SENDMSG", (node,)),
                ]
            ),
        )
        super().__init__(node, signature, name=f"flood({node})")
        self.neighbors = sorted(neighbors)

    def initial_state(self) -> FloodState:
        return FloodState()

    def _ingest(self, state: FloodState, message: object, source: Optional[int]) -> None:
        if message in state.seen:
            return
        state.seen.add(message)
        state.pending_deliver.append(message)
        for neighbor in self.neighbors:
            if neighbor != source:
                state.outbox.append((neighbor, message))

    def apply_input(self, state: FloodState, action: Action, ctx) -> None:
        if action.name == "BCAST":
            self._ingest(state, action.params[1], source=None)
        elif action.name == "RECVMSG":
            self._ingest(state, action.params[2], source=action.params[1])
        else:
            raise TransitionError(f"{self.name}: unexpected input {action}")

    def enabled(self, state: FloodState, ctx) -> List[Action]:
        actions: List[Action] = []
        if state.pending_deliver:
            actions.append(
                Action("DELIVER", (self.node, state.pending_deliver[0]))
            )
        if state.outbox:
            neighbor, message = state.outbox[0]
            actions.append(Action("SENDMSG", (self.node, neighbor, message)))
        return actions

    def fire(self, state: FloodState, action: Action, ctx) -> None:
        if action.name == "DELIVER":
            state.pending_deliver.popleft()
        elif action.name == "SENDMSG":
            state.outbox.popleft()
        else:
            raise TransitionError(f"{self.name}: cannot fire {action}")

    def deadline(self, state: FloodState, ctx) -> float:
        if state.pending_deliver or state.outbox:
            return ctx.time
        return INFINITY


@dataclass
class LeaderState(FloodState):
    minimum: object = None
    announce_time: float = 0.0
    announced: bool = False


class LeaderElectProcess(Process):
    """Flood identifiers at time 0; announce the minimum at ``T``.

    The identifier defaults to the node index. ``announce_at`` must be
    at least ``diameter * d2'`` for correctness (agreement on the global
    minimum); :func:`build_leader_system` computes it.
    """

    def __init__(
        self,
        node: int,
        neighbors: Sequence[int],
        announce_at: float,
        identifier: Optional[object] = None,
    ):
        if announce_at <= 0:
            raise SpecificationError("announce_at must be positive")
        signature = Signature(
            inputs=PatternActionSet([ActionPattern("RECVMSG", (node,))]),
            outputs=PatternActionSet(
                [
                    ActionPattern("LEADER", (node,)),
                    ActionPattern("SENDMSG", (node,)),
                ]
            ),
        )
        super().__init__(node, signature, name=f"elect({node})")
        self.neighbors = sorted(neighbors)
        self.announce_at = announce_at
        self.identifier = identifier if identifier is not None else node

    def initial_state(self) -> LeaderState:
        state = LeaderState()
        state.minimum = self.identifier
        state.seen.add(("id", self.identifier))
        for neighbor in self.neighbors:
            state.outbox.append((neighbor, ("id", self.identifier)))
        state.announce_time = self.announce_at
        return state

    def apply_input(self, state: LeaderState, action: Action, ctx) -> None:
        if action.name != "RECVMSG":
            raise TransitionError(f"{self.name}: unexpected input {action}")
        message = action.params[2]
        source = action.params[1]
        if message in state.seen:
            return
        # repro: lint-ignore[ISO003] -- messages are ("id", int) tuples:
        # immutable, so the flood's re-forwarding cannot alias mutably
        state.seen.add(message)
        _, identifier = message
        if identifier < state.minimum:
            state.minimum = identifier
        for neighbor in self.neighbors:
            if neighbor != source:
                # repro: lint-ignore[ISO003] -- immutable ("id", int) tuple
                state.outbox.append((neighbor, message))

    def enabled(self, state: LeaderState, ctx) -> List[Action]:
        actions: List[Action] = []
        if state.outbox:
            neighbor, message = state.outbox[0]
            actions.append(Action("SENDMSG", (self.node, neighbor, message)))
        if not state.announced and abs(ctx.time - state.announce_time) <= _TOLERANCE:
            actions.append(Action("LEADER", (self.node, state.minimum)))
        return actions

    def fire(self, state: LeaderState, action: Action, ctx) -> None:
        if action.name == "SENDMSG":
            state.outbox.popleft()
        elif action.name == "LEADER":
            state.announced = True
        else:
            raise TransitionError(f"{self.name}: cannot fire {action}")

    def deadline(self, state: LeaderState, ctx) -> float:
        if state.outbox:
            return ctx.time
        if not state.announced:
            return state.announce_time
        return INFINITY


# ---------------------------------------------------------------------------
# builders and analysis
# ---------------------------------------------------------------------------


def _distances(topology: Topology, source: int) -> Dict[int, int]:
    """BFS hop distances from ``source``."""
    dist = {source: 0}
    frontier = deque([source])
    while frontier:
        node = frontier.popleft()
        for neighbor in topology.out_neighbors(node):
            if neighbor not in dist:
                dist[neighbor] = dist[node] + 1
                frontier.append(neighbor)
    return dist


def diameter(topology: Topology) -> int:
    """The largest finite hop distance (graph must be strongly connected)."""
    worst = 0
    for source in topology.nodes():
        dist = _distances(topology, source)
        if len(dist) != topology.n:
            raise SpecificationError("topology is not strongly connected")
        worst = max(worst, max(dist.values()))
    return worst


def build_flood_system(
    lowering: Lowering,
    topology: Topology,
    d1: float,
    d2: float,
    delay_model=None,
) -> SystemSpec:
    """A flooding system in ``lowering``'s model."""
    def processes(i: int) -> Process:
        return FloodProcess(i, topology.out_neighbors(i))

    return lower(Design(topology, processes, d1, d2), lowering, delay_model)


def build_leader_system(
    lowering: Lowering,
    topology: Topology,
    d1: float,
    d2: float,
    delay_model=None,
    slack: float = 1e-6,
) -> SystemSpec:
    """Announce time ``T = diameter * d2' + slack`` per the design rule,
    with ``d2'`` the lowering's design bound."""
    _, d2_design = lowering.design_bounds(d1, d2)
    announce_at = diameter(topology) * d2_design + slack

    def processes(i: int) -> Process:
        return LeaderElectProcess(i, topology.out_neighbors(i), announce_at)

    return lower(Design(topology, processes, d1, d2), lowering, delay_model)


def deliveries(trace) -> Dict[Tuple[int, object], float]:
    """``(node, message) -> delivery time`` from a visible trace."""
    result: Dict[Tuple[int, object], float] = {}
    for ev in trace:
        if ev.action.name == "DELIVER":
            node, message = ev.action.params
            result.setdefault((node, message), ev.time)
    return result


def election_outcomes(trace) -> Dict[int, Tuple[object, float]]:
    """``node -> (announced leader, announce time)``."""
    outcomes: Dict[int, Tuple[object, float]] = {}
    for ev in trace:
        if ev.action.name == "LEADER":
            node, leader = ev.action.params
            outcomes[node] = (leader, ev.time)
    return outcomes
