"""System builders: ``D_T``, ``D_C``, ``D_M`` (Theorems 4.7, 5.1, 5.2).

Each builder assembles a full distributed system — node entities per the
model, channel entities per edge, plus any extra entities (clients) —
and returns a :class:`SystemSpec` ready to simulate.

The delay-bound bookkeeping of the theorems is captured by
:func:`simulation1_delay_bounds` (``d1' = max(d1 - 2*eps, 0)``,
``d2' = d2 + 2*eps``) and :func:`simulation2_shift_bound`
(``k*l + 2*eps + 3*l``): design and verify the algorithm in the timed
model against ``[d1', d2']``, then run the transformed system on the
real ``[d1, d2]`` network.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.automata.actions import ActionPattern, ActionSet, PatternActionSet, UnionActionSet
from repro.components.base import Entity, Process, TimedNodeEntity
from repro.components.mmt import StepPolicy, TimedFromMMT
from repro.components.tick import TickEntity
from repro.core.clock_transform import (
    ClockMachine,
    ClockNodeEntity,
    PassThroughMachine,
)
from repro.core.mmt_transform import DelayedSimulation
from repro.network.channel import ChannelEntity, channel_actions
from repro.network.topology import Topology
from repro.sim.clock_drivers import ClockDriver
from repro.sim.delay import DelayModel
from repro.sim.engine import SimulationResult, Simulator
from repro.sim.scheduler import Scheduler

ProcessFactory = Callable[[int], Process]
DriverFactory = Callable[[int], ClockDriver]
SourceFactory = Callable[[int], object]


@dataclass
class SystemSpec:
    """A fully assembled system: entities plus the hidden-action set."""

    entities: List[Entity]
    hidden: ActionSet
    label: str = "system"
    node_entities: Dict[int, Entity] = field(default_factory=dict)

    def add(self, *extra: Entity) -> "SystemSpec":
        """Return a new spec with extra entities (e.g. clients)."""
        return SystemSpec(
            entities=self.entities + list(extra),
            hidden=self.hidden,
            label=self.label,
            node_entities=dict(self.node_entities),
        )

    def simulator(
        self,
        scheduler: Optional[Scheduler] = None,
        max_steps: int = 1_000_000,
    ) -> Simulator:
        """A simulator over this system's entities and hidden set."""
        return Simulator(
            self.entities, scheduler=scheduler, hidden=self.hidden,
            max_steps=max_steps,
        )

    def run(
        self,
        horizon: float,
        scheduler: Optional[Scheduler] = None,
        max_steps: int = 1_000_000,
        recorder=None,
        metrics=None,
        tracer=None,
    ) -> SimulationResult:
        """Build a simulator and run it to the horizon."""
        return self.simulator(scheduler, max_steps).run(
            horizon, recorder=recorder, metrics=metrics, tracer=tracer
        )


def simulation1_delay_bounds(
    d1: float, d2: float, eps: float
) -> Tuple[float, float]:
    """Theorem 4.7's design bounds: the ``[d1', d2']`` the timed-model
    algorithm must be correct against so its transformation is correct
    on a real ``[d1, d2]`` network with clock accuracy ``eps``."""
    return (max(d1 - 2.0 * eps, 0.0), d2 + 2.0 * eps)


def simulation2_shift_bound(k: int, step_bound: float, eps: float) -> float:
    """Theorem 5.1's output shift bound ``k*l + 2*eps + 3*l``."""
    return k * step_bound + 2.0 * eps + 3.0 * step_bound


def _channels(
    topology: Topology,
    d1: float,
    d2: float,
    delay_model: Optional[DelayModel],
    prefix: str,
    fault_model=None,
) -> List[Entity]:
    if fault_model is not None:
        from repro.faults.lossy_channel import LossyChannelEntity

        return [
            LossyChannelEntity(
                i, j, d1, d2, delay_model=delay_model,
                fault_model=fault_model, prefix=prefix,
            )
            for (i, j) in sorted(topology.edges)
        ]
    return [
        ChannelEntity(i, j, d1, d2, delay_model=delay_model, prefix=prefix)
        for (i, j) in sorted(topology.edges)
    ]


def build_timed_system(
    topology: Topology,
    processes: ProcessFactory,
    d1: float,
    d2: float,
    delay_model: Optional[DelayModel] = None,
    fault_model=None,
) -> SystemSpec:
    """``D_T(G, A, E_{[d1,d2]})`` (Section 3.3).

    Nodes see perfect real time; the ``SENDMSG``/``RECVMSG`` interface
    is hidden.
    """
    nodes: Dict[int, Entity] = {
        i: TimedNodeEntity(processes(i)) for i in topology.nodes()
    }
    entities: List[Entity] = list(nodes.values())
    entities += _channels(topology, d1, d2, delay_model, prefix="",
                          fault_model=fault_model)
    return SystemSpec(
        entities=entities,
        hidden=channel_actions(""),
        label=f"D_T[{d1:g},{d2:g}]",
        node_entities=nodes,
    )


def build_clock_system(
    topology: Topology,
    processes: ProcessFactory,
    eps: float,
    d1: float,
    d2: float,
    drivers: DriverFactory,
    delay_model: Optional[DelayModel] = None,
    fault_model=None,
) -> SystemSpec:
    """``D_C(G, A^c_eps, E^c_{[d1,d2]})`` via Simulation 1 (Theorem 4.7).

    Each process is wrapped by the clock transformation plus the
    Figure 2 buffers; channels carry clock-stamped payloads; both the
    internal node interface and the ``ESENDMSG``/``ERECVMSG`` edge
    interface are hidden (Section 4.1).
    """
    nodes: Dict[int, Entity] = {}
    for i in topology.nodes():
        machine = ClockMachine(
            processes(i),
            out_edges=topology.out_neighbors(i),
            in_edges=topology.in_neighbors(i),
        )
        nodes[i] = ClockNodeEntity(machine, drivers(i))
    entities: List[Entity] = list(nodes.values())
    entities += _channels(topology, d1, d2, delay_model, prefix="E",
                          fault_model=fault_model)
    return SystemSpec(
        entities=entities,
        hidden=UnionActionSet([channel_actions(""), channel_actions("E")]),
        label=f"D_C[{d1:g},{d2:g}] eps={eps:g}",
        node_entities=nodes,
    )


def build_native_clock_system(
    topology: Topology,
    processes: ProcessFactory,
    eps: float,
    d1: float,
    d2: float,
    drivers: DriverFactory,
    delay_model: Optional[DelayModel] = None,
) -> SystemSpec:
    """A clock-model system whose processes were *designed* for clocks.

    No transformation, no buffers: each node is
    ``ClockNodeEntity(PassThroughMachine(process), driver)``, so
    processes read the node clock directly and exchange raw messages
    (the Section 6.3 comparison class, e.g. the [10]-style baseline
    register).
    """
    nodes: Dict[int, Entity] = {
        i: ClockNodeEntity(PassThroughMachine(processes(i)), drivers(i))
        for i in topology.nodes()
    }
    entities: List[Entity] = list(nodes.values())
    entities += _channels(topology, d1, d2, delay_model, prefix="")
    return SystemSpec(
        entities=entities,
        hidden=channel_actions(""),
        label=f"native-clock[{d1:g},{d2:g}] eps={eps:g}",
        node_entities=nodes,
    )


def build_mmt_system(
    topology: Topology,
    processes: ProcessFactory,
    eps: float,
    d1: float,
    d2: float,
    step_bound: float,
    sources: SourceFactory,
    tick_interval: Optional[float] = None,
    step_policy_factory: Optional[Callable[[int], StepPolicy]] = None,
    delay_model: Optional[DelayModel] = None,
) -> SystemSpec:
    """``D_M(G, A^m_{eps,l}, E^m_{[d1,d2]})`` via both simulations
    (Theorem 5.2).

    Each node is ``M(A^c_{i,eps}, l)`` over the Simulation 1 machine,
    timed by ``T`` with the node's step policy on its one class, and
    composed with a tick entity reading a per-node clock source.
    ``tick_interval`` defaults to the step bound ``l``.
    """
    interval = tick_interval if tick_interval is not None else step_bound
    nodes: Dict[int, Entity] = {}
    entities: List[Entity] = []
    for i in topology.nodes():
        machine = ClockMachine(
            processes(i),
            out_edges=topology.out_neighbors(i),
            in_edges=topology.in_neighbors(i),
        )
        node = TimedFromMMT(
            DelayedSimulation(machine, step_bound),
            {DelayedSimulation.STEP: step_policy_factory(i)}
            if step_policy_factory else None,
        )
        nodes[i] = node
        entities.append(node)
        entities.append(
            TickEntity(i, sources(i), interval, eps)
        )
    entities += _channels(topology, d1, d2, delay_model, prefix="E")
    tick_actions = PatternActionSet([ActionPattern("TICK")])
    return SystemSpec(
        entities=entities,
        hidden=UnionActionSet(
            [channel_actions(""), channel_actions("E"), tick_actions]
        ),
        label=f"D_M[{d1:g},{d2:g}] eps={eps:g} l={step_bound:g}",
        node_entities=nodes,
    )
