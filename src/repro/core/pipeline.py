"""One design, lowered to ``D_T``, ``D_C`` or ``D_M`` (Theorems 4.7,
5.1, 5.2).

A :class:`Design` is an algorithm written once: a process per node of
a topology over a real ``[d1, d2]`` network. :func:`lower` assembles
it, in the model a lowering value names (:class:`Timed`,
:class:`Clock`, :class:`MMT`), into a :class:`SystemSpec` ready to
simulate. Each lowering owns its design bounds, the ``[d1', d2']`` the
processes are parameterized for: :func:`simulation1_delay_bounds`
(``d1' = max(d1 - 2*eps, 0)``, ``d2' = d2 + 2*eps``) under Simulation
1, the identity otherwise. :func:`simulation2_shift_bound`
(``k*l + 2*eps + 3*l``) is Simulation 2's output shift.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Dict, List, Optional, Tuple

from repro.automata.actions import (
    ActionPattern,
    ActionSet,
    PatternActionSet,
    UnionActionSet,
)
from repro.components.base import Entity, Process, TimedNodeEntity
from repro.components.mmt import StepPolicy, TimedFromMMT
from repro.components.tick import TickEntity
from repro.core.clock_transform import ClockMachine, ClockNodeEntity
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


@dataclass(frozen=True)
class Design:
    """An algorithm written once: ``processes(i)`` on each node of
    ``topology``, over a network whose delays lie in ``[d1, d2]``.

    The processes are parameterized for the lowering's
    ``design_bounds(d1, d2)``, not for ``[d1, d2]`` itself.
    """

    topology: Topology
    processes: ProcessFactory
    d1: float
    d2: float


def _simulation1_machine(design: Design, i: int) -> ClockMachine:
    """``C(A_i, eps)`` with the Figure 2 buffers on node ``i``'s edges."""
    topology = design.topology
    return ClockMachine(
        design.processes(i),
        out_edges=topology.out_neighbors(i),
        in_edges=topology.in_neighbors(i),
    )


class Lowering:
    """How a :class:`Design` runs in one model (the contract of
    :class:`Timed`, :class:`Clock` and :class:`MMT`)."""

    prefix = ""
    """Channel action prefix: ``"E"`` for clock-stamped payloads."""

    def design_bounds(self, d1: float, d2: float) -> Tuple[float, float]:
        """The ``[d1', d2']`` a process is parameterized for so that the
        lowered system is correct on a real ``[d1, d2]`` network."""
        return (d1, d2)

    def label(self, d1: float, d2: float) -> str:
        """The lowered system's label."""
        raise NotImplementedError

    def hidden(self) -> ActionSet:
        """The node/channel interface actions the system hides."""
        return channel_actions("")

    def nodes(self, design: Design) -> Tuple[Dict[int, Entity], List[Entity]]:
        """The node entities by index, and every entity the nodes bring
        (the nodes, plus any tick entities) in simulation order."""
        raise NotImplementedError


@dataclass(frozen=True)
class Timed(Lowering):
    """``D_T(G, A, E_{[d1,d2]})`` (Section 3.3): each process runs as a
    timed node that sees perfect real time; the ``SENDMSG``/``RECVMSG``
    interface is hidden."""

    def label(self, d1: float, d2: float) -> str:
        return f"D_T[{d1:g},{d2:g}]"

    def nodes(self, design: Design) -> Tuple[Dict[int, Entity], List[Entity]]:
        processes = design.processes
        nodes: Dict[int, Entity] = {
            i: TimedNodeEntity(processes(i)) for i in design.topology.nodes()
        }
        return nodes, list(nodes.values())


@dataclass(frozen=True)
class Clock(Lowering):
    """Node ``i`` reads a clock in ``C_eps`` that ``drivers(i)`` moves.

    With ``machine=ClockMachine``: ``D_C(G, A^c_eps, E^c_{[d1,d2]})``
    via Simulation 1 (Theorem 4.7) — each process is wrapped by the
    clock transformation plus the Figure 2 buffers, channels carry
    clock-stamped ``E`` payloads, and both the node and the edge
    interface are hidden (Section 4.1). With
    ``machine=PassThroughMachine`` the processes were designed for
    clocks (Section 6.3's comparison class): no buffers, raw messages,
    and the network's own bounds as design bounds.
    """

    eps: float
    drivers: DriverFactory
    machine: type = ClockMachine

    @property
    def prefix(self) -> str:
        return "E" if self.machine is ClockMachine else ""

    def design_bounds(self, d1: float, d2: float) -> Tuple[float, float]:
        if self.machine is ClockMachine:
            return simulation1_delay_bounds(d1, d2, self.eps)
        return super().design_bounds(d1, d2)

    def label(self, d1: float, d2: float) -> str:
        model = "D_C" if self.machine is ClockMachine else "native-clock"
        return f"{model}[{d1:g},{d2:g}] eps={self.eps:g}"

    def hidden(self) -> ActionSet:
        if self.machine is ClockMachine:
            return UnionActionSet([channel_actions(""), channel_actions("E")])
        return super().hidden()

    def nodes(self, design: Design) -> Tuple[Dict[int, Entity], List[Entity]]:
        machine, drivers = self.machine, self.drivers
        if machine is ClockMachine:
            make = partial(_simulation1_machine, design)
        else:
            def make(i: int):
                return machine(design.processes(i))

        nodes: Dict[int, Entity] = {
            i: ClockNodeEntity(make(i), drivers(i))
            for i in design.topology.nodes()
        }
        return nodes, list(nodes.values())


@dataclass(frozen=True)
class MMT(Lowering):
    """``D_M(G, A^m_{eps,l}, E^m_{[d1,d2]})`` via both simulations
    (Theorem 5.2).

    Each node is ``M(A^c_{i,eps}, l)`` over the Simulation 1 machine,
    timed by ``T`` with ``step_policy(i)`` on its one class, and
    composed with a tick entity reading the clock source
    ``sources(i)``. ``tick_interval`` defaults to the step bound ``l``.
    """

    eps: float
    step_bound: float
    sources: SourceFactory
    step_policy: Optional[Callable[[int], StepPolicy]] = None
    tick_interval: Optional[float] = None

    prefix = "E"

    def design_bounds(self, d1: float, d2: float) -> Tuple[float, float]:
        return simulation1_delay_bounds(d1, d2, self.eps)

    def label(self, d1: float, d2: float) -> str:
        return f"D_M[{d1:g},{d2:g}] eps={self.eps:g} l={self.step_bound:g}"

    def hidden(self) -> ActionSet:
        return UnionActionSet([
            channel_actions(""), channel_actions("E"),
            PatternActionSet([ActionPattern("TICK")]),
        ])

    def nodes(self, design: Design) -> Tuple[Dict[int, Entity], List[Entity]]:
        interval = (
            self.tick_interval if self.tick_interval is not None
            else self.step_bound
        )
        nodes: Dict[int, Entity] = {}
        entities: List[Entity] = []
        for i in design.topology.nodes():
            node = TimedFromMMT(
                DelayedSimulation(
                    _simulation1_machine(design, i), self.step_bound
                ),
                {DelayedSimulation.STEP: self.step_policy(i)}
                if self.step_policy else None,
            )
            nodes[i] = node
            entities.append(node)
            entities.append(TickEntity(i, self.sources(i), interval, self.eps))
        return nodes, entities


def lower(
    design: Design,
    lowering: Lowering,
    delay_model: Optional[DelayModel] = None,
    fault_model=None,
) -> SystemSpec:
    """``design`` in ``lowering``'s model, on its real ``[d1, d2]``
    network: the lowering's node entities (and ticks), then one channel
    per edge — lossy under a ``fault_model`` — with the model's payload
    prefix, and the model's interface actions hidden."""
    nodes, entities = lowering.nodes(design)
    topology, d1, d2, prefix = design.topology, design.d1, design.d2, lowering.prefix
    if fault_model is not None:
        from repro.faults.lossy_channel import LossyChannelEntity

        entities += [
            LossyChannelEntity(
                i, j, d1, d2, delay_model=delay_model,
                fault_model=fault_model, prefix=prefix,
            )
            for (i, j) in sorted(topology.edges)
        ]
    else:
        entities += [
            ChannelEntity(i, j, d1, d2, delay_model=delay_model, prefix=prefix)
            for (i, j) in sorted(topology.edges)
        ]
    return SystemSpec(
        entities=entities,
        hidden=lowering.hidden(),
        label=lowering.label(d1, d2),
        node_entities=nodes,
    )


# The two bindings below keep their names and signatures because the
# frozen benchmark suite (benchmarks/suite/workloads.py) and the
# executable tutorial (docs/tutorial.md) import them.


def build_timed_system(
    topology: Topology,
    processes: ProcessFactory,
    d1: float,
    d2: float,
    delay_model: Optional[DelayModel] = None,
    fault_model=None,
) -> SystemSpec:
    """``lower(Design(topology, processes, d1, d2), Timed())``."""
    return lower(
        Design(topology, processes, d1, d2), Timed(), delay_model, fault_model
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
    """``lower(Design(topology, processes, d1, d2), Clock(eps, drivers))``."""
    return lower(
        Design(topology, processes, d1, d2), Clock(eps, drivers),
        delay_model, fault_model,
    )
