"""Register and blind-update object designs, and their systems in all
four models.

:func:`register_design` writes the register once: register processes
on a complete topology with self-loops (algorithm S updates the
sender's own copy by message), parameterized for the lowering's design
bounds. Given a :class:`~repro.objects.specs.SequentialSpec` as
``spec``, the nodes are
:class:`~repro.objects.algorithm.BlindUpdateObjectProcess` over it
instead. :func:`~repro.core.pipeline.lower` runs the design in a model,
and :func:`with_clients` adds per-node clients that speak the design's
vocabulary (an object's ``ASK`` / ``DO``, arguments drawn from
:func:`~repro.objects.system.default_payloads`).

:func:`register_system` is what the CLI and a campaign grid point run:
one model name, looked up in :data:`MODELS`, gives the algorithm and
the lowering; the workload's seed draws the environment.

:func:`run_register_experiment` runs a built system and packages the
outcome as a :class:`RegisterRun`: completed operations, latency
summaries, and correctness checks against the problems ``P`` and ``Q``
(for an object, against its spec).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.clocks.sources import OffsetClockSource
from repro.components.base import Process
from repro.components.mmt import UniformStepPolicy
from repro.core.clock_transform import PassThroughMachine
from repro.core.pipeline import (
    MMT,
    Clock,
    Design,
    Lowering,
    SystemSpec,
    Timed,
    lower,
)
from repro.errors import SpecificationError
from repro.faults import BernoulliFaults, ReliableAdapter, effective_delay_bounds
from repro.network.topology import Topology
from repro.objects.algorithm import BlindUpdateObjectProcess
from repro.objects.specs import SequentialSpec
from repro.objects.system import default_payloads
from repro.registers.algorithm_l import AlgorithmLProcess, RegisterProcess
from repro.registers.algorithm_s import (
    AlgorithmSProcess,
    NaiveSuperlinearizableProcess,
)
from repro.registers.baseline import SlottedRegisterProcess
from repro.registers.workload import (
    ClientEntity,
    RegisterWorkload,
    register_payloads,
)
from repro.sim.clock_drivers import driver_factory
from repro.sim.delay import DelayModel, UniformDelay
from repro.sim.engine import SimulationResult
from repro.sim.scheduler import Scheduler
from repro.traces.linearizability import READ, Operation, is_superlinearizable

INITIAL_VALUE = ("v", -1, 0)
"""Default initial register value ``v0`` (distinct from client values)."""

ARQ_RETRANSMIT_INTERVAL = 0.5
"""Retransmit period ``R`` of :func:`register_system`'s lossy channels."""


def register_design(
    lowering: Lowering,
    n: int,
    d1: float,
    d2: float,
    c: float,
    eps: float,
    algorithm: str = "S",
    delta: float = 0.01,
    initial_value: object = INITIAL_VALUE,
    spec: Optional[SequentialSpec] = None,
) -> Design:
    """The register on ``n`` nodes over a ``[d1, d2]`` network, its
    processes parameterized for ``lowering``'s design bound ``d2'``.

    ``algorithm`` is ``"L"`` (Lemma 6.1), ``"S"`` (Theorem 6.5),
    ``"naive"`` or ``"slotted"``: the [10]-style baseline, designed for
    clocks (slot width ``u = 2*eps``, the models' correspondence of
    Section 6.3), so it runs under
    ``Clock(eps, drivers, machine=PassThroughMachine)``. ``spec``
    (optional) makes the design that blind-update object instead
    (S-style, eps-superlinearizable with ``eps``); the slotted register
    has no object form.
    """
    if spec is not None and algorithm == "slotted":
        raise SpecificationError(
            "the slotted register is a different design, not a different "
            "lowering: it has no blind-update object form"
        )
    _, d2_prime = lowering.design_bounds(d1, d2)
    peers = list(range(n))

    def make(i: int) -> Process:
        if spec is not None:
            return BlindUpdateObjectProcess(
                i, peers, spec, d2_prime, c, eps=eps, delta=delta
            )
        if algorithm == "L":
            return AlgorithmLProcess(
                i, peers, d2_prime, c, delta=delta, initial_value=initial_value
            )
        if algorithm == "S":
            return AlgorithmSProcess(
                i, peers, d2_prime, c, eps, delta=delta,
                initial_value=initial_value,
            )
        if algorithm == "naive":
            return NaiveSuperlinearizableProcess(
                i, peers, d2_prime, c, eps, delta=delta,
                initial_value=initial_value,
            )
        if algorithm == "slotted":
            return SlottedRegisterProcess(
                i, peers, d2_prime, 2.0 * eps, initial_value=initial_value
            )
        raise ValueError(f"unknown algorithm {algorithm!r}")

    return Design(Topology.complete(n, self_loops=True), make, d1, d2)


def with_clients(
    system: SystemSpec,
    workload: RegisterWorkload,
    schedules=None,
    spec: Optional[SequentialSpec] = None,
) -> SystemSpec:
    """``system`` plus one client per node, speaking the register's (or
    the object ``spec``'s) vocabulary.

    ``schedules`` (optional): one precomputed
    :class:`~repro.registers.opstream.OpSchedule` per node, replayed
    instead of the online workload draws — the sim side of sim/live
    cross-validation (see :mod:`repro.live`).
    """
    n = len(system.node_entities)
    if schedules is not None and len(schedules) != n:
        raise ValueError(f"need {n} schedules, got {len(schedules)}")
    vocabulary, payloads = RegisterProcess, register_payloads
    if spec is not None:
        vocabulary, payloads = BlindUpdateObjectProcess, default_payloads(spec)
    clients = [
        ClientEntity(
            i, workload, schedules[i] if schedules else None, vocabulary, payloads
        )
        for i in range(n)
    ]
    return system.add(*clients)


def clock_register_system(
    n: int,
    d1: float,
    d2: float,
    c: float,
    eps: float,
    workload: RegisterWorkload,
    drivers,
    algorithm: str = "S",
    delta: float = 0.01,
    delay_model: Optional[DelayModel] = None,
    initial_value: object = INITIAL_VALUE,
    schedules=None,
    spec: Optional[SequentialSpec] = None,
) -> SystemSpec:
    """``D_C(G, S^c_eps, E^c_{[d1,d2]})`` with clients (Theorem 6.5).

    The register design lowered by ``Clock(eps, drivers)``, with
    :func:`with_clients`' ``schedules`` and ``spec``. Kept with its
    positional signature: the frozen benchmark suite calls it.
    """
    lowering = Clock(eps, drivers)
    design = register_design(
        lowering, n, d1, d2, c, eps, algorithm, delta, initial_value, spec
    )
    return with_clients(
        lower(design, lowering, delay_model), workload, schedules, spec
    )


def _mmt(eps: float, drivers, step_bound: float) -> MMT:
    """Clock sources alternating between the two edges of ``C_eps``, and
    a per-node seeded step policy."""
    return MMT(
        eps, step_bound,
        lambda i: OffsetClockSource(eps, eps if i % 2 == 0 else -eps),
        lambda i: UniformStepPolicy(seed=i),
    )


MODELS: Dict[str, Tuple[str, Callable[..., Lowering]]] = {
    "clock": ("S", lambda eps, drivers, step_bound: Clock(eps, drivers)),
    "timed": ("L", lambda eps, drivers, step_bound: Timed()),
    "baseline": ("slotted", lambda eps, drivers, step_bound: Clock(
        eps, drivers, machine=PassThroughMachine)),
    "mmt": ("S", _mmt),
}
"""Model name -> (register algorithm, lowering of ``(eps, drivers,
step_bound)``): what :func:`register_system` runs."""


def register_system(
    model: str,
    n: int,
    d1: float,
    d2: float,
    c: float,
    eps: float,
    workload: RegisterWorkload,
    driver: str,
    step_bound: float,
    delta: float = 0.01,
    spec: Optional[SequentialSpec] = None,
    p_drop: Optional[float] = None,
    max_drops: int = 3,
) -> SystemSpec:
    """The register (or object ``spec``) system of ``model`` under one
    seed's environment.

    What ``repro register --model``, ``repro object`` and a campaign
    grid point run: the workload's seed also draws the message delays
    and the clock drivers of kind ``driver``; the MMT nodes read clock
    sources alternating between the two edges of ``C_eps`` and step per
    a per-node seeded policy.

    With a ``p_drop``, the channels drop (and duplicate) per a seeded
    Bernoulli fault model with at most ``max_drops`` consecutive losses,
    and every process runs behind the ARQ adapter, designed for the
    *effective* delay bounds ``d2 + B*R`` (Section 7.3; ``B =
    max_drops``, ``R`` = :data:`ARQ_RETRANSMIT_INTERVAL`).
    """
    if model not in MODELS:
        raise SpecificationError(
            f"unknown model {model!r}; known: {', '.join(MODELS)}"
        )
    seed = workload.seed
    algorithm, make_lowering = MODELS[model]
    lowering = make_lowering(
        eps, driver_factory(driver, eps, seed=seed), step_bound
    )
    bounds, faults = (d1, d2), None
    if p_drop is not None:
        bounds = effective_delay_bounds(
            d1, d2, ARQ_RETRANSMIT_INTERVAL, max_drops
        )
        faults = BernoulliFaults(
            seed=seed, p_drop=p_drop, p_duplicate=0.1,
            max_consecutive_drops=max_drops,
        )
    design = register_design(
        lowering, n, *bounds, c, eps, algorithm, delta, spec=spec
    )
    if faults is not None:
        inner = design.processes
        design = Design(design.topology, lambda i: ReliableAdapter(
            inner(i), retransmit_interval=ARQ_RETRANSMIT_INTERVAL
        ), d1, d2)
    system = lower(design, lowering, UniformDelay(seed=seed), faults)
    return with_clients(system, workload, spec=spec)


@dataclass
class RegisterRun:
    """Outcome of one register or blind-update object experiment.

    ``operations`` are the clients' records, in invocation order; an
    object run is checked against its ``spec`` (reads are queries,
    writes updates).
    """

    result: SimulationResult
    operations: List[Operation]
    initial_value: object
    spec: Optional[SequentialSpec] = None

    @property
    def reads(self) -> List[Operation]:
        return [op for op in self.operations if op.kind == "R"]

    @property
    def writes(self) -> List[Operation]:
        return [op for op in self.operations if op.kind == "W"]

    def max_read_latency(self) -> float:
        """Worst completed-read latency."""
        return max((op.latency for op in self.reads), default=0.0)

    def max_write_latency(self) -> float:
        """Worst completed-write latency."""
        return max((op.latency for op in self.writes), default=0.0)

    def mean_read_latency(self) -> float:
        """Mean completed-read latency (0 with no reads)."""
        reads = self.reads
        return sum(op.latency for op in reads) / len(reads) if reads else 0.0

    def mean_write_latency(self) -> float:
        """Mean completed-write latency (0 with no writes)."""
        writes = self.writes
        return sum(op.latency for op in writes) / len(writes) if writes else 0.0

    def linearizable(self) -> bool:
        """Membership of the run's trace in problem ``P``."""
        return self.superlinearizable(0.0)

    def superlinearizable(self, eps: float) -> bool:
        """Membership of the run's trace in problem ``Q``."""
        return is_superlinearizable(
            self.result.trace, eps, self.initial_value, spec=self.spec
        )

    def __repr__(self) -> str:
        return (
            f"<RegisterRun: {len(self.reads)} reads "
            f"(max {self.max_read_latency():.3f}), {len(self.writes)} writes "
            f"(max {self.max_write_latency():.3f})>"
        )


def run_register_experiment(
    system: SystemSpec,
    horizon: float,
    scheduler: Optional[Scheduler] = None,
    initial_value: object = INITIAL_VALUE,
    max_steps: int = 1_000_000,
    recorder=None,
    metrics=None,
    tracer=None,
    spec: Optional[SequentialSpec] = None,
) -> RegisterRun:
    """Run a built register system and collect per-operation results.

    An object system's run needs its ``spec``, the one it was built
    with, to be checked.
    """
    vocabulary = next(
        (e.vocabulary for e in system.entities if isinstance(e, ClientEntity)),
        RegisterProcess,
    )
    if vocabulary.READ != READ and spec is None:
        raise ValueError(
            f"the clients speak {vocabulary.READ}/{vocabulary.WRITE}: "
            f"pass the object's spec"
        )
    result = system.run(
        horizon, scheduler=scheduler, max_steps=max_steps,
        recorder=recorder, metrics=metrics, tracer=tracer,
    )
    operations: List[Operation] = []
    for name, state in result.final_states.items():
        if name.startswith("client(") and hasattr(state, "completed"):
            operations.extend(state.completed)
    operations.sort(key=lambda op: op.inv_time)
    return RegisterRun(
        result=result, operations=operations, initial_value=initial_value,
        spec=spec,
    )
