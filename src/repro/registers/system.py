"""One-call builders for register systems in all three models.

Each builder wires: register processes on a complete topology with
self-loops (algorithm S updates the sender's own copy by message),
channels with the model-appropriate payloads, per-node clients, and — in
the clock/MMT models — clock drivers or tick sources.

The timed and clock builders also build any blind-update object: given
a :class:`~repro.objects.specs.SequentialSpec` as ``spec``, the nodes
are :class:`~repro.objects.algorithm.BlindUpdateObjectProcess` over it
and the clients speak its ``ASK`` / ``DO`` vocabulary, drawing their
arguments from :func:`~repro.objects.system.default_payloads`.

:func:`run_register_experiment` runs a built system and packages the
outcome as a :class:`RegisterRun`: completed operations, latency
summaries, and correctness checks against the problems ``P`` and ``Q``
(for an object, against its spec).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional

from repro.clocks.sources import OffsetClockSource
from repro.components.base import Process
from repro.components.mmt import StepPolicy, UniformStepPolicy
from repro.core.pipeline import (
    SystemSpec,
    build_clock_system,
    build_mmt_system,
    build_native_clock_system,
    build_timed_system,
    simulation1_delay_bounds,
)
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
"""Retransmit period ``R`` of :func:`lossy_clock_register_system`."""


def _register_process_factory(
    algorithm: str,
    n: int,
    d2_prime: float,
    c: float,
    eps: float,
    delta: float,
    initial_value: object,
    spec: Optional[SequentialSpec] = None,
) -> Callable[[int], Process]:
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
        raise ValueError(f"unknown algorithm {algorithm!r}")

    return make


def _attach_clients(
    system: SystemSpec,
    n: int,
    workload: RegisterWorkload,
    schedules=None,
    spec: Optional[SequentialSpec] = None,
) -> SystemSpec:
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


def timed_register_system(
    n: int,
    d1_prime: float,
    d2_prime: float,
    c: float,
    workload: RegisterWorkload,
    algorithm: str = "L",
    eps: float = 0.0,
    delta: float = 0.01,
    delay_model: Optional[DelayModel] = None,
    initial_value: object = INITIAL_VALUE,
    schedules=None,
    spec: Optional[SequentialSpec] = None,
) -> SystemSpec:
    """``D_T(G, L/S, E_{[d1',d2']})`` with clients (Lemmas 6.1, 6.2).

    ``schedules`` (optional): one precomputed
    :class:`~repro.registers.opstream.OpSchedule` per node, replayed
    instead of the online workload draws — the sim side of sim/live
    cross-validation. ``spec`` (optional): run that blind-update object
    instead of the register (``algorithm`` is then ignored; the object
    is S-style, eps-superlinearizable with ``eps``).
    """
    topology = Topology.complete(n, self_loops=True)
    factory = _register_process_factory(
        algorithm, n, d2_prime, c, eps, delta, initial_value, spec
    )
    system = build_timed_system(
        topology, factory, d1_prime, d2_prime, delay_model
    )
    return _attach_clients(system, n, workload, schedules, spec)


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

    The process is parameterized for the *design* bounds
    ``[d1', d2'] = [max(d1 - 2*eps, 0), d2 + 2*eps]``; the physical
    channels run at ``[d1, d2]``. ``schedules`` (optional) replays
    precomputed per-node op schedules — the sim side of sim/live
    cross-validation (see :mod:`repro.live`). ``spec`` (optional) runs
    that blind-update object instead of the register.
    """
    _, d2_prime = simulation1_delay_bounds(d1, d2, eps)
    topology = Topology.complete(n, self_loops=True)
    factory = _register_process_factory(
        algorithm, n, d2_prime, c, eps, delta, initial_value, spec
    )
    system = build_clock_system(
        topology, factory, eps, d1, d2, drivers, delay_model
    )
    return _attach_clients(system, n, workload, schedules, spec)


def baseline_register_system(
    n: int,
    d1: float,
    d2: float,
    eps: float,
    workload: RegisterWorkload,
    drivers,
    delay_model: Optional[DelayModel] = None,
    initial_value: object = INITIAL_VALUE,
) -> SystemSpec:
    """The [10]-style slotted register, native in the clock model.

    Slot width ``u = 2*eps`` (the models' correspondence of
    Section 6.3).
    """
    topology = Topology.complete(n, self_loops=True)
    u = 2.0 * eps
    peers = list(range(n))

    def factory(i: int) -> Process:
        return SlottedRegisterProcess(i, peers, d2, u, initial_value=initial_value)

    spec = build_native_clock_system(
        topology, factory, eps, d1, d2, drivers, delay_model
    )
    return _attach_clients(spec, n, workload)


def mmt_register_system(
    n: int,
    d1: float,
    d2: float,
    c: float,
    eps: float,
    step_bound: float,
    sources,
    workload: RegisterWorkload,
    algorithm: str = "S",
    delta: float = 0.01,
    tick_interval: Optional[float] = None,
    step_policy_factory: Optional[Callable[[int], StepPolicy]] = None,
    delay_model: Optional[DelayModel] = None,
    initial_value: object = INITIAL_VALUE,
) -> SystemSpec:
    """``D_M`` register system via both simulations (Theorem 5.2)."""
    _, d2_prime = simulation1_delay_bounds(d1, d2, eps)
    topology = Topology.complete(n, self_loops=True)
    factory = _register_process_factory(
        algorithm, n, d2_prime, c, eps, delta, initial_value
    )
    spec = build_mmt_system(
        topology,
        factory,
        eps,
        d1,
        d2,
        step_bound,
        sources,
        tick_interval=tick_interval,
        step_policy_factory=step_policy_factory,
        delay_model=delay_model,
    )
    return _attach_clients(spec, n, workload)


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
) -> SystemSpec:
    """The register system of ``model`` under one seed's environment.

    What ``repro register --model``, ``repro object`` and a campaign
    grid point run: the workload's seed also draws the message delays
    and the clock drivers of kind ``driver``; the MMT nodes read clock
    sources alternating between the two edges of ``C_eps`` and step per
    a per-node seeded policy. With an object ``spec`` the model is
    ``timed`` or ``clock``.
    """
    if spec is not None and model not in ("timed", "clock"):
        raise ValueError(f"an object runs in the timed or clock model, not {model!r}")
    seed = workload.seed
    delay = UniformDelay(seed=seed)
    if model == "timed":
        return timed_register_system(
            n=n, d1_prime=d1, d2_prime=d2, c=c, workload=workload,
            algorithm="L", eps=eps, delta=delta, delay_model=delay, spec=spec,
        )
    drivers = driver_factory(driver, eps, seed=seed)
    if model == "clock":
        return clock_register_system(
            n=n, d1=d1, d2=d2, c=c, eps=eps, workload=workload,
            drivers=drivers, delta=delta, delay_model=delay, spec=spec,
        )
    if model == "baseline":
        return baseline_register_system(
            n=n, d1=d1, d2=d2, eps=eps, workload=workload, drivers=drivers,
            delay_model=delay,
        )
    if model == "mmt":
        return mmt_register_system(
            n=n, d1=d1, d2=d2, c=c, eps=eps, step_bound=step_bound,
            sources=lambda i: OffsetClockSource(eps, eps if i % 2 == 0 else -eps),
            workload=workload, delta=delta,
            step_policy_factory=lambda i: UniformStepPolicy(seed=i),
            delay_model=delay,
        )
    raise ValueError(f"unknown model {model!r}")


def lossy_clock_register_system(
    n: int,
    d1: float,
    d2: float,
    c: float,
    eps: float,
    p_drop: float,
    max_drops: int,
    workload: RegisterWorkload,
    driver: str,
    delta: float = 0.01,
) -> SystemSpec:
    """The clock-model register over lossy channels via the ARQ adapter.

    Processes are parameterized for the *effective* delay bounds
    ``d2 + B*R`` (Section 7.3; ``B = max_drops``, ``R`` =
    :data:`ARQ_RETRANSMIT_INTERVAL`); the physical channels drop and
    duplicate per a Bernoulli fault model. As in :func:`register_system`
    the workload's seed draws faults, delays and ``driver`` clocks.
    """
    seed = workload.seed
    d1e, d2e = effective_delay_bounds(d1, d2, ARQ_RETRANSMIT_INTERVAL, max_drops)
    _, d2_prime = simulation1_delay_bounds(d1e, d2e, eps)
    inner = _register_process_factory(
        "S", n, d2_prime, c, eps, delta, INITIAL_VALUE
    )
    faults = BernoulliFaults(
        seed=seed, p_drop=p_drop, p_duplicate=0.1,
        max_consecutive_drops=max_drops,
    )
    spec = build_clock_system(
        Topology.complete(n, self_loops=True),
        lambda i: ReliableAdapter(
            inner(i), retransmit_interval=ARQ_RETRANSMIT_INTERVAL
        ),
        eps, d1, d2, driver_factory(driver, eps, seed=seed),
        UniformDelay(seed=seed), fault_model=faults,
    )
    return _attach_clients(spec, n, workload)


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
