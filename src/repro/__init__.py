"""repro — partially synchronized clocks (PODC 1993 reproduction).

A production-quality implementation of Chaudhuri, Gawlick & Lynch,
*Designing Algorithms for Distributed Systems with Partially Synchronized
Clocks* (PODC 1993):

- the three system models (timed automata, clock automata, MMT
  automata), both as relation-level theory objects and as an executable
  discrete-event formulation;
- **Simulation 1** (Theorem 4.7): the clock transformation ``C(A, eps)``
  with the Figure 2 send/receive buffers — design against real time,
  run against an ``eps``-accurate clock;
- **Simulation 2** (Theorems 5.1/5.2): the MMT transformation
  ``M(A^c, l)`` — delayed simulation with a pending-output buffer,
  tolerating clock granularity and bounded step times;
- the Section 6 application: linearizable read-write registers
  (algorithms L and S, eps-superlinearizability, and the [10]-style
  baseline), with analytic-vs-measured latency benchmarks.

Quickstart::

    from repro import (
        RegisterWorkload, clock_register_system, run_register_experiment,
        driver_factory,
    )

    eps, d1, d2 = 0.05, 0.2, 1.0
    spec = clock_register_system(
        n=3, d1=d1, d2=d2, c=0.3, eps=eps,
        workload=RegisterWorkload(operations=5, seed=1),
        drivers=driver_factory("mixed", eps),
    )
    run = run_register_experiment(spec, horizon=60.0)
    assert run.linearizable()
"""

from repro.automata.actions import NU, Action, ActionPattern, action_set
from repro.automata.executions import Execution, TimedEvent, TimedSequence
from repro.automata.signature import Signature
from repro.components.base import Entity, Process, ProcessContext, TimedNodeEntity
from repro.components.mmt import (
    EagerStepPolicy,
    LazyStepPolicy,
    TimedFromMMT,
    UniformStepPolicy,
)
from repro.core.buffers import ReceiveBuffer, SendBuffer
from repro.core.clock_transform import (
    ClockMachine,
    ClockNodeEntity,
    PassThroughMachine,
)
from repro.core.mmt_transform import DelayedSimulation
from repro.core.pipeline import (
    MMT,
    Clock,
    Design,
    SystemSpec,
    Timed,
    build_clock_system,
    build_timed_system,
    lower,
    simulation1_delay_bounds,
    simulation2_shift_bound,
)
from repro.core.rate import check_output_rate, max_outputs_in_window, smallest_k
from repro.errors import (
    AxiomViolation,
    ClockEnvelopeError,
    CompositionError,
    ReproError,
    ScheduleError,
    SignatureError,
    SimulationLimitError,
    SpecificationError,
    TimelockError,
    TransitionError,
)
from repro.network.channel import ChannelEntity
from repro.network.topology import Topology
from repro.registers.algorithm_l import AlgorithmLProcess, RegisterProcess
from repro.registers.algorithm_s import (
    AlgorithmSProcess,
    NaiveSuperlinearizableProcess,
)
from repro.registers.baseline import SlottedRegisterProcess
from repro.registers.spec import (
    linearizable_register_problem,
    superlinearizable_register_problem,
)
from repro.registers.system import (
    RegisterRun,
    clock_register_system,
    register_design,
    register_system,
    run_register_experiment,
    with_clients,
)
from repro.registers.workload import ClientEntity, RegisterWorkload
from repro.sim.clock_drivers import (
    ClockDriver,
    DriftingClockDriver,
    FastClockDriver,
    PerfectClockDriver,
    RandomWalkClockDriver,
    SawtoothClockDriver,
    SkewedClockDriver,
    SlowClockDriver,
    driver_factory,
)
from repro.sim.delay import (
    AlternatingExtremesDelay,
    ConstantFractionDelay,
    JitteredDelay,
    MaximalDelay,
    MinimalDelay,
    UniformDelay,
)
from repro.sim.engine import SimulationResult, Simulator
from repro.sim.scheduler import (
    DeterministicScheduler,
    RandomScheduler,
    RoundRobinScheduler,
)
from repro.traces.linearizability import (
    Operation,
    extract_operations,
    is_linearizable,
    is_superlinearizable,
)
from repro.traces.problems import PredicateProblem, Problem
from repro.traces.relations import (
    equivalent_eps,
    find_eps_matching,
    find_shift_matching,
    max_time_displacement,
    shifted_delta,
)

__version__ = "1.0.0"

__all__ = [
    # actions / traces
    "NU", "Action", "ActionPattern", "action_set", "Signature",
    "TimedEvent", "TimedSequence", "Execution",
    # components
    "Entity", "Process", "ProcessContext", "TimedNodeEntity",
    # core transformations
    "SendBuffer", "ReceiveBuffer", "ClockMachine", "ClockNodeEntity",
    "PassThroughMachine", "DelayedSimulation", "TimedFromMMT",
    "EagerStepPolicy", "LazyStepPolicy", "UniformStepPolicy",
    "SystemSpec", "Design", "Timed", "Clock", "MMT", "lower",
    "build_timed_system", "build_clock_system",
    "simulation1_delay_bounds", "simulation2_shift_bound",
    "check_output_rate", "max_outputs_in_window", "smallest_k",
    # network
    "Topology", "ChannelEntity",
    # registers
    "RegisterProcess", "AlgorithmLProcess", "AlgorithmSProcess",
    "NaiveSuperlinearizableProcess", "SlottedRegisterProcess",
    "linearizable_register_problem", "superlinearizable_register_problem",
    "RegisterWorkload", "ClientEntity", "RegisterRun",
    "register_design", "register_system", "clock_register_system",
    "with_clients", "run_register_experiment",
    # simulation substrate
    "ClockDriver", "PerfectClockDriver", "SkewedClockDriver",
    "FastClockDriver", "SlowClockDriver", "DriftingClockDriver",
    "SawtoothClockDriver", "RandomWalkClockDriver", "driver_factory",
    "DelayModel", "ConstantFractionDelay", "UniformDelay", "MinimalDelay",
    "MaximalDelay", "AlternatingExtremesDelay", "JitteredDelay",
    "Simulator", "SimulationResult",
    "DeterministicScheduler", "RandomScheduler", "RoundRobinScheduler",
    # checkers
    "Operation", "extract_operations",
    "is_linearizable", "is_superlinearizable",
    "Problem", "PredicateProblem",
    "equivalent_eps", "shifted_delta", "find_eps_matching",
    "find_shift_matching", "max_time_displacement",
    # errors
    "ReproError", "AxiomViolation", "CompositionError", "SignatureError",
    "TransitionError", "TimelockError", "ScheduleError",
    "ClockEnvelopeError", "SimulationLimitError", "SpecificationError",
]

from repro.sim.delay import DelayModel  # noqa: E402  (re-export)

# Extensions (Sections 6 closing remark, 7.1, 7.3, intro motivations) —
# imported last to keep the core import graph acyclic.
from repro.broadcast import (  # noqa: E402
    FloodProcess,
    LeaderElectProcess,
    build_flood_system,
    build_leader_system,
)
from repro.detector import (  # noqa: E402
    DeadlineMonitor,
    HeartbeatSender,
    build_detector_system,
    detector_timeout,
)
from repro.faults import (  # noqa: E402
    BernoulliFaults,
    BurstFaults,
    LossyChannelEntity,
    NoFaults,
    ReliableAdapter,
    effective_delay_bounds,
)
from repro.objects import (  # noqa: E402
    BlindUpdateObjectProcess,
    CounterSpec,
    GrowSetSpec,
    LWWMapSpec,
    MaxRegisterSpec,
    PNCounterSpec,
    RegisterSpec,
    SequentialSpec,
)
from repro.tdma import (  # noqa: E402
    TDMAProcess,
    build_tdma_system,
    critical_intervals,
    max_overlap,
)
from repro.traces.sequential_consistency import (  # noqa: E402
    is_sequentially_consistent,
)

__all__ += [
    "FloodProcess", "LeaderElectProcess", "build_flood_system",
    "build_leader_system",
    "HeartbeatSender", "DeadlineMonitor", "build_detector_system",
    "detector_timeout",
    "NoFaults", "BernoulliFaults", "BurstFaults", "LossyChannelEntity",
    "ReliableAdapter", "effective_delay_bounds",
    "SequentialSpec", "RegisterSpec", "CounterSpec", "PNCounterSpec",
    "MaxRegisterSpec", "GrowSetSpec", "LWWMapSpec",
    "BlindUpdateObjectProcess",
    "TDMAProcess", "build_tdma_system", "critical_intervals", "max_overlap",
    "is_sequentially_consistent",
]
