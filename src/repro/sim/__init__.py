"""Discrete-event simulation substrate.

- :mod:`repro.sim.engine` — the simulator: composes entities, resolves
  urgency, advances time, records traces;
- :mod:`repro.sim.scheduler` — policies choosing among simultaneously
  enabled actions;
- :mod:`repro.sim.clock_drivers` — adversaries choosing each node's
  clock trajectory within the ``C_eps`` envelope;
- :mod:`repro.sim.delay` — adversaries choosing message delivery times
  within ``[d1, d2]``;
- :mod:`repro.sim.recorder` — execution recording and trace extraction.
"""

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
    DelayModel,
    MaximalDelay,
    MinimalDelay,
    UniformDelay,
)
from repro.sim.engine import SimulationResult, Simulator
from repro.sim.recorder import EventRecord, Recorder
from repro.sim.scheduler import DeterministicScheduler, RandomScheduler, Scheduler

__all__ = [
    "ClockDriver",
    "PerfectClockDriver",
    "SkewedClockDriver",
    "DriftingClockDriver",
    "SawtoothClockDriver",
    "RandomWalkClockDriver",
    "FastClockDriver",
    "SlowClockDriver",
    "driver_factory",
    "DelayModel",
    "ConstantFractionDelay",
    "UniformDelay",
    "MinimalDelay",
    "MaximalDelay",
    "AlternatingExtremesDelay",
    "Simulator",
    "SimulationResult",
    "Recorder",
    "EventRecord",
    "Scheduler",
    "DeterministicScheduler",
    "RandomScheduler",
]
