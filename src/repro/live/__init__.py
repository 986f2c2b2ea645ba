"""``repro.live`` — Algorithm S as a real networked register service.

The simulator executes the clock model under a virtual-time engine; this
package runs the *same* state machine
(:class:`~repro.registers.algorithm_s.AlgorithmSProcess`) over real TCP
sockets on real (wall-clock) time:

- :mod:`repro.live.clock` — per-node clocks driven by the simulator's
  :class:`~repro.sim.clock_drivers.ClockDriver` envelopes, mapped onto
  wall-clock time, so every node's clock stays inside ``C_eps``;
- :mod:`repro.live.wire` — JSON-lines framing, with the Figure 2
  ``S_{ij,eps}`` / ``R_{ji,eps}`` buffers reused as wire middleware
  (stamp on send, hold on receive until the local clock catches up);
- :mod:`repro.live.node` — one asyncio register node: server socket,
  peer mesh, and a timer loop that fires the process's due actions; a
  :class:`~repro.obs.trace.Tracer` source like the simulator's engine,
  so the chaos monitors and the JSONL trace writer run on it unchanged;
- :mod:`repro.live.client` — load clients replaying the same
  :class:`~repro.registers.opstream.OpSchedule` objects the simulator's
  clients replay, so a live run and a sim run of one seed issue
  identical operation streams;
- :mod:`repro.live.service` — cluster lifecycle (start, peer wiring,
  manifest for out-of-process load generators, stats RPC);
- :mod:`repro.live.load` — the load generator: run the schedules (under
  an optional fault plan), record the timed history, and cross-validate
  against a simulated replay;
- :mod:`repro.live.report` — linearizability verdict, latency quantiles,
  and the Theorem 6.5 bound check with *measured* ``eps`` substituted
  (degraded mode and plan-attributed violations under a fault plan);
- :mod:`repro.live.chaos` — the fault-injection bridge: lowers a
  declarative :class:`~repro.chaos.plan.FaultPlan` onto a running
  cluster (crash/recover via state snapshots, partitions and drop
  bursts via drop windows on each node's peer writes, clock faults via
  :class:`~repro.sim.clock_drivers.FaultyClockDriver`); the simulator's
  monitors judge the faulted run on its observation stream.

Driven from the CLI as ``python -m repro serve`` / ``python -m repro
load`` / ``python -m repro chaos --live`` (see
:doc:`docs/live.md </docs/live>`).
"""

from repro.live.chaos import (
    LiveChaosController,
    chaos_params,
    demo_live_plan,
    validate_for_live,
)
from repro.live.client import LiveLoadClient
from repro.live.clock import LiveClock
from repro.live.load import build_operations, run_load, sim_replay
from repro.live.node import LiveRegisterNode
from repro.live.params import LiveParams
from repro.live.report import BoundCheck, LiveReport
from repro.live.service import LiveCluster, fetch_stats

__all__ = [
    "LiveParams",
    "LiveClock",
    "LiveRegisterNode",
    "LiveCluster",
    "LiveLoadClient",
    "fetch_stats",
    "run_load",
    "sim_replay",
    "build_operations",
    "LiveReport",
    "BoundCheck",
    "LiveChaosController",
    "chaos_params",
    "demo_live_plan",
    "validate_for_live",
]
