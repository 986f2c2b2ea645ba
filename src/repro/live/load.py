"""The load generator: seeded schedules over sockets, checked histories.

:func:`run_load` is the whole pipeline in one call, with or without a
fault plan:

1. materialize one :class:`~repro.registers.opstream.OpSchedule` per
   client from the workload seed (the same pure generator the
   simulator's replay-mode clients use);
2. run one :class:`~repro.live.client.LiveLoadClient` per schedule
   concurrently against the cluster — self-hosting a loopback
   :class:`~repro.live.service.LiveCluster` when no addresses are given,
   or connecting to an external service (``--connect``) otherwise;
   a ``plan`` arms a :class:`~repro.live.chaos.LiveChaosController` on
   the self-hosted cluster, watches its observation stream with the
   simulator's chaos monitors and makes the clients retry;
3. collect the timed history and the node-side measurements, and run
   the budgeted linearizability checker;
4. package everything as a :class:`~repro.live.report.LiveReport`.

:func:`sim_replay` runs the *same* schedules through the virtual-time
clock model (:func:`~repro.registers.system.clock_register_system`), so
one seed yields a pair of runs — simulated and live — over identical
operation streams: the cross-validation the live backend exists for.
"""

from __future__ import annotations

import asyncio
import dataclasses
import time
from typing import Dict, List, Optional, Tuple

from repro.chaos.monitors import (
    ChannelBoundMonitor,
    ClockPredicateMonitor,
    MonitorTracer,
    TeeTracer,
)
from repro.chaos.plan import FaultPlan
from repro.errors import LiveServiceError
from repro.faults.retransmit import BackoffPolicy
from repro.live.chaos import LiveChaosController
from repro.live.client import LiveLoadClient
from repro.live.params import LiveParams
from repro.live.report import DEFAULT_SLACK, LiveReport
from repro.live.service import LiveCluster, fetch_stats
from repro.obs.metrics import NULL_METRICS
from repro.obs.trace import NULL_TRACER
from repro.registers.algorithm_s import theorem_bounds
from repro.registers.opstream import OpSchedule
from repro.registers.system import (
    INITIAL_VALUE,
    RegisterRun,
    clock_register_system,
    run_register_experiment,
)
from repro.registers.workload import RegisterWorkload
from repro.sim.clock_drivers import driver_factory
from repro.traces.linearizability import (
    DEFAULT_NODE_BUDGET,
    Operation,
    analyze_linearizability,
)


def live_workload(
    operations: int = 20,
    read_fraction: float = 0.5,
    seed: int = 0,
    think_min: float = 0.0,
    think_max: float = 0.02,
) -> RegisterWorkload:
    """A :class:`RegisterWorkload` with live-scale (wall-second) thinks."""
    return RegisterWorkload(
        operations=operations, read_fraction=read_fraction, seed=seed,
        think_min=think_min, think_max=think_max,
    )


def build_operations(
    records: List[Operation], horizon: Optional[float] = None
) -> List[Operation]:
    """Renumber client records into a checkable history, ids in
    real-time order (a record's ``op_id`` is its client's schedule index).

    With ``horizon`` set (as :func:`run_load` always does), timed-out
    records get the standard open-window treatment: a timed-out *read*
    returned nothing checkable and is excluded; a timed-out *write* may
    still have taken effect server-side, so it stays in the history as a
    possibly-effective operation whose window extends to the run
    horizon — the checker can linearize it after every read (never
    executed) or wherever a read's value demands (executed, response
    lost). Without ``horizon`` records pass through unchanged.
    """
    ordered = sorted(records, key=lambda r: (r.inv_time, r.node, r.op_id))
    operations: List[Operation] = []
    for r in ordered:
        res_time = r.res_time
        if horizon is not None and not r.completed:
            if r.kind == "R":
                continue
            res_time = max(horizon, r.res_time)
        operations.append(dataclasses.replace(
            r, op_id=len(operations), res_time=res_time
        ))
    return operations


async def _run_load_async(
    params: LiveParams,
    schedules: List[OpSchedule],
    addresses: Optional[List[Tuple[str, int]]],
    metrics,
    plan: Optional[FaultPlan] = None,
    tracer=NULL_TRACER,
) -> Tuple[List[Operation], List[Dict[str, object]]]:
    cluster = controller = None
    if addresses is None:
        cluster = LiveCluster(params, metrics=metrics, tracer=tracer)
        if plan is not None:
            # arming precedes binding (ARQ machines, faulted clocks)
            controller = LiveChaosController(plan, cluster)
        addresses = await cluster.start()
    try:
        # self-hosted: the nodes' (and the plan's) real-time axis
        epoch = cluster.epoch if cluster is not None else time.monotonic()
        # cid-tagged frames only with concurrent clients per node or
        # retrying clients — single-client traffic stays byte-identical
        tagged = plan is not None or len(schedules) > len(addresses)
        retry = BackoffPolicy(seed=params.seed)
        clients = [
            LiveLoadClient(
                schedule.node,
                schedule,
                addresses[schedule.node % params.n],
                epoch,
                cid=f"c{schedule.node}" if tagged else None,
                op_timeout=params.op_timeout,
                retry=retry,
                max_attempts=params.retry_max if plan is not None else 1,
                retry_base=params.retry_base,
            )
            for schedule in schedules
        ]
        runs = [client.run() for client in clients]
        if controller is not None:
            controller.start()
            runs.append(controller.wait())
        per_client = (await asyncio.gather(*runs))[:len(clients)]
        # in-process when self-hosted: a plan may leave a node down
        if cluster is not None:
            stats = cluster.stats()
        else:
            stats = await fetch_stats(addresses)
    finally:
        if controller is not None:
            await controller.stop()
        if cluster is not None:
            await cluster.stop()
    records = [record for batch in per_client for record in batch]
    return records, stats


def run_load(
    params: LiveParams,
    workload: RegisterWorkload,
    addresses: Optional[List[Tuple[str, int]]] = None,
    metrics=NULL_METRICS,
    slack: float = DEFAULT_SLACK,
    max_nodes: int = DEFAULT_NODE_BUDGET,
    clients_per_node: int = 1,
    plan: Optional[FaultPlan] = None,
    tracer=NULL_TRACER,
) -> LiveReport:
    """Run the live workload and return the checked, measured report.

    ``addresses=None`` self-hosts a loopback cluster for the run (the CI
    smoke path); a list of ``(host, port)`` pairs — usually from a
    service manifest — drives an external cluster instead.

    ``clients_per_node > 1`` opens that many concurrent connections per
    node; client ``k`` of node ``i`` replays the schedule of pseudo-node
    ``i + n*k``, so every client owns a distinct seeded op stream and a
    distinct write-value space, and the node serializes them under the
    per-client alternation rule.

    ``plan`` runs the load under a fault plan: it needs in-process nodes
    to crash and cut, so it self-hosts; the clients retry up to
    ``params.retry_max`` attempts per operation, the run lasts until both
    the workload and the plan's timeline are done, and the report is in
    degraded mode, with the violations a
    :class:`~repro.chaos.monitors.ClockPredicateMonitor` and a
    :class:`~repro.chaos.monitors.ChannelBoundMonitor` found on the
    cluster's observation stream.

    ``tracer`` receives that stream: every action of every node, on the
    cluster epoch. It too needs in-process nodes.
    """
    if clients_per_node < 1:
        raise ValueError("clients_per_node must be at least 1")
    if plan is not None and addresses is not None:
        raise LiveServiceError(
            "a fault plan drives a self-hosted cluster; it cannot be "
            "combined with external addresses (--connect)"
        )
    if tracer is not NULL_TRACER and addresses is not None:
        raise LiveServiceError(
            "a trace is the stream of the cluster's nodes, and with "
            "external addresses (--connect) they run in the serve process"
        )
    monitors = None
    if plan is not None:
        monitors = MonitorTracer([
            ClockPredicateMonitor(params.eps),
            ChannelBoundMonitor(params.d1, params.d2),
        ], plan)
        tracer = TeeTracer(monitors, tracer)
    schedules = [
        OpSchedule.generate(i + params.n * k, workload)
        for k in range(clients_per_node)
        for i in range(params.n)
    ]
    records, stats = asyncio.run(
        _run_load_async(params, schedules, addresses, metrics, plan, tracer)
    )
    horizon = max((r.res_time for r in records), default=0.0)
    operations = build_operations(records, horizon=horizon)
    linearization = analyze_linearizability(
        operations, initial_value=INITIAL_VALUE, max_nodes=max_nodes
    )
    return LiveReport(
        params=params,
        operations=operations,
        linearization=linearization,
        node_stats=stats,
        slack=slack,
        records=records,
        plan=plan,
        violations=monitors.violations if monitors is not None else [],
    )


def replay_horizon(params: LiveParams, schedules: List[OpSchedule]) -> float:
    """A safe simulated horizon for replaying the given schedules."""
    bounds = theorem_bounds(
        "clock", params.eps, params.c, params.delta, params.d2
    )
    per_op = max(bounds["read_real"], bounds["write_real"]) + params.delta
    worst = 0.0
    for schedule in schedules:
        total = schedule.start_delay + sum(
            op.think_after for op in schedule.ops
        ) + len(schedule) * per_op
        worst = max(worst, total)
    return worst + 5.0


def sim_replay(
    params: LiveParams,
    workload: RegisterWorkload,
    horizon: Optional[float] = None,
) -> RegisterRun:
    """Replay the same seeded schedules in the virtual-time clock model."""
    schedules = [OpSchedule.generate(i, workload) for i in range(params.n)]
    drivers = driver_factory(params.driver, params.eps, seed=params.seed)
    spec = clock_register_system(
        n=params.n, d1=params.d1, d2=params.d2, c=params.c, eps=params.eps,
        workload=workload, drivers=drivers, algorithm="S",
        delta=params.delta, schedules=schedules,
    )
    if horizon is None:
        horizon = replay_horizon(params, schedules)
    return run_register_experiment(spec, horizon)
