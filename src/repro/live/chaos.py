"""Live chaos: lower a declarative ``FaultPlan`` onto a running cluster.

The simulator's chaos layer (:mod:`repro.chaos`) scripts faults as a
:class:`~repro.chaos.plan.FaultPlan` timeline and lowers them onto
virtual-time mechanisms. This module lowers the *same* plans onto a
:class:`~repro.live.service.LiveCluster` of real asyncio nodes:

========================= =============================================
plan event                live mechanism
========================= =============================================
``crash`` / ``recover``   :meth:`LiveRegisterNode.crash` /
                          :meth:`~repro.live.node.LiveRegisterNode.recover`
                          — the node's server socket goes away and every
                          connection is aborted; state survives through
                          the ``encode_state`` snapshot protocol and the
                          restored clock jumps to the ``C_eps`` envelope
                          edge on its first post-recovery read
``partition`` / ``heal``  the plan's drop windows, checked by each node's
                          ``_wire_send`` on every outgoing peer frame —
                          severed edges silently drop, the unchanged
                          ``AlgorithmSProcess`` and Figure 2 buffers are
                          what is being stressed
``drop_burst``            same windows, single directed edge
``clock_fault``           the node's :class:`~repro.live.clock.LiveClock`
                          driver wrapped in the simulator's own
                          :class:`~repro.sim.clock_drivers.FaultyClockDriver`
========================= =============================================

Refused (``LiveServiceError`` at controller construction): events
naming nodes, edges, or partition-group members outside ``range(n)`` —
a live cluster has no way to fault a processor it does not run.

Because partitions and drops *lose* frames while Theorem 6.5 assumes
delivery within ``[d1, d2]``, arming a plan wraps every node's process
in the simulator's ``ReliableAdapter`` (retransmission every
``params.retry_base`` s until acked, ``max_attempts=inf``),
turning faulted channels into *eventually-delivering* channels whose effective bound is the
:func:`~repro.faults.retransmit.effective_delay_bounds` widening. Size
``params.d2`` to cover the longest plan outage plus one retransmission
interval and the algorithm's correctness argument goes through
unchanged.

A fault-injected load is :func:`~repro.live.load.run_load` with a
``plan``: it arms a :class:`LiveChaosController` on its self-hosted
cluster and returns the same :class:`~repro.live.report.LiveReport`.
The monitors are the simulator's: the run tees a
:class:`~repro.chaos.monitors.MonitorTracer` of
:class:`~repro.chaos.monitors.ClockPredicateMonitor` and
:class:`~repro.chaos.monitors.ChannelBoundMonitor` into the cluster's
tracer, so a clock excursion or a delivery outside ``[d1, d2]`` is
judged and attributed to its plan event exactly as in sim mode.
"""

from __future__ import annotations

import asyncio
import time
from typing import List

from repro.chaos.plan import (
    FaultPlan,
    crash,
    drop_burst,
    heal,
    partition,
    recover,
)
from repro.constants import INFINITY
from repro.errors import LiveServiceError
from repro.live.params import LiveParams
from repro.live.service import LiveCluster
from repro.sim.clock_drivers import FaultyClockDriver


def validate_for_live(plan: FaultPlan, n: int) -> None:
    """Refuse plan events a live ``n``-node cluster cannot lower.

    All six event kinds are supported; what is refused is naming a
    processor that does not exist — a ``node``, ``edge`` endpoint, or
    partition-group member outside ``range(n)``.
    """
    for index, event in enumerate(plan.events):
        named: List[int] = []
        if event.node is not None:
            named.append(event.node)
        if event.edge is not None:
            named.extend(event.edge)
        if event.groups is not None:
            for group in event.groups:
                named.extend(group)
        bad = sorted({i for i in named if not 0 <= i < n})
        if bad:
            raise LiveServiceError(
                f"plan {plan.name!r} event #{index} ({event.kind}) names "
                f"node(s) {bad} outside the live cluster's range(0, {n})"
            )


class LiveChaosController:
    """Drives one compiled ``FaultPlan`` against one ``LiveCluster``.

    Construct *before* ``cluster.start()`` (arming the ARQ layer and
    wrapping the faulted clocks must precede binding), then
    :meth:`start` once the cluster is up. Plan times are real seconds
    relative to the cluster epoch.
    """

    def __init__(self, plan: FaultPlan, cluster: LiveCluster):
        validate_for_live(plan, cluster.params.n)
        self.plan = plan
        self.cluster = cluster
        self.compiled = plan.compile()
        for node in cluster.nodes:
            node.attach_faults(self.compiled.drop_windows)
        for i, windows in self.compiled.clock_windows.items():
            clock = cluster.nodes[i].clock
            clock.driver = FaultyClockDriver(clock.driver, list(windows))
        self._tasks: List[asyncio.Task] = []

    def _now(self) -> float:
        return time.monotonic() - self.cluster.epoch

    async def _sleep_until(self, t: float) -> None:
        delay = t - self._now()
        if delay > 0:
            await asyncio.sleep(delay)

    async def _drive_node(self, i: int, windows) -> None:
        node = self.cluster.nodes[i]
        for crash_t, recover_t in windows:
            await self._sleep_until(crash_t)
            await node.crash()
            if recover_t == INFINITY:
                return  # crash-stop: the node never comes back
            await self._sleep_until(recover_t)
            await node.recover()

    def start(self) -> None:
        """Launch the crash/recover timeline (call after cluster start)."""
        for i, schedule in sorted(self.compiled.recovery.items()):
            if not schedule.windows:
                continue
            self._tasks.append(asyncio.ensure_future(
                self._drive_node(i, schedule.windows)
            ))

    async def wait(self) -> None:
        """Block until every scripted crash/recover has been applied."""
        if self._tasks:
            await asyncio.gather(*self._tasks)

    async def stop(self) -> None:
        """Cancel any timeline still pending (early teardown)."""
        for task in self._tasks:
            task.cancel()
        if self._tasks:
            await asyncio.gather(*self._tasks, return_exceptions=True)


def demo_live_plan(n: int = 3) -> FaultPlan:
    """The default live demo: one crash/recover inside a partition,
    plus a separate drop burst — all three fault classes the acceptance
    gate requires, sized for the default chaos parameters
    (:func:`chaos_params`).
    """
    if n < 2:
        raise LiveServiceError("the live demo plan needs n >= 2")
    victim = n - 1
    rest = [i for i in range(n) if i != victim]
    return FaultPlan(
        events=(
            partition([rest, [victim]], 0.10),
            crash(victim, 0.15),
            recover(victim, 0.40),
            heal(0.45),
            drop_burst((0, min(1, n - 1)), 0.50, 0.60),
        ),
        name="live-demo",
    )


def chaos_params(
    n: int = 3, seed: int = 0, d2: float = 0.5, eps: float = 0.01
) -> LiveParams:
    """Fault-tolerant ``LiveParams`` sized for the demo plan.

    ``d2`` covers the demo's longest outage (0.35 s partition+crash)
    plus retransmission latency — the
    :func:`~repro.faults.retransmit.effective_delay_bounds` sizing rule
    — so retransmitted updates still land inside the trusted bound and
    linearizability survives the faults rather than merely being
    checked after them.
    """
    return LiveParams(
        n=n, d2=d2, eps=eps, c=0.02, delta=0.005, seed=seed,
        op_timeout=2.5, retry_max=6, retry_base=0.05,
    )
