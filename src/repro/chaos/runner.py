"""Chaos run orchestration: apply a plan, monitor, attribute, shrink.

The entry point is :func:`run_chaos`: build a fresh system, lower a
:class:`~repro.chaos.plan.FaultPlan` onto it, attach the online monitors
as the engine tracer, run, and return a :class:`ChaosResult` with every
attributed :class:`~repro.chaos.monitors.Violation`.

``builder`` is a zero-argument callable returning a *fresh*
:class:`~repro.core.pipeline.SystemSpec` — fresh because clock drivers
and fault models may be stateful, and because the same builder is run
repeatedly: once per shrink candidate
(:func:`violation_oracle` + :func:`~repro.chaos.shrink.shrink_plan`) and
twice for the engine-conformance check (:func:`conformance_check`, which
asserts a chaos run is trace-identical between the incremental and
full-scan engine cores).

:func:`demo_builder`/:func:`demo_plan` ship the canonical demonstration:
a two-node heartbeat detector with the Theorem 4.7 timeout
``d2 + 2*eps``, correct under every eps-accurate clock — until a
scripted ``clock_fault`` drives the monitor's clock beyond the envelope,
the detector falsely suspects a live sender, the clock-predicate monitor
flags the broken assumption and attributes it to the plan event, and the
shrinker reduces the plan to that single-event witness.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional

from repro.chaos.apply import apply_plan
from repro.chaos.monitors import (
    ChannelBoundMonitor,
    ChaosMonitor,
    ClockPredicateMonitor,
    HeartbeatMonitor,
    MonitorTracer,
    TeeTracer,
    Violation,
)
from repro.chaos.plan import (
    FaultPlan,
    clock_fault,
    crash,
    drop_burst,
    heal,
    partition,
    recover,
)
from repro.chaos.shrink import ShrinkResult, shrink_plan
from repro.core.pipeline import SystemSpec
from repro.detector.heartbeat import build_detector_system, detector_timeout
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Tracer
from repro.sim.clock_drivers import driver_factory
from repro.sim.engine import SimulationResult, Simulator
from repro.sim.recorder import Recorder

Builder = Callable[[], SystemSpec]
MonitorsFactory = Callable[[FaultPlan], List[ChaosMonitor]]


@dataclass
class ChaosResult:
    """Everything observable about one chaos run."""

    plan: FaultPlan
    sim: SimulationResult
    violations: List[Violation] = field(default_factory=list)

    @property
    def violated(self) -> bool:
        return bool(self.violations)

    @property
    def first_violation(self) -> Optional[Violation]:
        if not self.violations:
            return None
        return min(
            enumerate(self.violations),
            key=lambda pair: (pair[1].time, pair[0]),
        )[1]


def run_chaos(
    builder: Builder,
    plan: FaultPlan,
    horizon: float,
    monitors: Optional[List[ChaosMonitor]] = None,
    monitors_factory: Optional[MonitorsFactory] = None,
    incremental: bool = True,
    scheduler=None,
    max_steps: int = 1_000_000,
    metrics: Optional[MetricsRegistry] = None,
    tracer: Optional[Tracer] = None,
) -> ChaosResult:
    """Apply the plan to a fresh system, run it monitored, attribute."""
    spec = apply_plan(builder(), plan)
    if monitors_factory is not None:
        monitors = list(monitors_factory(plan))
    monitor_tracer = MonitorTracer(monitors or [], plan)
    registry = metrics if metrics is not None else MetricsRegistry()
    monitor_tracer.bind_metrics(registry)
    effective: Tracer = monitor_tracer
    if tracer is not None:
        effective = TeeTracer(monitor_tracer, tracer)
    simulator = Simulator(
        spec.entities,
        scheduler=scheduler,
        hidden=spec.hidden,
        max_steps=max_steps,
        incremental=incremental,
    )
    result = simulator.run(
        horizon, recorder=Recorder(), metrics=registry, tracer=effective
    )
    return ChaosResult(
        plan=plan, sim=result, violations=monitor_tracer.violations
    )


def violation_oracle(
    builder: Builder,
    horizon: float,
    monitors_factory: MonitorsFactory,
    match_kind: Optional[str] = None,
    **run_kwargs,
) -> Callable[[FaultPlan], bool]:
    """An oracle for :func:`~repro.chaos.shrink.shrink_plan`.

    ``match_kind`` pins the oracle to one violation kind, so shrinking a
    plan with several latent failures converges on a witness for the
    *original* violation instead of drifting to a different one.
    """

    def oracle(plan: FaultPlan) -> bool:
        outcome = run_chaos(
            builder, plan, horizon, monitors_factory=monitors_factory,
            **run_kwargs,
        )
        if match_kind is None:
            return outcome.violated
        return any(v.kind == match_kind for v in outcome.violations)

    return oracle


def shrink_chaos(
    builder: Builder,
    plan: FaultPlan,
    horizon: float,
    monitors_factory: MonitorsFactory,
    match_kind: Optional[str] = None,
    log: Optional[Callable[[str], None]] = None,
    **run_kwargs,
) -> ShrinkResult:
    """Minimize a violating plan to a smallest witness (ddmin)."""
    oracle = violation_oracle(
        builder, horizon, monitors_factory, match_kind=match_kind,
        **run_kwargs,
    )
    return shrink_plan(plan, oracle, log=log)


def conformance_check(
    builder: Builder,
    plan: FaultPlan,
    horizon: float,
    monitors_factory: Optional[MonitorsFactory] = None,
    **run_kwargs,
) -> bool:
    """Chaos runs must be trace-identical across both engine cores.

    Runs the plan under the incremental and the full-scan core (fresh
    system each) and compares the recorded event sequences exactly.
    Raises :class:`AssertionError` on the first divergence, so failures
    are debuggable; returns True on success.
    """
    runs = {}
    for incremental in (True, False):
        runs[incremental] = run_chaos(
            builder, plan, horizon, monitors_factory=monitors_factory,
            incremental=incremental, **run_kwargs,
        )
    fast = runs[True].sim.recorder.events
    slow = runs[False].sim.recorder.events
    for index, (a, b) in enumerate(zip(fast, slow)):
        if a != b:
            raise AssertionError(
                f"engine cores diverge at event {index}: "
                f"incremental={a!r} full-scan={b!r}"
            )
    if len(fast) != len(slow):
        raise AssertionError(
            f"engine cores diverge in length: incremental={len(fast)} "
            f"full-scan={len(slow)}"
        )
    return True


# -- the canonical demonstration -------------------------------------------

DEMO_PERIOD = 2.0
DEMO_COUNT = 8
DEMO_D1 = 0.1
DEMO_D2 = 1.0
DEMO_EPS = 0.1
DEMO_TIMEOUT = detector_timeout(DEMO_D2, DEMO_EPS)  # the 4.7 rule: 1.2
DEMO_HORIZON = 20.0


def demo_builder() -> SystemSpec:
    """A fresh two-node heartbeat detector in the clock model.

    Perfect clocks and the Theorem 4.7 timeout: fault-free, this system
    never falsely suspects — any violation a chaos run surfaces is the
    plan's doing.
    """
    return build_detector_system(
        "clock",
        period=DEMO_PERIOD,
        timeout=DEMO_TIMEOUT,
        count=DEMO_COUNT,
        d1=DEMO_D1,
        d2=DEMO_D2,
        eps=DEMO_EPS,
        drivers=driver_factory("perfect", DEMO_EPS),
    )


def demo_plan() -> FaultPlan:
    """The demo timeline: one real fault among harmless red herrings.

    The ``clock_fault`` drives the monitor's clock up to ``1.5`` beyond
    the envelope during ``[2.5, 6.0)`` — its next-beat deadline fires
    early in *real* time, so it suspects a sender whose beats are still
    in flight. The burst and the crash land after the last beat
    (``count * period = 16``) and change nothing; the shrinker strips
    them, leaving the single-event witness.
    """
    return FaultPlan.of(
        [
            clock_fault(1, 2.5, 6.0, excess=1.5),
            drop_burst((0, 1), 15.0, 15.5),
            crash(0, 17.0),
            recover(0, 18.0),
        ],
        name="demo",
    )


def conformance_corpus() -> List[FaultPlan]:
    """One plan per :func:`~repro.chaos.apply.apply_plan` lowering path.

    Each plan opens *and closes* its fault window while the demo's beat
    stream is still active (beats run to ``count * period = 16``), so
    the incremental core's dirty-set bookkeeping is exercised at every
    boundary the lowering can produce:

    - ``crash``/``recover`` — :class:`~repro.faults.recovery.RecoverableEntity`
      wrapping (state snapshot/restore, lost inputs while down);
    - ``partition`` + ``heal`` — channels rebuilt as
      :class:`~repro.faults.lossy_channel.LossyChannelEntity` with a
      :class:`~repro.faults.partition.PartitionWindow` that severs and
      then stops severing mid-run;
    - ``clock_fault`` with a window that *exits* well before the
      horizon — :class:`~repro.sim.clock_drivers.FaultyClockDriver`
      wrapping, where the post-window decay back inside the envelope
      must re-probe the node on both cores identically;
    - ``drop_burst`` — an :class:`~repro.faults.partition.EdgeDropWindow`
      cutting one directed edge mid-stream;
    - the demo plan itself (clock fault plus post-traffic red herrings).

    :func:`conformance_check` over this corpus is the regression gate
    that every lowering path marks affected entities dirty: any missed
    invalidation shows up as an incremental/full-scan trace divergence.
    """
    return [
        demo_plan(),
        FaultPlan.of([crash(0, 3.0), recover(0, 9.0)], name="crash-recover"),
        FaultPlan.of(
            [partition([[0], [1]], 3.0), heal(9.0)], name="partition-heal"
        ),
        FaultPlan.of(
            [clock_fault(1, 2.5, 6.0, excess=1.5)], name="clock-fault-exit"
        ),
        FaultPlan.of(
            [clock_fault(0, 2.5, 6.0, excess=-1.5)], name="clock-fault-slow"
        ),
        FaultPlan.of([drop_burst((0, 1), 3.0, 9.0)], name="drop-burst"),
        FaultPlan.of(
            [
                partition([[0], [1]], 3.0),
                heal(9.0),
                drop_burst((1, 0), 11.0, 12.5),
            ],
            name="mixed-network",
        ),
    ]


def demo_monitors(plan: FaultPlan) -> List[ChaosMonitor]:
    """The monitor suite for the demo detector, plan as ground truth."""
    compiled = plan.compile()
    return [
        ClockPredicateMonitor(DEMO_EPS),
        ChannelBoundMonitor(DEMO_D1, DEMO_D2),
        HeartbeatMonitor(
            sender=0,
            monitor_node=1,
            period=DEMO_PERIOD,
            timeout=DEMO_TIMEOUT,
            count=DEMO_COUNT,
            eps=DEMO_EPS,
            sender_schedule=compiled.recovery.get(0),
            monitor_schedule=compiled.recovery.get(1),
        ),
    ]


def causal_attribution(trace_path: str) -> str:
    """Render a causal attribution summary of a chaos run's trace.

    Reconstructs the happens-before DAG from the trace file a chaos run
    wrote (``--trace-out`` / ``--causal``) and summarizes where message
    latency went, phase by phase — including the spans that never
    completed because a fault dropped or stranded them.
    """
    from repro.obs.causal import CausalTrace

    trace = CausalTrace.from_file(trace_path)
    lines = [
        f"causal attribution: {len(trace.events)} events, "
        f"{len(trace.spans)} message spans, {len(trace.ops)} operation spans"
    ]
    problems = trace.check()
    lines.append(
        "  happens-before DAG: "
        + ("acyclic, sound" if not problems else "; ".join(problems))
    )
    delivered = sum(1 for span in trace.spans if span.delivered)
    lines.append(
        f"  delivered {delivered}/{len(trace.spans)} message spans; "
        f"{len(trace.open_spans)} open (dropped or in flight at the horizon)"
    )
    for label, stats in sorted(trace.phase_summary().items()):
        lines.append(
            f"  phase {label:<12} n={stats['count']:<5} "
            f"mean={stats['mean']:.4f} max={stats['max']:.4f}"
        )
    return "\n".join(lines)


def run_demo(
    shrink: bool = False, incremental: bool = True
) -> "tuple[ChaosResult, Optional[ShrinkResult]]":
    """Run the canonical demo; optionally shrink the plan afterwards."""
    outcome = run_chaos(
        demo_builder,
        demo_plan(),
        DEMO_HORIZON,
        monitors_factory=demo_monitors,
        incremental=incremental,
    )
    shrunk: Optional[ShrinkResult] = None
    if shrink and outcome.violated:
        shrunk = shrink_chaos(
            demo_builder,
            demo_plan(),
            DEMO_HORIZON,
            monitors_factory=demo_monitors,
            match_kind=outcome.first_violation.kind,
        )
    return outcome, shrunk
