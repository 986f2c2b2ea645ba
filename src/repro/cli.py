"""Command-line interface: ``python -m repro <command>``.

Commands:

``register``
    Run a register experiment in any of the four variants (timed,
    clock, mmt, baseline); prints latencies and the linearizability
    verdict.
``object``
    Same for a generalized blind-update object (counter, pn-counter,
    max-register, g-set, lww-map).
``detector``
    Run the heartbeat failure monitor (optionally naive, optionally
    crashing the sender) and report suspicions.
``tdma``
    Run the message-free TDMA scheduler and report overlap/utilization.
``sync``
    Simulate the Cristian/NTP-style synchronization service and report
    the achieved clock error against the analytic envelope.
``sweep``
    Run a parameter-sweep campaign over the register experiments —
    grid from flags or a spec file, distributed across worker processes,
    checkpointed and resumable, aggregated to JSONL + CSV.
``chaos``
    Run a scripted fault plan (from a file, a seed, or the built-in
    demo) against the heartbeat detector under online safety monitors;
    optionally shrink the plan to a smallest witness and check that the
    run is trace-identical across both engine cores.
``serve``
    Run algorithm S as a *real* TCP register service on loopback
    (wall-clock time, driver-skewed per-node clocks) and write a
    manifest for out-of-process load generators.
``load``
    Replay a seeded operation stream against a live service (an
    external one via ``--connect``, or a self-hosted loopback cluster),
    check the recorded history for linearizability, and gate latency
    percentiles on the Theorem 6.5 bounds.
``lint``
    Statically check the source tree for set iteration into ordered
    results and un-copied received payloads; exits non-zero on new
    findings or stale suppressions.
``validate``
    Check exported artifacts (metrics, traces, campaign files, fault
    plans, live-chaos reports, experiment results) against the format
    each file's own header declares.

Every command is seeded and deterministic; exit status is non-zero when
a correctness check fails, so the CLI doubles as a smoke harness.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys
import tempfile
from typing import List, Optional

from repro.clocks.sync import CristianSimulation, HardwareClock, achievable_epsilon
from repro.obs import JsonlTracer, MetricsRegistry, SKEW_BUCKETS
from repro.obs.dashboard import render_dashboard, summarize_trace
from repro.obs.trace import NULL_TRACER
from repro.core.pipeline import Clock
from repro.detector import build_detector_system, detector_timeout
from repro.errors import ReproError
from repro.objects import (
    CounterSpec,
    GrowSetSpec,
    LWWMapSpec,
    MaxRegisterSpec,
    PNCounterSpec,
)
from repro.registers.system import (
    MODELS,
    register_system,
    run_register_experiment,
)
from repro.registers.workload import RegisterWorkload
from repro.sim.clock_drivers import driver_factory
from repro.sim.delay import UniformDelay
from repro.tdma import (
    build_tdma_system,
    critical_intervals,
    max_overlap,
    min_gap,
    utilization,
)

OBJECT_SPECS = {
    "counter": CounterSpec,
    "pn-counter": PNCounterSpec,
    "max-register": MaxRegisterSpec,
    "g-set": GrowSetSpec,
    "lww-map": LWWMapSpec,
}


def _obs(args):
    """The (metrics, tracer) pair requested by ``--metrics-out``/``--trace-out``.

    A registry is created whenever an export was requested; the tracer is
    a real :class:`JsonlTracer` only when tracing was requested, so the
    engine keeps its null-tracer fast path otherwise.
    """
    metrics = None
    if args.metrics_out:
        with open(args.metrics_out, "w"):  # fail fast, before the run
            pass
        metrics = MetricsRegistry()
    tracer = JsonlTracer(args.trace_out) if args.trace_out else None
    return metrics, tracer


def _finish_obs(args, metrics, tracer) -> None:
    """Flush the requested observability exports to disk."""
    if tracer is not None:
        tracer.close()
        if args.trace_out:
            print(f"trace   -> {args.trace_out}")
    if metrics is not None:
        metrics.dump(args.metrics_out)
        print(f"metrics -> {args.metrics_out}")


def _register_params(args) -> dict:
    """The workload parameters stamped into trace ``meta`` records.

    ``python -m repro trace`` reads these back, so a traced register run
    can be bound-checked later without repeating the flags.
    """
    return {
        "workload": "register", "model": args.model, "n": args.n,
        "d1": args.d1, "d2": args.d2, "eps": args.eps, "c": args.c,
        "delta": getattr(args, "delta", 0.01), "ops": args.ops,
        "read_fraction": args.read_fraction, "seed": args.seed,
        "driver": args.driver, "horizon": args.horizon,
    }


def _build_register_spec(args):
    workload = RegisterWorkload(
        operations=args.ops, read_fraction=args.read_fraction, seed=args.seed
    )
    return register_system(
        args.model, n=args.n, d1=args.d1, d2=args.d2, c=args.c, eps=args.eps,
        workload=workload, driver=args.driver,
        step_bound=args.step_bound, delta=getattr(args, "delta", 0.01),
    )


def _run(args, system, meta=None, spec=None):
    """Run a built register or object system with the requested exports."""
    metrics, tracer = _obs(args)
    if tracer is not None and meta is not None:
        tracer.meta(meta)
    run = run_register_experiment(
        system, args.horizon, max_steps=3_000_000, metrics=metrics,
        tracer=tracer, spec=spec,
    )
    _finish_obs(args, metrics, tracer)
    return run


def _register(args) -> int:
    run = _run(args, _build_register_spec(args), meta=_register_params(args))
    linearizable = run.linearizable()
    print(f"model={args.model} n={args.n} eps={args.eps:g} c={args.c:g}")
    print(f"operations: {len(run.operations)} "
          f"({len(run.reads)} reads, {len(run.writes)} writes)")
    print(f"max read latency : {run.max_read_latency():.4f}")
    print(f"max write latency: {run.max_write_latency():.4f}")
    print(f"linearizable     : {linearizable}")
    return 0 if linearizable else 1


def _object(args) -> int:
    if not 0.0 <= args.update_fraction <= 1.0:
        raise ValueError("update_fraction must be in [0, 1]")
    spec = OBJECT_SPECS[args.type]()
    workload = RegisterWorkload(
        operations=args.ops, read_fraction=1.0 - args.update_fraction,
        think_min=0.3, think_max=1.5, seed=args.seed,
    )
    system = register_system(
        args.model, n=args.n, d1=args.d1, d2=args.d2, c=args.c, eps=args.eps,
        workload=workload, driver=args.driver, step_bound=args.step_bound,
        spec=spec,
    )
    run = _run(args, system, spec=spec)
    linearizable = run.linearizable()
    print(f"object={spec.name} model={args.model} n={args.n}")
    print(f"operations: {len(run.operations)} "
          f"({len(run.reads)} queries, {len(run.writes)} updates)")
    print(f"max query latency : {run.max_read_latency():.4f}")
    print(f"max update latency: {run.max_write_latency():.4f}")
    print(f"linearizable      : {linearizable}")
    return 0 if linearizable else 1


def _detector(args) -> int:
    timeout = args.d2 if args.naive else detector_timeout(args.d2, args.eps)
    if args.driver == "worst":
        # the adversarial pair for false suspicions: slow sender clock,
        # fast monitor clock
        from repro.sim.clock_drivers import FastClockDriver, SlowClockDriver

        def drivers(i):
            return SlowClockDriver(args.eps) if i == 0 else FastClockDriver(args.eps)
    else:
        drivers = driver_factory(args.driver, args.eps, seed=args.seed)
    from repro.sim.delay import MaximalDelay

    delay = MaximalDelay() if args.driver == "worst" else UniformDelay(seed=args.seed)
    spec = build_detector_system(
        Clock(args.eps, drivers), args.period, timeout, args.count, args.d1,
        args.d2, delay_model=delay,
    )
    if args.crash_at is not None:
        from repro.chaos import FaultPlan, apply_plan, crash

        # node 0 is the sender; a crash with no recover is crash-stop
        spec = apply_plan(spec, FaultPlan.of([crash(0, args.crash_at)]))
    metrics, tracer = _obs(args)
    result = spec.run(args.horizon, metrics=metrics, tracer=tracer)
    _finish_obs(args, metrics, tracer)
    beats = [e for e in result.trace if e.action.name == "BEAT"]
    suspicions = [e for e in result.trace if e.action.name == "SUSPECT"]
    print(f"timeout={timeout:g} ({'naive' if args.naive else 'per Theorem 4.7'})"
          f"{f', sender crashes at {args.crash_at:g}' if args.crash_at is not None else ''}")
    print(f"heartbeats: {len(beats)}")
    print(f"suspicions: {len(suspicions)}"
          + (f" (first at t={suspicions[0].time:g})" if suspicions else ""))
    if args.naive:
        return 0  # demonstration mode: any outcome is informative
    if args.crash_at is None:
        return 0 if not suspicions else 1
    return 0 if suspicions else 1


def _tdma(args) -> int:
    spec = build_tdma_system(
        Clock(args.eps, driver_factory(args.driver, args.eps, seed=args.seed)),
        n=args.n, slot_width=args.slot, guard=args.guard,
        sections=args.sections,
    )
    horizon = args.sections * args.n * args.slot + args.slot
    metrics, tracer = _obs(args)
    result = spec.run(horizon, metrics=metrics, tracer=tracer)
    _finish_obs(args, metrics, tracer)
    intervals = critical_intervals(result.trace)
    overlap = max_overlap(intervals)
    exclusive = overlap <= 1e-9
    print(f"n={args.n} slot={args.slot:g} guard={args.guard:g} eps={args.eps:g}")
    print(f"critical sections: {len(intervals)}")
    print(f"worst overlap    : {overlap:.4f}")
    print(f"min gap          : {min_gap(intervals):.4f}")
    print(f"utilization      : "
          f"{utilization(intervals, args.sections * args.n * args.slot):.4f}")
    print(f"mutual exclusion : {exclusive}")
    return 0 if exclusive == (args.guard >= args.eps - 1e-12) else 1


def _sync(args) -> int:
    simulation = CristianSimulation(
        HardwareClock(args.rho, args.offset), args.period, args.d1, args.d2,
        horizon=args.horizon, seed=args.seed,
    )
    envelope = achievable_epsilon(args.rho, args.period, args.d1, args.d2)
    steady = simulation.max_error(start=simulation.converged_after())
    metrics, tracer = _obs(args)
    if metrics is not None:
        # no engine here: publish the sync service's own instruments
        metrics.counter("repro.sync.exchanges").inc(len(simulation.samples))
        metrics.gauge("repro.sync.max_error").set(steady)
        metrics.gauge("repro.sync.envelope").set(envelope)
        corrections = metrics.histogram("repro.sync.correction", SKEW_BUCKETS)
        for sample in simulation.samples:
            corrections.observe(abs(sample.correction))
    if tracer is not None:
        tracer.run_start(args.horizon)
        tracer.run_end(args.horizon, len(simulation.samples))
    _finish_obs(args, metrics, tracer)
    print(f"oscillator rate {args.rho:g} "
          f"({abs(args.rho - 1) * 1e6:.0f} ppm), sync every {args.period:g}")
    print(f"exchanges        : {len(simulation.samples)}")
    print(f"steady-state err : {steady:.5f}")
    print(f"analytic envelope: {envelope:.5f}")
    print(f"monotone         : {simulation.is_monotone()}")
    return 0 if steady <= envelope and simulation.is_monotone() else 1


def _leader(args) -> int:
    from repro.broadcast import build_leader_system, election_outcomes
    from repro.broadcast.flood import diameter
    from repro.network.topology import Topology

    topology = {
        "ring": Topology.ring(args.n),
        "chain": Topology.chain(args.n),
        "star": Topology.star(args.n),
        "complete": Topology.complete(args.n, self_loops=False),
    }[args.topology]
    lowering = Clock(
        args.eps, driver_factory(args.driver, args.eps, seed=args.seed)
    )
    spec = build_leader_system(
        lowering, topology, args.d1, args.d2,
        delay_model=UniformDelay(seed=args.seed),
    )
    _, d2_design = lowering.design_bounds(args.d1, args.d2)
    horizon = diameter(topology) * d2_design + 2.0
    metrics, tracer = _obs(args)
    result = spec.run(horizon, metrics=metrics, tracer=tracer)
    _finish_obs(args, metrics, tracer)
    outcomes = election_outcomes(result.trace)
    leaders = {leader for leader, _ in outcomes.values()}
    times = [t for _, t in outcomes.values()]
    spread = max(times) - min(times) if times else float("inf")
    print(f"topology={args.topology} n={args.n} diameter={diameter(topology)}")
    print(f"announcements : {len(outcomes)}/{topology.n}")
    print(f"leaders       : {sorted(leaders)}")
    print(f"announce spread: {spread:.4f} (bound 2*eps = {2 * args.eps:g})")
    agreed = len(outcomes) == topology.n and leaders == {0}
    return 0 if agreed and spread <= 2 * args.eps + 1e-9 else 1



_AXIS_FLAGS = (
    # (flag dest, axis name, element parser)
    ("model", "model", str),
    ("n", "n", int),
    ("eps", "eps", float),
    ("d1", "d1", float),
    ("d2", "d2", float),
    ("c", "c", lambda text: text if text == "u" else float(text)),
    ("driver", "driver", str),
    ("ops", "ops", int),
    ("read_fraction", "read_fraction", float),
    ("fault", "fault", str),
    ("p_drop", "p_drop", float),
    ("plan_seed", "plan_seed", int),
)


def _sweep_grid(args):
    """The :class:`~repro.campaign.Grid` requested by the sweep flags."""
    from repro.campaign import Grid
    from repro.errors import CampaignError

    flag_axes = {}
    for dest, axis, parse in _AXIS_FLAGS:
        raw = getattr(args, dest)
        if raw is None:
            continue
        try:
            flag_axes[axis] = [parse(part) for part in str(raw).split(",") if part]
        except ValueError as exc:
            raise CampaignError(f"bad --{dest.replace('_', '-')} value: {exc}")
    if args.spec:
        if flag_axes:
            raise CampaignError(
                "give either --spec or axis flags (--eps, --d2, ...), not both"
            )
        return Grid.from_file(args.spec)
    run = {"horizon": args.horizon} if args.horizon is not None else None
    return Grid(flag_axes, run=run, seeds=args.seeds)


def _sweep(args) -> int:
    from repro.campaign import Aggregator, CampaignRunner, Checkpoint

    grid = _sweep_grid(args)
    points = grid.points()
    if args.chaos_crash:
        # testing hook: the first K points crash their first attempt
        for point in points[: args.chaos_crash]:
            point["chaos"] = {"crash_attempts": 1}
    os.makedirs(args.out, exist_ok=True)
    checkpoint_path = os.path.join(args.out, "checkpoint.jsonl")
    if not args.resume and os.path.exists(checkpoint_path):
        os.remove(checkpoint_path)
    print(f"campaign {grid.grid_id()}: {grid.size} points, "
          f"{args.workers} worker(s)")
    with Checkpoint(checkpoint_path, grid.grid_id(), grid.size) as checkpoint:
        if args.resume and checkpoint.completed:
            print(f"resuming: {len(checkpoint.completed)} points already done")
        runner = CampaignRunner(
            workers=args.workers,
            timeout=args.timeout,
            retries=args.retries,
            checkpoint=checkpoint,
            log=print,
        )
        outcomes = runner.run(points)
    aggregator = Aggregator(grid.grid_id())
    payload = aggregator.build(outcomes)
    jsonl_path = os.path.join(args.out, "aggregate.jsonl")
    csv_path = os.path.join(args.out, "aggregate.csv")
    aggregator.write_jsonl(jsonl_path, payload)
    aggregator.write_csv(csv_path, payload)
    summary = payload["summary"]
    print(f"aggregate -> {jsonl_path}")
    print(f"csv       -> {csv_path}")
    print(f"points    : {summary['points']} "
          f"({summary['completed']} completed, {summary['failed']} failed)")
    print(f"operations: {summary['operations']}")
    print(f"violations: {summary['violations']}")
    for failure in payload["failures"]:
        print(f"FAILED point {failure['index']}: {failure['error']}")
    return 0 if summary["failed"] == 0 else 1


def _live_tracer(path, params):
    """The JSONL tracer a live cluster writes ``path`` through (the null
    tracer without a path), stamped with the run's parameters so
    ``repro trace`` can analyze the file on its own."""
    if not path:
        return NULL_TRACER
    tracer = JsonlTracer(path)
    tracer.meta({"workload": "live-register", "model": "clock",
                 **params.to_dict()})
    return tracer


@contextlib.contextmanager
def _chaos_trace_path(args):
    """Where a chaos run writes its trace: ``--trace-out``, or, when only
    ``--causal`` needs one, a temporary file removed afterwards."""
    if args.trace_out or not args.causal:
        yield args.trace_out
        return
    fd, path = tempfile.mkstemp(prefix="repro-chaos-", suffix=".jsonl")
    os.close(fd)
    try:
        yield path
    finally:
        os.unlink(path)


def _chaos_live(args, trace_path) -> int:
    """``chaos --live``: lower the plan onto a loopback LiveCluster."""
    from repro.chaos import FaultPlan, causal_attribution
    from repro.live import chaos_params, demo_live_plan, run_load
    from repro.live.load import live_workload
    from repro.obs.metrics import NULL_METRICS

    for flag in ("shrink", "conformance"):
        if getattr(args, flag):
            print(f"--{flag} is sim-only "
                  "(not supported with --live)", file=sys.stderr)
            return 2
    params = chaos_params(
        n=args.n, seed=args.seed, d2=args.d2, eps=args.eps
    )
    if args.plan:
        plan = FaultPlan.load(args.plan)
    elif args.random_seed is not None:
        horizon = args.horizon if args.horizon is not None else 0.6
        edges = [
            (i, j) for i in range(args.n) for j in range(args.n) if i != j
        ]
        plan = FaultPlan.random(
            args.random_seed, n_nodes=args.n, edges=edges,
            horizon=horizon, eps=args.eps,
        )
    else:
        plan = demo_live_plan(args.n)
    metrics = MetricsRegistry() if args.metrics_out else NULL_METRICS
    workload = live_workload(operations=args.ops, seed=args.seed)
    tracer = _live_tracer(trace_path, params)
    try:
        report = run_load(
            params, workload, metrics=metrics, plan=plan, tracer=tracer
        )
    finally:
        tracer.close()
    print(f"plan {plan.name!r}: {len(plan)} event(s), lowered onto a "
          f"live n={params.n} cluster")
    for event in plan.events:
        print(f"  {event.describe()}")
    print(report.render(assert_bounds=True))
    if args.metrics_out:
        report.to_metrics(metrics)
        metrics.dump(args.metrics_out)
        print(f"metrics -> {args.metrics_out}")
    if args.trace_out:
        print(f"trace   -> {args.trace_out}")
    if args.causal:
        print(causal_attribution(trace_path))
    if args.report_out:
        report.write_payload(args.report_out)
        print(f"report  -> {args.report_out}")
    violated = bool(report.violations)
    status = 0 if report.ok else 1
    if args.expect == "violation":
        return 0 if violated else 1
    if args.expect == "clean":
        return 1 if violated else status
    return status


def _chaos(args) -> int:
    with _chaos_trace_path(args) as trace_path:
        if args.live:
            return _chaos_live(args, trace_path)
        return _chaos_sim(args, trace_path)


def _chaos_sim(args, trace_path) -> int:
    from repro.chaos import (
        FaultPlan,
        causal_attribution,
        conformance_check,
        demo_builder,
        demo_monitors,
        demo_plan,
        run_chaos,
        shrink_chaos,
    )
    from repro.chaos.runner import DEMO_HORIZON

    horizon = args.horizon if args.horizon is not None else DEMO_HORIZON
    if args.plan:
        plan = FaultPlan.load(args.plan)
    elif args.random_seed is not None:
        plan = FaultPlan.random(
            args.random_seed, n_nodes=2, edges=[(0, 1)], horizon=horizon
        )
    else:
        plan = demo_plan()
    metrics, tracer = _obs(args)
    if tracer is None and trace_path:
        tracer = JsonlTracer(trace_path)  # --causal's temporary trace
    outcome = run_chaos(
        demo_builder, plan, horizon, monitors_factory=demo_monitors,
        metrics=metrics, tracer=tracer,
    )
    _finish_obs(args, metrics, tracer)
    if args.causal:
        print(causal_attribution(trace_path))
    print(f"plan {plan.name!r}: {len(plan)} event(s), horizon {horizon:g}")
    for event in plan.events:
        print(f"  {event.describe()}")
    print(f"violations: {len(outcome.violations)}")
    for violation in outcome.violations:
        print(f"  {violation.describe()}")
    first = outcome.first_violation
    if first is not None and first.event is not None:
        print(f"attributed: {first.event.describe()} (event {first.event_index})")
    if args.conformance:
        from repro.chaos import conformance_corpus

        # the run's own plan first, then the per-lowering-path corpus
        # (crash/recover, partition+heal, clock-fault exit, drop burst)
        corpus = [plan] + [
            p for p in conformance_corpus() if p.name != plan.name
        ]
        for candidate in corpus:
            conformance_check(
                demo_builder, candidate, horizon,
                monitors_factory=demo_monitors,
            )
        print(
            "conformance: engine cores trace-identical across "
            f"{len(corpus)} plan(s)"
        )
    if args.shrink and outcome.violated:
        shrunk = shrink_chaos(
            demo_builder, plan, horizon, demo_monitors,
            match_kind=first.kind if first is not None else None,
        )
        print(f"witness: {len(shrunk.plan)} event(s) "
              f"(from {shrunk.original_size}, {shrunk.tests} oracle runs)")
        for event in shrunk.plan.events:
            print(f"  {event.describe()}")
    if args.expect == "violation":
        return 0 if outcome.violated else 1
    if args.expect == "clean":
        return 1 if outcome.violated else 0
    return 0


def _trace(args) -> int:
    """Analyze a trace file — or run the default workload and analyze that."""
    from repro.obs.causal import CausalTrace, check_bounds

    path = args.trace_file
    cleanup = False
    if path is None:
        # No trace given: run the default register workload, traced.
        path = args.out
        if path is None:
            fd, path = tempfile.mkstemp(prefix="repro-trace-", suffix=".jsonl")
            os.close(fd)
            cleanup = True
        spec = _build_register_spec(args)
        tracer = JsonlTracer(path)
        tracer.meta(_register_params(args))
        run_register_experiment(
            spec, args.horizon, max_steps=3_000_000, tracer=tracer
        )
        tracer.close()
        print(f"ran the default {args.model} register workload -> {path}"
              + (" (temporary)" if cleanup else ""))
    try:
        trace = CausalTrace.from_file(path)
        # meta-recorded parameters win over flag defaults: the trace
        # knows what run produced it
        params = {
            key: float(trace.meta.get(key, getattr(args, key)))
            for key in ("eps", "c", "delta", "d1", "d2")
        }
        model = trace.meta.get("model", args.model)

        status = 0
        analyze = args.analyze or not (args.critical_path or args.assert_bounds)
        if analyze:
            problems = trace.check()
            delivered = sum(1 for s in trace.spans if s.delivered)
            print(f"trace: {len(trace.events)} events, {len(trace.spans)} "
                  f"message spans ({delivered} delivered, "
                  f"{len(trace.open_spans)} open), {len(trace.ops)} "
                  f"operation spans")
            print("happens-before DAG: "
                  + ("acyclic, sound" if not problems else "; ".join(problems)))
            for label, stats in sorted(trace.phase_summary().items()):
                print(f"  phase {label:<12} n={stats['count']:<5} "
                      f"mean={stats['mean']:.4f} max={stats['max']:.4f}")
            if problems:
                status = 1
        if args.critical_path:
            ops = trace.completed_ops()
            if args.critical_path != "all":
                ops = [op for op in ops if op.sid == args.critical_path]
                if not ops:
                    print(f"no completed operation {args.critical_path!r} "
                          f"in the trace", file=sys.stderr)
                    status = 1
            for op in ops:
                segs = ", ".join(
                    f"{seg.label}={seg.duration:.4f}"
                    for seg in trace.critical_path(op)
                )
                print(f"{op.sid} [{op.kind}@{op.node}] "
                      f"latency={op.latency:.4f}: {segs}")
                for chain in trace.propagation(op):
                    hops = " + ".join(
                        f"{seg.label}={seg.duration:.4f}"
                        for seg in chain.segments
                    )
                    print(f"  propagation -> node {chain.dst}: {hops} "
                          f"= {chain.total:.4f}")
        if args.assert_bounds:
            if model not in ("timed", "clock", "mmt"):
                print(f"error: no Theorem 6.5 bounds for model {model!r}",
                      file=sys.stderr)
                return 2
            report = check_bounds(trace, model, **params)
            print(report.render())
            if not report.ok:
                status = 1
        return status
    finally:
        if cleanup:
            os.unlink(path)


def _live_params(args):
    from repro.live import LiveParams

    return LiveParams(
        n=args.n, d1=args.d1, d2=args.d2, eps=args.eps, c=args.c,
        delta=args.delta, driver=args.driver, seed=args.seed,
        op_timeout=args.op_timeout, retry_max=args.retry_max,
        retry_base=args.retry_base,
    )


def _serve(args) -> int:
    import asyncio

    from repro.live import LiveCluster

    params = _live_params(args)

    async def serve() -> None:
        cluster = LiveCluster(params, host=args.host)
        await cluster.start()
        if args.manifest:
            cluster.write_manifest(args.manifest)
            print(f"manifest -> {args.manifest}")
        for i, (host, port) in enumerate(cluster.addresses):
            print(f"node {i}: {host}:{port}")
        print(f"serving n={params.n} d2={params.d2:g} eps={params.eps:g} "
              f"driver={params.driver}"
              + (f" for {args.duration:g}s" if args.duration else " (Ctrl-C to stop)"))
        try:
            if args.duration:
                await asyncio.sleep(args.duration)
            else:
                await asyncio.Event().wait()
        finally:
            await cluster.stop()

    try:
        asyncio.run(serve())
    except KeyboardInterrupt:
        pass
    return 0


def _load(args) -> int:
    from repro.live import run_load, sim_replay
    from repro.live.load import live_workload
    from repro.live.params import read_manifest
    from repro.obs.metrics import NULL_METRICS

    addresses = None
    if args.connect:
        params, addresses = read_manifest(args.connect)
    else:
        params = _live_params(args)
    workload = live_workload(
        operations=args.ops, read_fraction=args.read_fraction,
        seed=args.seed, think_min=args.think_min, think_max=args.think_max,
    )
    metrics = MetricsRegistry() if args.metrics_out else NULL_METRICS
    plan = None
    if args.plan:
        from repro.chaos import FaultPlan

        plan = FaultPlan.load(args.plan)
    tracer = _live_tracer(args.trace_out, params)
    try:
        report = run_load(
            params, workload, addresses=addresses, metrics=metrics,
            slack=args.slack, max_nodes=args.max_nodes,
            clients_per_node=args.clients_per_node, plan=plan,
            tracer=tracer,
        )
    finally:
        tracer.close()
    print(report.render(assert_bounds=args.assert_bounds))
    status = 0 if report.ok else 1
    if args.assert_bounds and not report.bounds_ok:
        status = 1
    if args.cross_check:
        if args.plan or args.clients_per_node > 1:
            print("cross-check    : skipped (sim replay models one "
                  "fault-free client per node)")
        else:
            run = sim_replay(params, workload)
            sim_ok = run.linearizable()
            print(f"sim replay     : {len(run.operations)} ops, "
                  f"linearizable={sim_ok}")
            if not sim_ok or len(run.operations) != len(report.operations):
                print("cross-check    : FAILED (sim and live runs disagree)")
                status = 1
            else:
                print("cross-check    : ok (same seeded schedule, "
                      "both linearize)")
    if args.metrics_out:
        report.to_metrics(metrics)
        metrics.dump(args.metrics_out)
        print(f"metrics -> {args.metrics_out}")
    if args.trace_out:
        print(f"trace   -> {args.trace_out}")
    return status


def _report(args) -> int:
    import json

    from repro.obs import read_trace
    from repro.obs.schema import validate_metrics

    try:
        with open(args.metrics_file, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"cannot read metrics file: {exc}", file=sys.stderr)
        return 2
    problems = validate_metrics(payload)
    if problems:
        for problem in problems:
            print(f"invalid metrics file: {problem}", file=sys.stderr)
        return 2
    trace_summary = None
    if args.trace:
        trace_summary = summarize_trace(read_trace(args.trace))
    print(render_dashboard(payload, trace_summary=trace_summary))
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The ``python -m repro`` argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Partially synchronized clocks (PODC 1993) — experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def obs(p):
        p.add_argument("--metrics-out", metavar="FILE", default=None,
                       help="write a metrics JSON snapshot to FILE")
        p.add_argument("--trace-out", metavar="FILE", default=None,
                       help="write a structured JSONL event trace to FILE")

    def common(p, d1=0.2, d2=1.0):
        p.add_argument("--n", type=int, default=3)
        p.add_argument("--d1", type=float, default=d1)
        p.add_argument("--d2", type=float, default=d2)
        p.add_argument("--eps", type=float, default=0.1)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--driver", default="mixed",
                       choices=["perfect", "fast", "slow", "skewed", "mixed",
                                "random", "drift", "sawtooth"])
        p.add_argument("--horizon", type=float, default=120.0)
        obs(p)

    p = sub.add_parser("register", help="run a register experiment")
    common(p)
    p.add_argument("--model", default="clock", choices=list(MODELS))
    p.add_argument("--c", type=float, default=0.3)
    p.add_argument("--delta", type=float, default=0.01)
    p.add_argument("--ops", type=int, default=8)
    p.add_argument("--read-fraction", type=float, default=0.5)
    p.add_argument("--step-bound", type=float, default=0.05)
    p.set_defaults(func=_register)

    p = sub.add_parser(
        "trace",
        help="analyze a causal trace (or run the default workload and "
             "analyze it)",
    )
    p.add_argument("trace_file", nargs="?", default=None,
                   help="JSONL trace from --trace-out; omitted = run the "
                        "default register workload first")
    p.add_argument("--analyze", action="store_true",
                   help="print the causal graph and per-phase summary "
                        "(default when no other mode is given)")
    p.add_argument("--critical-path", metavar="SID", nargs="?", const="all",
                   default=None,
                   help="print per-operation critical paths and write "
                        "propagation chains (SID or all)")
    p.add_argument("--assert-bounds", action="store_true",
                   help="check observed latencies against the Theorem 6.5 "
                        "bounds; exit 1 on violation")
    p.add_argument("--out", metavar="FILE", default=None,
                   help="keep the freshly generated trace at FILE")
    common(p)
    p.add_argument("--model", default="clock", choices=list(MODELS))
    p.add_argument("--c", type=float, default=0.3)
    p.add_argument("--delta", type=float, default=0.01)
    p.add_argument("--ops", type=int, default=8)
    p.add_argument("--read-fraction", type=float, default=0.5)
    p.add_argument("--step-bound", type=float, default=0.05)
    p.set_defaults(func=_trace)

    p = sub.add_parser("object", help="run a generalized-object experiment")
    common(p)
    p.add_argument("--type", default="counter", choices=sorted(OBJECT_SPECS))
    p.add_argument("--model", default="clock", choices=list(MODELS))
    p.add_argument("--c", type=float, default=0.3)
    p.add_argument("--ops", type=int, default=8)
    p.add_argument("--update-fraction", type=float, default=0.5)
    p.add_argument("--step-bound", type=float, default=0.05)
    p.set_defaults(func=_object)

    p = sub.add_parser("detector", help="run the heartbeat failure monitor")
    common(p, d1=0.1)
    for action in p._actions:
        if action.dest == "driver":
            action.choices = list(action.choices) + ["worst"]
    p.add_argument("--period", type=float, default=2.0)
    p.add_argument("--count", type=int, default=8)
    p.add_argument("--naive", action="store_true",
                   help="ignore the 2*eps widening (shows false suspicions)")
    p.add_argument("--crash-at", type=float, default=None)
    p.set_defaults(func=_detector, horizon=40.0)

    p = sub.add_parser("tdma", help="run the TDMA resource scheduler")
    p.add_argument("--n", type=int, default=3)
    p.add_argument("--slot", type=float, default=1.0)
    p.add_argument("--guard", type=float, default=0.1)
    p.add_argument("--sections", type=int, default=3)
    p.add_argument("--eps", type=float, default=0.1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--driver", default="mixed",
                   choices=["perfect", "fast", "slow", "mixed", "random"])
    obs(p)
    p.set_defaults(func=_tdma)

    p = sub.add_parser("leader", help="run leader election on a topology")
    common(p, d1=0.1)
    p.add_argument("--topology", default="ring",
                   choices=["ring", "chain", "star", "complete"])
    p.set_defaults(func=_leader)

    p = sub.add_parser("sync", help="simulate the clock sync service")
    p.add_argument("--rho", type=float, default=1.002)
    p.add_argument("--offset", type=float, default=0.3)
    p.add_argument("--period", type=float, default=5.0)
    p.add_argument("--d1", type=float, default=0.01)
    p.add_argument("--d2", type=float, default=0.08)
    p.add_argument("--horizon", type=float, default=150.0)
    p.add_argument("--seed", type=int, default=0)
    obs(p)
    p.set_defaults(func=_sync)

    p = sub.add_parser(
        "sweep",
        help="run a parameter-sweep campaign over the register experiments",
    )
    p.add_argument("--spec", metavar="FILE", default=None,
                   help="grid spec file (.json, or .toml on Python 3.11+)")
    for dest, _axis, _parse in _AXIS_FLAGS:
        flag = "--" + dest.replace("_", "-")
        p.add_argument(flag, default=None, metavar="V[,V...]",
                       help=f"values for the {dest!r} axis (comma list)")
    p.add_argument("--seeds", type=int, default=None,
                   help="sweep seeds 0..N-1 (default: just seed 0)")
    p.add_argument("--horizon", type=float, default=None,
                   help="simulated horizon per point")
    p.add_argument("--workers", type=int, default=1,
                   help="worker processes (default: 1, serial)")
    p.add_argument("--timeout", type=float, default=None,
                   help="per-point wall-clock budget in seconds")
    p.add_argument("--retries", type=int, default=2,
                   help="extra attempts for crashed/hung points")
    p.add_argument("--resume", action="store_true",
                   help="reuse OUT/checkpoint.jsonl, skipping finished points")
    p.add_argument("--out", default="campaign-out", metavar="DIR",
                   help="output directory (checkpoint + aggregates)")
    p.add_argument("--chaos-crash", type=int, default=0, metavar="K",
                   help="testing: crash the first K points' first attempts")
    p.set_defaults(func=_sweep)

    p = sub.add_parser(
        "chaos",
        help="run a scripted fault plan against the heartbeat detector",
    )
    p.add_argument("--plan", metavar="FILE", default=None,
                   help="fault plan file (.json, or .toml on Python 3.11+); "
                        "default: the built-in demo plan")
    p.add_argument("--random-seed", type=int, default=None, metavar="SEED",
                   help="generate a seeded random plan instead of --plan")
    p.add_argument("--horizon", type=float, default=None,
                   help="simulated horizon (default: the demo horizon)")
    p.add_argument("--shrink", action="store_true",
                   help="ddmin the plan to a smallest violating witness")
    p.add_argument("--conformance", action="store_true",
                   help="check the run is trace-identical across both "
                        "engine cores")
    p.add_argument("--expect", choices=["violation", "clean"], default=None,
                   help="exit non-zero unless the run matches")
    p.add_argument("--causal", action="store_true",
                   help="reconstruct the causal graph after the run and "
                        "print per-phase latency attribution")
    p.add_argument("--live", action="store_true",
                   help="lower the plan onto a live loopback cluster "
                        "(crash/recover via snapshots, partitions and "
                        "drop bursts by dropping peer frames, clock "
                        "faults via FaultyClockDriver) instead of the "
                        "simulator")
    p.add_argument("--n", type=int, default=3,
                   help="[--live] cluster size")
    p.add_argument("--ops", type=int, default=6,
                   help="[--live] operations per client")
    p.add_argument("--seed", type=int, default=0,
                   help="[--live] workload/driver/backoff seed")
    p.add_argument("--d2", type=float, default=0.5,
                   help="[--live] upper delay bound; size it to cover the "
                        "plan's longest outage plus one retransmission "
                        "interval")
    p.add_argument("--eps", type=float, default=0.01,
                   help="[--live] clock envelope half-width")
    p.add_argument("--report-out", metavar="FILE", default=None,
                   help="[--live] write the machine-readable chaos report")
    obs(p)
    p.set_defaults(func=_chaos)

    def live_flags(p):
        p.add_argument("--n", type=int, default=3)
        p.add_argument("--d1", type=float, default=0.0)
        p.add_argument("--d2", type=float, default=0.05)
        p.add_argument("--eps", type=float, default=0.01)
        p.add_argument("--c", type=float, default=0.02)
        p.add_argument("--delta", type=float, default=0.005)
        p.add_argument("--driver", default="mixed",
                       choices=["perfect", "fast", "slow", "mixed", "random",
                                "drift", "sawtooth"])
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--op-timeout", type=float, default=1.0,
                       help="per-operation client timeout (seconds)")
        p.add_argument("--retry-max", type=int, default=1,
                       help="client attempts per operation (1 = no retry)")
        p.add_argument("--retry-base", type=float, default=0.05,
                       help="retry backoff base / peer ARQ retransmission "
                            "interval")

    p = sub.add_parser(
        "serve",
        help="run algorithm S as a live TCP register service (wall-clock "
             "time, per-node skewed clocks)",
    )
    live_flags(p)
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--manifest", metavar="FILE", default=None,
                   help="write node addresses + parameters for "
                        "'load --connect FILE'")
    p.add_argument("--duration", type=float, default=None,
                   help="serve for this many seconds (default: until Ctrl-C)")
    p.set_defaults(func=_serve)

    p = sub.add_parser(
        "load",
        help="replay a seeded op stream against a live register service "
             "and check the history",
    )
    live_flags(p)
    p.add_argument("--connect", metavar="MANIFEST", default=None,
                   help="drive the service described by this manifest "
                        "(default: self-host a loopback cluster)")
    p.add_argument("--ops", type=int, default=20,
                   help="operations per client (one client per node)")
    p.add_argument("--plan", metavar="FILE", default=None,
                   help="run the load under this fault plan (self-hosted "
                        "cluster, fault-tolerant clients, degraded-mode "
                        "report)")
    p.add_argument("--clients-per-node", type=int, default=1,
                   help="concurrent connections per node (distinct cid and "
                        "write-value space per client)")
    p.add_argument("--read-fraction", type=float, default=0.5)
    p.add_argument("--think-min", type=float, default=0.0)
    p.add_argument("--think-max", type=float, default=0.02)
    p.add_argument("--assert-bounds", action="store_true",
                   help="gate p99 latencies on the Theorem 6.5 costs "
                        "(measured eps substituted); exit 1 on violation")
    p.add_argument("--slack", type=float, default=0.05,
                   help="real-time allowance for client RTT and event-loop "
                        "jitter in the bounds gate")
    p.add_argument("--cross-check", action="store_true",
                   help="also replay the same seeded schedules in the "
                        "virtual-time simulator and compare verdicts")
    p.add_argument("--max-nodes", type=int, default=2_000_000,
                   help="linearizability search budget (visited nodes)")
    obs(p)
    p.set_defaults(func=_load)

    p = sub.add_parser("report", help="render an ASCII dashboard from exports")
    p.add_argument("metrics_file", help="metrics JSON written by --metrics-out")
    p.add_argument("--trace", metavar="FILE", default=None,
                   help="JSONL trace written by --trace-out")
    p.set_defaults(func=_report)

    from repro.lint.cli import add_lint_arguments, run as _lint

    p = sub.add_parser(
        "lint",
        help="statically check set-iteration order and payload aliasing",
    )
    add_lint_arguments(p)
    p.set_defaults(func=_lint)

    from repro.validate import add_validate_arguments, run as _validate

    p = sub.add_parser(
        "validate",
        help="check exported artifacts against the format their own "
             "header declares",
    )
    add_validate_arguments(p)
    p.set_defaults(func=_validate)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit status."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ReproError, ValueError) as exc:
        # ValueError: a constructor refusing an out-of-range flag, or a
        # file that does not parse. Exit 1 is kept for "a check failed".
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
