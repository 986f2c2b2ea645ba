"""The six workloads of the suite: simulate, serve, check.

Every workload is one function ``run(seed, seconds, traced, smoke)``
returning ``(metrics, outcome)``. The untraced pass repeats the
workload until ``seconds`` of host time are used and reports the best
repetition -- these are the end-to-end metrics. A repetition does the
same work every time, so whatever makes one slower than another is the
machine (the 2-core sandbox this was sized on has bursts of 1.3-1.5x
lasting seconds); the fastest repetition is the one least disturbed,
and it repeats from run to run better than the median does. The traced
pass runs the workload once plain and once under :mod:`trace` and
reports the per-layer metrics; its numbers never feed an end-to-end
metric. Both passes report *every* metric of their kind, with 0 for a
layer the workload does not touch, so a reader can see "not exercised"
rather than guess it.

Why these six (sizes in :data:`SHAPES`; the README has the long form):

- ``sim_timed_pairs`` has no clocks, so all its time is the engine loop
  (candidate gathering, pick, routing, the lazy route-table fill, the
  deadline heap): the control that clock optimisations must not move.
- ``sim_clock_pairs`` is the same topology behind the clock
  transformation with granularity-free ``skewed`` drivers: per-advance
  O(n) sweeps over ``ClockNodeEntity`` dominate.
- ``sim_clock_register`` is the paper's own system (Algorithm S on a
  complete graph with self-loops, ``mixed`` drivers, online clients):
  n-way broadcast through the Figure 2 buffers, impure clients, a
  random-walk driver -- a fast path tuned on pairs that costs this
  system shows here.
- ``live_fastread`` (``c = 0``) waits 1.5 ms per read and sends no peer
  traffic: throughput is client round trip + dispatch + timer lateness.
- ``live_fastwrite`` (``c = d2``) waits 1 ms per write and fans every
  write out to all peers through codec, sockets and receive buffers: it
  is CPU-bound, so any layer time saved is throughput gained. One
  operation in a hundred is a read, to see written values come back.
- ``check_histories`` runs the linearizability checker over simulator
  histories at high concurrency (``wide``) and at low (``long``, the
  near-linear case a new checker must not slow).

One unit of work ("op") is an engine step on ``sim_*``, a register
operation on ``live_*`` and a checked operation on ``check_histories``.
Host time is wall time; simulated time is never reported as speed.
"""

import asyncio
import contextlib
import gc
import math
import random
import resource
import time
from collections import namedtuple
from functools import partial
from statistics import median

from repro.components.base import TimedNodeEntity
from repro.components.pinger import EchoProcess, PingerProcess
from repro.core.buffers import ReceiveBuffer, SendBuffer
from repro.core.clock_transform import ClockNodeEntity
from repro.core.pipeline import build_clock_system, build_timed_system
from repro.live import client as live_client
from repro.live import node as live_node
from repro.live import service as live_service
from repro.live.client import LiveLoadClient
from repro.live.clock import LiveClock
from repro.live.params import LiveParams
from repro.live.service import LiveCluster, fetch_stats
from repro.live.wire import decode_frame, encode_frame
from repro.network.channel import ChannelEntity
from repro.network.topology import Topology
from repro.registers.algorithm_l import RegisterProcess
from repro.registers.algorithm_s import theorem_bounds
from repro.registers.opstream import OpSchedule, PlannedOp, client_rng
from repro.registers.system import (
    INITIAL_VALUE,
    clock_register_system,
    run_register_experiment,
)
from repro.registers.workload import ClientEntity, RegisterWorkload
from repro.sim.clock_drivers import ClockDriver, driver_factory
from repro.sim.engine import Simulator
from repro.sim.recorder import Recorder
from repro.sim.scheduler import DeterministicScheduler
from repro.traces import linearizability
from repro.traces.linearizability import (
    SearchBudgetExceeded,
    extract_operations,
)

from trace import Tracer
from verify import (
    Outcome,
    check_live_history,
    check_live_repetition,
    trace_hash,
)

# ---------------------------------------------------------------------------
# metric vocabulary: name -> unit. BENCHMARK.json lists the same names.

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "ops_per_s_small_n": "1/s",
    "cpu_s_per_kop": "s",
    "peak_rss_mb": "MB",
}

_ENTITY_METHODS = ("enabled", "deadline", "advance", "fire", "apply_input")

PER_LAYER = {
    "bench.trace_overhead_ratio": "ratio",
    "sim.engine.run_s": "s",
    "sim.engine.self_s": "s",
    "sim.engine.fixed_s": "s",
    "sim.engine.marginal_us_per_step": "us",
    "sim.engine.steps": "count",
    "sim.engine.time_advances": "count",
    "sim.engine.enabled_calls_per_step": "ratio",
    "sim.engine.enabled_hit_ratio": "ratio",
    "sim.engine.deadline_calls_per_advance": "ratio",
    "sim.engine.advance_calls_per_advance": "ratio",
    "sim.scheduler.pick_s": "s",
    "sim.scheduler.pick_calls": "count",
    "sim.scheduler.candidates_per_pick": "ratio",
    "sim.recorder.record_s": "s",
    "sim.recorder.events": "count",
    **{
        f"core.clock_transform.{method}{suffix}": unit
        for method in _ENTITY_METHODS
        for suffix, unit in (("_s", "s"), ("_calls", "count"))
    },
    **{
        f"components.base.{method}{suffix}": unit
        for method in _ENTITY_METHODS if method != "advance"
        for suffix, unit in (("_s", "s"), ("_calls", "count"))
    },
    "network.channel.busy_s": "s",
    "network.channel.calls": "count",
    "registers.workload.busy_s": "s",
    "registers.workload.calls": "count",
    "sim.clock_drivers.step_s": "s",
    "sim.clock_drivers.step_calls": "count",
    "core.buffers.busy_s": "s",
    "core.buffers.calls": "count",
    "core.buffers.recv_hold_p50_ms": "ms",
    "core.buffers.recv_hold_p99_ms": "ms",
    "registers.algorithm_s.busy_s": "s",
    "registers.algorithm_s.calls": "count",
    "live.service.start_s": "s",
    "live.service.stats_rpc_s": "s",
    "live.service.stop_s": "s",
    "live.wire.encode_s": "s",
    "live.wire.encode_calls": "count",
    "live.wire.decode_s": "s",
    "live.wire.decode_calls": "count",
    "live.wire.frames_per_op": "ratio",
    "live.wire.bytes_per_op": "B",
    "live.clock.read_s": "s",
    "live.clock.read_calls": "count",
    "live.node.msgs_per_op": "ratio",
    "live.node.wire_delay_mean_ms": "ms",
    "live.node.wire_delay_max_ms": "ms",
    "live.node.max_skew_ms": "ms",
    "live.node.wire_errors": "count",
    "live.client.rtt_floor_p50_ms": "ms",
    "live.client.read_excess_p50_ms": "ms",
    "live.client.read_excess_p99_ms": "ms",
    "live.client.read_samples": "count",
    "live.client.write_excess_p50_ms": "ms",
    "live.client.write_excess_p99_ms": "ms",
    "live.client.write_samples": "count",
    "live.client.ops_ok": "count",
    "live.client.ops_failed": "count",
    "live.loop.lag_p50_ms": "ms",
    "live.loop.lag_p99_ms": "ms",
    "live.loop.cpu_util": "ratio",
    "traces.linearizability.wide_check_s": "s",
    "traces.linearizability.wide_visited": "count",
    "traces.linearizability.long_check_s": "s",
    "traces.linearizability.long_visited": "count",
    "traces.linearizability.visited_per_op": "ratio",
    "traces.linearizability.wide_peak_rss_mb": "MB",
}

# ---------------------------------------------------------------------------
# sizes: the full shape and the small-n shape of every workload, sized so
# that six to ten repetitions fit the pass (small-n ones run longer, or a
# repetition would be all start-up). ``smoke`` shapes are for the tests.

SHAPES = {
    # pairs: (n, pings) at full size and at small n
    "sim_timed_pairs": {"full": ((1024, 10), (128, 10)), "smoke": ((64, 4), (16, 4))},
    "sim_clock_pairs": {"full": ((256, 3), (32, 12)), "smoke": ((32, 2), (8, 2))},
    # register: (n, operations per client)
    "sim_clock_register": {"full": ((16, 20), (4, 60)), "smoke": ((4, 6), (2, 6))},
    # live: (n, ops per client, warm-up ops per client) and the small cluster
    "live_fastread": {"full": ((5, 400, 40), (3, 200, 40)), "smoke": ((3, 40, 10), (2, 40, 10))},
    "live_fastwrite": {"full": ((9, 300, 10), (3, 300, 10)), "smoke": ((3, 40, 10), (2, 40, 10))},
    # check: (clients, ops per client, histories) wide and long
    "check_histories": {"full": ((6, 50, 12), (3, 100, 4)), "smoke": ((4, 12, 2), (2, 20, 2))},
}

D1, D2, EPS = 0.2, 0.6, 0.05  # bench_parallel's channel and clock bounds
BASE_INTERVAL = 0.5
INTERVAL_STEP = 2.0 ** -13  # dyadic: exact products, no tolerance collisions
REGISTER_C = 0.1
MAX_STEPS = 10_000_000


def _shape_key(name, shape):
    return f"{name}/{'x'.join(str(v) for v in shape)}"


def _peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _tail(samples, fraction=0.99):
    """Nearest-rank percentile, or 0 with fewer than ten samples beyond it."""
    if len(samples) * (1.0 - fraction) < 10:
        return 0.0
    return sorted(samples)[math.ceil(fraction * len(samples)) - 1]


class _Deadline:
    """Host-time budget of the untraced pass."""

    def __init__(self, seconds):
        self.end = time.perf_counter() + seconds
        self.longest = 0.0
        self._lap = time.perf_counter()

    def lap(self):
        """Close one repetition; true while another one still fits."""
        now = time.perf_counter()
        self.longest = max(self.longest, now - self._lap)
        self._lap = now
        return now + self.longest <= self.end


# ---------------------------------------------------------------------------
# simulate


def _pairs_system(pipeline):
    def build(shape, seed):
        n, pings = shape
        edges = []
        for k in range(0, n, 2):
            edges += [(k, k + 1), (k + 1, k)]
        # the seed decides which pair pings on which interval
        slots = list(range(n // 2))
        random.Random(seed).shuffle(slots)

        def process(i):
            if i % 2:
                return EchoProcess(i, i - 1)
            interval = BASE_INTERVAL + (slots[i // 2] % 512) * INTERVAL_STEP
            return PingerProcess(i, i + 1, pings, interval)

        topology = Topology(n, edges)
        if pipeline == "timed":
            spec = build_timed_system(topology, process, D1, D2)
        else:
            spec = build_clock_system(
                topology, process, EPS, D1, D2, driver_factory("skewed", EPS)
            )
        horizon = pings * (BASE_INTERVAL + 511 * INTERVAL_STEP) + 3.0 * D2
        return spec, horizon

    return build


def _register_system(shape, seed):
    n, operations = shape
    workload = RegisterWorkload(
        operations=operations, read_fraction=0.5,
        think_min=0.0, think_max=0.3, seed=seed,
    )
    spec = clock_register_system(
        n, D1, D2, REGISTER_C, EPS, workload,
        driver_factory("mixed", EPS, seed=seed),
    )
    # every operation ends within d2 + 4 eps of real time
    return spec, operations * (D2 + 4.0 * EPS + 0.3) + 5.0


def _half(shape):
    """The same system run for half as long (second field halves)."""
    return (shape[0], max(1, shape[1] // 2))


class _SimRep:
    """One timed ``Simulator.run``."""

    def __init__(self, build, shape, seed):
        spec, horizon = build(shape, seed)
        simulator = Simulator(spec.entities, hidden=spec.hidden, max_steps=MAX_STEPS)
        recorder = Recorder()
        # as bench_engine_core.py: a collection inside the timed region
        # is noise about the benchmark process, not the engine
        gc.collect()
        gc.disable()
        try:
            cpu = time.process_time()
            start = time.perf_counter()
            result = simulator.run(horizon, recorder=recorder)
            self.host_s = time.perf_counter() - start
            self.cpu_s = time.process_time() - cpu
        finally:
            gc.enable()
        self.steps = result.steps
        self.time_advances = result.stats["time_advances"]
        self.hash = trace_hash(recorder)
        self.completed = result.completed()

    def facts(self, key):
        return {
            f"{key}.hash": self.hash,
            f"{key}.steps": self.steps,
            f"{key}.time_advances": self.time_advances,
        }


def _check_sim_reps(outcome, key, reps):
    first = reps[0]
    outcome.facts.update(first.facts(key))
    for index, rep in enumerate(reps):
        outcome.check(
            rep.completed and rep.facts(key) == first.facts(key),
            f"{key}: repetition {index} diverged from repetition 0 "
            f"(hash, steps or time advances) or stopped early",
        )


def _sim_entity_layers(tracer, probes):
    """Wrap the entity classes; returns {method: [layer names]}."""
    by_method = {method: [] for method in _ENTITY_METHODS}

    def hit(args, result):
        if result:
            probes["enabled_hits"] += 1

    for owner, prefix in (
        (ClockNodeEntity, "core.clock_transform"),
        (TimedNodeEntity, "components.base"),
        (ChannelEntity, "network.channel"),
        (ClientEntity, "registers.workload"),
    ):
        for method in _ENTITY_METHODS:
            if method not in vars(owner):
                continue  # inherited: the engine compares identities
            name = f"{prefix}.{method}"
            tracer.wrap(owner, method, name, hit if method == "enabled" else None)
            by_method[method].append(name)
    return by_method


_BUFFER_METHODS = (
    (SendBuffer, ("enqueue", "emit", "can_emit", "clock_deadline")),
    (ReceiveBuffer, ("enqueue", "deliver", "can_deliver", "clock_deadline")),
)
_PROCESS_METHODS = ("apply_input", "fire", "enabled", "due_actions")


def _wrap_node_internals(tracer, holds):
    """Figure 2 buffers, Algorithm S and the clock driver (sim and live).

    ``holds`` collects, per message, the host time between its
    ``ReceiveBuffer.enqueue`` and its ``deliver``.
    """
    arrived = {}

    def enqueued(args, result):
        buffer, message, stamp = args[0], args[1], args[2]
        arrived[id(buffer), id(message), stamp] = time.perf_counter()

    def delivered(args, result):
        message, stamp = result
        start = arrived.pop((id(args[0]), id(message), stamp), None)
        if start is not None:
            holds.append(time.perf_counter() - start)

    buffer_layers = []
    for owner, methods in _BUFFER_METHODS:
        for method in methods:
            name = f"core.buffers.{owner.__name__}.{method}"
            probe = None
            if owner is ReceiveBuffer:
                probe = {"enqueue": enqueued, "deliver": delivered}.get(method)
            tracer.wrap(owner, method, name, probe)
            buffer_layers.append(name)
    process_layers = []
    for method in _PROCESS_METHODS:
        name = f"registers.algorithm_s.{method}"
        # AlgorithmSProcess inherits all four from RegisterProcess
        tracer.wrap(RegisterProcess, method, name)
        process_layers.append(name)
    tracer.wrap(ClockDriver, "step", "sim.clock_drivers.step")
    return buffer_layers, process_layers


def _node_internal_metrics(tracer, buffer_layers, process_layers, holds):
    return {
        "core.buffers.busy_s": tracer.self_seconds(*buffer_layers),
        "core.buffers.calls": tracer.calls(*buffer_layers),
        "core.buffers.recv_hold_p50_ms": median(holds) * 1e3 if holds else 0.0,
        "core.buffers.recv_hold_p99_ms": _tail(holds) * 1e3,
        "registers.algorithm_s.busy_s": tracer.self_seconds(*process_layers),
        "registers.algorithm_s.calls": tracer.calls(*process_layers),
        "sim.clock_drivers.step_s": tracer.seconds("sim.clock_drivers.step"),
        "sim.clock_drivers.step_calls": tracer.calls("sim.clock_drivers.step"),
    }


def _traced_sim_rep(build, shape, seed):
    """One repetition under the tracer; returns (rep, per-layer metrics)."""
    probes = {"enabled_hits": 0, "candidates": 0}
    holds = []

    def picked(args, result):
        probes["candidates"] += len(args[1])

    with Tracer() as tracer:
        tracer.wrap(Simulator, "run", "sim.engine.run")
        by_method = _sim_entity_layers(tracer, probes)
        tracer.wrap(DeterministicScheduler, "pick", "sim.scheduler.pick", picked)
        tracer.wrap(Recorder, "record", "sim.recorder.record")
        buffer_layers, process_layers = _wrap_node_internals(tracer, holds)
        rep = _SimRep(build, shape, seed)

    run = tracer.layers["sim.engine.run"]
    steps = max(1, rep.steps)
    advances = max(1, rep.time_advances)
    enabled_calls = tracer.calls(*by_method["enabled"])
    picks = tracer.calls("sim.scheduler.pick")
    metrics = {
        "sim.engine.run_s": run.ns / 1e9,
        "sim.engine.self_s": run.self_ns / 1e9,
        "sim.engine.steps": rep.steps,
        "sim.engine.time_advances": rep.time_advances,
        "sim.engine.enabled_calls_per_step": enabled_calls / steps,
        "sim.engine.enabled_hit_ratio": probes["enabled_hits"] / max(1, enabled_calls),
        "sim.engine.deadline_calls_per_advance": tracer.calls(*by_method["deadline"]) / advances,
        "sim.engine.advance_calls_per_advance": tracer.calls(*by_method["advance"]) / advances,
        "sim.scheduler.pick_s": tracer.seconds("sim.scheduler.pick"),
        "sim.scheduler.pick_calls": picks,
        "sim.scheduler.candidates_per_pick": probes["candidates"] / max(1, picks),
        "sim.recorder.record_s": tracer.seconds("sim.recorder.record"),
        "sim.recorder.events": tracer.calls("sim.recorder.record"),
    }
    for prefix in ("core.clock_transform", "components.base"):
        for method in _ENTITY_METHODS:
            if f"{prefix}.{method}_s" in PER_LAYER:
                metrics[f"{prefix}.{method}_s"] = tracer.seconds(f"{prefix}.{method}")
                metrics[f"{prefix}.{method}_calls"] = tracer.calls(f"{prefix}.{method}")
    for prefix in ("network.channel", "registers.workload"):
        names = [f"{prefix}.{method}" for method in _ENTITY_METHODS]
        metrics[f"{prefix}.busy_s"] = tracer.seconds(*names)
        metrics[f"{prefix}.calls"] = tracer.calls(*names)
    metrics.update(_node_internal_metrics(tracer, buffer_layers, process_layers, holds))
    return rep, metrics


def _run_sim(name, build, seed, seconds, traced, smoke):
    big, small = SHAPES[name]["smoke" if smoke else "full"]
    big_key, small_key = _shape_key(name, big), _shape_key(name, small)
    outcome = Outcome()
    _SimRep(build, small, seed)  # warm-up: imports, code caches, allocator

    if traced:
        plain = _SimRep(build, big, seed)
        half = _SimRep(build, _half(big), seed)
        rep, metrics = _traced_sim_rep(build, big, seed)
        _check_sim_reps(outcome, big_key, [plain, rep])
        # two-point fit: what a run costs before its first step
        # (construction of the core, lazy route-table fill) and per step
        marginal = (plain.host_s - half.host_s) / max(1, plain.steps - half.steps)
        metrics["sim.engine.marginal_us_per_step"] = marginal * 1e6
        metrics["sim.engine.fixed_s"] = plain.host_s - marginal * plain.steps
        metrics["bench.trace_overhead_ratio"] = rep.host_s / plain.host_s
        return metrics, outcome

    deadline = _Deadline(seconds)
    bigs, smalls = [], []
    while True:
        bigs.append(_SimRep(build, big, seed))
        smalls.append(_SimRep(build, small, seed))
        if not deadline.lap():
            break
    _check_sim_reps(outcome, big_key, bigs)
    _check_sim_reps(outcome, small_key, smalls)
    metrics = {
        "setup_s": min(_sim_setup_s(build, big, seed) for _ in range(9)),
        "ops_per_s": max(rep.steps / rep.host_s for rep in bigs),
        "ops_per_s_small_n": max(rep.steps / rep.host_s for rep in smalls),
        "cpu_s_per_kop": min(1e3 * rep.cpu_s / rep.steps for rep in bigs),
        "peak_rss_mb": _peak_rss_mb(),
    }
    return metrics, outcome


def _sim_setup_s(build, shape, seed):
    """Spec build + ``Simulator(...)``: what a user pays before ``run``."""
    start = time.perf_counter()
    spec, _ = build(shape, seed)
    Simulator(spec.entities, hidden=spec.hidden, max_steps=MAX_STEPS)
    return time.perf_counter() - start


# ---------------------------------------------------------------------------
# serve


def _live_params(name, n, seed):
    # c = 0 is the fast-read end of the trade-off (read wait 2 eps + delta
    # = 1.5 ms, no peer traffic), c = d2 the fast-write end (write wait
    # 2 eps = 1 ms). d2 is what the wire must keep: with every node on one
    # event loop a stall of the loop is a wire delay, and on the sizing
    # sandbox 2 runs in 20 saw 60-100 ms, so the writers get 200 ms.
    d2 = 0.05 if name == "live_fastread" else 0.2
    return LiveParams(
        n=n, d2=d2, eps=0.0005, c=0.0 if name == "live_fastread" else d2,
        delta=0.0005, driver="mixed", seed=seed,
    )


def _live_schedules(name, n, ops, seed):
    """One closed-loop schedule per node, think time 0.

    The read share is exact (all reads, or 1 in 100) and the seed only
    places the reads: with ``c = d2`` a read waits 201.5 ms and a write
    1 ms, so a binomial read count would make throughput a function of
    the seed.
    """
    reads = ops if name == "live_fastread" else max(1, ops // 100)
    schedules = []
    for node in range(n):
        kinds = ["R"] * reads + ["W"] * (ops - reads)
        client_rng(seed, node).shuffle(kinds)
        planned, writes = [], 0
        for index, kind in enumerate(kinds):
            value = None
            if kind == "W":
                value = ("v", node, writes)
                writes += 1
            planned.append(PlannedOp(index, kind, value, 0.0))
        schedules.append(OpSchedule(node=node, start_delay=0.0, ops=tuple(planned)))
    return schedules


async def _rtt_floor(address, samples=200):
    """Round trips of a ``stats`` frame: codec + socket + dispatch, no wait."""
    reader, writer = await asyncio.open_connection(*address)
    times = []
    try:
        for _ in range(samples):
            start = time.perf_counter()
            writer.write(encode_frame({"t": "stats"}))
            decode_frame(await reader.readline())
            times.append(time.perf_counter() - start)
    finally:
        writer.close()
    return times


async def _loop_lag(lags, interval=0.001):
    """How late a 1 ms sleep wakes: the seam ``due_actions`` fires late by."""
    while True:
        start = time.perf_counter()
        await asyncio.sleep(interval)
        lags.append(time.perf_counter() - start - interval)


class _LiveRep:
    """One loopback cluster, started, loaded closed-loop and stopped."""

    def __init__(self, name, n, ops, seed, tracing=None):
        """``tracing()`` returns the context manager the load runs under."""
        self.params = _live_params(name, n, seed)
        self.schedules = _live_schedules(name, n, ops, seed)
        self.tracing = tracing
        self.rtts, self.lags = [], []
        asyncio.run(self._run())
        self.ops_ok = sum(1 for r in self.records if r.outcome == "ok")
        span = max(r.res_time for r in self.records) - min(
            r.inv_time for r in self.records
        )
        self.ops_per_s = self.ops_ok / span

    def excess(self, kind):
        """Client latency above the Theorem 6.5 wait, per ok ``kind`` op."""
        params = self.params
        bounds = theorem_bounds("clock", params.eps, params.c, params.delta, params.d2)
        wait = bounds["read_clock" if kind == "R" else "write_clock"]
        return [
            r.latency - wait for r in self.records
            if r.kind == kind and r.outcome == "ok"
        ]

    async def _run(self):
        start = time.perf_counter()
        cluster = LiveCluster(self.params)
        addresses = await cluster.start()
        self.start_s = time.perf_counter() - start
        try:
            probe, tracing = None, contextlib.nullcontext()
            if self.tracing is not None:
                self.rtts = await _rtt_floor(addresses[0])
                probe = asyncio.ensure_future(_loop_lag(self.lags))
                tracing = self.tracing()
            epoch = time.monotonic()
            clients = [
                LiveLoadClient(
                    schedule.node, schedule, addresses[schedule.node], epoch,
                    op_timeout=self.params.op_timeout,
                )
                for schedule in self.schedules
            ]
            try:
                with tracing:
                    cpu = time.process_time()
                    start = time.perf_counter()
                    batches = await asyncio.gather(*(c.run() for c in clients))
                    self.load_s = time.perf_counter() - start
                    self.cpu_s = time.process_time() - cpu
            finally:
                if probe is not None:
                    probe.cancel()
                    with contextlib.suppress(asyncio.CancelledError):
                        await probe
            self.records = [record for batch in batches for record in batch]
            start = time.perf_counter()
            self.stats = await fetch_stats(addresses)
            self.stats_rpc_s = time.perf_counter() - start
        finally:
            start = time.perf_counter()
            await cluster.stop()
            self.stop_s = time.perf_counter() - start


def _traced_live_rep(name, n, ops, seed):
    holds = []
    sizes = []

    def encoded(args, result):
        sizes.append(len(result))

    tracer = Tracer()
    layers = []

    def tracing():
        # wrappers go in after start-up and the rtt probe and come out
        # before the stats RPC, so every figure is about the load alone
        for module in (live_node, live_client, live_service):
            # each bound the codec by name when it was imported
            tracer.wrap(module, "encode_frame", "live.wire.encode", encoded)
            tracer.wrap(module, "decode_frame", "live.wire.decode")
        tracer.wrap(LiveClock, "read", "live.clock.read")
        layers.extend(_wrap_node_internals(tracer, holds))
        return tracer

    rep = _LiveRep(name, n, ops, seed, tracing)
    buffer_layers, process_layers = layers
    reads, writes = rep.excess("R"), rep.excess("W")
    kops = max(1, rep.ops_ok)
    wire_count = sum(node["wire_count"] for node in rep.stats)
    metrics = {
        "live.service.start_s": rep.start_s,
        "live.service.stats_rpc_s": rep.stats_rpc_s,
        "live.service.stop_s": rep.stop_s,
        "live.wire.encode_s": tracer.seconds("live.wire.encode"),
        "live.wire.encode_calls": tracer.calls("live.wire.encode"),
        "live.wire.decode_s": tracer.seconds("live.wire.decode"),
        "live.wire.decode_calls": tracer.calls("live.wire.decode"),
        "live.wire.frames_per_op": len(sizes) / kops,
        "live.wire.bytes_per_op": sum(sizes) / kops,
        "live.clock.read_s": tracer.seconds("live.clock.read"),
        "live.clock.read_calls": tracer.calls("live.clock.read"),
        "live.node.msgs_per_op": wire_count / kops,
        "live.node.wire_delay_mean_ms": 1e3 * sum(
            node["wire_sum"] for node in rep.stats
        ) / max(1, wire_count),
        "live.node.wire_delay_max_ms": 1e3 * max(n["wire_max"] for n in rep.stats),
        "live.node.max_skew_ms": 1e3 * max(n["max_skew"] for n in rep.stats),
        "live.node.wire_errors": sum(n.get("wire_errors", 0) for n in rep.stats),
        "live.client.rtt_floor_p50_ms": 1e3 * median(rep.rtts),
        "live.client.read_excess_p50_ms": 1e3 * median(reads) if reads else 0.0,
        "live.client.read_excess_p99_ms": 1e3 * _tail(reads),
        "live.client.read_samples": len(reads),
        "live.client.write_excess_p50_ms": 1e3 * median(writes) if writes else 0.0,
        "live.client.write_excess_p99_ms": 1e3 * _tail(writes),
        "live.client.write_samples": len(writes),
        "live.client.ops_ok": rep.ops_ok,
        "live.client.ops_failed": len(rep.records) - rep.ops_ok,
        "live.loop.lag_p50_ms": 1e3 * median(rep.lags) if rep.lags else 0.0,
        "live.loop.lag_p99_ms": 1e3 * _tail(rep.lags),
    }
    metrics.update(_node_internal_metrics(tracer, buffer_layers, process_layers, holds))
    return rep, metrics


def _check_live_rep(outcome, label, rep):
    check_live_repetition(outcome, label, rep.records, rep.stats, rep.params.d2)


def _checked_live_rep(outcome, label, *shape):
    """A verified repetition without its records: thousands per
    repetition, and a pass that fits more repetitions would show a
    higher ``peak_rss_mb`` for it."""
    rep = _LiveRep(*shape)
    _check_live_rep(outcome, label, rep)
    rep.records = None
    return rep


def _run_live(name, seed, seconds, traced, smoke):
    (n, ops, warm_ops), (small_n, small_ops, _) = SHAPES[name]["smoke" if smoke else "full"]
    outcome = Outcome()
    # warm-up: same parameters, short enough for a full linearizability
    # check of its history (the timed histories are too wide for the
    # checker; see the README's sizing notes)
    warm = _LiveRep(name, n, warm_ops, seed)
    _check_live_rep(outcome, "warm-up", warm)

    if traced:
        plain = _LiveRep(name, n, ops, seed)
        _check_live_rep(outcome, "plain", plain)
        rep, metrics = _traced_live_rep(name, n, ops, seed)
        _check_live_rep(outcome, "traced", rep)
        metrics["bench.trace_overhead_ratio"] = rep.load_s / plain.load_s
        # wrappers burn CPU: how busy the loop is comes from the plain rep
        metrics["live.loop.cpu_util"] = plain.cpu_s / plain.load_s
        check_live_history(outcome, "warm-up", warm.records)
        return metrics, outcome

    deadline = _Deadline(seconds)
    bigs, smalls = [], []
    while True:
        bigs.append(_checked_live_rep(
            outcome, f"repetition {len(bigs) + 1}", name, n, ops, seed
        ))
        smalls.append(_checked_live_rep(
            outcome, f"small repetition {len(smalls) + 1}",
            name, small_n, small_ops, seed,
        ))
        if not deadline.lap():
            break
    metrics = {
        "setup_s": min(rep.start_s for rep in [warm] + bigs),
        "ops_per_s": max(rep.ops_per_s for rep in bigs),
        "ops_per_s_small_n": max(rep.ops_per_s for rep in smalls),
        "cpu_s_per_kop": min(1e3 * rep.cpu_s / rep.ops_ok for rep in bigs),
        "peak_rss_mb": _peak_rss_mb(),
    }
    # last, so that the checker's memory (tens of MB at nine concurrent
    # clients) is neither in peak_rss_mb nor garbage under the timed load
    check_live_history(outcome, "warm-up", warm.records)
    return metrics, outcome


# ---------------------------------------------------------------------------
# check


def _history(clients, ops, seed):
    """One register history out of the simulator (Algorithm S, clock model)."""
    spec, horizon = _register_system((clients, ops), seed)
    run = run_register_experiment(spec, horizon, max_steps=MAX_STEPS)
    return extract_operations(run.result.trace)


class _Histories:
    """The run's inputs: ``count`` histories per shape, seeds derived."""

    def __init__(self, shapes, seed):
        self.batches = []
        self.setup_s = 0.0
        for clients, ops, count in shapes:
            batch, times = [], []
            for index in range(count):
                start = time.perf_counter()
                batch.append(_history(clients, ops, seed * 1000 + index))
                times.append(time.perf_counter() - start)
            self.batches.append(batch)
            # histories of one shape cost the same to generate up to
            # noise: count the least disturbed one for all of them
            self.setup_s += count * min(times)


_BatchPass = namedtuple("_BatchPass", "host_s cpu_s ops visited verdicts")


def _check_batch(batch):
    """Check every history of a batch, one timed call each.

    The collector stays on, as it is for anyone who calls the checker;
    a collection between histories (not timed) frees the previous
    search, whose closure is a reference cycle, so that every history
    starts from the same heap.
    """
    host_s = cpu_s = 0.0
    visited, verdicts = [], []
    for history in batch:
        gc.collect()
        cpu = time.process_time()
        start = time.perf_counter()
        try:
            report = linearizability.analyze_linearizability(
                history, initial_value=INITIAL_VALUE
            )
        except (SearchBudgetExceeded, RecursionError, MemoryError):
            report = None
        host_s += time.perf_counter() - start
        cpu_s += time.process_time() - cpu
        visited.append(report.visited if report else -1)
        verdicts.append(bool(report and report.ok))
        del report
    return _BatchPass(host_s, cpu_s, sum(len(h) for h in batch), visited, verdicts)


def _check_verdicts(outcome, key, passes):
    outcome.facts[f"{key}.visited"] = passes[0].visited
    for batch_pass in passes:
        outcome.fail(
            batch_pass.verdicts.count(False), len(batch_pass.verdicts),
            f"{key}: a linearizable history got no True verdict",
        )
        outcome.check(
            batch_pass.visited == passes[0].visited,
            f"{key}: visited counts changed between passes",
        )


def _run_check(name, seed, seconds, traced, smoke):
    shapes = SHAPES[name]["smoke" if smoke else "full"]
    wide_key, long_key = (_shape_key(name, shape) for shape in shapes)
    outcome = Outcome()
    histories = _Histories(shapes, seed)
    wide, long = histories.batches

    if traced:
        with Tracer() as tracer:
            tracer.wrap(linearizability, "analyze_linearizability", "check")
            wide_pass = _check_batch(wide)
            wide_rss = _peak_rss_mb()
            wide_s = tracer.seconds("check")
            long_pass = _check_batch(long)
            total_s = tracer.seconds("check")
        plain_s = _check_batch(wide).host_s + _check_batch(long).host_s
        _check_verdicts(outcome, wide_key, [wide_pass])
        _check_verdicts(outcome, long_key, [long_pass])
        visited = sum(wide_pass.visited) + sum(long_pass.visited)
        return {
            "traces.linearizability.wide_check_s": wide_s,
            "traces.linearizability.wide_visited": sum(wide_pass.visited),
            "traces.linearizability.long_check_s": total_s - wide_s,
            "traces.linearizability.long_visited": sum(long_pass.visited),
            "traces.linearizability.visited_per_op": visited / (wide_pass.ops + long_pass.ops),
            "traces.linearizability.wide_peak_rss_mb": wide_rss,
            "bench.trace_overhead_ratio": (wide_pass.host_s + long_pass.host_s) / plain_s,
        }, outcome

    _check_batch(wide[:1])  # warm-up: the first check grows the heap
    deadline = _Deadline(seconds)
    wides, longs = [], []
    while True:
        wides.append(_check_batch(wide))
        longs.append(_check_batch(long))
        if not deadline.lap():
            break
    _check_verdicts(outcome, wide_key, wides)
    _check_verdicts(outcome, long_key, longs)
    metrics = {
        "setup_s": histories.setup_s,
        "ops_per_s": max(p.ops / p.host_s for p in wides),
        "ops_per_s_small_n": max(p.ops / p.host_s for p in longs),
        "cpu_s_per_kop": min(1e3 * p.cpu_s / p.ops for p in wides),
        "peak_rss_mb": _peak_rss_mb(),
    }
    return metrics, outcome


# ---------------------------------------------------------------------------

WORKLOADS = {
    "sim_timed_pairs": partial(_run_sim, "sim_timed_pairs", _pairs_system("timed")),
    "sim_clock_pairs": partial(_run_sim, "sim_clock_pairs", _pairs_system("clock")),
    "sim_clock_register": partial(_run_sim, "sim_clock_register", _register_system),
    "live_fastread": partial(_run_live, "live_fastread"),
    "live_fastwrite": partial(_run_live, "live_fastwrite"),
    "check_histories": partial(_run_check, "check_histories"),
}


def run_workload(name, seed, seconds, traced, smoke=False):
    """Run one pass; returns ``(metrics, outcome)`` with every metric set."""
    metrics, outcome = WORKLOADS[name](seed, seconds, traced, smoke)
    vocabulary = PER_LAYER if traced else END_TO_END
    unknown = set(metrics) - set(vocabulary)
    if unknown:
        raise RuntimeError(f"{name} emitted undeclared metrics {sorted(unknown)}")
    return {key: metrics.get(key, 0) for key in vocabulary}, outcome
