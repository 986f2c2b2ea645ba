"""Entity-sharded conservative-parallel execution windows.

The paper's channel automaton ``E_{ij,[d1,d2]}`` guarantees no message
is delivered sooner than ``d1`` after it was sent — exactly the
*lookahead* a conservative parallel discrete-event scheme (Chandy–Misra
style) needs. This module partitions a :class:`~repro.sim.engine.
Simulator`'s entities into shards, runs each shard's event loop
independently through safe windows of width

    W = min over cross-shard channel cuts of that channel's ``d1``

and exchanges the actions that crossed a shard boundary at the window
barriers, via per-shard mailboxes. Any message sent at ``s`` inside
window ``[t_{k-1}, t_k)`` satisfies ``deliver_at >= s + d1 >= t_k``, so
applying it at the barrier — before any shard enters window ``k+1`` —
is indistinguishable from the serial engine's immediate routing: the
receiving channel buffers it with the *original* send time and the
sampled delay, and it becomes deliverable at the exact serial instant.

Within a window, a fire on one shard cannot affect another shard's
candidates (all cross-shard effects ride a positive-``d1`` channel), so
each shard's event stream is the serial schedule restricted to that
shard — and the serial schedule is recovered by merging the per-shard
streams head-to-head under the scheduler's own ordering key. That is
the byte-identical-trace guarantee the conformance tests and
``benchmarks/bench_parallel.py`` enforce at every shard count.

Shards here are in-process objects driven by one deterministic barrier
loop (a ``multiprocessing`` mailbox backend can land behind the same
:func:`run_sharded` interface later); the speedup is algorithmic —
per-event candidate gathering, scheduling, and deadline scans cost
O(shard) instead of O(system) — and already exceeds the serial engine
well before OS-level parallelism enters.

Preconditions (checked up front, :class:`~repro.errors.ShardingError`
on violation — see docs/performance.md and docs/shard-isolation.md):

- every entity declares ``pure_enabled`` (no RNG in ``enabled``);
- the scheduler is ``shard_safe`` (memoryless, e.g. the default
  deterministic one);
- channel delay models are ``shard_safe`` (per-edge state only);
- entities that override ``advance`` expose a ``driver`` with
  ``granularity_free=True`` (barrier-induced extra advances compose);
- no fault-injecting wrappers with shared RNG, and no entity named
  ``"environment"`` (reserved for injection records).
"""

from __future__ import annotations

import heapq
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.automata.actions import Action
from repro.components.base import Entity
from repro.errors import ShardingError
from repro.obs.metrics import MetricsRegistry, stats_from_metrics
from repro.obs.trace import NULL_TRACER, Tracer
from repro.sim.engine import (
    SimulationResult,
    Simulator,
    _ANY_FIRST,
    _EngineCore,
    _first_param_key,
    _input_action_keys,
)
from repro.sim.recorder import Recorder

from repro.constants import TOLERANCE as _TOLERANCE

INFINITY = float("inf")


# -- planning ----------------------------------------------------------------


@dataclass
class ShardPlan:
    """A validated partition of a simulator's entities into shards."""

    shards: List[List[int]]
    """Entity indices per shard, each list in composition order."""

    cut_edges: List[Tuple[int, int, float]]
    """Cross-shard ``(producer index, consumer index, lookahead)`` edges."""

    window: float
    """Safe window width: min lookahead over :attr:`cut_edges`
    (``inf`` when nothing crosses a shard boundary)."""

    owner: List[int]
    """``owner[entity index] -> shard id``."""


class _UnionFind:
    def __init__(self, n: int):
        self.parent = list(range(n))

    def find(self, x: int) -> int:
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def union(self, a: int, b: int) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            # Root at the smaller original index: deterministic clusters.
            if rb < ra:
                ra, rb = rb, ra
            self.parent[rb] = ra


def _validate(sim: Simulator, shards: int) -> None:
    """Raise :class:`ShardingError` unless the system is shardable."""
    if not isinstance(shards, int) or isinstance(shards, bool) or shards < 1:
        raise ShardingError(f"shard count must be a positive int, got {shards!r}")
    if not getattr(sim.scheduler, "shard_safe", False):
        raise ShardingError(
            f"scheduler {sim.scheduler!r} is not shard-safe: per-shard "
            f"instances of a stateful policy would consume their state in "
            f"per-shard order, not the global schedule order"
        )
    for entity in sim.entities:
        if entity.name == "environment":
            raise ShardingError(
                'entity name "environment" is reserved for injection records'
            )
        if not getattr(entity, "pure_enabled", True):
            raise ShardingError(
                f"{entity.name}: enabled() is impure (pure_enabled=False); "
                f"its query count differs between serial and windowed "
                f"execution. Register clients support a replay schedule "
                f"(OpSchedule) that makes them pure."
            )
        delay_model = getattr(entity, "delay_model", None)
        if delay_model is not None and not getattr(
            delay_model, "shard_safe", False
        ):
            raise ShardingError(
                f"{entity.name}: delay model {delay_model!r} is not "
                f"shard-safe (a shared RNG is consumed in arrival order, "
                f"which barrier deferral changes); use EdgeSeededDelay or "
                f"another per-edge model"
            )
        fault_model = getattr(entity, "fault_model", None)
        if fault_model is not None and not getattr(
            fault_model, "shard_safe", False
        ):
            raise ShardingError(
                f"{entity.name}: fault model {fault_model!r} draws from a "
                f"shared RNG in arrival order and cannot be sharded"
            )
        if type(entity).advance is not Entity.advance:
            driver = getattr(entity, "driver", None)
            if driver is None or not getattr(driver, "granularity_free", False):
                raise ShardingError(
                    f"{entity.name}: advance() is time-granularity-"
                    f"sensitive ({type(driver).__name__ if driver else 'no'}"
                    f" driver is not granularity_free); window barriers "
                    f"insert extra advance calls that would change its "
                    f"trajectory"
                )


def plan_shards(
    sim: Simulator, shards: int, window: Optional[float] = None
) -> ShardPlan:
    """Partition the entities and derive the safe window width.

    Entities whose outputs another entity consumes *without* declaring a
    ``shard_lookahead`` are fused into one cluster (clients fuse with
    their node, channels with their receiver); consumers that do declare
    one (channels, via ``d1``) become cut candidates instead. Clusters
    are packed greedily onto ``min(shards, clusters)`` shards, largest
    first; the window is the minimum lookahead over the edges that ended
    up crossing shards.
    """
    _validate(sim, shards)
    infos = sim._infos
    index = sim._route_index
    n = len(infos)

    uf = _UnionFind(n)
    cut_candidates: List[Tuple[int, int, float]] = []
    for info in infos:
        out_keys = _input_action_keys(info.entity.signature.outputs)
        if out_keys is None:
            # Undecomposable outputs: anyone might consume them.
            for other in range(n):
                if other != info.index:
                    uf.union(info.index, other)
            continue
        consumers: Set[int] = set()
        for name, param in out_keys:
            consumers.update(index.consumers(name, param))
        for consumer in sorted(consumers):
            if consumer == info.index:
                continue
            lookahead = getattr(
                infos[consumer].entity, "shard_lookahead", None
            )
            if lookahead is not None:
                cut_candidates.append((info.index, consumer, float(lookahead)))
            else:
                uf.union(info.index, consumer)

    clusters: Dict[int, List[int]] = {}
    for idx in range(n):
        clusters.setdefault(uf.find(idx), []).append(idx)
    ordered = sorted(clusters.values(), key=lambda c: (-len(c), c[0]))

    k = min(shards, len(ordered))
    assignment: List[List[int]] = [[] for _ in range(k)]
    for cluster in ordered:
        target = min(range(k), key=lambda s: (len(assignment[s]), s))
        assignment[target].extend(cluster)
    shard_lists = [sorted(members) for members in assignment]

    owner = [0] * n
    for sid, members in enumerate(shard_lists):
        for idx in members:
            owner[idx] = sid

    cut_edges = [
        (src, dst, la)
        for (src, dst, la) in cut_candidates
        if owner[src] != owner[dst]
    ]
    width = min((la for (_, _, la) in cut_edges), default=INFINITY)
    if cut_edges and width <= _TOLERANCE:
        worst = min(cut_edges, key=lambda e: e[2])
        raise ShardingError(
            f"cross-shard edge {infos[worst[0]].name} -> "
            f"{infos[worst[1]].name} has zero lookahead (d1={worst[2]:g}); "
            f"conservative windows need d1 > 0 on every cut channel"
        )
    if window is not None:
        if not 0 < window <= width:
            raise ShardingError(
                f"window override {window!r} outside (0, {width:g}]"
            )
        width = window
    return ShardPlan(
        shards=shard_lists, cut_edges=cut_edges, window=width, owner=owner
    )


# -- per-shard metric normalization ------------------------------------------

#: Instruments whose values depend on the *granularity* of time
#: advances or on barrier-deferred delivery, not on the event trace:
#: each window barrier adds an advance() call (extra clock-skew
#: samples), and a cross-shard send reaches its channel at the barrier,
#: when the in-transit population differs from the serial apply instant
#: (queue-depth samples). They are pre-created *volatile* on every
#: per-shard registry so the merged deterministic snapshot — the thing
#: required to be byte-identical across shard counts — excludes them,
#: exactly as wall-clock figures are excluded from serial runs.
#: (Histograms need no list here: every histogram is blanket-marked
#: volatile after the merge, because a histogram's ``sum`` accumulator
#: is float-addition-order dependent and partitioning the sample stream
#: changes the addition order. Sketches stay — their export is a
#: canonical function of the sample multiset.)
_GRANULARITY_COUNTERS = ("repro.engine.time_advances",)
_GRANULARITY_GAUGES = ("repro.clock.skew_max",)


def _shard_registry(entities: Sequence[Entity]) -> MetricsRegistry:
    """A fresh registry with the granularity-dependent names volatile.

    Creation order wins (`MetricsRegistry` keeps the first creation's
    volatility flag), so these must exist before the shard's entities
    bind their instruments.
    """
    registry = MetricsRegistry()
    for name in _GRANULARITY_COUNTERS:
        registry.counter(name, volatile=True)
    for name in _GRANULARITY_GAUGES:
        registry.gauge(name, volatile=True)
    for entity in entities:
        src = getattr(entity, "src", None)
        dst = getattr(entity, "dst", None)
        if src is not None and dst is not None:
            registry.gauge(
                f"repro.channel.queue_depth[{src}->{dst}]", volatile=True
            )
    return registry


# -- the barrier loop --------------------------------------------------------


def _merge_key(event) -> Tuple[float, int, str, str]:
    """The scheduler-compatible ordering key of one recorded event.

    Injections sort before fires at the same instant (the loop delivers
    them at its top), and fires order by the deterministic scheduler's
    (owner name, action repr) key — which, per-instant, is exactly how
    the serial engine interleaved the shards' candidates.
    """
    env = 0 if event.owner == "environment" else 1
    return (event.now, env, event.owner, repr(event.action))


def run_sharded(
    sim: Simulator,
    horizon: float,
    shards: int,
    *,
    window: Optional[float] = None,
    recorder: Optional[Recorder] = None,
    initial_inputs: Sequence[Tuple[Action, float]] = (),
    stop_when: Optional[Callable[[Recorder, float], bool]] = None,
    metrics: Optional[MetricsRegistry] = None,
    tracer: Optional[Tracer] = None,
) -> SimulationResult:
    """Execute ``sim`` to ``horizon`` on ``shards`` in-process shards.

    The public entrypoint behind ``Simulator.run(..., shards=k)``.
    Returns a :class:`SimulationResult` whose recorder contents are
    byte-identical to the serial engine's (both cores), with stats and
    the deterministic metrics snapshot merged across shards.
    """
    if stop_when is not None:
        raise ShardingError(
            "stop_when is not supported in sharded mode: an early stop on "
            "one shard cannot be replayed into the other shards' pasts"
        )
    if recorder is None:
        recorder = Recorder()
    if metrics is None:
        metrics = MetricsRegistry()
    tracer = tracer or NULL_TRACER
    plan = plan_shards(sim, shards, window)
    k = len(plan.shards)
    infos = sim._infos

    injections = sorted(initial_inputs, key=lambda pair: pair[1])

    shard_sims: List[Simulator] = []
    shard_recorders: List[Recorder] = []
    shard_registries: List[MetricsRegistry] = []
    cores: List[_EngineCore] = []
    outboxes: List[List[Tuple[Action, float]]] = [[] for _ in range(k)]

    # Per-shard cross-boundary filters: an output needs to enter the
    # shard's outbox only if some *foreign* entity's input keys could
    # match it. Everything else routes purely locally inside the core.
    foreign_exact: List[Set[Tuple[str, Any]]] = [set() for _ in range(k)]
    foreign_any: List[Set[str]] = [set() for _ in range(k)]
    foreign_all: List[bool] = [False] * k
    for info in infos:
        home = plan.owner[info.index]
        for sid in range(k):
            if sid == home:
                continue
            if info.input_keys is None:
                foreign_all[sid] = True
                continue
            for name, param in info.input_keys:
                if param is _ANY_FIRST:
                    foreign_any[sid].add(name)
                else:
                    foreign_exact[sid].add((name, param))

    def make_emit(sid: int):
        outbox = outboxes[sid]
        exact = foreign_exact[sid]
        any_names = foreign_any[sid]
        if foreign_all[sid]:
            def emit(action: Action, at_time: float) -> None:
                outbox.append((action, at_time))
            return emit

        def emit(action: Action, at_time: float) -> None:
            try:
                key = _first_param_key(action.name, action.params)
                if key in exact or action.name in any_names:
                    outbox.append((action, at_time))
            except TypeError:
                outbox.append((action, at_time))
        return emit

    for sid, members in enumerate(plan.shards):
        entities = [infos[idx].entity for idx in members]
        shard_sim = Simulator(
            entities,
            scheduler=type(sim.scheduler)(),
            hidden=sim.hidden,
            max_steps=sim.max_steps,
            strict=sim.strict,
            incremental=sim.incremental,
        )
        registry = _shard_registry(entities)
        shard_recorder = Recorder()
        has_cut_out = any(
            plan.owner[src] == sid for (src, _, _) in plan.cut_edges
        )
        core = _EngineCore(
            shard_sim,
            shard_recorder,
            registry,
            NULL_TRACER,
            initial_inputs=injections,
            emit=make_emit(sid) if (has_cut_out or k > 1) else None,
            record_injections=(sid == 0),
        )
        shard_sims.append(shard_sim)
        shard_recorders.append(shard_recorder)
        shard_registries.append(registry)
        cores.append(core)

    def exchange() -> None:
        # Shards drain in id order, outboxes in emission order: all the
        # sends into any one channel come from one producer entity (one
        # shard), so the channel's buffer-append — and therefore any
        # per-edge delay-model state — follows the serial send order.
        for sid in range(k):
            outbox = outboxes[sid]
            if not outbox:
                continue
            for action, at_time in outbox:
                for rid in range(k):
                    if rid != sid:
                        cores[rid].apply_external(action, at_time)
            outbox.clear()

    # repro: lint-ignore[DET002] -- volatile wall-time instrumentation,
    # excluded from the deterministic export exactly like the serial path
    wall_start = time.perf_counter()
    tracer.run_start(horizon)
    tracer.meta({"entities": [e.name for e in sim.entities]})

    width = plan.window
    n_windows = 0
    if width < horizon - _TOLERANCE:
        barrier_idx = 1
        while True:
            barrier = barrier_idx * width
            if barrier >= horizon - _TOLERANCE:
                break
            for core in cores:
                core.run_until(barrier, inclusive=False)
            exchange()
            barrier_idx += 1
            n_windows += 1
    # Final window: stop exclusively at the horizon, exchange, then let
    # every shard fire its at-horizon events (the serial engine fires
    # them too), and exchange once more so at-horizon sends land in the
    # foreign channel buffers — they are never delivered (deliver_at >
    # horizon) but the final states must match the serial engine's.
    for core in cores:
        core.run_until(horizon, inclusive=False)
    exchange()
    n_windows += 1
    for core in cores:
        core.run_until(horizon, inclusive=True)
    exchange()

    # Merge the per-shard event streams head-to-head. Within a window no
    # fire can change a foreign shard's candidates, so at every instant
    # the serial scheduler's pick is the least stream head under its own
    # key — which is precisely heapq.merge over the per-shard streams.
    def stream(events):
        for event in events:
            yield (_merge_key(event), event)

    for _, event in heapq.merge(
        *(stream(r.events) for r in shard_recorders), key=lambda pair: pair[0]
    ):
        recorder.record(
            event.action, event.now, event.owner, event.clock, event.visible
        )

    steps = sum(core.steps for core in cores)
    wall = time.perf_counter() - wall_start  # repro: lint-ignore[DET002] -- volatile wall-time figure

    for sid, registry in enumerate(shard_registries):
        registry.gauge(f"repro.phase.shard{sid}.steps", volatile=True).set(
            float(cores[sid].steps)
        )
        registry.gauge(f"repro.phase.shard{sid}.entities", volatile=True).set(
            float(len(plan.shards[sid]))
        )
        registry.gauge(f"repro.phase.shard{sid}.events", volatile=True).set(
            float(len(shard_recorders[sid]))
        )
        metrics.merge(registry)
    if isinstance(metrics, MetricsRegistry):
        # The merged advance count is a sum over shards of a window-
        # granularity-dependent figure; zero it so the canonical stats
        # are a pure function of the event trace at every shard count.
        metrics.counter("repro.engine.time_advances")._value = 0
        # Histogram sums are float-addition-order dependent; the shard
        # partition changes the order, so the deterministic snapshot of
        # a sharded run exports counters, gauges, and sketches only.
        for name in metrics._histograms:
            metrics._volatile.add(name)

    tracer.run_end(horizon, steps)

    metrics.gauge("repro.engine.now").set(horizon)
    metrics.gauge("repro.engine.horizon").set(horizon)
    events_total = float(len(recorder) + recorder.dropped)
    metrics.gauge("repro.recorder.events").set(events_total)
    metrics.gauge("repro.recorder.events_total").set(events_total)
    metrics.gauge("repro.recorder.events_retained").set(float(len(recorder)))
    metrics.gauge("repro.recorder.dropped").set(float(recorder.dropped))
    metrics.gauge("repro.phase.shards", volatile=True).set(float(k))
    metrics.gauge("repro.phase.windows", volatile=True).set(float(n_windows))
    metrics.gauge("repro.phase.window_width", volatile=True).set(
        width if width < INFINITY else horizon
    )
    metrics.gauge("repro.engine.wall_seconds", volatile=True).set(wall)
    if wall > 0:
        metrics.gauge("repro.engine.steps_per_sec", volatile=True).set(
            steps / wall
        )
        metrics.gauge("repro.engine.sim_time_ratio", volatile=True).set(
            horizon / wall
        )

    # Final states in composition order — downstream consumers (e.g. the
    # register experiment's operation collector) iterate this dict and
    # rely on the serial engine's entity order for tie-breaking.
    final_states: Dict[str, Any] = {}
    for info in infos:
        final_states[info.name] = cores[plan.owner[info.index]].states[
            info.name
        ]

    return SimulationResult(
        horizon=horizon,
        now=horizon,
        steps=steps,
        recorder=recorder,
        final_states=final_states,
        stats=stats_from_metrics(metrics),
        metrics=metrics.snapshot(),
    )
