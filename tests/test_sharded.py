"""Sharded windowed execution: planning, validation, trace identity.

The correctness bar (see ``repro.sim.sharded`` and
``docs/performance.md``): a sharded run's merged trace is byte-identical
to the serial engine's at every shard count, and systems the window math
cannot reproduce exactly are rejected up front with
:class:`~repro.errors.ShardingError`.
"""

import pytest

from repro.automata.actions import (
    Action,
    ActionPattern,
    FiniteActionSet,
    PatternActionSet,
)
from repro.automata.signature import Signature
from repro.components.base import Entity
from repro.components.pinger import EchoProcess, PingerProcess
from repro.core.pipeline import build_clock_system, build_timed_system
from repro.errors import ShardingError
from repro.network.topology import Topology
from repro.obs.metrics import MetricsRegistry
from repro.registers.opstream import OpSchedule
from repro.registers.system import clock_register_system
from repro.registers.workload import RegisterWorkload
from repro.sim.clock_drivers import driver_factory
from repro.sim.delay import EdgeSeededDelay, UniformDelay
from repro.sim.engine import Simulator
from repro.sim.recorder import Recorder
from repro.sim.scheduler import RandomScheduler
from repro.sim.sharded import plan_shards

D1, D2, EPS = 0.2, 0.6, 0.05
HORIZON = 6.0


def _pair_topology(n):
    edges = []
    for k in range(0, n, 2):
        edges.append((k, k + 1))
        edges.append((k + 1, k))
    return Topology(n, edges)


def _pair_processes(count=4, interval=0.5):
    def make(i):
        if i % 2 == 0:
            return PingerProcess(i, i + 1, count, interval)
        return EchoProcess(i, i - 1)

    return make


def _pairs_spec(n=8, pipeline="clock"):
    topo = _pair_topology(n)
    procs = _pair_processes()
    if pipeline == "timed":
        return build_timed_system(topo, procs, D1, D2)
    return build_clock_system(
        topo, procs, EPS, D1, D2, driver_factory("skewed", EPS)
    )


def _register_spec(n=4, seed=13):
    """A fully-connected (barrier-exercising) shard-safe system."""
    workload = RegisterWorkload(operations=4, seed=seed)
    return clock_register_system(
        n=n, d1=D1, d2=1.0, c=0.3, eps=0.1, workload=workload,
        drivers=driver_factory("skewed", 0.1, seed=seed),
        delay_model=EdgeSeededDelay(seed=seed),
        schedules=[OpSchedule.generate(i, workload) for i in range(n)],
    )


class TestPlanning:
    def test_single_shard_has_no_cut_edges(self):
        spec = _pairs_spec(n=8)
        sim = Simulator(spec.entities, hidden=spec.hidden)
        plan = plan_shards(sim, 1)
        assert len(plan.shards) == 1
        assert plan.cut_edges == []
        assert plan.window == float("inf")

    def test_pairs_split_along_channel_lookahead_edges(self):
        # a channel fuses with its *receiver*; the sender->channel edge
        # carries the channel's d1 lookahead and becomes the cut
        spec = _pairs_spec(n=8)
        sim = Simulator(spec.entities, hidden=spec.hidden)
        plan = plan_shards(sim, 4)
        assert len(plan.shards) == 4
        assert plan.cut_edges
        assert plan.window == pytest.approx(D1)
        # every entity is owned by exactly one shard
        assert sorted(i for s in plan.shards for i in s) == list(
            range(len(spec.entities))
        )

    def test_coupled_register_system_window_is_min_cut_d1(self):
        spec = _register_spec()
        sim = Simulator(spec.entities, hidden=spec.hidden)
        plan = plan_shards(sim, 2)
        assert plan.cut_edges  # complete topology must cross shards
        assert plan.window == pytest.approx(D1)

    def test_more_shards_than_clusters_collapses(self):
        # n=4 -> two pairs -> four {node, incoming-channel} clusters
        spec = _pairs_spec(n=4)
        sim = Simulator(spec.entities, hidden=spec.hidden)
        plan = plan_shards(sim, 16)
        assert len(plan.shards) == 4

    def test_zero_parameter_output_is_not_a_wildcard(self):
        # TICK() reaches whoever declares TICK with no parameters, never
        # a consumer keyed on a first parameter it does not have
        class Toy(Entity):
            def initial_state(self):
                return None

        tick = FiniteActionSet([Action("TICK", ())])
        sim = Simulator([
            Toy("source", Signature(outputs=tick)),
            Toy("listener", Signature(inputs=tick)),
            Toy("unrelated", Signature(
                inputs=PatternActionSet([ActionPattern("TICK", (3,))])
            )),
        ])
        assert plan_shards(sim, 3).shards == [[0, 1], [2]]

    def test_window_override_must_fit_under_the_safe_width(self):
        spec = _register_spec()
        sim = Simulator(spec.entities, hidden=spec.hidden)
        assert plan_shards(sim, 2, window=D1 / 2).window == D1 / 2
        with pytest.raises(ShardingError, match="window"):
            plan_shards(sim, 2, window=D1 * 3)
        with pytest.raises(ShardingError, match="window"):
            plan_shards(sim, 2, window=0.0)


class TestValidation:
    def test_rejects_shared_rng_delay_model(self):
        workload = RegisterWorkload(operations=3, seed=1)
        spec = clock_register_system(
            n=2, d1=D1, d2=1.0, c=0.3, eps=0.1, workload=workload,
            drivers=driver_factory("skewed", 0.1, seed=1),
            delay_model=UniformDelay(seed=1),
            schedules=[OpSchedule.generate(i, workload) for i in range(2)],
        )
        sim = Simulator(spec.entities, hidden=spec.hidden)
        with pytest.raises(ShardingError, match="delay model"):
            plan_shards(sim, 2)

    def test_rejects_impure_online_clients(self):
        spec = clock_register_system(
            n=2, d1=D1, d2=1.0, c=0.3, eps=0.1,
            workload=RegisterWorkload(operations=3, seed=1),
            drivers=driver_factory("skewed", 0.1, seed=1),
            delay_model=EdgeSeededDelay(seed=1),
        )  # no schedules: clients draw their workload online
        sim = Simulator(spec.entities, hidden=spec.hidden)
        with pytest.raises(ShardingError, match="pure"):
            plan_shards(sim, 2)

    def test_rejects_granularity_sensitive_drivers(self):
        spec = build_clock_system(
            _pair_topology(4), _pair_processes(), EPS, D1, D2,
            driver_factory("mixed", EPS, seed=3),  # random-walk advances
        )
        sim = Simulator(spec.entities, hidden=spec.hidden)
        with pytest.raises(ShardingError, match="granularity"):
            plan_shards(sim, 2)

    def test_rejects_stateful_scheduler(self):
        spec = _pairs_spec(n=4)
        sim = Simulator(
            spec.entities, hidden=spec.hidden,
            scheduler=RandomScheduler(seed=2),
        )
        with pytest.raises(ShardingError, match="shard-safe"):
            plan_shards(sim, 2)

    def test_rejects_bad_shard_counts(self):
        spec = _pairs_spec(n=4)
        sim = Simulator(spec.entities, hidden=spec.hidden)
        for bad in (0, -1, True, 1.5):
            with pytest.raises(ShardingError):
                plan_shards(sim, bad)

    def test_rejects_stop_when(self):
        spec = _pairs_spec(n=4)
        sim = Simulator(spec.entities, hidden=spec.hidden)
        with pytest.raises(ShardingError, match="stop_when"):
            sim.run(
                HORIZON, shards=2,
                stop_when=lambda recorder, now: False,
            )


class TestTraceIdentity:
    @pytest.mark.parametrize("pipeline", ["timed", "clock"])
    def test_independent_pairs_identical_across_shard_counts(self, pipeline):
        serial = Recorder()
        spec = _pairs_spec(n=8, pipeline=pipeline)
        Simulator(spec.entities, hidden=spec.hidden).run(
            HORIZON, recorder=serial
        )
        assert serial.events
        for shards in (1, 2, 4):
            spec = _pairs_spec(n=8, pipeline=pipeline)
            recorder = Recorder()
            Simulator(spec.entities, hidden=spec.hidden).run(
                HORIZON, recorder=recorder, shards=shards
            )
            assert recorder.events == serial.events, f"shards={shards}"

    def test_coupled_system_with_barriers_identical(self):
        # complete topology: every window barrier exchanges messages
        serial = Recorder()
        spec = _register_spec()
        Simulator(spec.entities, hidden=spec.hidden).run(
            HORIZON, recorder=serial
        )
        assert serial.events
        for shards in (2, 4):
            spec = _register_spec()
            recorder = Recorder()
            Simulator(spec.entities, hidden=spec.hidden).run(
                HORIZON, recorder=recorder, shards=shards
            )
            assert recorder.events == serial.events, f"shards={shards}"

    def test_narrower_window_same_trace(self):
        # more barriers never change the trace, only the cost
        spec = _register_spec()
        wide = Recorder()
        Simulator(spec.entities, hidden=spec.hidden).run(
            HORIZON, recorder=wide, shards=2
        )
        spec = _register_spec()
        narrow = Recorder()
        Simulator(spec.entities, hidden=spec.hidden).run(
            HORIZON, recorder=narrow, shards=2, window=D1 / 3
        )
        assert narrow.events == wide.events


class TestShardedMetrics:
    def test_phase_gauges_present_and_volatile(self):
        spec = _register_spec()
        metrics = MetricsRegistry()
        Simulator(spec.entities, hidden=spec.hidden).run(
            HORIZON, metrics=metrics, shards=2
        )
        volatile = metrics.snapshot(include_volatile=True)["gauges"]
        assert volatile["repro.phase.shards"] == 2.0
        assert volatile["repro.phase.windows"] >= 1.0
        assert volatile["repro.phase.window_width"] == pytest.approx(D1)
        for sid in (0, 1):
            assert volatile[f"repro.phase.shard{sid}.steps"] > 0
            assert volatile[f"repro.phase.shard{sid}.entities"] > 0
        # none of the per-shard phase figures leak into the
        # deterministic export
        deterministic = metrics.snapshot()["gauges"]
        assert not any(k.startswith("repro.phase.") for k in deterministic)

    def test_time_advances_zeroed_and_histograms_volatile(self):
        spec = _register_spec()
        metrics = MetricsRegistry()
        Simulator(spec.entities, hidden=spec.hidden).run(
            HORIZON, metrics=metrics, shards=2
        )
        snapshot = metrics.snapshot()
        # granularity-dependent: zeroed and kept out of the
        # deterministic export entirely
        assert "repro.engine.time_advances" not in snapshot["counters"]
        full = metrics.snapshot(include_volatile=True)
        assert full["counters"]["repro.engine.time_advances"] == 0
        assert snapshot["histograms"] == {}
        assert snapshot["sketches"]  # canonical exports survive
