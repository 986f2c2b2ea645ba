"""Tests for the observability layer (repro.obs) and its engine wiring."""

import io
import json

import pytest

from helpers import pinger_process_factory, pinger_topology

from repro.core.pipeline import build_clock_system
from repro.errors import SimulationLimitError
from repro.obs import (
    CANONICAL_STAT_KEYS,
    JsonlTracer,
    MetricsRegistry,
    NULL_COUNTER,
    NULL_GAUGE,
    NULL_HISTOGRAM,
    NULL_METRICS,
    NULL_TRACER,
    SKEW_BUCKETS,
    Tracer,
    read_trace,
    stats_from_metrics,
)
from repro.obs.schema import validate_metrics, validate_trace_lines
from repro.obs.trace import decode_action, encode_action
from repro.sim.clock_drivers import driver_factory
from repro.sim.delay import UniformDelay
from repro.sim.recorder import Recorder
from repro.sim.scheduler import RandomScheduler


def _pinger_spec(eps=0.1, seed=5):
    return build_clock_system(
        pinger_topology(),
        pinger_process_factory(count=5, interval=2.0),
        eps, 0.2, 1.0,
        drivers=driver_factory("mixed", eps, seed=seed),
        delay_model=UniformDelay(seed=seed),
    )


# ---------------------------------------------------------------------------
# instrument semantics
# ---------------------------------------------------------------------------


class TestInstruments:
    def test_counter(self):
        registry = MetricsRegistry()
        counter = registry.counter("c")
        counter.inc()
        counter.inc(3)
        assert counter.value == 4
        # get-or-create returns the same instrument
        assert registry.counter("c") is counter

    def test_gauge(self):
        registry = MetricsRegistry()
        gauge = registry.gauge("g")
        gauge.set(2.0)
        gauge.set(1.0)
        assert gauge.value == 1.0
        gauge.set_max(5.0)
        gauge.set_max(3.0)
        assert gauge.value == 5.0

    def test_histogram_buckets(self):
        registry = MetricsRegistry()
        hist = registry.histogram("h", bounds=(1.0, 2.0))
        for v in (0.5, 1.0, 1.5, 10.0):
            hist.observe(v)
        d = hist.to_dict()
        # le semantics: 0.5 and 1.0 in bucket <=1, 1.5 in <=2, 10 overflow
        assert d["counts"] == [2, 1, 1]
        assert d["count"] == 4
        assert d["min"] == 0.5
        assert d["max"] == 10.0
        assert d["sum"] == pytest.approx(13.0)

    def test_histogram_mean(self):
        registry = MetricsRegistry()
        hist = registry.histogram("h", bounds=(1.0,))
        hist.observe(1.0)
        hist.observe(3.0)
        assert hist.mean == pytest.approx(2.0)

    def test_mismatched_histogram_bounds_rejected(self):
        registry = MetricsRegistry()
        registry.histogram("h", bounds=(1.0, 2.0))
        with pytest.raises(ValueError):
            registry.histogram("h", bounds=(5.0,))

    def test_merge(self):
        a = MetricsRegistry()
        b = MetricsRegistry()
        a.counter("c").inc(2)
        b.counter("c").inc(3)
        a.gauge("g").set(1.0)
        b.gauge("g").set(4.0)
        a.histogram("h", bounds=(1.0,)).observe(0.5)
        b.histogram("h", bounds=(1.0,)).observe(2.5)
        a.merge(b)
        assert a.counter("c").value == 5
        assert a.gauge("g").value == 4.0  # merge takes the max
        assert a.histogram("h", bounds=(1.0,)).to_dict()["counts"] == [1, 1]

    def test_volatile_excluded_from_snapshot(self):
        registry = MetricsRegistry()
        registry.gauge("wall", volatile=True).set(123.0)
        registry.gauge("det").set(1.0)
        snapshot = registry.snapshot()
        assert "wall" not in snapshot["gauges"]
        assert "det" in snapshot["gauges"]
        full = registry.snapshot(include_volatile=True)
        assert full["gauges"]["wall"] == 123.0

    def test_null_instruments_are_inert(self):
        NULL_COUNTER.inc()
        NULL_COUNTER.inc(10)
        NULL_GAUGE.set(1.0)
        NULL_GAUGE.set_max(2.0)
        NULL_HISTOGRAM.observe(3.0)
        assert NULL_COUNTER.value == 0
        assert NULL_GAUGE.value == 0.0
        assert NULL_METRICS.counter("anything") is NULL_COUNTER
        assert NULL_METRICS.gauge("anything") is NULL_GAUGE
        assert NULL_METRICS.histogram("anything") is NULL_HISTOGRAM


# ---------------------------------------------------------------------------
# determinism of the exported JSON
# ---------------------------------------------------------------------------


class TestDeterminism:
    def _run(self, seed=5):
        metrics = MetricsRegistry()
        result = _pinger_spec(seed=seed).run(
            30.0, scheduler=RandomScheduler(seed), metrics=metrics
        )
        return result, metrics

    def test_same_seed_byte_identical_json(self):
        _, m1 = self._run()
        _, m2 = self._run()
        assert m1.to_json() == m2.to_json()

    def test_volatile_wall_clock_present_but_not_exported(self):
        _, metrics = self._run()
        full = metrics.snapshot(include_volatile=True)
        assert "repro.engine.wall_seconds" in full["gauges"]
        assert "repro.engine.wall_seconds" not in metrics.snapshot()["gauges"]

    def test_stats_come_from_metrics(self):
        result, metrics = self._run()
        assert tuple(result.stats) == CANONICAL_STAT_KEYS
        assert result.stats == stats_from_metrics(metrics)
        assert result.stats["steps"] == metrics.counter("repro.engine.steps").value

    def test_metrics_snapshot_on_result(self):
        result, _ = self._run()
        assert result.metrics is not None
        assert validate_metrics(result.metrics) == []
        skew = result.metrics["histograms"]["repro.clock.skew"]
        assert skew["count"] > 0
        assert skew["max"] <= result.metrics["gauges"]["repro.clock.eps"]


# ---------------------------------------------------------------------------
# tracer
# ---------------------------------------------------------------------------


class TestTracer:
    def test_base_tracer_is_null(self):
        tracer = Tracer()
        assert not tracer.enabled
        # every hook is a no-op; none may raise
        tracer.run_start(10.0)
        tracer.action(1.0, "e", None, None, True)
        tracer.injection(1.0, None)
        tracer.advance(1.0, 2.0, None)
        tracer.timelock(2.0, "e")
        tracer.run_end(2.0, 5)
        tracer.close()
        assert not NULL_TRACER.enabled

    def test_disabled_tracer_leaves_run_unchanged(self):
        spec = _pinger_spec()
        base = spec.run(30.0, scheduler=RandomScheduler(5))
        traced = _pinger_spec().run(
            30.0, scheduler=RandomScheduler(5), tracer=Tracer()
        )
        assert base.stats == traced.stats
        assert base.metrics == traced.metrics

    def test_jsonl_round_trip(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        tracer = JsonlTracer(str(path))
        assert tracer.enabled
        result = _pinger_spec().run(
            30.0, scheduler=RandomScheduler(5), tracer=tracer
        )
        tracer.close()
        lines = path.read_text().splitlines()
        assert validate_trace_lines(lines) == []
        records = read_trace(str(path))
        kinds = [r["k"] for r in records]
        assert kinds[0] == "run_start"
        assert kinds[-1] == "run_end"
        actions = [r for r in records if r["k"] == "action"]
        assert len(actions) == result.stats["actions"]
        # decoded actions agree with the recorder, via the trace codec
        recorded = result.recorder.events
        for record, event in zip(actions, recorded):
            assert record["action"] == event.action
            assert record["action"] == decode_action(encode_action(event.action))
            assert record["now"] == pytest.approx(event.now)

    def test_stream_target(self):
        buffer = io.StringIO()
        tracer = JsonlTracer(buffer)
        _pinger_spec().run(10.0, tracer=tracer)
        tracer.close()
        header = json.loads(buffer.getvalue().splitlines()[0])
        assert header["format"] == "repro-obs-trace"


# ---------------------------------------------------------------------------
# recorder cap / ring buffer (satellite)
# ---------------------------------------------------------------------------


class TestRecorderLimits:
    def test_cap_raises(self):
        recorder = Recorder(max_events=3)
        spec = _pinger_spec()
        with pytest.raises(SimulationLimitError):
            spec.run(30.0, recorder=recorder)

    def test_ring_keeps_tail(self):
        full = Recorder()
        _pinger_spec().run(30.0, recorder=full, scheduler=RandomScheduler(5))
        ring = Recorder(max_events=10, on_overflow="ring")
        result = _pinger_spec().run(
            30.0, recorder=ring, scheduler=RandomScheduler(5)
        )
        assert len(ring) == 10
        assert ring.dropped == len(full.events) - 10
        # the surviving window is exactly the chronological tail
        assert ring.events == full.events[-10:]
        # indices stay globally monotone across the wrap
        indices = [e.index for e in ring.events]
        assert indices == sorted(indices)
        assert result.metrics["gauges"]["repro.recorder.dropped"] == ring.dropped

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            Recorder(max_events=0)
        with pytest.raises(ValueError):
            Recorder(max_events=5, on_overflow="bogus")


# ---------------------------------------------------------------------------
# schema validators
# ---------------------------------------------------------------------------


class TestSchema:
    def test_valid_metrics(self):
        metrics = MetricsRegistry()
        metrics.counter("c").inc()
        metrics.histogram("h", bounds=SKEW_BUCKETS).observe(0.01)
        assert validate_metrics(json.loads(metrics.to_json())) == []

    def test_invalid_metrics(self):
        assert validate_metrics({"format": "nope"}) != []
        assert validate_metrics({"format": "repro-metrics", "version": 1}) != []

    def test_invalid_trace(self):
        assert validate_trace_lines(['{"format": "nope", "version": 1}']) != []
        good_header = '{"format": "repro-obs-trace", "version": 1}'
        assert validate_trace_lines([good_header, '{"k": "bogus"}']) != []
