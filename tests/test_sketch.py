"""Quantile sketches: accuracy, merge determinism, registry integration."""

import json
import random

import pytest

from repro.obs.metrics import (
    Histogram,
    MetricsRegistry,
    NULL_SKETCH,
    NullMetrics,
    merge_snapshots,
    registry_from_snapshot,
)
from repro.obs.sketch import (
    DEFAULT_ALPHA,
    QuantileSketch,
    quantile_triplet,
    validate_sketch_dict,
)


def _samples(n=500, seed=7):
    rng = random.Random(seed)
    return [rng.uniform(0.001, 10.0) for _ in range(n)]


class TestQuantileAccuracy:
    def test_quantiles_within_relative_error(self):
        samples = _samples()
        sketch = QuantileSketch("lat", alpha=0.01)
        for value in samples:
            sketch.observe(value)
        ordered = sorted(samples)
        for q in (0.1, 0.5, 0.9, 0.95, 0.99):
            true = ordered[int(q * (len(ordered) - 1))]
            estimate = sketch.quantile(q)
            # DDSketch guarantee: within (1 +- alpha) of *a* sample near
            # the rank; allow a couple of rank positions of slack too.
            assert estimate <= ordered[-1]
            assert estimate >= ordered[0]
            assert abs(estimate - true) <= 0.05 * true + 1e-9

    def test_extremes_and_empty(self):
        sketch = QuantileSketch("lat")
        assert sketch.quantile(0.5) == 0.0
        assert sketch.count == 0
        assert sketch.minimum == 0.0 and sketch.maximum == 0.0
        sketch.observe(2.0)
        assert sketch.quantile(0.0) == pytest.approx(2.0, rel=0.02)
        assert sketch.quantile(1.0) == pytest.approx(2.0, rel=0.02)

    def test_quantile_rejects_out_of_range(self):
        sketch = QuantileSketch("lat")
        with pytest.raises(ValueError):
            sketch.quantile(1.5)
        with pytest.raises(ValueError):
            sketch.quantile(-0.1)

    def test_negative_samples_clamp_into_zero_bucket(self):
        sketch = QuantileSketch("hold")
        sketch.observe(-0.5)
        sketch.observe(0.0)
        assert sketch.count == 2
        assert sketch.minimum == 0.0
        assert sketch.quantile(0.5) == 0.0

    def test_triplet_is_the_dashboard_column(self):
        sketch = QuantileSketch("lat")
        for value in _samples(100):
            sketch.observe(value)
        p50, p95, p99 = quantile_triplet(sketch)
        assert p50 <= p95 <= p99


class TestMergeDeterminism:
    def _merged_json(self, samples, workers):
        """Merged to_dict JSON after splitting samples across workers."""
        parts = [QuantileSketch("lat") for _ in range(workers)]
        for index, value in enumerate(samples):
            parts[index % workers].observe(value)
        merged = QuantileSketch("lat")
        for part in parts:
            merged.merge(part)
        return json.dumps(merged.to_dict(), sort_keys=True)

    def test_byte_identical_across_worker_counts(self):
        samples = _samples(400)
        texts = {self._merged_json(samples, workers) for workers in (1, 2, 4, 8)}
        assert len(texts) == 1

    def test_merge_order_does_not_matter(self):
        samples = _samples(120)
        a, b, c = (QuantileSketch("lat") for _ in range(3))
        for index, value in enumerate(samples):
            (a, b, c)[index % 3].observe(value)
        forward = QuantileSketch("lat")
        for part in (a, b, c):
            forward.merge(part)
        backward = QuantileSketch("lat")
        for part in (c, b, a):
            backward.merge(part)
        assert forward.to_dict() == backward.to_dict()

    def test_merging_an_empty_sketch_is_an_exact_no_op(self):
        # regression: an empty worker registry merged into a populated one
        # must not disturb min/max/zero (the empty sketch's inf/-inf
        # sentinels and zero counters must never leak into the result)
        sketch = QuantileSketch("lat")
        for value in (0.0, -1.0, 0.25, 7.5):
            sketch.observe(value)
        before = json.dumps(sketch.to_dict(), sort_keys=True)
        zero_before, min_before, max_before = (
            sketch._zero, sketch._min, sketch._max
        )
        sketch.merge(QuantileSketch("lat"))
        assert sketch._zero == zero_before
        assert sketch._min == min_before and sketch._max == max_before
        assert json.dumps(sketch.to_dict(), sort_keys=True) == before

    def test_merging_into_an_empty_sketch_copies_exactly(self):
        full = QuantileSketch("lat")
        for value in _samples(80):
            full.observe(value)
        empty = QuantileSketch("lat")
        empty.merge(full)
        assert empty.to_dict() == full.to_dict()

    def test_empty_merge_empty_stays_empty(self):
        a, b = QuantileSketch("lat"), QuantileSketch("lat")
        a.merge(b)
        assert a.count == 0
        assert a.minimum == 0.0 and a.maximum == 0.0
        assert a.quantile(0.5) == 0.0

    def test_zero_bucket_counts_accumulate_across_workers(self):
        parts = [QuantileSketch("lat") for _ in range(3)]
        for index, value in enumerate((0.0, -0.5, 0.0, 1.0, 0.0, -2.0)):
            parts[index % 3].observe(value)
        merged = QuantileSketch("lat")
        for part in parts:
            merged.merge(part)
        assert merged._zero == 5
        assert merged.count == 6
        assert merged.minimum == 0.0  # negatives clamp into the zero bucket

    def test_canonical_sum_invariant_under_shuffled_worker_orders(self):
        # property-style: whatever order per-worker registries merge in,
        # the exported sum (and the whole dict) is byte-identical —
        # _canonical_sum recomputes from sorted buckets, so float
        # addition order cannot leak through
        samples = _samples(240)
        parts = [QuantileSketch("lat") for _ in range(6)]
        for index, value in enumerate(samples):
            parts[index % 6].observe(value)

        def merged_json(order):
            merged = QuantileSketch("lat")
            for index in order:
                merged.merge(parts[index])
            return json.dumps(merged.to_dict(), sort_keys=True)

        baseline = merged_json(range(6))
        for seed in range(10):
            order = list(range(6))
            random.Random(seed).shuffle(order)
            assert merged_json(order) == baseline

    def test_merge_rejects_alpha_mismatch(self):
        a = QuantileSketch("lat", alpha=0.01)
        b = QuantileSketch("lat", alpha=0.02)
        with pytest.raises(ValueError, match="alpha"):
            a.merge(b)

    def test_round_trip_through_dict(self):
        sketch = QuantileSketch("lat")
        for value in _samples(50):
            sketch.observe(value)
        clone = QuantileSketch.from_dict("lat", sketch.to_dict())
        assert clone.to_dict() == sketch.to_dict()
        assert clone.quantile(0.5) == sketch.quantile(0.5)


class TestRegistryIntegration:
    def test_get_or_create_and_alpha_guard(self):
        registry = MetricsRegistry()
        sketch = registry.sketch("repro.op.read_latency")
        assert registry.sketch("repro.op.read_latency") is sketch
        with pytest.raises(ValueError, match="alpha"):
            registry.sketch("repro.op.read_latency", alpha=0.05)

    def test_snapshot_merge_round_trip(self):
        registry = MetricsRegistry()
        for value in _samples(60):
            registry.sketch("lat").observe(value)
        snapshot = registry.snapshot()
        assert snapshot["version"] == 2
        assert "lat" in snapshot["sketches"]
        rebuilt = registry_from_snapshot(snapshot)
        assert rebuilt.snapshot() == snapshot

    def test_merge_snapshots_byte_identical_across_worker_counts(self):
        """The acceptance criterion: campaign aggregation across workers."""
        samples = _samples(300)

        def worker_snapshots(workers):
            registries = [MetricsRegistry() for _ in range(workers)]
            for index, value in enumerate(samples):
                registries[index % workers].sketch("lat").observe(value)
                registries[index % workers].counter("ops").inc()
            return [r.snapshot() for r in registries]

        texts = {
            json.dumps(merge_snapshots(worker_snapshots(w)), sort_keys=True)
            for w in (1, 2, 3, 6)
        }
        assert len(texts) == 1

    def test_version1_snapshot_without_sketches_still_loads(self):
        payload = {
            "format": "repro-metrics",
            "version": 1,
            "counters": {"ops": 3},
            "gauges": {},
            "histograms": {},
        }
        registry = registry_from_snapshot(payload)
        assert registry.snapshot()["counters"]["ops"] == 3

    def test_null_metrics_sketch_is_inert(self):
        null = NullMetrics()
        sketch = null.sketch("anything")
        assert sketch is NULL_SKETCH
        sketch.observe(5.0)
        assert sketch.quantile(0.99) == 0.0
        assert null.snapshot()["sketches"] == {}


class TestHistogramQuantile:
    def test_interpolates_within_buckets(self):
        hist = Histogram("lat", [1.0, 2.0, 4.0])
        for value in (0.5, 1.5, 1.6, 1.7, 3.0, 5.0):
            hist.observe(value)
        estimate = hist.quantile(0.5)
        assert 1.0 <= estimate <= 2.0
        assert hist.quantile(0.0) == 0.5
        assert hist.quantile(1.0) == 5.0

    def test_monotone_in_q(self):
        hist = Histogram("lat", [0.5, 1.0, 2.0])
        rng = random.Random(3)
        for _ in range(200):
            hist.observe(rng.uniform(0.0, 3.0))
        quantiles = [hist.quantile(q / 20) for q in range(21)]
        assert quantiles == sorted(quantiles)

    def test_empty_and_range_checks(self):
        hist = Histogram("lat", [1.0])
        assert hist.quantile(0.5) == 0.0
        with pytest.raises(ValueError):
            hist.quantile(2.0)


class TestSketchSchema:
    def test_valid_dict_passes(self):
        sketch = QuantileSketch("lat")
        sketch.observe(1.0)
        assert validate_sketch_dict("lat", sketch.to_dict()) == []

    def test_rejects_malformed(self):
        assert validate_sketch_dict("lat", "nope")
        payload = QuantileSketch("lat").to_dict()
        del payload["alpha"]
        assert any("alpha" in p for p in validate_sketch_dict("lat", payload))
        bad = QuantileSketch("lat").to_dict()
        bad["buckets"] = [[2, 1], [1, 1]]  # unsorted keys
        assert any("sorted" in p for p in validate_sketch_dict("lat", bad))
        short = QuantileSketch("lat").to_dict()
        short["count"] = 5  # buckets no longer sum to count
        assert any("sum to count" in p for p in validate_sketch_dict("lat", short))
