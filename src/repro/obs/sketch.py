"""Mergeable quantile sketches for latency percentiles.

Fixed-bucket histograms (:class:`~repro.obs.metrics.Histogram`) answer
"how many deliveries took <= 0.25?" but cannot answer "what is p99?"
with controlled error, and their accuracy is frozen at bucket-choice
time. A :class:`QuantileSketch` stores samples in *relative-accuracy*
log-spaced buckets (the DDSketch construction): bucket ``k`` covers
``(gamma^(k-1), gamma^k]`` with ``gamma = (1 + alpha) / (1 - alpha)``,
so any quantile estimate is within a factor ``(1 +- alpha)`` of a true
sample value, at any scale, with a sparse integer map as the only state.

Why this shape and not a t-digest: t-digest centroids depend on the
order in which sketches are merged (the merge *tree* leaks into the
state), while log-bucket counts add like histogram buckets — the merged
sketch is a pure function of the multiset of samples. That is the
property :func:`repro.obs.metrics.merge_snapshots` needs so campaign
aggregates stay byte-identical regardless of worker count or completion
order.

All values are **simulated-time units** (the same convention as
``LATENCY_BUCKETS``), and everything here is pure python with no
dependencies, like the rest of the library.
"""

from __future__ import annotations

import math
from typing import Dict, List, Tuple

DEFAULT_ALPHA = 0.01
"""Default relative accuracy: quantiles within +-1% of a sample value."""

_MIN_TRACKABLE = 1e-12
"""Values at or below this collapse into the zero bucket."""


class QuantileSketch:
    """A DDSketch-style mergeable quantile sketch.

    ``observe`` is O(1); ``merge`` adds bucket counts (commutative and
    associative on the bucket maps, so merge order cannot change the
    result); ``quantile`` walks the sparse buckets once. Negative
    samples are clamped into the zero bucket — every quantity sketched
    here (latencies, holds, transits) is non-negative by construction,
    and a silent negative would otherwise corrupt the log transform.
    """

    __slots__ = ("name", "alpha", "_gamma", "_log_gamma", "_buckets",
                 "_zero", "_count", "_sum", "_min", "_max")

    def __init__(self, name: str, alpha: float = DEFAULT_ALPHA):
        if not 0.0 < alpha < 1.0:
            raise ValueError(f"alpha must be in (0, 1), got {alpha!r}")
        self.name = name
        self.alpha = float(alpha)
        self._gamma = (1.0 + self.alpha) / (1.0 - self.alpha)
        self._log_gamma = math.log(self._gamma)
        self._buckets: Dict[int, int] = {}
        self._zero = 0
        self._count = 0
        self._sum = 0.0
        self._min = float("inf")
        self._max = float("-inf")

    # -- recording -----------------------------------------------------------

    def observe(self, value: float) -> None:
        """Record one sample."""
        if value > _MIN_TRACKABLE:
            key = math.ceil(math.log(value) / self._log_gamma)
            self._buckets[key] = self._buckets.get(key, 0) + 1
        else:
            value = max(value, 0.0)
            self._zero += 1
        self._count += 1
        self._sum += value
        if value < self._min:
            self._min = value
        if value > self._max:
            self._max = value

    # -- summary -------------------------------------------------------------

    @property
    def count(self) -> int:
        return self._count

    @property
    def sum(self) -> float:
        return self._sum

    @property
    def mean(self) -> float:
        return self._sum / self._count if self._count else 0.0

    @property
    def minimum(self) -> float:
        return self._min if self._count else 0.0

    @property
    def maximum(self) -> float:
        return self._max if self._count else 0.0

    def quantile(self, q: float) -> float:
        """The estimated ``q``-quantile (``0 <= q <= 1``).

        Returns the geometric midpoint of the bucket holding the rank,
        clamped into ``[min, max]`` so the tails never overshoot the
        observed extremes. 0.0 on an empty sketch.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q!r}")
        if not self._count:
            return 0.0
        rank = q * (self._count - 1)
        cumulative = self._zero
        if rank < cumulative:
            return self._min if self._min > 0.0 else 0.0
        gamma = self._gamma
        for key in sorted(self._buckets):
            cumulative += self._buckets[key]
            if rank < cumulative:
                midpoint = 2.0 * gamma ** key / (gamma + 1.0)
                return min(max(midpoint, self._min), self._max)
        return self._max

    # -- merge / export ------------------------------------------------------

    def merge(self, other: "QuantileSketch") -> None:
        """Fold ``other`` into this sketch (bucket-wise addition).

        The bucket maps simply add, so any merge order over any
        partition of the same samples yields the identical sketch.
        """
        if abs(other.alpha - self.alpha) > 1e-12:
            raise ValueError(
                f"cannot merge sketch {self.name!r}: alpha "
                f"{other.alpha:g} != {self.alpha:g}"
            )
        for key, count in other._buckets.items():
            self._buckets[key] = self._buckets.get(key, 0) + count
        self._zero += other._zero
        self._count += other._count
        self._sum += other._sum
        self._min = min(self._min, other._min)
        self._max = max(self._max, other._max)

    def _canonical_sum(self) -> float:
        """The sample sum recomputed from the bucket state.

        The live ``_sum`` accumulator depends on the order samples were
        added (float addition is not associative), so two partitions of
        the same multiset can disagree in its last bits. The bucket
        maps are *exactly* identical across partitions, and summing
        ``count * bucket-midpoint`` in sorted key order performs the
        identical float operations every time — within ``alpha`` of the
        true sum, and bit-for-bit deterministic.
        """
        gamma = self._gamma
        total = 0.0
        for key in sorted(self._buckets):
            total += self._buckets[key] * (2.0 * gamma ** key / (gamma + 1.0))
        return total

    def to_dict(self) -> Dict[str, object]:
        """The sketch as a plain (JSON-ready) dict.

        Buckets export as ``[key, count]`` pairs sorted by key and the
        ``sum`` field is the canonical bucket-derived sum, so the JSON
        text is a pure function of the sample multiset — byte-identical
        however the samples were partitioned or the parts merged.
        """
        return {
            "alpha": self.alpha,
            "zero": self._zero,
            "buckets": [[k, self._buckets[k]] for k in sorted(self._buckets)],
            "count": self._count,
            "sum": self._canonical_sum(),
            "min": self.minimum,
            "max": self.maximum,
        }

    @classmethod
    def from_dict(cls, name: str, payload: Dict[str, object]) -> "QuantileSketch":
        """Rebuild a sketch from :meth:`to_dict` output."""
        sketch = cls(name, alpha=float(payload.get("alpha", DEFAULT_ALPHA)))
        sketch._zero = int(payload.get("zero", 0))
        sketch._buckets = {
            int(key): int(count) for key, count in payload.get("buckets", [])
        }
        sketch._count = int(payload.get("count", 0))
        sketch._sum = float(payload.get("sum", 0.0))
        if sketch._count:
            sketch._min = float(payload.get("min", 0.0))
            sketch._max = float(payload.get("max", 0.0))
        return sketch

    def __repr__(self) -> str:
        return (
            f"<QuantileSketch {self.name}: n={self._count}, "
            f"p50={self.quantile(0.5):.4g}, max={self.maximum:.4g}>"
        )


def quantile_triplet(sketch: QuantileSketch) -> Tuple[float, float, float]:
    """The (p50, p95, p99) triple the dashboard column shows."""
    return sketch.quantile(0.5), sketch.quantile(0.95), sketch.quantile(0.99)


def validate_sketch_dict(name: str, payload: object) -> List[str]:
    """Schema problems with one exported sketch dict (empty = valid)."""
    problems: List[str] = []
    if not isinstance(payload, dict):
        return [f"metrics: sketch {name!r} is not an object"]
    for key in ("alpha", "zero", "buckets", "count", "sum", "min", "max"):
        if key not in payload:
            problems.append(f"metrics: sketch {name!r} lacks {key!r}")
    alpha = payload.get("alpha")
    if not isinstance(alpha, float) or not 0.0 < alpha < 1.0:
        problems.append(f"metrics: sketch {name!r} alpha invalid: {alpha!r}")
    buckets = payload.get("buckets", [])
    if not isinstance(buckets, list) or not all(
        isinstance(pair, list) and len(pair) == 2
        and isinstance(pair[0], int) and isinstance(pair[1], int)
        and pair[1] >= 0
        for pair in buckets
    ):
        problems.append(f"metrics: sketch {name!r} buckets malformed")
    else:
        keys = [pair[0] for pair in buckets]
        if keys != sorted(keys):
            problems.append(f"metrics: sketch {name!r} buckets not sorted")
        zero = payload.get("zero", 0)
        total = sum(pair[1] for pair in buckets) + (
            zero if isinstance(zero, int) else 0
        )
        if isinstance(payload.get("count"), int) and total != payload["count"]:
            problems.append(
                f"metrics: sketch {name!r} bucket counts do not sum to count"
            )
    return problems
