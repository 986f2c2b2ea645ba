"""Tests for the TDMA scheduler (Section 7.1's second design technique)."""

import pytest

from repro.core.pipeline import Clock, Timed
from repro.errors import SpecificationError
from repro.sim.clock_drivers import (
    FastClockDriver,
    PerfectClockDriver,
    RandomWalkClockDriver,
    SlowClockDriver,
)
from repro.tdma import (
    TDMAProcess,
    build_tdma_system,
    critical_intervals,
    max_overlap,
    min_gap,
    utilization,
)

EPS = 0.1


def adversarial(i):
    """Neighboring nodes disagree by the full 2*eps."""
    return FastClockDriver(EPS) if i % 2 == 0 else SlowClockDriver(EPS)


class TestProcess:
    def test_parameter_validation(self):
        with pytest.raises(SpecificationError):
            TDMAProcess(0, 3, slot_width=0.0, guard=0.0)
        with pytest.raises(SpecificationError):
            TDMAProcess(0, 3, slot_width=1.0, guard=0.5)  # 2g == W
        with pytest.raises(SpecificationError):
            TDMAProcess(0, 3, slot_width=1.0, guard=-0.1)

    def test_owns_every_nth_slot(self):
        spec = build_tdma_system(
            Timed(), n=3, slot_width=1.0, guard=0.1, sections=3,
        )
        intervals = critical_intervals(spec.run(12.0).trace)
        for node, slot, _, __ in intervals:
            assert slot % 3 == node

    def test_enter_exit_times(self):
        spec = build_tdma_system(
            Timed(), n=2, slot_width=2.0, guard=0.25, sections=2,
        )
        intervals = critical_intervals(spec.run(10.0).trace)
        node0 = [iv for iv in intervals if iv[0] == 0]
        assert node0[0][2] == pytest.approx(0.25)
        assert node0[0][3] == pytest.approx(1.75)


class TestTimedModel:
    @pytest.mark.parametrize("guard", [0.0, 0.1, 0.3])
    def test_mutual_exclusion_any_guard(self, guard):
        spec = build_tdma_system(
            Timed(), n=3, slot_width=1.0, guard=guard, sections=3,
        )
        intervals = critical_intervals(spec.run(12.0).trace)
        assert max_overlap(intervals) <= 1e-9

    def test_gap_is_twice_guard(self):
        spec = build_tdma_system(
            Timed(), n=3, slot_width=1.0, guard=0.2, sections=3,
        )
        intervals = critical_intervals(spec.run(12.0).trace)
        assert min_gap(intervals) == pytest.approx(0.4)


class TestClockModel:
    def run_clock(self, guard, drivers=adversarial, sections=3):
        spec = build_tdma_system(
            Clock(EPS, drivers), n=3, slot_width=1.0, guard=guard,
            sections=sections,
        )
        return critical_intervals(spec.run(15.0).trace)

    def test_sufficient_guard_preserves_exclusion(self):
        intervals = self.run_clock(guard=EPS)
        assert max_overlap(intervals) <= 1e-9

    def test_generous_guard_leaves_margin(self):
        intervals = self.run_clock(guard=2 * EPS)
        assert min_gap(intervals) >= 2 * EPS - 1e-9

    def test_insufficient_guard_violates_exclusion(self):
        intervals = self.run_clock(guard=EPS / 2)
        assert max_overlap(intervals) > 1e-9

    def test_overlap_magnitude_is_two_eps_minus_two_guard(self):
        guard = 0.03
        intervals = self.run_clock(guard=guard)
        assert max_overlap(intervals) == pytest.approx(
            2 * (EPS - guard), abs=1e-6
        )

    def test_perfect_clocks_need_no_guard(self):
        intervals = self.run_clock(
            guard=0.0, drivers=lambda i: PerfectClockDriver(EPS)
        )
        assert max_overlap(intervals) <= 1e-9

    @pytest.mark.parametrize("seed", range(3))
    def test_random_drivers_within_guard(self, seed):
        intervals = self.run_clock(
            guard=EPS,
            drivers=lambda i: RandomWalkClockDriver(EPS, seed=seed * 31 + i),
        )
        assert max_overlap(intervals) <= 1e-9

    def test_utilization_cost(self):
        tight = self.run_clock(guard=EPS)
        loose = self.run_clock(guard=3 * EPS)
        horizon = 9.0
        assert utilization(tight, horizon) > utilization(loose, horizon)
        assert utilization(tight, horizon) == pytest.approx(
            (1.0 - 2 * EPS) / 1.0, abs=0.05
        )
