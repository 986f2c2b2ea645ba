"""Property-based tests: the TDMA overlap formula and sync envelopes."""

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.core.pipeline import Clock
from repro.clocks.sync import CristianSimulation, HardwareClock, achievable_epsilon
from repro.sim.clock_drivers import FastClockDriver, SlowClockDriver
from repro.tdma import build_tdma_system, critical_intervals, max_overlap


class TestTDMAOverlapFormula:
    @given(
        st.floats(min_value=0.02, max_value=0.2),   # eps
        st.floats(min_value=0.0, max_value=1.0),    # guard as fraction of eps
    )
    @settings(max_examples=25, deadline=None)
    def test_overlap_is_two_eps_minus_two_guard(self, eps, fraction):
        guard = round(eps * fraction, 6)
        assume(2 * guard < 1.0)  # slot width is 1.0

        def drivers(i):
            return FastClockDriver(eps) if i % 2 == 0 else SlowClockDriver(eps)

        spec = build_tdma_system(
            Clock(eps, drivers), n=3, slot_width=1.0, guard=guard, sections=2,
        )
        intervals = critical_intervals(spec.run(10.0).trace)
        overlap = max_overlap(intervals)
        predicted = 2 * (eps - guard)
        if guard >= eps:
            assert overlap <= 1e-9
        else:
            assert abs(overlap - predicted) <= 1e-6

    @given(st.floats(min_value=0.02, max_value=0.2))
    @settings(max_examples=15, deadline=None)
    def test_guard_equal_eps_is_always_safe(self, eps):
        def drivers(i):
            return FastClockDriver(eps) if i % 2 == 0 else SlowClockDriver(eps)

        spec = build_tdma_system(
            Clock(eps, drivers), n=3, slot_width=1.0, guard=eps, sections=2,
        )
        intervals = critical_intervals(spec.run(10.0).trace)
        assert max_overlap(intervals) <= 1e-9


class TestSyncEnvelopeProperty:
    @given(
        st.floats(min_value=0.995, max_value=1.005),  # rho
        st.floats(min_value=2.0, max_value=10.0),     # period
        st.integers(min_value=0, max_value=50),       # seed
    )
    @settings(max_examples=20, deadline=None)
    def test_steady_error_within_envelope(self, rho, period, seed):
        d1, d2 = 0.01, 0.08
        sim = CristianSimulation(
            HardwareClock(rho, 0.2), period, d1, d2, horizon=80.0, seed=seed
        )
        envelope = achievable_epsilon(rho, period, d1, d2)
        assert sim.max_error(start=sim.converged_after()) <= envelope
        assert sim.is_monotone()
