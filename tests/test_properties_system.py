"""Property-based tests over whole-system runs and substrate invariants."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.buffers import ReceiveBuffer
from helpers import register_spec
from repro.core.pipeline import Timed
from repro.registers.system import (
    clock_register_system,
    run_register_experiment,
)
from repro.registers.workload import RegisterWorkload
from repro.sim.clock_drivers import (
    DriftingClockDriver,
    RandomWalkClockDriver,
    SkewedClockDriver,
    driver_factory,
)
from repro.sim.delay import UniformDelay
from repro.sim.scheduler import RandomScheduler
from repro.analysis.stats import summarize

INFINITY = float("inf")


class TestReceiveBufferProperties:
    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=0.0, max_value=20.0),  # stamp
                st.floats(min_value=0.0, max_value=20.0),  # arrival clock
            ),
            max_size=12,
        )
    )
    @settings(max_examples=80)
    def test_lamport_invariant_under_arbitrary_arrivals(self, messages):
        buf = ReceiveBuffer(0, 1)
        for i, (stamp, arrival_clock) in enumerate(messages):
            buf.enqueue(("m", i), stamp=stamp, clock=arrival_clock)
        clock = 0.0
        delivered_stamps = []
        while buf.front() is not None:
            clock = max(clock, buf.clock_deadline())
            _, stamp = buf.deliver(clock)
            assert clock >= stamp - 1e-9  # Lamport/Welch property
            delivered_stamps.append(stamp)
        assert delivered_stamps == sorted(delivered_stamps)
        assert len(delivered_stamps) == len(messages)


class TestDriverProperties:
    @given(
        st.lists(st.floats(min_value=0.01, max_value=1.0), min_size=1, max_size=40),
        st.floats(min_value=0.01, max_value=0.5),
        st.integers(min_value=0, max_value=999),
    )
    @settings(max_examples=60)
    def test_random_walk_envelope_and_monotonicity(self, steps, eps, seed):
        driver = RandomWalkClockDriver(eps, seed=seed, lo_rate=0.0, hi_rate=3.0)
        now, clock = 0.0, 0.0
        for dt in steps:
            new_now = now + dt
            new_clock = driver.step(now, clock, new_now, INFINITY)
            assert abs(new_now - new_clock) <= eps + 1e-9
            assert new_clock >= clock - 1e-12
            now, clock = new_now, new_clock

    @given(
        st.floats(min_value=0.01, max_value=0.5),
        st.floats(min_value=0.2, max_value=3.0),
        st.lists(st.floats(min_value=0.01, max_value=1.0), min_size=1, max_size=30),
    )
    @settings(max_examples=60)
    def test_drift_envelope(self, eps, rho, steps):
        driver = DriftingClockDriver(eps, rho)
        now, clock = 0.0, 0.0
        for dt in steps:
            new_now = now + dt
            clock = driver.step(now, clock, new_now, INFINITY)
            now = new_now
            assert abs(now - clock) <= eps + 1e-9


class TestRegisterRunsProperties:
    @given(
        st.integers(min_value=0, max_value=60),
        st.floats(min_value=0.0, max_value=1.0),
    )
    @settings(max_examples=12, deadline=None)
    def test_timed_model_always_linearizable(self, seed, read_fraction):
        workload = RegisterWorkload(
            operations=4, read_fraction=read_fraction, seed=seed,
            think_min=0.2, think_max=1.5,
        )
        spec = register_spec(
            Timed(), n=3, d1=0.2, d2=1.0, c=0.4, workload=workload,
            algorithm="L", delay_model=UniformDelay(seed=seed),
        )
        run = run_register_experiment(
            spec, 50.0, scheduler=RandomScheduler(seed=seed)
        )
        assert run.linearizable()
        assert run.max_read_latency() <= 0.4 + 0.01 + 1e-9
        assert run.max_write_latency() <= 1.0 - 0.4 + 1e-9

    @given(
        st.integers(min_value=0, max_value=60),
        st.sampled_from(["mixed", "random", "fast", "slow"]),
        st.floats(min_value=0.01, max_value=0.25),
    )
    @settings(max_examples=10, deadline=None)
    def test_clock_model_always_linearizable(self, seed, driver_kind, eps):
        workload = RegisterWorkload(
            operations=4, read_fraction=0.5, seed=seed,
            think_min=0.3, think_max=1.5,
        )
        spec = clock_register_system(
            n=3, d1=0.2, d2=1.0, c=0.3, eps=eps, workload=workload,
            drivers=driver_factory(driver_kind, eps, seed=seed),
            delay_model=UniformDelay(seed=seed),
        )
        run = run_register_experiment(
            spec, 60.0, scheduler=RandomScheduler(seed=seed)
        )
        assert run.linearizable()


class TestStatsProperties:
    @given(st.lists(st.floats(min_value=-1e6, max_value=1e6), min_size=1))
    @settings(max_examples=100)
    def test_summary_ordering(self, values):
        summary = summarize(values)
        span = max(abs(summary.minimum), abs(summary.maximum), 1.0)
        tol = 1e-9 * span  # float summation slack
        assert summary.minimum <= summary.p50 <= summary.p95 <= summary.maximum
        assert summary.minimum - tol <= summary.mean <= summary.maximum + tol
        assert summary.count == len(values)
        assert summary.stdev >= 0.0
