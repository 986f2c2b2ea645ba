"""Metamorphic test: the whole stack is time-scale invariant.

Scaling every time parameter of a system (delays, c, delta, think
times) by a constant ``k`` must scale every event time and latency by
exactly ``k`` — there are no hidden absolute time constants anywhere in
the engine, channels, or algorithms. A strong whole-stack regression
check: any buried magic number breaks it.
"""

import pytest

from helpers import register_spec
from repro.core.pipeline import Timed
from repro.registers.system import (
    run_register_experiment,
)
from repro.registers.workload import RegisterWorkload
from repro.sim.delay import ConstantFractionDelay
from repro.sim.scheduler import DeterministicScheduler


def run_scaled(k, seed=3, ops=4):
    workload = RegisterWorkload(
        operations=ops, read_fraction=0.5, seed=seed,
        think_min=0.5 * k, think_max=0.5 * k,  # constant: keep RNG draws equal
    )
    spec = register_spec(
        Timed(), n=3, d1=0.2 * k, d2=1.0 * k, c=0.3 * k, workload=workload,
        algorithm="L", delta=0.01 * k, delay_model=ConstantFractionDelay(0.5),
    )
    return run_register_experiment(
        spec, 60.0 * k, scheduler=DeterministicScheduler()
    )


class TestTimeScaleInvariance:
    @pytest.mark.parametrize("k", [2.0, 0.5, 10.0])
    def test_event_times_scale_linearly(self, k):
        base = run_scaled(1.0)
        scaled = run_scaled(k)
        base_events = base.result.recorder.events
        scaled_events = scaled.result.recorder.events
        assert len(base_events) == len(scaled_events)
        for b, s in zip(base_events, scaled_events):
            assert b.action.name == s.action.name
            assert s.now == pytest.approx(b.now * k, rel=1e-9, abs=1e-9)

    @pytest.mark.parametrize("k", [2.0, 0.5])
    def test_latencies_scale_linearly(self, k):
        base = run_scaled(1.0)
        scaled = run_scaled(k)
        assert scaled.max_read_latency() == pytest.approx(
            base.max_read_latency() * k
        )
        assert scaled.max_write_latency() == pytest.approx(
            base.max_write_latency() * k
        )

    def test_correctness_invariant_under_scaling(self):
        for k in (0.25, 5.0):
            assert run_scaled(k).linearizable()
