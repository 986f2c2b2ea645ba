"""Register edge cases: boundary parameters, contention, scale."""

import pytest

from helpers import register_spec
from repro.core.pipeline import Timed
from repro.registers.system import (
    clock_register_system,
    run_register_experiment,
)
from repro.registers.workload import RegisterWorkload
from repro.sim.clock_drivers import driver_factory
from repro.sim.delay import UniformDelay
from repro.sim.scheduler import RandomScheduler

D1P, D2P = 0.2, 1.0
DELTA = 0.01


def run_timed(c, seed=0, n=3, ops=5, read_fraction=0.5, think=(0.5, 2.0),
              horizon=60.0, algorithm="L", eps=0.0):
    workload = RegisterWorkload(
        operations=ops, read_fraction=read_fraction, seed=seed,
        think_min=think[0], think_max=think[1],
    )
    spec = register_spec(
        Timed(), n=n, d1=D1P, d2=D2P, c=c, workload=workload, eps=eps,
        algorithm=algorithm, delta=DELTA, delay_model=UniformDelay(seed=seed),
    )
    return run_register_experiment(
        spec, horizon, scheduler=RandomScheduler(seed=seed)
    )


class TestBoundaryParameters:
    def test_c_equals_zero(self):
        run = run_timed(0.0, seed=1)
        assert run.linearizable()
        assert run.max_read_latency() <= DELTA + 1e-9

    def test_c_at_upper_design_limit(self):
        """c = d2' - 2*eps with eps=0: writes complete instantly-ish."""
        run = run_timed(D2P, seed=2)
        assert run.linearizable()
        assert run.max_write_latency() <= 1e-9

    def test_single_node(self):
        run = run_timed(0.3, seed=3, n=1)
        assert run.linearizable()
        assert len(run.operations) == 5

    def test_two_nodes(self):
        assert run_timed(0.3, seed=4, n=2).linearizable()

    def test_six_nodes(self):
        run = run_timed(0.3, seed=5, n=6, ops=3, horizon=80.0)
        assert run.linearizable()
        assert len(run.operations) >= 12


class TestWorkloadExtremes:
    def test_all_reads(self):
        run = run_timed(0.3, seed=6, read_fraction=1.0)
        assert run.writes == []
        assert run.linearizable()
        # all reads must return the initial value
        values = {op.value for op in run.reads}
        assert len(values) == 1

    def test_all_writes(self):
        run = run_timed(0.3, seed=7, read_fraction=0.0)
        assert run.reads == []
        assert run.linearizable()

    def test_zero_think_time_contention(self):
        run = run_timed(0.3, seed=8, think=(0.0, 0.0), ops=6)
        assert run.linearizable()
        assert len(run.operations) == 18

    def test_contention_in_clock_model(self):
        eps = 0.15
        workload = RegisterWorkload(
            operations=5, read_fraction=0.5, seed=9,
            think_min=0.0, think_max=0.1,
        )
        spec = clock_register_system(
            n=4, d1=0.2, d2=1.0, c=0.3, eps=eps, workload=workload,
            drivers=driver_factory("mixed", eps, seed=9),
            delay_model=UniformDelay(seed=9),
        )
        run = run_register_experiment(
            spec, 80.0, scheduler=RandomScheduler(seed=9)
        )
        assert run.linearizable()
        assert len(run.operations) == 20


class TestConcurrentWritesSameInstant:
    def test_simultaneous_writes_tie_break(self):
        """All clients write at t=0 (zero start delay, zero think):
        updates collide at the same apply instant; the largest sender
        must win everywhere, and the history stays linearizable."""
        workload = RegisterWorkload(
            operations=1, read_fraction=0.0, seed=10,
            think_min=0.0, think_max=0.0, start_delay=0.0,
        )
        spec = register_spec(
            Timed(), n=4, d1=D1P, d2=D2P, c=0.3, workload=workload,
            algorithm="L", delay_model=UniformDelay(seed=10),
        )
        run = run_register_experiment(spec, 20.0)
        assert len(run.writes) == 4
        assert run.linearizable()
        # after quiescence every replica holds the same value
        values = set()
        for name, state in run.result.final_states.items():
            if name.startswith("L(") and hasattr(state, "value"):
                values.add(state.value)
        assert len(values) == 1

    def test_reader_at_write_instant(self):
        """A read whose deadline coincides with an update instant must
        see the post-update value (Figure 3's RETURN guard)."""
        run = run_timed(0.3, seed=11, think=(0.0, 0.0), ops=8, n=3)
        assert run.linearizable()
