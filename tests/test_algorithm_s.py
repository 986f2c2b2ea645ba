"""Tests for algorithm S in the timed model (Lemma 6.2) and the naive
ablation of Section 6.2's remark."""

import pytest

from helpers import register_spec
from repro.core.pipeline import Timed
from repro.registers.system import (
    run_register_experiment,
)
from repro.registers.workload import RegisterWorkload
from repro.sim.delay import UniformDelay
from repro.sim.scheduler import RandomScheduler

D1P, D2P = 0.2, 1.0
DELTA = 0.01
EPS = 0.1


def run(algorithm, c, seed=0, ops=6, horizon=60.0):
    workload = RegisterWorkload(operations=ops, read_fraction=0.5, seed=seed)
    spec = register_spec(
        Timed(), n=3, d1=D1P, d2=D2P, c=c, workload=workload, eps=EPS,
        algorithm=algorithm, delta=DELTA, delay_model=UniformDelay(seed=seed),
    )
    return run_register_experiment(
        spec, horizon, scheduler=RandomScheduler(seed=seed)
    )


class TestLemma62:
    @pytest.mark.parametrize("c", [0.0, 0.3, 0.6])
    def test_read_bound_includes_two_eps(self, c):
        result = run("S", c, seed=1)
        assert result.max_read_latency() <= 2 * EPS + c + DELTA + 1e-9
        # reads really do wait the extra 2*eps
        assert result.max_read_latency() > 2 * EPS - 1e-9

    @pytest.mark.parametrize("c", [0.0, 0.3, 0.6])
    def test_write_bound_unchanged(self, c):
        result = run("S", c, seed=1)
        assert result.max_write_latency() <= D2P - c + 1e-9

    @pytest.mark.parametrize("seed", range(4))
    def test_superlinearizable(self, seed):
        result = run("S", 0.3, seed=seed)
        assert result.superlinearizable(EPS)

    @pytest.mark.parametrize("seed", range(3))
    def test_also_plain_linearizable(self, seed):
        # superlinearizability strengthens linearizability
        assert run("S", 0.3, seed=seed).linearizable()

    def test_algorithm_l_not_superlinearizable_with_fast_reads(self):
        """L's reads respond in c + delta < 2*eps: no valid point exists,
        demonstrating why S adds the read delay."""
        result = run("L", 0.0, seed=2)
        fast_reads = [op for op in result.reads if op.latency < 2 * EPS]
        assert fast_reads, "expected reads faster than 2*eps"
        assert not result.superlinearizable(EPS)


class TestNaiveAblation:
    def test_naive_also_superlinearizable(self):
        result = run("naive", 0.3, seed=3)
        assert result.superlinearizable(EPS)

    def test_naive_writes_pay_two_eps(self):
        judicious = run("S", 0.3, seed=4)
        naive = run("naive", 0.3, seed=4)
        assert naive.max_write_latency() <= D2P - 0.3 + 2 * EPS + 1e-9
        assert naive.max_write_latency() > judicious.max_write_latency() + EPS
        # reads cost the same in both variants
        assert naive.max_read_latency() == pytest.approx(
            judicious.max_read_latency(), abs=0.05
        )
