"""End-to-end tests of Simulation 2 (Theorems 5.1, 5.2).

The MMT register system composes both simulations: the Figure 3 process
is clock-transformed (Simulation 1) and the resulting clock machine is
run as a delayed MMT simulation (Simulation 2) against TICK inputs from
imperfect clock sources. Theorem 5.2 says the composite solves
``(P_eps)^{k*l + 2*eps + 3*l}``; since the relaxed problem is still a
linearizable-register problem (the proof note at the end of Section 6),
linearizability must survive, with latencies stretched by at most the
shift bound.
"""

import pytest

from repro.clocks.sources import (
    DriftingClockSource,
    OffsetClockSource,
    PerfectClockSource,
    QuantizedClockSource,
)
from repro.components.mmt import (
    EagerStepPolicy,
    LazyStepPolicy,
    UniformStepPolicy,
)
from repro.core.pipeline import simulation2_shift_bound
from helpers import register_spec
from repro.core.pipeline import MMT
from repro.registers.system import run_register_experiment
from repro.registers.workload import RegisterWorkload
from repro.sim.delay import UniformDelay
from repro.sim.scheduler import RandomScheduler

D1, D2 = 0.2, 1.0
DELTA = 0.01


def mixed_sources(eps):
    def make(i):
        if i % 3 == 0:
            return OffsetClockSource(eps, eps)
        if i % 3 == 1:
            return OffsetClockSource(eps, -eps)
        return DriftingClockSource(eps, 1.0 + eps / 20.0, 20.0)

    return make


def run(eps=0.05, ell=0.02, c=0.3, seed=0, policy_cls=EagerStepPolicy,
        sources=None, ops=4, horizon=70.0):
    workload = RegisterWorkload(operations=ops, read_fraction=0.5, seed=seed)
    mmt = MMT(
        eps, ell, sources or mixed_sources(eps),
        step_policy=lambda i: policy_cls() if policy_cls is not UniformStepPolicy
        else UniformStepPolicy(seed=i),
    )
    spec = register_spec(
        mmt, n=3, d1=D1, d2=D2, c=c, workload=workload, eps=eps,
        delta=DELTA, delay_model=UniformDelay(seed=seed),
    )
    return run_register_experiment(
        spec, horizon, scheduler=RandomScheduler(seed=seed), max_steps=3_000_000
    )


class TestTheorem52Register:
    @pytest.mark.parametrize("policy_cls", [EagerStepPolicy, LazyStepPolicy,
                                            UniformStepPolicy])
    def test_linearizable_across_step_policies(self, policy_cls):
        result = run(seed=1, policy_cls=policy_cls)
        assert result.linearizable()
        assert len(result.operations) >= 8

    @pytest.mark.parametrize("seed", range(3))
    def test_linearizable_across_seeds(self, seed):
        assert run(seed=seed).linearizable()

    def test_quantized_clock_sources(self):
        """Granularity: the node misses clock values, per Section 5."""
        eps, grain = 0.04, 0.02

        def sources(i):
            return QuantizedClockSource(OffsetClockSource(eps, (-1) ** i * eps), grain)

        result = run(eps=eps + grain, sources=sources, seed=2)
        assert result.linearizable()

    def test_latencies_within_shift_bound(self):
        eps, ell, c = 0.05, 0.02, 0.3
        result = run(eps=eps, ell=ell, c=c, seed=3, policy_cls=LazyStepPolicy)
        # k: outputs per node per k*l clock window. A node's burst is at
        # most n sends + 1 response = 4 actions here.
        k = 4
        shift = simulation2_shift_bound(k, ell, eps)
        read_bound = (2 * eps + DELTA + c) + 2 * eps + shift
        write_bound = (D2 + 2 * eps - c) + 2 * eps + shift
        assert result.max_read_latency() <= read_bound + 1e-9
        assert result.max_write_latency() <= write_bound + 1e-9

    def test_coarser_steps_cost_more_latency(self):
        fine = run(ell=0.01, seed=4, policy_cls=LazyStepPolicy)
        coarse = run(ell=0.2, seed=4, policy_cls=LazyStepPolicy)
        assert coarse.max_read_latency() >= fine.max_read_latency() - 1e-9

    def test_perfect_sources_still_shifted_only_forward(self):
        """Outputs can only be delayed, never hastened (P^delta)."""
        eps, ell = 0.02, 0.05
        result = run(eps=eps, ell=ell, seed=5,
                     sources=lambda i: PerfectClockSource())
        # reads never respond before their clock-model schedule
        for op in result.reads:
            assert op.latency >= 2 * eps + DELTA - 2 * eps - 1e-9
        assert result.linearizable()
