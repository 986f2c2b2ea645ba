"""Tests for the [10]-style slotted baseline register (Section 6.3)."""

import pytest

from helpers import register_spec
from repro.core.clock_transform import PassThroughMachine
from repro.core.pipeline import Clock
from repro.registers.baseline import SlottedRegisterProcess
from repro.registers.system import (
    clock_register_system,
    run_register_experiment,
)
from repro.registers.workload import RegisterWorkload
from repro.sim.clock_drivers import driver_factory
from repro.sim.delay import MaximalDelay, MinimalDelay, UniformDelay
from repro.sim.scheduler import RandomScheduler
from repro.automata.actions import Action
from repro.components.base import ProcessContext

D1, D2 = 0.2, 1.0
EPS = 0.1
U = 2 * EPS


def run_baseline(seed=0, driver_kind="mixed", delay_model=None, ops=5,
                 horizon=80.0, eps=EPS):
    workload = RegisterWorkload(operations=ops, read_fraction=0.5, seed=seed)
    native = Clock(
        eps, driver_factory(driver_kind, eps, seed=seed),
        machine=PassThroughMachine,
    )
    spec = register_spec(
        native, n=3, d1=D1, d2=D2, c=0.0, workload=workload, eps=eps,
        algorithm="slotted",
        delay_model=delay_model or UniformDelay(seed=seed),
    )
    return run_register_experiment(
        spec, horizon, scheduler=RandomScheduler(seed=seed)
    )


class TestUnitTransitions:
    def process(self):
        return SlottedRegisterProcess(0, [0, 1, 2], D2, U)

    def test_slot_width_validated(self):
        with pytest.raises(ValueError):
            SlottedRegisterProcess(0, [0], D2, 0.0)

    def test_write_targets_slot_boundary(self):
        proc = self.process()
        state = proc.initial_state()
        proc.apply_input(state, Action("WRITE", (0, "v")), ProcessContext(1.07))
        slot = state.apply_slot
        assert slot % U == pytest.approx(0.0, abs=1e-9)
        assert slot >= 1.07 + D2 + U - 1e-9
        assert slot < 1.07 + D2 + 2 * U

    def test_read_schedule(self):
        proc = self.process()
        state = proc.initial_state()
        proc.apply_input(state, Action("READ", (0,)), ProcessContext(2.0))
        assert state.snap_time == pytest.approx(2.0 + 2 * U)
        assert state.resp_time == pytest.approx(2.0 + 4 * U)

    def test_same_slot_largest_sender_wins(self):
        proc = self.process()
        state = proc.initial_state()
        ctx = ProcessContext(0.0)
        proc.apply_input(state, Action("RECVMSG", (0, 1, ("a", 2.0))), ctx)
        proc.apply_input(state, Action("RECVMSG", (0, 2, ("b", 2.0))), ctx)
        assert state.pending[2.0] == (2, "b")

    def test_apply_at_slot(self):
        proc = self.process()
        state = proc.initial_state()
        proc.apply_input(
            state, Action("RECVMSG", (0, 1, ("v", 2.0))), ProcessContext(1.5)
        )
        ctx = ProcessContext(2.0)
        (apply_action,) = [
            a for a in proc.enabled(state, ctx) if a.name == proc.APPLY
        ]
        proc.fire(state, apply_action, ctx)
        assert state.value == "v"


class TestSectionSixThreeBounds:
    @pytest.mark.parametrize("seed", range(4))
    def test_linearizable(self, seed):
        assert run_baseline(seed=seed).linearizable()

    @pytest.mark.parametrize(
        "driver_kind", ["perfect", "fast", "slow", "mixed", "random"]
    )
    def test_linearizable_across_drivers(self, driver_kind):
        assert run_baseline(seed=2, driver_kind=driver_kind).linearizable()

    @pytest.mark.parametrize(
        "delay_model", [MinimalDelay(), MaximalDelay()],
        ids=lambda d: type(d).__name__,
    )
    def test_linearizable_across_delays(self, delay_model):
        assert run_baseline(seed=3, delay_model=delay_model).linearizable()

    def test_read_latency_is_4u(self):
        result = run_baseline(seed=1)
        # clock-time latency 4u; +2*eps real-time stretch = 5u here
        assert result.max_read_latency() <= 4 * U + 2 * EPS + 1e-9
        assert result.max_read_latency() >= 4 * U - 2 * EPS - 1e-9

    def test_write_latency_at_most_d2_plus_3u(self):
        result = run_baseline(seed=1)
        assert result.max_write_latency() <= D2 + 2 * U + 2 * EPS + 1e-9


class TestComparison:
    def test_transformed_s_beats_baseline_on_combined_latency(self):
        """The Section 6.3 comparison: combined read+write cost
        d2 + 2u (ours) vs d2 + 7u ([10]-style) in clock time."""
        eps = 0.1
        seed = 5
        workload = RegisterWorkload(operations=6, read_fraction=0.5, seed=seed)
        ours_spec = clock_register_system(
            n=3, d1=D1, d2=D2, c=0.1, eps=eps, workload=workload,
            drivers=driver_factory("mixed", eps, seed=seed),
            delay_model=UniformDelay(seed=seed),
        )
        ours = run_register_experiment(
            ours_spec, 80.0, scheduler=RandomScheduler(seed=seed)
        )
        theirs = run_baseline(seed=seed)
        ours_combined = ours.max_read_latency() + ours.max_write_latency()
        theirs_combined = theirs.max_read_latency() + theirs.max_write_latency()
        assert ours.linearizable() and theirs.linearizable()
        assert ours_combined < theirs_combined
