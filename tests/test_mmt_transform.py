"""Tests for Simulation 2's node (M(A^c, l), Definition 5.1)."""

import pytest

from helpers import PingerProcess, pinger_process_factory, pinger_topology
from repro.automata.actions import Action
from repro.clocks.sources import OffsetClockSource, PerfectClockSource
from repro.components.mmt import EagerStepPolicy, LazyStepPolicy, TimedFromMMT
from repro.core.clock_transform import ClockMachine, PassThroughMachine
from repro.core.mmt_transform import DelayedSimulation
from repro.core.pipeline import build_mmt_system, simulation2_shift_bound
from repro.errors import TransitionError
from repro.sim.delay import ConstantFractionDelay

INFINITY = float("inf")


def make_node(step_bound=0.1, policy=None, count=2, interval=1.0):
    machine = ClockMachine(PingerProcess(0, 1, count, interval), [1], [1])
    return TimedFromMMT(
        DelayedSimulation(machine, step_bound),
        {DelayedSimulation.STEP: policy} if policy else None,
    )


class TestLazySimulation:
    def test_tick_only_updates_mmtclock(self):
        node = make_node()
        state = node.initial_state()
        node.apply_input(state, Action("TICK", (0, 0.7)), 0.7)
        assert state.inner.mmtclock == 0.7
        assert state.inner.machine_state.clock == 0.0  # lazy: not caught up yet

    def test_stale_tick_ignored(self):
        node = make_node()
        state = node.initial_state()
        node.apply_input(state, Action("TICK", (0, 0.7)), 0.7)
        node.apply_input(state, Action("TICK", (0, 0.5)), 0.8)
        assert state.inner.mmtclock == 0.7

    def test_catch_up_queues_outputs(self):
        node = make_node()
        state = node.initial_state()
        node.apply_input(state, Action("TICK", (0, 1.0)), 1.0)
        # a step is due: tau catches up through PING + SENDMSG (internal)
        # and queues the visible outputs
        assert node.enabled(state, 1.0)
        while node.enabled(state, 1.0):
            node.fire(state, node.enabled(state, 1.0)[0], 1.0)
        assert state.inner.machine_state.clock == pytest.approx(1.0)

    def test_outputs_fire_from_pending_in_order(self):
        node = make_node(step_bound=0.05)
        state = node.initial_state()
        node.apply_input(state, Action("TICK", (0, 1.0)), 1.0)
        fired = []
        now = 1.0
        for _ in range(20):
            enabled = node.enabled(state, now)
            if not enabled:
                now = node.deadline(state, now)
                if now == INFINITY:
                    break
                continue
            node.fire(state, enabled[0], now)
            fired.append(enabled[0].name)
        assert "PING" in fired and "ESENDMSG" in fired
        assert fired.index("PING") < fired.index("ESENDMSG")

    def test_firing_wrong_pending_output_raises(self):
        node = make_node()
        state = node.initial_state()
        with pytest.raises(TransitionError):
            node.fire(state, Action("PING", (0, 99)), 0.0)

    def test_idle_node_has_no_deadline(self):
        node = make_node(count=0)  # nothing to do, ever
        state = node.initial_state()
        assert node.enabled(state, 1.0) == []
        assert node.deadline(state, 1.0) == INFINITY

    def test_inputs_apply_at_caught_up_state(self):
        node = make_node()
        state = node.initial_state()
        node.apply_input(state, Action("TICK", (0, 2.5)), 2.5)
        # ERECVMSG applied after catch-up: machine clock reaches 2.5 first
        node.apply_input(
            state, Action("ERECVMSG", (0, 1, (("pong", 1), 2.0))), 2.5
        )
        assert state.inner.machine_state.clock == pytest.approx(2.5)

    def test_clock_value_is_simulated_clock(self):
        node = make_node()
        state = node.initial_state()
        node.apply_input(state, Action("TICK", (0, 1.5)), 1.5)
        node.fire(state, node.enabled(state, 1.5)[0], 1.5)  # tau: catch up
        assert node.clock_value(state, 1.5) == pytest.approx(1.5)

    def test_invalid_step_bound(self):
        with pytest.raises(ValueError):
            make_node(step_bound=0.0)

    def test_process_designed_for_clocks_runs_alone_under_theorem_5_1(self):
        # no Simulation 1 buffers: the process's raw SENDMSG is the output
        node = TimedFromMMT(DelayedSimulation(
            PassThroughMachine(PingerProcess(0, 1, 2, 1.0)), 0.1
        ))
        assert node.signature.is_output(Action("SENDMSG", (0, 1, ("ping", 1))))
        assert node.signature.is_input(Action("TICK", (0, 1.0)))
        state = node.initial_state()
        for clock in (0.5, 1.0):
            node.apply_input(state, Action("TICK", (0, clock)), clock)
        fired = []
        while node.enabled(state, 1.0):
            action = node.enabled(state, 1.0)[0]
            node.fire(state, action, 1.0)
            fired.append(action.name)
        assert fired == ["TAU", "PING", "SENDMSG"]


class TestShiftBound:
    def test_formula(self):
        assert simulation2_shift_bound(2, 0.1, 0.05) == pytest.approx(
            2 * 0.1 + 2 * 0.05 + 3 * 0.1
        )

    @pytest.mark.parametrize("policy_cls", [EagerStepPolicy, LazyStepPolicy])
    def test_end_to_end_outputs_within_shift_bound(self, policy_cls):
        """Theorem 5.1: each D_M output is at most the shift bound later
        than its clock-model schedule (clock stamps approximate this)."""
        eps, ell = 0.05, 0.05
        spec = build_mmt_system(
            pinger_topology(),
            pinger_process_factory(4, 2.0),
            eps=eps,
            d1=0.2,
            d2=1.0,
            step_bound=ell,
            sources=lambda i: OffsetClockSource(eps, eps if i == 0 else -eps),
            step_policy_factory=lambda i: policy_cls(),
            delay_model=ConstantFractionDelay(0.5),
        )
        result = spec.run(20.0)
        # The pinger schedules PING k at clock time 2k; the MMT node must
        # emit it within the shift bound of (clock time ~ real time +- eps).
        k_rate = 3  # sends come in bursts of <= 3 per k*l window here
        bound = simulation2_shift_bound(k_rate, ell, eps)
        pings = [e for e in result.recorder.events if e.action.name == "PING"]
        assert len(pings) == 4
        for record in pings:
            k = record.action.params[1]
            scheduled_clock = 2.0 * k
            # real emission time vs the scheduled clock instant
            assert record.now >= scheduled_clock - eps - 1e-9
            assert record.now <= scheduled_clock + eps + bound + 1e-9
