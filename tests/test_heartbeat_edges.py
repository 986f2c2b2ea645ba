"""Heartbeat detector edge cases: give-up, exact timeout, timeout=0."""

import pytest

from repro.core.pipeline import Clock
from repro.automata.actions import Action
from repro.components.base import ProcessContext
from repro.detector.heartbeat import (
    DeadlineMonitor,
    HeartbeatSender,
    build_detector_system,
    detector_timeout,
)
from repro.sim.clock_drivers import FastClockDriver, SlowClockDriver
from repro.sim.delay import MaximalDelay

INFINITY = float("inf")


def hb(k):
    return Action("RECVMSG", (1, 0, ("hb", k)))


class TestGiveUpEdgeCases:
    def monitor(self, timeout=1.2, count=3):
        return DeadlineMonitor(1, 2.0, timeout, count)

    def test_late_heartbeat_after_suspect_is_absorbed(self):
        monitor = self.monitor()
        state = monitor.initial_state()
        ctx = ProcessContext(3.2)  # beat 1's deadline: 1*2 + 1.2
        (suspect,) = monitor.enabled(state, ctx)
        assert suspect == Action("SUSPECT", (1, 1))
        monitor.fire(state, suspect, ctx)
        assert state.suspicions == [1]
        assert state.expected == 2  # gave up on 1, moved on
        # the heartbeat it gave up on finally arrives
        monitor.apply_input(state, hb(1), ProcessContext(3.5))
        # no regression, no re-suspicion, the schedule is unchanged
        assert state.expected == 2
        assert monitor.enabled(state, ProcessContext(3.5)) == []
        assert monitor.deadline(state, ProcessContext(3.5)) == pytest.approx(5.2)

    def test_give_up_does_not_block_later_beats(self):
        monitor = self.monitor()
        state = monitor.initial_state()
        monitor.fire(state, Action("SUSPECT", (1, 1)), ProcessContext(3.2))
        monitor.apply_input(state, hb(2), ProcessContext(4.3))
        assert state.expected == 3
        assert state.suspicions == [1]

    def test_out_of_order_heartbeats_after_give_up(self):
        monitor = self.monitor()
        state = monitor.initial_state()
        monitor.fire(state, Action("SUSPECT", (1, 1)), ProcessContext(3.2))
        monitor.apply_input(state, hb(3), ProcessContext(4.0))
        assert state.expected == 2  # still waiting on 2
        monitor.apply_input(state, hb(2), ProcessContext(4.1))
        assert state.expected == 4  # jumps over the already-received 3
        # all beats accounted for: the monitor retires
        assert monitor.enabled(state, ProcessContext(9.9)) == []
        assert monitor.deadline(state, ProcessContext(9.9)) == INFINITY

    def test_suspicion_boundary_is_exact(self):
        monitor = self.monitor()
        state = monitor.initial_state()
        assert monitor.enabled(state, ProcessContext(3.1999999)) == []
        assert monitor.enabled(state, ProcessContext(3.2)) == [
            Action("SUSPECT", (1, 1))
        ]

    def test_timeout_zero_suspects_at_the_due_instant(self):
        monitor = self.monitor(timeout=0.0)
        state = monitor.initial_state()
        assert monitor.deadline(state, ProcessContext(0.0)) == pytest.approx(2.0)
        assert monitor.enabled(state, ProcessContext(1.9)) == []
        assert monitor.enabled(state, ProcessContext(2.0)) == [
            Action("SUSPECT", (1, 1))
        ]

    def test_negative_timeout_rejected(self):
        with pytest.raises(ValueError):
            DeadlineMonitor(1, 2.0, -0.1, 3)


class TestSenderEdgeCases:
    def test_retires_after_count(self):
        sender = HeartbeatSender(0, 1, 2.0, count=1)
        state = sender.initial_state()
        sender.fire(state, Action("BEAT", (0, 1)), ProcessContext(2.0))
        sender.fire(
            state, Action("SENDMSG", (0, 1, ("hb", 1))), ProcessContext(2.0)
        )
        assert sender.enabled(state, ProcessContext(4.0)) == []
        assert sender.deadline(state, ProcessContext(4.0)) == INFINITY

    def test_overdue_beats_fire_late(self):
        # crash–recovery can resume the clock past a due time; the
        # overdue beat must still be enabled (not equality-gated)
        sender = HeartbeatSender(0, 1, 2.0, count=3)
        state = sender.initial_state()
        assert sender.enabled(state, ProcessContext(5.0)) == [
            Action("BEAT", (0, 1))
        ]


class TestExactTimeoutBoundary:
    """Theorem 4.7's rule ``timeout = d2 + 2*eps`` is exactly tight."""

    def build(self, timeout, eps=0.15, d1=0.1, d2=1.0):
        # worst-case adversary: slow sender (beats depart as late as
        # possible), fast monitor (deadlines fire as early as possible),
        # every message at the maximal delay
        def drivers(i):
            return SlowClockDriver(eps) if i == 0 else FastClockDriver(eps)

        return build_detector_system(
            Clock(eps, drivers), 2.0, timeout, 8, d1, d2,
            delay_model=MaximalDelay(),
        )

    def test_timeout_exactly_at_the_bound_never_false_suspects(self):
        result = self.build(detector_timeout(1.0, 0.15)).run(30.0)
        assert not [e for e in result.trace if e.action.name == "SUSPECT"]

    def test_timeout_inside_the_guard_false_suspects(self):
        # strictly below d2 + 2*eps the adversary wins: the beat is in
        # flight when the monitor's deadline fires
        result = self.build(detector_timeout(1.0, 0.15) - 0.1).run(30.0)
        assert [e for e in result.trace if e.action.name == "SUSPECT"]
