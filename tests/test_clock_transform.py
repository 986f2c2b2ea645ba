"""Tests for Simulation 1's node machinery (C(A, eps) + buffers)."""

import copy

import pytest

from helpers import EchoProcess, PingerProcess, pinger_process_factory, pinger_topology
from repro.automata.actions import Action
from repro.core.clock_transform import ClockMachine, ClockNodeEntity
from repro.core.pipeline import build_clock_system, build_timed_system
from repro.errors import TransitionError
from repro.sim.clock_drivers import (
    DriftingClockDriver,
    FastClockDriver,
    PerfectClockDriver,
    SlowClockDriver,
)
from repro.sim.delay import ConstantFractionDelay, UniformDelay

INFINITY = float("inf")


class TestClockMachine:
    def machine(self):
        return ClockMachine(PingerProcess(0, 1, count=2, interval=1.0), [1], [1])

    def test_initial_state(self):
        state = self.machine().initial_state()
        assert state.clock == 0.0
        assert 1 in state.send_buffers and 1 in state.recv_buffers

    def test_process_time_is_the_clock(self):
        machine = self.machine()
        state = machine.initial_state()
        state.clock = 1.0
        actions = machine.enabled(state)
        assert Action("PING", (0, 1)) in actions

    def test_sendmsg_routed_to_buffer_with_clock_stamp(self):
        machine = self.machine()
        state = machine.initial_state()
        state.clock = 1.0
        machine.fire(state, Action("PING", (0, 1)))
        machine.fire(state, Action("SENDMSG", (0, 1, ("ping", 1))))
        assert state.send_buffers[1].front() == (("ping", 1), 1.0)

    def test_esendmsg_enabled_and_dequeues(self):
        machine = self.machine()
        state = machine.initial_state()
        state.clock = 1.0
        machine.fire(state, Action("PING", (0, 1)))
        machine.fire(state, Action("SENDMSG", (0, 1, ("ping", 1))))
        enabled = machine.enabled(state)
        esend = Action("ESENDMSG", (0, 1, (("ping", 1), 1.0)))
        assert esend in enabled
        machine.fire(state, esend)
        assert state.send_buffers[1].front() is None

    def test_erecvmsg_buffered_then_delivered(self):
        # interval 10 so the process's own deadline stays out of the way
        machine = ClockMachine(PingerProcess(0, 1, count=2, interval=10.0), [1], [1])
        state = machine.initial_state()
        state.clock = 1.0
        machine.apply_input(state, Action("ERECVMSG", (0, 1, (("pong", 1), 2.0))))
        # stamped in the future: held
        assert machine.enabled(state) == [] or all(
            a.name != "RECVMSG" for a in machine.enabled(state)
        )
        assert machine.clock_deadline(state) == 2.0
        state.clock = 2.0
        recv = [a for a in machine.enabled(state) if a.name == "RECVMSG"]
        assert recv == [Action("RECVMSG", (0, 1, ("pong", 1)))]

    def test_recvmsg_reaches_process(self):
        machine = self.machine()
        state = machine.initial_state()
        state.clock = 2.0
        machine.apply_input(state, Action("ERECVMSG", (0, 1, (("pong", 1), 1.5))))
        machine.fire(state, Action("RECVMSG", (0, 1, ("pong", 1))))
        assert any(a.name == "GOTPONG" for a in machine.enabled(state))

    def test_send_to_missing_edge_raises(self):
        machine = ClockMachine(PingerProcess(0, 1, 1, 1.0), out_edges=[], in_edges=[])
        state = machine.initial_state()
        state.clock = 1.0
        machine.fire(state, Action("PING", (0, 1)))
        before = copy.deepcopy(state.proc_state)
        with pytest.raises(TransitionError):
            machine.fire(state, Action("SENDMSG", (0, 1, ("ping", 1))))
        # refused before the process fired: it still owes the send
        assert state.proc_state == before
        assert state.proc_state.pending_send == 1 and state.proc_state.sent == set()

    def test_clock_deadline_min_across_components(self):
        machine = self.machine()
        state = machine.initial_state()
        # process wants to ping at clock 1.0
        assert machine.clock_deadline(state) == 1.0
        machine.apply_input(state, Action("ERECVMSG", (0, 1, (("pong", 9), 0.5))))
        assert machine.clock_deadline(state) == 0.5


class TestClockNodeEntity:
    def node(self, driver):
        return ClockNodeEntity(
            ClockMachine(PingerProcess(0, 1, 2, 1.0), [1], [1]), driver
        )

    def test_signature_rewiring(self):
        node = self.node(PerfectClockDriver(0.1))
        assert node.accepts(Action("ERECVMSG", (0, 1, (("pong", 1), 0.5))))
        assert not node.accepts(Action("RECVMSG", (0, 1, ("pong", 1))))
        assert node.signature.is_output(Action("ESENDMSG", (0, 1, (("ping", 1), 1.0))))
        assert not node.signature.is_output(Action("SENDMSG", (0, 1, ("ping", 1))))
        assert node.signature.is_internal(Action("SENDMSG", (0, 1, ("ping", 1))))

    def test_deadline_through_driver(self):
        # perfect clock reaches the cap exactly at the cap
        node = self.node(PerfectClockDriver(0.25))
        state = node.initial_state()
        assert node.deadline(state, 0.0) == pytest.approx(1.0)
        # a slow clock needs until cap + eps
        node = self.node(SlowClockDriver(0.25))
        state = node.initial_state()
        assert node.deadline(state, 0.0) == pytest.approx(1.25)

    def test_advance_moves_clock(self):
        # A granularity-free driver under a process that only wakes at
        # its deadline: the engine never sends advance(); the clock moves
        # when the node is next asked anything at the new time.
        lazy = self.node(FastClockDriver(0.25))
        assert lazy.static_deadline and lazy.wakes_at_deadline
        state = lazy.initial_state()
        assert lazy.clock_value(state, 0.5) == pytest.approx(0.75)
        assert state.clock == pytest.approx(0.75)
        # the first ping is due at clock 1.0, which is real time 0.75
        assert lazy.enabled(state, 0.7) == []
        assert Action("PING", (0, 1)) in lazy.enabled(state, 0.75)
        assert state.clock == pytest.approx(1.0)

        # A drifting clock integrates over the steps it is given, so the
        # engine keeps stepping it once per time advance.
        eager = self.node(DriftingClockDriver(0.25, rho=1.1))
        assert not eager.static_deadline and not eager.wakes_at_deadline
        state = eager.initial_state()
        eager.advance(state, 0.0, 0.5)
        assert state.clock == pytest.approx(0.55)
        assert eager.clock_value(state, 0.5) == pytest.approx(0.55)
        assert eager.enabled(state, 0.5) == []
        eager.advance(state, 0.5, 1.0)  # stops at the clock deadline
        assert state.clock == pytest.approx(1.0)
        assert Action("PING", (0, 1)) in eager.enabled(state, 1.0)

    def test_clock_value_exposed(self):
        node = self.node(SlowClockDriver(0.25))
        state = node.initial_state()
        node.advance(state, 0.0, 0.5)
        assert node.clock_value(state, 0.5) == pytest.approx(0.25)


class TestLamportPropertyEndToEnd:
    """No message is received at a clock time below its send stamp."""

    @pytest.mark.parametrize("kinds", [
        (FastClockDriver, SlowClockDriver),
        (SlowClockDriver, FastClockDriver),
    ])
    def test_receive_clock_geq_send_clock(self, kinds):
        eps = 0.4
        make0, make1 = kinds

        def drivers(i):
            return make0(eps) if i == 0 else make1(eps)

        spec = build_clock_system(
            pinger_topology(),
            pinger_process_factory(5, 2.0),
            eps,
            d1=0.1,
            d2=0.5,
            drivers=drivers,
            delay_model=ConstantFractionDelay(0.0),
        )
        result = spec.run(20.0)
        sends = {}
        for record in result.recorder.events:
            if record.action.name == "ESENDMSG":
                message, stamp = record.action.params[2]
                sends[message] = stamp
            if record.action.name == "RECVMSG" and record.clock is not None:
                message = record.action.params[2]
                assert record.clock >= sends[message] - 1e-9

    def test_clock_time_delay_within_design_bounds(self):
        """Lemma 4.5: clock-time message delay in [max(0, d1-2eps), d2+2eps]."""
        eps, d1, d2 = 0.3, 0.2, 1.0
        spec = build_clock_system(
            pinger_topology(),
            pinger_process_factory(5, 2.0),
            eps,
            d1=d1,
            d2=d2,
            drivers=lambda i: FastClockDriver(eps) if i == 0 else SlowClockDriver(eps),
            delay_model=UniformDelay(seed=8),
        )
        result = spec.run(20.0)
        sends = {}
        lo, hi = max(d1 - 2 * eps, 0.0), d2 + 2 * eps
        checked = 0
        for record in result.recorder.events:
            if record.action.name == "ESENDMSG":
                message, stamp = record.action.params[2]
                sends[message] = stamp
            if record.action.name == "RECVMSG" and record.clock is not None:
                message = record.action.params[2]
                delay = record.clock - sends[message]
                assert lo - 1e-9 <= delay <= hi + 1e-9
                checked += 1
        assert checked >= 10
