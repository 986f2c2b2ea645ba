"""Tests for the discrete-event simulator."""

import pytest

from repro.automata.actions import Action, action_set
from repro.automata.signature import Signature
from repro.components.base import Entity
from repro.core.pipeline import build_timed_system
from repro.errors import ScheduleError, SimulationLimitError, TimelockError
from repro.sim.engine import Simulator

from helpers import pinger_process_factory, pinger_topology

INFINITY = float("inf")


class Beeper(Entity):
    """Emits BEEP_(name) at period, 2*period, ..."""

    def __init__(self, name, period, limit=None):
        super().__init__(name, Signature(outputs=action_set(("BEEP", (name,)))))
        self.period = period
        self.limit = limit

    def initial_state(self):
        return {"next": self.period, "count": 0}

    def enabled(self, state, now):
        if self.limit is not None and state["count"] >= self.limit:
            return []
        if abs(now - state["next"]) < 1e-9:
            return [Action("BEEP", (self.name, state["count"]))]
        return []

    def fire(self, state, action, now):
        state["count"] += 1
        state["next"] += self.period

    def deadline(self, state, now):
        if self.limit is not None and state["count"] >= self.limit:
            return INFINITY
        return state["next"]

    def apply_input(self, state, action, now):
        raise AssertionError("no inputs")


class Listener(Entity):
    def __init__(self, name, pattern):
        super().__init__(name, Signature(inputs=action_set(pattern)))
        self.heard = []

    def initial_state(self):
        return self.heard

    def enabled(self, state, now):
        return []

    def fire(self, state, action, now):
        raise AssertionError("listener fires nothing")

    def apply_input(self, state, action, now):
        state.append((action, now))


class Blocker(Entity):
    """Blocks time passage forever without enabling anything: timelock."""

    def __init__(self):
        super().__init__("blocker", Signature())

    def initial_state(self):
        return {}

    def enabled(self, state, now):
        return []

    def fire(self, state, action, now):
        raise AssertionError

    def apply_input(self, state, action, now):
        raise AssertionError

    def deadline(self, state, now):
        return 1.0  # but at now=1.0 nothing enabled -> timelock


class TestRun:
    def test_events_fire_at_deadlines(self):
        result = Simulator([Beeper("b", 1.0)]).run(3.5)
        assert [e.now for e in result.recorder.events] == [1.0, 2.0, 3.0]
        assert result.completed()

    def test_trace_contains_visible_outputs(self):
        result = Simulator([Beeper("b", 1.0)]).run(2.5)
        assert all(ev.action.name == "BEEP" for ev in result.trace)
        assert len(result.trace) == 2

    def test_hidden_actions_invisible(self):
        result = Simulator([Beeper("b", 1.0)], hidden=action_set("BEEP")).run(2.5)
        assert len(result.trace) == 0
        assert len(result.schedule) == 2

    def test_routing_to_listener(self):
        listener = Listener("hear", "BEEP")
        result = Simulator([Beeper("b", 1.0), listener]).run(2.5)
        heard = result.final_states["hear"]
        assert [a.params[1] for a, _ in heard] == [0, 1]

    def test_two_entities_interleave_by_time(self):
        result = Simulator([Beeper("x", 1.0), Beeper("y", 1.5)]).run(3.2)
        names = [(e.action.params[0], e.now) for e in result.recorder.events]
        assert names == [("x", 1.0), ("y", 1.5), ("x", 2.0), ("x", 3.0), ("y", 3.0)]

    def test_duplicate_entity_names_rejected(self):
        with pytest.raises(ScheduleError):
            Simulator([Beeper("b", 1.0), Beeper("b", 2.0)])

    def test_timelock_detected(self):
        with pytest.raises(TimelockError):
            Simulator([Blocker()]).run(5.0)

    def test_max_steps_guard(self):
        class Runaway(Entity):
            def __init__(self):
                super().__init__("run", Signature(outputs=action_set("GO")))

            def initial_state(self):
                return {}

            def enabled(self, state, now):
                return [Action("GO")]

            def fire(self, state, action, now):
                pass

            def apply_input(self, state, action, now):
                raise AssertionError

        with pytest.raises(SimulationLimitError):
            Simulator([Runaway()], max_steps=100).run(1.0)

    def test_stats_collected(self):
        result = Simulator([Beeper("b", 1.0)]).run(2.5)
        assert result.stats["actions"] == 2
        assert result.stats["time_advances"] >= 2

    def test_horizon_zero(self):
        result = Simulator([Beeper("b", 1.0)]).run(0.0)
        assert len(result.recorder) == 0

    def test_deadline_exactly_at_horizon_fires(self):
        result = Simulator([Beeper("b", 2.0)]).run(2.0)
        assert len(result.recorder) == 1


class TestInjections:
    def test_injected_inputs_delivered(self):
        listener = Listener("hear", "POKE")
        sim = Simulator([listener])
        result = sim.run(5.0, initial_inputs=[(Action("POKE", (1,)), 2.0)])
        heard = result.final_states["hear"]
        assert heard == [(Action("POKE", (1,)), 2.0)]

    def test_injections_recorded_as_environment(self):
        listener = Listener("hear", "POKE")
        result = Simulator([listener]).run(
            5.0, initial_inputs=[(Action("POKE", (1,)), 2.0)]
        )
        (record,) = result.recorder.events
        assert record.owner == "environment"

    def test_injections_in_time_order(self):
        listener = Listener("hear", "POKE")
        result = Simulator([listener]).run(
            5.0,
            initial_inputs=[
                (Action("POKE", (2,)), 3.0),
                (Action("POKE", (1,)), 1.0),
            ],
        )
        heard = result.final_states["hear"]
        assert [a.params[0] for a, _ in heard] == [1, 2]


class TestClockStampedTrace:
    def test_clockless_entities_stamp_with_now(self):
        result = Simulator([Beeper("b", 1.0)]).run(2.5)
        gamma = result.clock_trace()
        assert gamma.times() == [1.0, 2.0]


class TestEarlyStop:
    def test_stop_when_ends_run_early(self):
        spec = build_timed_system(
            pinger_topology(), pinger_process_factory(10, 1.0), 0.1, 0.5,
        )
        sim = spec.simulator()
        result = sim.run(
            100.0,
            stop_when=lambda recorder, now: recorder.count("GOTPONG") >= 3,
        )
        assert result.recorder.count("GOTPONG") == 3
        assert not result.completed()
        assert result.now < 100.0

    def test_no_stop_when_runs_to_horizon(self):
        spec = build_timed_system(
            pinger_topology(), pinger_process_factory(2, 1.0), 0.1, 0.5,
        )
        result = spec.simulator().run(10.0)
        assert result.completed()
