"""Tests for the engine's strict signature validation."""

import pytest

from repro.automata.actions import Action, action_set
from repro.automata.signature import Signature
from repro.components.base import Entity
from repro.errors import ScheduleError
from repro.sim.engine import Simulator


class Misbehaving(Entity):
    """Offers an action outside its declared outputs."""

    def __init__(self):
        super().__init__("bad", Signature(outputs=action_set("GOOD")))

    def initial_state(self):
        return {"fired": False}

    def enabled(self, state, now):
        return [] if state["fired"] else [Action("ROGUE", (0,))]

    def fire(self, state, action, now):
        state["fired"] = True

    def apply_input(self, state, action, now):
        raise AssertionError


class WellBehaved(Entity):
    def __init__(self):
        super().__init__("good", Signature(outputs=action_set("GOOD")))
        self.fired = 0

    def initial_state(self):
        return {"fired": False}

    def enabled(self, state, now):
        return [] if state["fired"] else [Action("GOOD", (0,))]

    def fire(self, state, action, now):
        state["fired"] = True

    def apply_input(self, state, action, now):
        raise AssertionError


class TestStrictMode:
    def test_rogue_action_caught(self):
        with pytest.raises(ScheduleError):
            Simulator([Misbehaving()], strict=True).run(1.0)

    def test_rogue_action_tolerated_by_default(self):
        result = Simulator([Misbehaving()]).run(0.5)
        assert result.recorder.count("ROGUE") >= 1

    def test_well_behaved_passes_strict(self):
        result = Simulator([WellBehaved()], strict=True).run(1.0)
        assert result.recorder.count("GOOD") == 1

    def test_register_system_passes_strict(self):
        from helpers import register_spec
        from repro.core.pipeline import Timed
        from repro.registers.workload import RegisterWorkload

        spec = register_spec(
            Timed(), n=2, d1=0.2, d2=1.0, c=0.3,
            workload=RegisterWorkload(operations=3, seed=1), algorithm="L",
        )
        simulator = spec.simulator()
        simulator.strict = True
        result = simulator.run(30.0)
        assert result.completed()

    def test_clock_system_passes_strict(self):
        from helpers import pinger_process_factory, pinger_topology
        from repro.core.pipeline import build_clock_system
        from repro.sim.clock_drivers import driver_factory

        spec = build_clock_system(
            pinger_topology(), pinger_process_factory(3, 1.0), 0.1,
            0.1, 0.8, driver_factory("mixed", 0.1),
        )
        simulator = spec.simulator()
        simulator.strict = True
        assert simulator.run(10.0).completed()
