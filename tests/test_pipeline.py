"""Tests for the lowerings and guarantee bookkeeping."""

import pytest

from helpers import pinger_process_factory, pinger_topology
from repro.automata.actions import Action
from repro.core.clock_transform import PassThroughMachine
from repro.core.pipeline import (
    MMT,
    Clock,
    Design,
    Timed,
    build_clock_system,
    build_timed_system,
    lower,
    simulation1_delay_bounds,
    simulation2_shift_bound,
)
from repro.clocks.sources import PerfectClockSource
from repro.faults.lossy_channel import LossyChannelEntity
from repro.faults.models import BernoulliFaults
from repro.sim.clock_drivers import PerfectClockDriver
from repro.sim.delay import MinimalDelay


def _pinger(pings=1):
    return Design(pinger_topology(), pinger_process_factory(pings, 1.0), 0.1, 1.0)


def _perfect(i):
    return PerfectClockDriver(0.1)


LOWERINGS = {
    "timed": Timed(),
    "clock": Clock(0.1, _perfect),
    "native": Clock(0.1, _perfect, machine=PassThroughMachine),
    "mmt": MMT(0.1, 0.05, lambda i: PerfectClockSource()),
}


class TestBounds:
    def test_simulation1_widening(self):
        assert simulation1_delay_bounds(0.5, 2.0, 0.1) == (0.3, 2.2)

    def test_simulation1_floor_at_zero(self):
        assert simulation1_delay_bounds(0.1, 2.0, 0.2) == (0.0, 2.4)

    def test_simulation1_zero_eps_identity(self):
        assert simulation1_delay_bounds(0.5, 2.0, 0.0) == (0.5, 2.0)

    def test_simulation2_shift(self):
        assert simulation2_shift_bound(3, 0.1, 0.05) == pytest.approx(
            3 * 0.1 + 0.1 + 0.3
        )

    def test_each_lowering_owns_its_design_bounds(self):
        widened = simulation1_delay_bounds(0.5, 2.0, 0.1)
        assert LOWERINGS["timed"].design_bounds(0.5, 2.0) == (0.5, 2.0)
        assert LOWERINGS["native"].design_bounds(0.5, 2.0) == (0.5, 2.0)
        assert LOWERINGS["clock"].design_bounds(0.5, 2.0) == widened
        assert LOWERINGS["mmt"].design_bounds(0.5, 2.0) == widened


class TestBuilders:
    def test_timed_entities(self):
        spec = lower(_pinger(), Timed())
        names = {e.name for e in spec.entities}
        assert "pinger(0)" in names and "echo(1)" in names
        assert "chan[0->1]" in names and "chan[1->0]" in names
        assert set(spec.node_entities) == {0, 1}

    def test_clock_entities(self):
        spec = lower(_pinger(), LOWERINGS["clock"])
        names = {e.name for e in spec.entities}
        assert "pinger(0)^c" in names
        assert any(name.startswith("chan[0->1]") for name in names)

    def test_native_clock_entities(self):
        spec = lower(_pinger(), LOWERINGS["native"])
        assert any("@clock" in e.name for e in spec.entities)

    def test_mmt_entities_include_ticks(self):
        spec = lower(_pinger(), LOWERINGS["mmt"])
        names = {e.name for e in spec.entities}
        assert "tick(0)" in names and "tick(1)" in names
        assert "pinger(0)^m" in names

    def test_hidden_sets(self):
        timed = lower(_pinger(), Timed())
        assert Action("SENDMSG", (0, 1, "m")) in timed.hidden
        assert Action("PING", (0, 1)) not in timed.hidden

        clock = lower(_pinger(), LOWERINGS["clock"])
        assert Action("ESENDMSG", (0, 1, ("m", 1.0))) in clock.hidden

        mmt = lower(_pinger(), LOWERINGS["mmt"])
        assert Action("TICK", (0, 1.0)) in mmt.hidden

    def test_labels(self):
        labels = {
            name: lower(_pinger(), lowering).label
            for name, lowering in LOWERINGS.items()
        }
        assert labels == {
            "timed": "D_T[0.1,1]",
            "clock": "D_C[0.1,1] eps=0.1",
            "native": "native-clock[0.1,1] eps=0.1",
            "mmt": "D_M[0.1,1] eps=0.1 l=0.05",
        }

    @pytest.mark.parametrize("name", sorted(LOWERINGS))
    def test_fault_model_reaches_every_lowering(self, name):
        spec = lower(
            _pinger(), LOWERINGS[name],
            fault_model=BernoulliFaults(seed=1, p_drop=0.5),
        )
        channels = [e for e in spec.entities if isinstance(e, LossyChannelEntity)]
        assert len(channels) == 2

    def test_bindings_are_the_timed_and_clock_lowerings(self):
        timed = build_timed_system(
            pinger_topology(), pinger_process_factory(1, 1.0), 0.1, 1.0
        )
        clock = build_clock_system(
            pinger_topology(), pinger_process_factory(1, 1.0), 0.1,
            0.1, 1.0, _perfect,
        )
        assert [e.name for e in timed.entities] == [
            e.name for e in lower(_pinger(), Timed()).entities
        ]
        assert [e.name for e in clock.entities] == [
            e.name for e in lower(_pinger(), LOWERINGS["clock"]).entities
        ]


class TestSystemSpec:
    def make(self):
        return lower(_pinger(pings=2), Timed(), MinimalDelay())

    def test_add_returns_new_spec(self):
        spec = self.make()
        from repro.components.base import Entity
        from repro.automata.signature import Signature

        class Dummy(Entity):
            def __init__(self):
                super().__init__("dummy", Signature())

            def initial_state(self):
                return {}

            def enabled(self, state, now):
                return []

            def fire(self, state, action, now):
                raise AssertionError

            def apply_input(self, state, action, now):
                raise AssertionError

        extended = spec.add(Dummy())
        assert len(extended.entities) == len(spec.entities) + 1
        assert len(spec.entities) == 4  # original untouched (2 nodes, 2 channels)

    def test_run_convenience(self):
        result = self.make().run(5.0)
        assert result.completed()
        assert result.recorder.count("PING") == 2

    def test_max_steps_threading(self):
        from repro.errors import SimulationLimitError

        with pytest.raises(SimulationLimitError):
            self.make().run(5.0, max_steps=1)
