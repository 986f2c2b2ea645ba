"""Tests for flooding broadcast and leader election on multi-hop graphs."""

import pytest

from repro.core.pipeline import Clock, Timed
from repro.automata.actions import Action
from repro.broadcast import (
    build_flood_system,
    build_leader_system,
    deliveries,
    election_outcomes,
)
from repro.broadcast.flood import _distances, diameter
from repro.errors import SpecificationError
from repro.network.topology import Topology
from repro.sim.clock_drivers import driver_factory
from repro.sim.delay import MaximalDelay, UniformDelay

D1, D2 = 0.1, 1.0
EPS = 0.1

TOPOLOGIES = {
    "ring5": Topology.ring(5),
    "chain4": Topology.chain(4),
    "star5": Topology.star(5),
    "complete4": Topology.complete(4, self_loops=False),
}


class TestGraphHelpers:
    def test_distances(self):
        dist = _distances(Topology.chain(4), 0)
        assert dist == {0: 0, 1: 1, 2: 2, 3: 3}

    def test_diameter(self):
        assert diameter(Topology.ring(5)) == 2
        assert diameter(Topology.chain(4)) == 3
        assert diameter(Topology.star(5)) == 2
        assert diameter(Topology.complete(4, self_loops=False)) == 1

    def test_disconnected_rejected(self):
        with pytest.raises(SpecificationError):
            diameter(Topology(3, [(0, 1), (1, 0)]))


class TestFloodTimed:
    @pytest.mark.parametrize("name", sorted(TOPOLOGIES))
    def test_everyone_delivers_within_distance_bound(self, name):
        topology = TOPOLOGIES[name]
        spec = build_flood_system(
            Timed(), topology, D1, D2, delay_model=MaximalDelay(),
        )
        inject_at = 1.0
        result = spec.simulator().run(
            2.0 + diameter(topology) * D2,
            initial_inputs=[(Action("BCAST", (0, ("m", 1))), inject_at)],
        )
        delivered = deliveries(result.trace)
        dist = _distances(topology, 0)
        assert len(delivered) == topology.n
        for (node, _), time in delivered.items():
            assert time <= inject_at + dist[node] * D2 + 1e-9

    def test_each_node_delivers_exactly_once(self):
        topology = Topology.ring(4)
        spec = build_flood_system(
            Timed(), topology, D1, D2, delay_model=UniformDelay(seed=3),
        )
        result = spec.simulator().run(
            6.0, initial_inputs=[(Action("BCAST", (0, ("m", 1))), 0.5)]
        )
        deliver_events = [
            e for e in result.trace if e.action.name == "DELIVER"
        ]
        assert len(deliver_events) == 4

    def test_two_concurrent_broadcasts(self):
        topology = Topology.ring(4)
        spec = build_flood_system(
            Timed(), topology, D1, D2, delay_model=UniformDelay(seed=4),
        )
        result = spec.simulator().run(
            8.0,
            initial_inputs=[
                (Action("BCAST", (0, ("a", 1))), 0.5),
                (Action("BCAST", (2, ("b", 2))), 0.7),
            ],
        )
        delivered = deliveries(result.trace)
        assert len(delivered) == 8  # both messages at all four nodes


class TestFloodClockModel:
    @pytest.mark.parametrize("name", sorted(TOPOLOGIES))
    def test_clock_stamped_delivery_within_design_bound(self, name):
        topology = TOPOLOGIES[name]
        spec = build_flood_system(
            Clock(EPS, driver_factory("mixed", EPS, seed=5)), topology, D1,
            D2, delay_model=UniformDelay(seed=5),
        )
        inject_at = 1.0
        result = spec.simulator().run(
            3.0 + diameter(topology) * (D2 + 2 * EPS),
            initial_inputs=[(Action("BCAST", (0, ("m", 1))), inject_at)],
        )
        delivered = deliveries(result.clock_trace())
        dist = _distances(topology, 0)
        d2_design = D2 + 2 * EPS
        assert len(delivered) == topology.n
        for (node, _), stamp in delivered.items():
            # the injection reached node 0's clock within eps of inject_at
            assert stamp <= inject_at + EPS + dist[node] * d2_design + 1e-9


class TestLeaderElection:
    @pytest.mark.parametrize("name", sorted(TOPOLOGIES))
    def test_timed_agreement_and_simultaneity(self, name):
        topology = TOPOLOGIES[name]
        spec = build_leader_system(
            Timed(), topology, D1, D2, delay_model=MaximalDelay(),
        )
        result = spec.run(diameter(topology) * D2 + 2.0)
        outcomes = election_outcomes(result.trace)
        assert len(outcomes) == topology.n
        assert {leader for leader, _ in outcomes.values()} == {0}
        times = [t for _, t in outcomes.values()]
        assert max(times) - min(times) <= 1e-9  # simultaneous

    @pytest.mark.parametrize("name", sorted(TOPOLOGIES))
    def test_clock_model_agreement_within_two_eps(self, name):
        topology = TOPOLOGIES[name]
        spec = build_leader_system(
            Clock(EPS, driver_factory("mixed", EPS, seed=6)), topology, D1,
            D2, delay_model=UniformDelay(seed=6),
        )
        result = spec.run(diameter(topology) * (D2 + 2 * EPS) + 2.0)
        outcomes = election_outcomes(result.trace)
        assert len(outcomes) == topology.n
        assert {leader for leader, _ in outcomes.values()} == {0}
        times = [t for _, t in outcomes.values()]
        assert max(times) - min(times) <= 2 * EPS + 1e-9

    def test_custom_identifiers(self):
        from repro.broadcast.flood import LeaderElectProcess
        from repro.core.pipeline import build_timed_system

        topology = Topology.ring(3)
        ids = {0: "zebra", 1: "apple", 2: "mango"}

        def processes(i):
            return LeaderElectProcess(
                i, topology.out_neighbors(i), announce_at=3.0,
                identifier=ids[i],
            )

        spec = build_timed_system(topology, processes, D1, D2, MaximalDelay())
        outcomes = election_outcomes(spec.run(5.0).trace)
        assert {leader for leader, _ in outcomes.values()} == {"apple"}

    def test_announce_time_validated(self):
        from repro.broadcast.flood import LeaderElectProcess

        with pytest.raises(SpecificationError):
            LeaderElectProcess(0, [1], announce_at=0.0)
