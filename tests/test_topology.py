"""Tests for the topology graph."""

import pytest

from repro.errors import SpecificationError
from repro.network.topology import Topology


class TestConstruction:
    def test_edges_validated(self):
        with pytest.raises(SpecificationError):
            Topology(2, [(0, 5)])

    def test_at_least_one_node(self):
        with pytest.raises(SpecificationError):
            Topology(0, [])

    def test_duplicate_edges_collapse(self):
        topo = Topology(2, [(0, 1), (0, 1)])
        assert len(topo.edges) == 1


class TestGenerators:
    def test_complete_with_self_loops(self):
        topo = Topology.complete(3, self_loops=True)
        assert len(topo.edges) == 9
        assert topo.has_edge(1, 1)

    def test_complete_without_self_loops(self):
        topo = Topology.complete(3, self_loops=False)
        assert len(topo.edges) == 6
        assert not topo.has_edge(0, 0)

    def test_ring(self):
        topo = Topology.ring(4, bidirectional=False)
        assert topo.has_edge(3, 0)
        assert not topo.has_edge(0, 3)

    def test_ring_bidirectional(self):
        topo = Topology.ring(3)
        assert topo.has_edge(0, 1) and topo.has_edge(1, 0)

    def test_star(self):
        topo = Topology.star(4)
        assert topo.has_edge(0, 3) and topo.has_edge(3, 0)
        assert not topo.has_edge(1, 2)

    def test_chain(self):
        topo = Topology.chain(3, bidirectional=False)
        assert topo.has_edge(0, 1) and topo.has_edge(1, 2)
        assert not topo.has_edge(2, 1)


class TestQueries:
    def test_neighbors(self):
        topo = Topology(3, [(0, 1), (0, 2), (1, 0)])
        assert topo.out_neighbors(0) == [1, 2]
        assert topo.in_neighbors(0) == [1]

    @pytest.mark.parametrize("topo", [
        Topology.ring(5),
        Topology.ring(4, bidirectional=False),
        Topology.star(5),
        Topology.complete(4),
        Topology.complete(3, self_loops=False),
        # irregular: a sink, a source, a self-loop, an isolated node
        Topology(6, [(0, 3), (3, 0), (2, 3), (4, 4), (0, 4), (4, 1), (2, 1)]),
    ], ids=["ring", "ring-one-way", "star", "complete", "complete-loopless",
            "irregular"])
    def test_neighbors_match_a_scan_of_every_edge(self, topo):
        for i in range(-1, topo.n + 1):
            assert topo.out_neighbors(i) == sorted(
                j for (src, j) in topo.edges if src == i
            )
            assert topo.in_neighbors(i) == sorted(
                src for (src, j) in topo.edges if j == i
            )

    def test_neighbor_lists_are_copies(self):
        topo = Topology(3, [(0, 1), (0, 2), (1, 0)])
        topo.out_neighbors(0).append(7)
        topo.in_neighbors(0).clear()
        assert topo.out_neighbors(0) == [1, 2]
        assert topo.in_neighbors(0) == [1]

    def test_equality_and_hash(self):
        assert Topology(2, [(0, 1)]) == Topology(2, [(0, 1)])
        assert hash(Topology(2, [(0, 1)])) == hash(Topology(2, [(0, 1)]))
        assert Topology(2, [(0, 1)]) != Topology(2, [(1, 0)])
