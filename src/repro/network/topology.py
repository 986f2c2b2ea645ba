"""Distributed-system topology (Section 2.4).

A distributed system's shape is a directed graph ``(V, E)``: nodes
communicate only over the unidirectional links in ``E``. This module
provides a small immutable graph with the constructors the paper's
examples need (complete graphs with self-loops for the register
algorithms, rings, stars, chains).

Note that algorithm ``S`` (Figure 3) sends update messages to *all*
processors **including the sender itself**, so register topologies
include self-edges ``(i, i)``.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, Tuple

from repro.errors import SpecificationError

Edge = Tuple[int, int]


class Topology:
    """An immutable directed graph on nodes ``0 .. n-1``."""

    def __init__(self, n: int, edges: Iterable[Edge]):
        if n <= 0:
            raise SpecificationError("a topology needs at least one node")
        edge_set = frozenset((int(i), int(j)) for i, j in edges)
        out: Dict[int, List[int]] = {}
        into: Dict[int, List[int]] = {}
        for i, j in sorted(edge_set):
            if not (0 <= i < n and 0 <= j < n):
                raise SpecificationError(f"edge ({i}, {j}) out of range for n={n}")
            out.setdefault(i, []).append(j)
            into.setdefault(j, []).append(i)
        self.n = n
        self.edges: FrozenSet[Edge] = edge_set
        # sorted adjacency, built in edge order: both lists come out sorted
        self._out = out
        self._in = into

    # -- constructors --------------------------------------------------------

    @classmethod
    def complete(cls, n: int, self_loops: bool = True) -> "Topology":
        """All ordered pairs; with ``self_loops`` include ``(i, i)``.

        The register algorithms broadcast updates to every processor
        including the sender, so they run on ``complete(n, True)``.
        """
        edges = [
            (i, j)
            for i in range(n)
            for j in range(n)
            if self_loops or i != j
        ]
        return cls(n, edges)

    @classmethod
    def ring(cls, n: int, bidirectional: bool = True) -> "Topology":
        edges: List[Edge] = []
        for i in range(n):
            edges.append((i, (i + 1) % n))
            if bidirectional:
                edges.append(((i + 1) % n, i))
        return cls(n, edges)

    @classmethod
    def star(cls, n: int) -> "Topology":
        """Node 0 is the hub; spokes are bidirectional."""
        edges: List[Edge] = []
        for i in range(1, n):
            edges.append((0, i))
            edges.append((i, 0))
        return cls(n, edges)

    @classmethod
    def chain(cls, n: int, bidirectional: bool = True) -> "Topology":
        edges: List[Edge] = []
        for i in range(n - 1):
            edges.append((i, i + 1))
            if bidirectional:
                edges.append((i + 1, i))
        return cls(n, edges)

    # -- queries ----------------------------------------------------------------

    def nodes(self) -> range:
        """The node indices ``0 .. n-1``."""
        return range(self.n)

    def out_neighbors(self, i: int) -> List[int]:
        """Destinations of edges leaving ``i``, sorted."""
        return list(self._out.get(i, ()))

    def in_neighbors(self, i: int) -> List[int]:
        """Sources of edges entering ``i``, sorted."""
        return list(self._in.get(i, ()))

    def has_edge(self, i: int, j: int) -> bool:
        """Whether the directed edge ``(i, j)`` exists."""
        return (i, j) in self.edges

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Topology):
            return NotImplemented
        return self.n == other.n and self.edges == other.edges

    def __hash__(self) -> int:
        return hash((self.n, self.edges))

    def __repr__(self) -> str:
        return f"Topology(n={self.n}, |E|={len(self.edges)})"
