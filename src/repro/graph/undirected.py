"""A dynamic, simple, undirected graph built on adjacency sets.

This is the substrate every algorithm in the library runs on.  It is
deliberately small and explicit: vertices are arbitrary hashables, edges are
canonical 2-tuples (see :mod:`repro.graph.edge`), and all mutating operations
are O(degree) or better so the dynamic-maintenance algorithms get the
complexity the paper assumes.

The class intentionally does *not* depend on networkx; conversion helpers
live in :mod:`repro.graph.convert`.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, Optional, Set

from ..exceptions import (
    EdgeExistsError,
    EdgeNotFoundError,
    SelfLoopError,
    VertexNotFoundError,
)
from .edge import Edge, Vertex, canonical_edge


class Graph:
    """A simple undirected graph with O(1) edge queries and dynamic updates.

    Parameters
    ----------
    edges:
        Optional iterable of ``(u, v)`` pairs to insert at construction.
    vertices:
        Optional iterable of isolated vertices to insert at construction
        (endpoints of ``edges`` are added automatically).

    Examples
    --------
    >>> g = Graph(edges=[(1, 2), (2, 3), (1, 3)])
    >>> g.num_vertices, g.num_edges
    (3, 3)
    >>> sorted(g.neighbors(2))
    [1, 3]
    >>> g.has_edge(3, 1)
    True
    """

    __slots__ = ("_adj", "_num_edges", "_version", "__weakref__")

    def __init__(
        self,
        edges: Optional[Iterable[tuple[Vertex, Vertex]]] = None,
        vertices: Optional[Iterable[Vertex]] = None,
    ) -> None:
        self._adj: Dict[Vertex, Set[Vertex]] = {}
        self._num_edges = 0
        self._version = 0
        if vertices is not None:
            for vertex in vertices:
                self.add_vertex(vertex)
        if edges is not None:
            for u, v in edges:
                self.add_edge(u, v, exist_ok=True)

    # ------------------------------------------------------------------ #
    # construction / mutation
    # ------------------------------------------------------------------ #

    def add_vertex(self, vertex: Vertex) -> bool:
        """Add an isolated vertex; return True if it was new."""
        if vertex in self._adj:
            return False
        self._adj[vertex] = set()
        self._version += 1
        return True

    def remove_vertex(self, vertex: Vertex) -> None:
        """Remove ``vertex`` and every incident edge.

        Raises :class:`VertexNotFoundError` if the vertex is absent.
        """
        try:
            neighbors = self._adj.pop(vertex)
        except KeyError:
            raise VertexNotFoundError(vertex) from None
        self._num_edges -= len(neighbors)
        self._version += 1
        for neighbor in neighbors:
            self._adj[neighbor].discard(vertex)

    def add_edge(self, u: Vertex, v: Vertex, *, exist_ok: bool = False) -> bool:
        """Add the undirected edge ``{u, v}``, creating endpoints as needed.

        Returns True if the edge was inserted, False if it already existed and
        ``exist_ok`` is set.  Raises :class:`EdgeExistsError` on duplicates
        otherwise, and :class:`SelfLoopError` for ``u == v``.
        """
        if u == v:
            raise SelfLoopError(u)
        self.add_vertex(u)
        self.add_vertex(v)
        if v in self._adj[u]:
            if exist_ok:
                return False
            raise EdgeExistsError(u, v)
        self._adj[u].add(v)
        self._adj[v].add(u)
        self._num_edges += 1
        self._version += 1
        return True

    def remove_edge(self, u: Vertex, v: Vertex, *, missing_ok: bool = False) -> bool:
        """Remove the undirected edge ``{u, v}``; endpoints are kept.

        Returns True if the edge was removed, False if it was absent and
        ``missing_ok`` is set; raises :class:`EdgeNotFoundError` otherwise.
        """
        if u in self._adj and v in self._adj[u]:
            self._adj[u].discard(v)
            self._adj[v].discard(u)
            self._num_edges -= 1
            self._version += 1
            return True
        if missing_ok:
            return False
        raise EdgeNotFoundError(u, v)

    def clear(self) -> None:
        """Remove every vertex and edge."""
        self._adj.clear()
        self._num_edges = 0
        self._version += 1

    # ------------------------------------------------------------------ #
    # queries
    # ------------------------------------------------------------------ #

    @property
    def version(self) -> int:
        """Monotonically-increasing mutation counter for *this* instance.

        Every structural change (vertex/edge insertion or removal,
        ``clear``) increments it, so ``(id(graph), graph.version)`` uniquely
        identifies one structural state of one live graph object.  The
        engine's artifact cache (:mod:`repro.engine`) keys on it to make
        repeated decompositions of an unmutated graph free while making
        stale answers impossible.  Copies start their own count at 0.
        """
        return self._version

    @property
    def num_vertices(self) -> int:
        """Number of vertices in the graph."""
        return len(self._adj)

    @property
    def num_edges(self) -> int:
        """Number of undirected edges in the graph (O(1))."""
        return self._num_edges

    def has_vertex(self, vertex: Vertex) -> bool:
        """True if ``vertex`` is in the graph."""
        return vertex in self._adj

    def has_edge(self, u: Vertex, v: Vertex) -> bool:
        """True if the undirected edge ``{u, v}`` is in the graph."""
        neighbors = self._adj.get(u)
        return neighbors is not None and v in neighbors

    def vertices(self) -> Iterator[Vertex]:
        """Iterate over all vertices (insertion order)."""
        return iter(self._adj)

    def edges(self) -> Iterator[Edge]:
        """Iterate over all edges in canonical form, each exactly once."""
        for u, neighbors in self._adj.items():
            for v in neighbors:
                edge = canonical_edge(u, v)
                if edge[0] == u:
                    yield edge

    def neighbors(self, vertex: Vertex) -> Set[Vertex]:
        """Return the neighbor set of ``vertex`` (do not mutate it).

        Raises :class:`VertexNotFoundError` if the vertex is absent.
        """
        try:
            return self._adj[vertex]
        except KeyError:
            raise VertexNotFoundError(vertex) from None

    def degree(self, vertex: Vertex) -> int:
        """Return the degree of ``vertex``."""
        return len(self.neighbors(vertex))

    def common_neighbors(self, u: Vertex, v: Vertex) -> Set[Vertex]:
        """Return the set of vertices adjacent to both ``u`` and ``v``.

        For an edge ``{u, v}`` these are exactly the apexes of its triangles.
        Iterates over the smaller of the two neighbor sets (the asymmetric
        case is the common one on power-law graphs, and this method runs
        once per peeled edge in the reference decomposition), and stays in
        C via ``set.__and__`` instead of an interpreted comprehension.
        """
        nu = self.neighbors(u)
        nv = self.neighbors(v)
        if len(nu) > len(nv):
            nu, nv = nv, nu
        return nu & nv

    def edge_support(self, u: Vertex, v: Vertex) -> int:
        """Number of triangles the edge ``{u, v}`` participates in."""
        return len(self.common_neighbors(u, v))

    # ------------------------------------------------------------------ #
    # derived graphs
    # ------------------------------------------------------------------ #

    def copy(self) -> "Graph":
        """Return an independent deep copy of the structure."""
        clone = Graph()
        clone._adj = {vertex: set(neighbors) for vertex, neighbors in self._adj.items()}
        clone._num_edges = self._num_edges
        return clone

    def subgraph(self, vertices: Iterable[Vertex]) -> "Graph":
        """Return the subgraph induced by ``vertices``.

        Vertices absent from the graph are ignored.
        """
        keep = {v for v in vertices if v in self._adj}
        sub = Graph(vertices=keep)
        for u in keep:
            for v in self._adj[u]:
                if v in keep:
                    sub.add_edge(u, v, exist_ok=True)
        return sub

    def edge_subgraph(self, edges: Iterable[tuple[Vertex, Vertex]]) -> "Graph":
        """Return the subgraph formed by ``edges`` (must exist in this graph)."""
        sub = Graph()
        for u, v in edges:
            if not self.has_edge(u, v):
                raise EdgeNotFoundError(u, v)
            sub.add_edge(u, v, exist_ok=True)
        return sub

    def connected_components(self) -> list[Set[Vertex]]:
        """Return the vertex sets of the connected components."""
        seen: Set[Vertex] = set()
        components: list[Set[Vertex]] = []
        for start in self._adj:
            if start in seen:
                continue
            component = {start}
            stack = [start]
            while stack:
                vertex = stack.pop()
                for neighbor in self._adj[vertex]:
                    if neighbor not in component:
                        component.add(neighbor)
                        stack.append(neighbor)
            seen |= component
            components.append(component)
        return components

    # ------------------------------------------------------------------ #
    # dunder protocol
    # ------------------------------------------------------------------ #

    def __contains__(self, vertex: Vertex) -> bool:
        return vertex in self._adj

    def __len__(self) -> int:
        return len(self._adj)

    def __iter__(self) -> Iterator[Vertex]:
        return iter(self._adj)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self._adj == other._adj

    def __repr__(self) -> str:
        return f"Graph(|V|={self.num_vertices}, |E|={self.num_edges})"


def complete_graph(n: int, *, offset: int = 0) -> Graph:
    """Return the clique :math:`K_n` on vertices ``offset .. offset+n-1``.

    A convenience used throughout tests and examples: an ``n``-vertex clique
    is the canonical Triangle K-Core with number ``n - 2`` (paper §III).

    >>> complete_graph(4).num_edges
    6
    """
    g = Graph(vertices=range(offset, offset + n))
    for i in range(offset, offset + n):
        for j in range(i + 1, offset + n):
            g.add_edge(i, j)
    return g
