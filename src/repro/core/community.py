"""Triangle-connected community search over the decomposition.

The paper's visual workflow — spot a plateau, circle it, inspect the
community — has a programmatic counterpart: *community search*.  Given a
query vertex or edge, return the triangle-connected component of the
level-``k`` subgraph containing it (today's "k-truss community").  Two
access paths answer the same queries:

* :func:`community_of_edge` / :func:`community_of_vertex` /
  :func:`densest_community_of_vertex` — one-shot BFS over any
  ``{edge: kappa}`` map (a result, or a dynamic maintainer's live map):
  no preprocessing, cost proportional to the explored component;
* :class:`CommunityIndex` — one descending union-find sweep recording a
  *merge forest* (the Kruskal-tree form of a truss community index): a
  node per community at the deepest level it exists, its parent the
  community it merges into further down.  Build O(|E| + |Tri| alpha);
  memory O(|E|), at most one node and one home entry per edge.  A
  level-``k`` query climbs at most ``max_kappa`` parents, then costs
  O(answer).
"""

from __future__ import annotations

from itertools import groupby
from typing import Dict, Iterator, List, Mapping, Optional, Set, Tuple, Union

from ..exceptions import EdgeNotFoundError
from ..graph.edge import Edge, Vertex, canonical_edge
from ..graph.undirected import Graph
from .extract import kappa_map, triangle_connected_component, vertex_set_of_edges
from .triangle_kcore import TriangleKCoreResult


def _decompose(graph, backend, engine) -> TriangleKCoreResult:
    # Lazy: repro.engine sits above repro.core in the layer stack.
    from ..engine import resolve_engine

    return resolve_engine(engine).decompose(graph, backend=backend)


def community_key(members) -> tuple:
    """Sort key of a community: largest first, then by member reprs."""
    return (-len(members), tuple(sorted(map(repr, members))))


class _Search:
    """Community queries answered by BFS over a graph and a kappa map
    (:class:`CommunityIndex` swaps :meth:`_component` for its forest)."""

    def __init__(self, graph: Graph, kappa: Mapping[Edge, int]) -> None:
        self._graph = graph
        self._kappa = kappa

    def _component(self, edge: Edge, k: int) -> Set[Edge]:
        """The level-``k`` community of ``edge`` (``kappa(edge) >= k``)."""
        return triangle_connected_component(self._graph, self._kappa, edge, k)

    def community_of_edge(
        self, u: Vertex, v: Vertex, k: Optional[int] = None
    ) -> Set[Edge]:
        """Edges of the level-``k`` community containing edge ``{u, v}``.

        ``k`` defaults to the edge's own kappa (its densest community).
        Returns an empty set when the edge's kappa is below ``k`` or the
        requested level is 0 (every edge is trivially level-0).
        """
        edge = canonical_edge(u, v)
        if edge not in self._kappa:
            raise EdgeNotFoundError(u, v)
        if k is None:
            k = self._kappa[edge]
        return self._component(edge, k) if 0 < k <= self._kappa[edge] else set()

    def community_of_vertex(
        self, vertex: Vertex, k: Optional[int] = None
    ) -> List[Set[Vertex]]:
        """Vertex sets of the level-``k`` communities touching ``vertex``.

        ``k`` defaults to the vertex's best incident kappa.  A vertex can
        belong to several communities at one level (two cliques meeting at
        a shared vertex), hence the list.
        """
        kappa = self._kappa
        incident = [canonical_edge(vertex, w) for w in self._graph.neighbors(vertex)]
        if k is None:
            k = max((kappa[e] for e in incident), default=0)
        seen: Set[Edge] = set()
        communities: List[Set[Vertex]] = []
        # Visit order is free: distinct communities with equal keys have
        # equal vertex sets, so the sorted list is the same either way.
        for edge in incident:
            if 0 < k <= kappa[edge] and edge not in seen:
                edges = self._component(edge, k)
                seen |= edges
                communities.append(vertex_set_of_edges(edges))
        communities.sort(key=community_key)
        return communities

    def densest_community_of_vertex(
        self, vertex: Vertex
    ) -> Tuple[int, Set[Vertex]]:
        """The community of ``vertex`` at its highest level, with that level.

        Returns ``(0, {vertex})`` for vertices in no triangle.
        """
        kappa, neighbors = self._kappa, self._graph.neighbors(vertex)
        best = max((kappa[canonical_edge(vertex, w)] for w in neighbors), default=0)
        communities = self.community_of_vertex(vertex, best)
        return (best, communities[0]) if communities else (0, {vertex})


class CommunityIndex(_Search):
    """Precomputed triangle-connected communities at every level.

    Examples
    --------
    >>> from ..graph.undirected import complete_graph
    >>> g = complete_graph(4)
    >>> index = CommunityIndex(g)
    >>> sorted(index.community_of_edge(0, 1))      # the K4 at level 2
    [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
    """

    def __init__(
        self,
        graph: Graph,
        result: Optional[TriangleKCoreResult] = None,
        *,
        backend: Optional[str] = None,
        engine: Optional[object] = None,
    ) -> None:
        self._result = (
            result if result is not None else _decompose(graph, backend, engine)
        )
        super().__init__(graph, self._result.kappa)
        # The merge forest, children before parents.  Node i is a community
        # from level ``_level[i]`` down to ``_first[i]``, then part of
        # ``_parent[i]`` (-1: a root, alive to level 1); ``_own[i]`` holds
        # its edges of kappa ``_level[i]``.
        self._level: List[int] = []
        self._parent: List[int] = []
        self._children: List[List[int]] = []
        self._own: List[List[Edge]] = []
        #: edge -> the node it joined at its own level.
        self._home: Dict[Edge, int] = {}
        self._build()

    @property
    def result(self) -> TriangleKCoreResult:
        return self._result

    @property
    def max_level(self) -> int:
        return self._result.max_kappa

    def _build(self) -> None:
        kappa = self._kappa
        ranked = sorted((e for e in kappa if kappa[e] > 0), key=kappa.get, reverse=True)
        parent: Dict[Edge, Edge] = {}
        size: Dict[Edge, int] = {}
        #: union-find root -> the forest nodes its component absorbed.
        parts: Dict[Edge, List[int]] = {}

        def find(edge: Edge) -> Edge:
            while parent[edge] != edge:  # path halving
                parent[edge] = edge = parent[parent[edge]]
            return edge

        for k, group in groupby(ranked, key=kappa.get):
            level_edges = list(group)
            parent.update(zip(level_edges, level_edges))
            size.update(dict.fromkeys(level_edges, 1))
            # Union through every triangle whose minimum level is exactly k:
            # scanning the newly activated edges' apexes covers them all.
            for edge in level_edges:
                a, b = edge
                root = find(edge)
                for w in self._graph.common_neighbors(a, b):
                    e1 = canonical_edge(a, w)
                    e2 = canonical_edge(b, w)
                    if kappa[e1] < k or kappa[e2] < k:
                        continue
                    for other in (e1, e2):
                        other = parent[other]
                        if parent[other] != other:  # skip the call when flat
                            other = find(other)
                        if other == root:
                            continue
                        # Union by size, so a node id moves O(log |E|) times.
                        if size[root] < size[other]:
                            root, other = other, root
                        parent[other] = root
                        size[root] += size[other]
                        parts.setdefault(root, []).extend(parts.pop(other, ()))
            # Each component holding a level-k edge is a new node; the
            # older components it absorbed become its children.
            fresh: Dict[Edge, int] = {}
            for edge in level_edges:
                root = find(edge)
                node = fresh.get(root)
                if node is None:
                    node = fresh[root] = len(self._level)
                    children = parts.pop(root, [])
                    parts[root] = [node]
                    for child in children:
                        self._parent[child] = node
                    self._level.append(k)
                    self._parent.append(-1)
                    self._children.append(children)
                    self._own.append([])
                self._own[node].append(edge)
                self._home[edge] = node
        self._first = [self._level[p] + 1 if p >= 0 else 1 for p in self._parent]

    def forest(self) -> Iterator[Tuple[int, int, List[Edge], List[int]]]:
        """``(level, first_level, own edges, child ids)`` per node, in id
        order: a node's community is its own edges plus its children's."""
        return zip(self._level, self._first, self._own, self._children)

    def _component(self, edge: Edge, k: int) -> Set[Edge]:
        node = self._home[edge]
        while self._first[node] > k:
            node = self._parent[node]
        return self._members(node)

    def _members(self, node: int) -> Set[Edge]:
        edges: Set[Edge] = set()
        stack = [node]
        while stack:
            node = stack.pop()
            edges.update(self._own[node])
            stack.extend(self._children[node])
        return edges

    def communities_at(self, k: int) -> List[Set[Edge]]:
        """All communities of level ``k``, largest first."""
        communities = [
            self._members(node)
            for node, (level, first) in enumerate(zip(self._level, self._first))
            if first <= k <= level
        ]
        return sorted(communities, key=community_key)

    def __iter__(self) -> Iterator[Tuple[int, Set[Edge]]]:
        """Iterate ``(level, edge set)`` pairs densest-level first."""
        for k in range(self.max_level, 0, -1):
            for community in self.communities_at(k):
                yield k, community


def _search(graph, result, backend, engine) -> _Search:
    if result is None:
        result = _decompose(graph, backend, engine)
    return _Search(graph, kappa_map(result))


def community_of_edge(
    graph: Graph,
    u: Vertex,
    v: Vertex,
    *,
    k: Optional[int] = None,
    result: Union[TriangleKCoreResult, Mapping[Edge, int], None] = None,
    backend: Optional[str] = None,
    engine: Optional[object] = None,
) -> Set[Edge]:
    """One-shot ``CommunityIndex.community_of_edge`` (BFS, no index)."""
    return _search(graph, result, backend, engine).community_of_edge(u, v, k)


def community_of_vertex(
    graph: Graph,
    vertex: Vertex,
    *,
    k: Optional[int] = None,
    result: Union[TriangleKCoreResult, Mapping[Edge, int], None] = None,
    backend: Optional[str] = None,
    engine: Optional[object] = None,
) -> List[Set[Vertex]]:
    """One-shot ``CommunityIndex.community_of_vertex`` (BFS, no index)."""
    return _search(graph, result, backend, engine).community_of_vertex(vertex, k)


def densest_community_of_vertex(
    graph: Graph,
    vertex: Vertex,
    *,
    result: Union[TriangleKCoreResult, Mapping[Edge, int], None] = None,
    backend: Optional[str] = None,
    engine: Optional[object] = None,
) -> Tuple[int, Set[Vertex]]:
    """One-shot ``CommunityIndex.densest_community_of_vertex`` (BFS)."""
    return _search(graph, result, backend, engine).densest_community_of_vertex(vertex)
