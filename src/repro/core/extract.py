"""Extraction of maximum Triangle K-Core subgraphs.

Claim 2 of the paper shows that, at the moment an edge ``e`` with
:math:`\\kappa(e) = k` is processed, the subgraph built from all edges whose
current bound is at least ``k`` is a Triangle K-Core with number ``k``
containing ``e``.  After the decomposition finishes, the same construction
applies with final kappa values: the union of all edges with
:math:`\\kappa \\ge k` is the maximal Triangle K-Core of level ``k``.

Because Definition 3 does not require connectivity, that union is *the*
maximum Triangle K-Core of every edge at level ``k``.  For analysis and
visualization one usually wants the individual dense regions, so we also
provide the *triangle-connected* components of each level (two edges are
triangle-connected at level ``k`` when a chain of triangles, all of whose
edges have :math:`\\kappa \\ge k`, links them) — these are the "clique-like
structures" the paper circles in its density plots.
"""

from __future__ import annotations

from typing import Iterator, List, Mapping, Set, Union

from ..graph.edge import Edge, Vertex, canonical_edge
from ..graph.undirected import Graph
from .triangle_kcore import TriangleKCoreResult


def kappa_map(
    result: Union[TriangleKCoreResult, Mapping[Edge, int]],
) -> Mapping[Edge, int]:
    """The ``{edge: kappa}`` map of a result, or the mapping itself.

    Lets the searches below run over a plain mapping — e.g. a dynamic
    maintainer's live kappa — without wrapping it in a result first.
    """
    return result.kappa if isinstance(result, TriangleKCoreResult) else result


def level_subgraph(graph: Graph, result: TriangleKCoreResult, k: int) -> Graph:
    """The maximal Triangle K-Core with number >= ``k`` (possibly empty).

    This is the union of the maximum Triangle K-Cores of all edges with
    :math:`\\kappa(e) \\ge k` (paper Claim 2).
    """
    sub = Graph()
    for edge in result.edges_with_kappa_at_least(k):
        sub.add_edge(*edge, exist_ok=True)
    return sub


def max_core_of_edge(
    graph: Graph,
    result: TriangleKCoreResult,
    u: Vertex,
    v: Vertex,
    *,
    connected: bool = True,
) -> Graph:
    """The maximum Triangle K-Core containing the edge ``{u, v}``.

    With ``connected=True`` (default) the result is restricted to the
    triangle-connected component of the edge at level ``kappa(e)`` — the
    locally dense region a user actually wants to look at.  With
    ``connected=False`` the full level subgraph is returned (the literal
    maximal object of Definition 4).
    """
    k = result.kappa_of(u, v)
    if not connected:
        return level_subgraph(graph, result, k)
    component = triangle_connected_component(graph, result, canonical_edge(u, v), k)
    sub = Graph()
    for edge in component:
        sub.add_edge(*edge, exist_ok=True)
    return sub


def triangle_connected_component(
    graph: Graph,
    result: Union[TriangleKCoreResult, Mapping[Edge, int]],
    start: Edge,
    k: int,
) -> Set[Edge]:
    """Edges triangle-connected to ``start`` within the level-``k`` subgraph.

    BFS over edges: from edge ``(u, v)`` we can step to ``(u, w)`` and
    ``(v, w)`` whenever the triangle ``(u, v, w)`` has all three edges at
    :math:`\\kappa \\ge k`.  ``result`` may be a plain ``{edge: kappa}``
    mapping.
    """
    kappa = kappa_map(result)
    if kappa.get(start, -1) < k:
        return set()
    component: Set[Edge] = {start}
    stack: List[Edge] = [start]
    while stack:
        u, v = stack.pop()
        for w in graph.common_neighbors(u, v):
            e1 = canonical_edge(u, w)
            e2 = canonical_edge(v, w)
            if kappa.get(e1, -1) >= k and kappa.get(e2, -1) >= k:
                for other in (e1, e2):
                    if other not in component:
                        component.add(other)
                        stack.append(other)
    return component


def triangle_connected_components(
    graph: Graph,
    result: TriangleKCoreResult,
    k: int,
) -> List[Set[Edge]]:
    """All triangle-connected components of the level-``k`` subgraph.

    Each component is a set of canonical edges; components are disjoint but
    may share vertices (two cliques meeting at a single vertex are distinct
    communities).  Edges with :math:`\\kappa \\ge k` that lie in no triangle
    of the level subgraph form singleton components only when ``k == 0``;
    for ``k >= 1`` every qualifying edge is in at least one level triangle.
    """
    remaining = {edge for edge in result.edges_with_kappa_at_least(k)}
    components: List[Set[Edge]] = []
    while remaining:
        start = remaining.pop()
        component = triangle_connected_component(graph, result, start, k)
        component.add(start)
        remaining -= component
        components.append(component)
    components.sort(key=lambda c: (-len(c), repr(sorted(c, key=repr)[:1])))
    return components


def dense_communities(
    graph: Graph,
    result: TriangleKCoreResult,
    *,
    min_kappa: int = 1,
) -> Iterator[tuple[int, Set[Vertex]]]:
    """Yield ``(k, vertex set)`` for the densest communities first.

    Walks levels from ``result.max_kappa`` down to ``min_kappa`` and yields
    each triangle-connected component the first time it appears (i.e. at the
    highest level where its edges all qualify).  This is the enumeration the
    case studies (Figs 7-12) use to pick the "circled" cliques.
    """
    seen: List[Set[Vertex]] = []
    for k in range(result.max_kappa, min_kappa - 1, -1):
        for component in triangle_connected_components(graph, result, k):
            vertices: Set[Vertex] = set()
            for u, v in component:
                vertices.add(u)
                vertices.add(v)
            if any(vertices <= previous for previous in seen):
                continue
            seen.append(vertices)
            yield k, vertices


def vertex_set_of_edges(edges: Set[Edge]) -> Set[Vertex]:
    """Endpoints of an edge set (helper for community reporting)."""
    vertices: Set[Vertex] = set()
    for u, v in edges:
        vertices.add(u)
        vertices.add(v)
    return vertices


def is_triangle_kcore(graph: Graph, k: int) -> bool:
    """Check Definition 3 directly: every edge in >= ``k`` triangles.

    Runs on the *whole* graph treated as the candidate subgraph; used by the
    validators and property tests.
    """
    for u, v in graph.edges():
        if len(graph.common_neighbors(u, v)) < k:
            return False
    return True
