"""Tests for triangle-connected community search (index and one-shot)."""

import json
import random
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import (
    CommunityHierarchy,
    CommunityIndex,
    CommunityNode,
    DynamicTriangleKCore,
    community_of_edge,
    community_of_vertex,
    densest_community_of_vertex,
    triangle_connected_components,
    triangle_kcore_decomposition,
    vertex_set_of_edges,
)
from repro.core.community import community_key
from repro.exceptions import EdgeNotFoundError, VertexNotFoundError
from repro.graph import Graph, canonical_edge, complete_graph, erdos_renyi


@pytest.fixture
def butterfly():
    """Two K4s sharing vertex 3."""
    g = complete_graph(4)
    for u in (10, 11, 12):
        g.add_edge(3, u)
    for i, u in enumerate((10, 11, 12)):
        for v in (10, 11, 12)[i + 1 :]:
            g.add_edge(u, v)
    return g


class TestCommunityIndex:
    def test_edge_community_defaults_to_own_level(self, butterfly):
        index = CommunityIndex(butterfly)
        community = index.community_of_edge(0, 1)
        assert len(community) == 6  # the first K4

    def test_edge_community_at_lower_level_merges(self, butterfly):
        index = CommunityIndex(butterfly)
        # At level 1 both K4s stay triangle-connected only through shared
        # triangles; sharing a vertex is not enough, so still 2 communities.
        assert len(index.communities_at(1)) == 2

    def test_unknown_edge_raises(self, butterfly):
        index = CommunityIndex(butterfly)
        with pytest.raises(EdgeNotFoundError):
            index.community_of_edge(0, 99)

    def test_level_above_edge_kappa_is_empty(self, butterfly):
        index = CommunityIndex(butterfly)
        assert index.community_of_edge(0, 1, k=5) == set()

    def test_level_zero_is_empty(self, butterfly):
        index = CommunityIndex(butterfly)
        assert index.community_of_edge(0, 1, k=0) == set()

    def test_vertex_in_two_communities(self, butterfly):
        index = CommunityIndex(butterfly)
        communities = index.community_of_vertex(3)
        assert len(communities) == 2
        assert {0, 1, 2, 3} in communities
        assert {3, 10, 11, 12} in communities

    def test_unknown_vertex_raises(self, butterfly):
        with pytest.raises(VertexNotFoundError):
            CommunityIndex(butterfly).community_of_vertex("ghost")

    def test_densest_community_of_isolated_vertex(self):
        g = Graph(edges=[(0, 1)], vertices=[9])
        index = CommunityIndex(g)
        assert index.densest_community_of_vertex(9) == (0, {9})

    def test_densest_community_prefers_larger(self, butterfly):
        index = CommunityIndex(butterfly)
        level, members = index.densest_community_of_vertex(3)
        assert level == 2
        assert len(members) == 4

    def test_iteration_densest_first(self, butterfly):
        index = CommunityIndex(butterfly)
        levels = [k for k, _ in index]
        assert levels == sorted(levels, reverse=True)

    def test_matches_bfs_components_on_random_graphs(self):
        for seed in range(3):
            g = erdos_renyi(35, 0.25, seed=seed)
            result = triangle_kcore_decomposition(g)
            index = CommunityIndex(g, result)
            for k in range(1, result.max_kappa + 1):
                from_bfs = {
                    frozenset(c)
                    for c in triangle_connected_components(g, result, k)
                }
                from_index = {frozenset(c) for c in index.communities_at(k)}
                assert from_bfs == from_index, (seed, k)

    def test_out_of_range_levels(self, k5):
        index = CommunityIndex(k5)
        assert index.communities_at(0) == []
        assert index.communities_at(99) == []


class TestOneShotSearch:
    def test_edge_query_matches_index(self, butterfly):
        index = CommunityIndex(butterfly)
        assert community_of_edge(butterfly, 0, 1) == index.community_of_edge(0, 1)

    def test_vertex_query_matches_index(self, butterfly):
        index = CommunityIndex(butterfly)
        assert community_of_vertex(butterfly, 3) == index.community_of_vertex(3)

    def test_unknown_edge(self, butterfly):
        with pytest.raises(EdgeNotFoundError):
            community_of_edge(butterfly, 0, 99)

    def test_unknown_vertex(self, butterfly):
        with pytest.raises(VertexNotFoundError):
            community_of_vertex(butterfly, "ghost")

    def test_reuses_precomputed_result(self, k5):
        result = triangle_kcore_decomposition(k5)
        community = community_of_edge(k5, 0, 1, result=result)
        assert len(community) == 10

    def test_triangle_free_vertex_has_no_communities(self):
        g = Graph(edges=[(0, 1), (1, 2)])
        assert community_of_vertex(g, 1) == []


# ---------------------------------------------------------------------- #
# Equivalence: live BFS == merge forest == per-level union-find oracle
# ---------------------------------------------------------------------- #

CORPUS_DIR = Path(__file__).parent / "corpus"


def per_level_reference(graph, kappa):
    """The pre-forest index: one union-find pass and one dict per level.

    Returns ``{k: communities}`` for k in 1..max kappa, each level's edge
    sets in ``communities_at`` order.
    """
    parent = {}

    def find(edge):
        while parent[edge] != edge:
            edge = parent[edge]
        return edge

    levels = {}
    for k in range(max(kappa.values(), default=0), 0, -1):
        fresh = [edge for edge, value in kappa.items() if value == k]
        parent.update((edge, edge) for edge in fresh)
        for edge in fresh:
            a, b = edge
            for w in graph.common_neighbors(a, b):
                e1, e2 = canonical_edge(a, w), canonical_edge(b, w)
                if kappa[e1] >= k and kappa[e2] >= k:
                    for other in (e1, e2):
                        parent[find(other)] = find(edge)
        groups = {}
        for edge in parent:
            groups.setdefault(find(edge), set()).add(edge)
        levels[k] = sorted(groups.values(), key=community_key)
    return levels


def nested_reference_roots(levels):
    """The pre-forest hierarchy: pairwise subset nesting, level by level."""
    nodes = {
        k: [CommunityNode(k, frozenset(c), k) for c in communities]
        for k, communities in levels.items()
    }
    for k in range(len(levels) - 1, 0, -1):
        for node in nodes[k]:
            for candidate in nodes[k + 1]:
                if candidate.edges == node.edges:
                    node.level = candidate.level
                    node.children.extend(candidate.children)
                elif candidate.edges < node.edges:
                    node.children.append(candidate)
    return nodes.get(1, [])


def tree_shape(node):
    return (
        node.level,
        node.first_level,
        node.edges,
        [tree_shape(child) for child in node.children],
    )


def assert_three_way(graph, kappa):
    """BFS over (graph, kappa) == CommunityIndex == the per-level oracle."""
    result = triangle_kcore_decomposition(graph)
    assert result.kappa == kappa
    index = CommunityIndex(graph, result)
    levels = per_level_reference(graph, kappa)
    top = max(kappa.values(), default=0)
    for k in range(1, top + 1):
        assert index.communities_at(k) == levels[k], k
    for vertex in graph.vertices():
        for k in range(1, top + 1):
            expected = sorted(
                (
                    vertex_set_of_edges(c)
                    for c in levels[k]
                    if any(vertex in edge for edge in c)
                ),
                key=community_key,
            )
            assert community_of_vertex(graph, vertex, k=k, result=kappa) == expected
            assert index.community_of_vertex(vertex, k) == expected
        best = max(
            (kappa[canonical_edge(vertex, w)] for w in graph.neighbors(vertex)),
            default=0,
        )
        densest = (0, {vertex})
        if best:
            densest = (best, index.community_of_vertex(vertex, best)[0])
        assert densest_community_of_vertex(graph, vertex, result=kappa) == densest
        assert index.densest_community_of_vertex(vertex) == densest
    for edge, value in kappa.items():
        for k in range(1, value + 1):
            (expected,) = [c for c in levels[k] if edge in c]
            assert community_of_edge(graph, *edge, k=k, result=kappa) == expected
            assert index.community_of_edge(*edge, k) == expected
    roots = CommunityHierarchy(graph, result).roots
    assert [tree_shape(r) for r in roots] == [
        tree_shape(r) for r in nested_reference_roots(levels)
    ]


def assert_equivalent_under_edits(graph, seed, batches=3):
    """Check the zoo graph, then a live maintainer after seeded batches."""
    maintainer = DynamicTriangleKCore(graph)
    assert_three_way(maintainer.graph, maintainer.kappa)
    rng = random.Random(seed)
    vertices = sorted(graph.vertices(), key=repr)
    if len(vertices) < 2:
        return
    for batch in range(batches):
        live = maintainer.graph
        edges = sorted(live.edges(), key=repr)
        removed = rng.sample(edges, min(len(edges), rng.randint(0, 3)))
        added = set()
        for _ in range(rng.randint(1, 5)):
            u, v = rng.sample(vertices, 2)
            if not live.has_edge(u, v):
                added.add(canonical_edge(u, v))
        strategy = ("incremental", "batch", "recompute")[batch % 3]
        maintainer.apply(
            added=sorted(added, key=repr), removed=removed, strategy=strategy
        )
        assert_three_way(maintainer.graph, maintainer.kappa)


def corpus_graphs():
    for path in sorted(CORPUS_DIR.glob("*.json")):
        final = json.loads(path.read_text())["expected_kappa"]
        yield path.stem, Graph(edges=[(u, v) for u, v, _ in final])


def two_k5_sharing_an_edge():
    g = complete_graph(5)
    for u in (10, 11, 12):
        for v in (0, 1, 10, 11, 12):
            if u != v:
                g.add_edge(u, v, exist_ok=True)
    return g


def bridged_cliques():
    """K5 and K4 sharing vertex 0 plus a fringe triangle; the edge (4, 10)
    joins both cliques into one level-1 community with two children."""
    g = complete_graph(5)
    for u in (10, 11, 12):
        g.add_edge(0, u)
    for u, v in ((10, 11), (10, 12), (11, 12), (4, 20), (0, 20), (4, 10)):
        g.add_edge(u, v)
    return g


ZOO = {
    **{f"K{n}": (lambda n=n: complete_graph(n)) for n in range(3, 8)},
    "two_k5_sharing_an_edge": two_k5_sharing_an_edge,
    "bridged_cliques": bridged_cliques,
    **{f"er{seed}": (lambda s=seed: erdos_renyi(25, 0.3, seed=s)) for seed in range(3)},
}


class TestEquivalence:
    @pytest.mark.parametrize("fixture", ["fig2_graph", "fig3_original_graph", "k5"])
    def test_paper_figures_and_fixtures(self, request, fixture):
        assert_equivalent_under_edits(request.getfixturevalue(fixture), seed=1)

    def test_butterfly(self, butterfly):
        assert_equivalent_under_edits(butterfly, seed=2)

    @pytest.mark.parametrize("name", sorted(ZOO))
    def test_zoo(self, name):
        assert_equivalent_under_edits(ZOO[name](), seed=3)

    @pytest.mark.parametrize("name,graph", list(corpus_graphs()))
    def test_corpus_final_states(self, name, graph):
        assert_equivalent_under_edits(graph, seed=4)

    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(2, 9),
        pairs=st.sets(st.tuples(st.integers(0, 8), st.integers(0, 8)), max_size=30),
        seed=st.integers(0, 2**16),
    )
    def test_hypothesis_graphs(self, n, pairs, seed):
        edges = [(u, v) for u, v in pairs if u < v < n]
        assert_equivalent_under_edits(Graph(edges=edges, vertices=range(n)), seed)
