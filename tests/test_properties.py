"""Property-based tests (hypothesis) for the core invariants.

Strategies generate small random graphs and random edit scripts; the
properties tested are the paper's own theorems:

* Definition 3/4 — the decomposition validator accepts every output.
* Theorem 1 — side edges of max-core triangles carry >= kappa.
* Claim 3 — kappa is always a valid lambda (DN-Graph sense).
* Algorithm 2 family — dynamic maintenance equals recomputation after any
  edit script.
* Clique equivalence — an n-clique decomposes to kappa = n - 2.
* Monotonicity — adding an edge never lowers any kappa; removing one never
  raises any.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.baselines import is_valid_lambda, tridn
from repro.core import (
    DynamicTriangleKCore,
    check_decomposition,
    triangle_kcore_decomposition,
)
from repro.graph import Graph, canonical_edge


@st.composite
def graphs(draw, max_vertices: int = 12) -> Graph:
    """Random simple graphs on 0..max_vertices-1."""
    n = draw(st.integers(min_value=2, max_value=max_vertices))
    possible = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(
        st.lists(st.sampled_from(possible), unique=True, max_size=len(possible))
    )
    return Graph(edges=edges, vertices=range(n))


@st.composite
def edit_scripts(draw, max_vertices: int = 10, max_steps: int = 14):
    """(initial graph, list of (u, v) toggles)."""
    graph = draw(graphs(max_vertices=max_vertices))
    n = max(graph.num_vertices, 2)
    steps = draw(
        st.lists(
            st.tuples(
                st.integers(0, n - 1), st.integers(0, n - 1)
            ).filter(lambda p: p[0] != p[1]),
            max_size=max_steps,
        )
    )
    return graph, steps


@settings(max_examples=60, deadline=None)
@given(graphs())
def test_decomposition_is_always_valid(graph):
    result = triangle_kcore_decomposition(graph)
    check_decomposition(graph, result.kappa)


@settings(max_examples=60, deadline=None)
@given(graphs())
def test_kappa_bounded_by_support(graph):
    result = triangle_kcore_decomposition(graph)
    for (u, v), kappa in result.kappa.items():
        assert 0 <= kappa <= graph.edge_support(u, v)


@settings(max_examples=40, deadline=None)
@given(graphs(max_vertices=10))
def test_kappa_is_valid_lambda(graph):
    result = triangle_kcore_decomposition(graph)
    assert is_valid_lambda(graph, result.kappa)


@settings(max_examples=25, deadline=None)
@given(graphs(max_vertices=9))
def test_tridn_converges_to_kappa(graph):
    result = triangle_kcore_decomposition(graph)
    assert tridn(graph).lambda_ == result.kappa


@settings(max_examples=40, deadline=None)
@given(edit_scripts())
def test_dynamic_equals_static_after_any_edit_script(script):
    graph, steps = script
    maintainer = DynamicTriangleKCore(graph)
    for u, v in steps:
        if maintainer.graph.has_edge(u, v):
            maintainer.remove_edge(u, v)
        else:
            maintainer.add_edge(u, v)
    expected = triangle_kcore_decomposition(maintainer.graph).kappa
    assert maintainer.kappa == expected


@settings(max_examples=40, deadline=None)
@given(graphs(max_vertices=10), st.integers(0, 9), st.integers(0, 9))
def test_insertion_is_monotone_nondecreasing(graph, u, v):
    if u == v or graph.has_edge(u, v):
        return
    before = triangle_kcore_decomposition(graph).kappa
    graph.add_vertex(u)
    graph.add_vertex(v)
    graph.add_edge(u, v)
    after = triangle_kcore_decomposition(graph).kappa
    for edge, old_value in before.items():
        assert after[edge] >= old_value


@settings(max_examples=40, deadline=None)
@given(graphs(max_vertices=10), st.data())
def test_deletion_is_monotone_nonincreasing(graph, data):
    edges = sorted(graph.edges(), key=repr)
    if not edges:
        return
    u, v = data.draw(st.sampled_from(edges))
    before = triangle_kcore_decomposition(graph).kappa
    graph.remove_edge(u, v)
    after = triangle_kcore_decomposition(graph).kappa
    for edge, new_value in after.items():
        assert new_value <= before[edge]


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=3, max_value=8))
def test_clique_kappa_equivalence(n):
    from repro.graph import complete_graph

    result = triangle_kcore_decomposition(complete_graph(n))
    assert set(result.kappa.values()) == {n - 2}


@settings(max_examples=40, deadline=None)
@given(graphs(max_vertices=10))
def test_processing_order_is_nondecreasing_in_kappa(graph):
    result = triangle_kcore_decomposition(graph)
    values = [result.kappa[edge] for edge in result.processing_order]
    assert values == sorted(values)


@settings(max_examples=30, deadline=None)
@given(graphs(max_vertices=10))
def test_membership_counts_equal_kappa(graph):
    result = triangle_kcore_decomposition(graph, store_membership=True)
    for edge, kappa in result.kappa.items():
        assert result.membership.count(edge) == kappa


@settings(max_examples=30, deadline=None)
@given(graphs(max_vertices=10))
def test_level_subgraphs_nest(graph):
    from repro.core import level_subgraph

    result = triangle_kcore_decomposition(graph)
    previous = None
    for k in range(result.max_kappa, 0, -1):
        current = set(level_subgraph(graph, result, k).edges())
        if previous is not None:
            assert previous <= current
        previous = current


@settings(max_examples=30, deadline=None)
@given(graphs(max_vertices=10))
def test_density_plot_covers_vertices_once(graph):
    from repro.viz import density_plot

    result = triangle_kcore_decomposition(graph)
    plot = density_plot(graph, result)
    assert sorted(map(repr, plot.order)) == sorted(
        repr(v) for v in graph.vertices()
    )


@settings(max_examples=30, deadline=None)
@given(graphs(max_vertices=10))
def test_vertex_kappa_consistent_with_plot_heights(graph):
    from repro.viz import density_plot

    result = triangle_kcore_decomposition(graph)
    plot = density_plot(graph, result, y_mode="vertex_max")
    vk = result.vertex_kappa()
    for vertex, height in zip(plot.order, plot.heights):
        expected = vk.get(vertex, -2) + 2 if vertex in vk else 0
        assert height == expected


@settings(max_examples=50, deadline=None)
@given(
    st.lists(
        st.tuples(st.integers(0, 8), st.integers(0, 8)).filter(
            lambda p: p[0] != p[1]
        ),
        min_size=1,
        max_size=20,
    )
)
def test_canonical_edges_form_consistent_keys(pairs):
    graph = Graph()
    seen = set()
    for u, v in pairs:
        graph.add_edge(u, v, exist_ok=True)
        seen.add(canonical_edge(u, v))
    assert set(graph.edges()) == seen


@settings(max_examples=30, deadline=None)
@given(graphs(max_vertices=10), st.data())
def test_local_bounds_bracket_kappa(graph, data):
    from repro.core import kappa_bounds

    edges = sorted(graph.edges(), key=repr)
    if not edges:
        return
    u, v = data.draw(st.sampled_from(edges))
    result = triangle_kcore_decomposition(graph)
    radius = data.draw(st.integers(1, 3))
    lower, upper = kappa_bounds(graph, u, v, radius=radius, sweeps=radius)
    assert lower <= result.kappa_of(u, v) <= upper


@settings(max_examples=30, deadline=None)
@given(graphs(max_vertices=10))
def test_community_index_matches_bfs_components(graph):
    from repro.core import CommunityIndex, triangle_connected_components

    result = triangle_kcore_decomposition(graph)
    index = CommunityIndex(graph, result)
    for k in range(1, result.max_kappa + 1):
        from_bfs = {
            frozenset(c) for c in triangle_connected_components(graph, result, k)
        }
        from_index = {frozenset(c) for c in index.communities_at(k)}
        assert from_bfs == from_index


@settings(max_examples=30, deadline=None)
@given(graphs(max_vertices=10))
def test_persistence_roundtrip(graph):
    import os
    import tempfile

    from repro.core import load_result, save_result

    result = triangle_kcore_decomposition(graph)
    handle, path = tempfile.mkstemp(suffix=".json")
    os.close(handle)
    try:
        save_result(result, path)
        back = load_result(path)
        assert back.kappa == result.kappa
        assert back.processing_order == result.processing_order
    finally:
        os.unlink(path)


@settings(max_examples=25, deadline=None)
@given(graphs(max_vertices=9))
def test_subgraph_kappa_never_exceeds_global(graph):
    """Monotonicity under subgraphs: removing structure cannot raise kappa."""
    result = triangle_kcore_decomposition(graph)
    vertices = sorted(graph.vertices(), key=repr)
    half = graph.subgraph(vertices[: max(2, len(vertices) // 2 + 1)])
    sub_result = triangle_kcore_decomposition(half)
    for edge, value in sub_result.kappa.items():
        assert value <= result.kappa[edge]


@settings(max_examples=25, deadline=None)
@given(graphs(max_vertices=9))
def test_csv_estimate_bounded_by_kappa_plus_two(graph):
    from repro.baselines import csv_co_clique_sizes

    result = triangle_kcore_decomposition(graph)
    for edge, size in csv_co_clique_sizes(graph).items():
        assert size <= result.kappa[edge] + 2
