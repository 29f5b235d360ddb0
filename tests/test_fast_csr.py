"""Unit tests for the CSR snapshot and the flat-array kernels."""

from __future__ import annotations

import contextlib
import gc
import random

import pytest
from hypothesis import given, settings

import repro.fast.csr as csr_module
from repro._gc import collector_paused
from repro.fast import CSRGraph, peel, supports_and_triangles, triangle_supports
from repro.fast import kernels
from repro.graph import Graph, complete_graph, erdos_renyi, relaxed_caveman
from repro.graph.triangles import triangle_supports as reference_supports
from tests.test_peel_executor import ZOO_NAMES, graphs, zoo


@pytest.fixture(params=["numpy", "pure"])
def numpy_mode(request, monkeypatch):
    if request.param == "pure":
        monkeypatch.setattr(csr_module, "np", None)
    elif csr_module.np is None:  # pragma: no cover - numpy-less environment
        pytest.skip("numpy not installed")
    return request.param


class TestSnapshotStructure:
    def test_empty_graph(self, numpy_mode):
        csr = CSRGraph.from_graph(Graph())
        assert csr.num_vertices == 0
        assert csr.num_edges == 0
        assert list(csr.indptr) == [0]

    def test_relabeling_is_degree_ordered(self, numpy_mode):
        graph = Graph(edges=[(0, 1), (0, 2), (0, 3), (1, 2)])
        csr = CSRGraph.from_graph(graph)
        degrees = [csr.degree(u) for u in range(csr.num_vertices)]
        assert degrees == sorted(degrees)

    def test_adjacency_blocks_sorted(self, numpy_mode):
        csr = CSRGraph.from_graph(erdos_renyi(30, 0.3, seed=3))
        for u in range(csr.num_vertices):
            block = list(csr.neighbors(u))
            assert block == sorted(block)
            assert u not in block

    def test_forward_start_splits_blocks(self, numpy_mode):
        csr = CSRGraph.from_graph(erdos_renyi(30, 0.3, seed=4))
        for u in range(csr.num_vertices):
            start, fstart, end = (
                csr.indptr[u],
                csr.forward_start[u],
                csr.indptr[u + 1],
            )
            assert start <= fstart <= end
            assert all(csr.indices[p] < u for p in range(start, fstart))
            assert all(csr.indices[p] > u for p in range(fstart, end))

    def test_edge_ids_are_dense_and_consistent(self, numpy_mode):
        graph = erdos_renyi(25, 0.3, seed=5)
        csr = CSRGraph.from_graph(graph)
        seen = set()
        for u in range(csr.num_vertices):
            for p in range(csr.indptr[u], csr.indptr[u + 1]):
                v = csr.indices[p]
                eid = csr.arc_eids[p]
                assert 0 <= eid < csr.num_edges
                assert eid == csr.edge_id(u, v) == csr.edge_id(v, u)
                seen.add(eid)
        assert seen == set(range(csr.num_edges))

    def test_edge_id_missing_edge_raises(self, numpy_mode):
        csr = CSRGraph.from_graph(Graph(edges=[(0, 1), (2, 3)]))
        lonely = csr.index[0]
        other = csr.index[2]
        with pytest.raises(ValueError):
            csr.edge_id(lonely, other)

    def test_edge_labels_round_trip(self, numpy_mode):
        graph = Graph(edges=[("b", "a"), ("b", "c"), ("a", "c"), ("c", "d")])
        csr = CSRGraph.from_graph(graph)
        assert set(csr.edge_labels()) == set(graph.edges())
        for eid, edge in enumerate(csr.edge_labels()):
            assert csr.edge_label(eid) == edge


class TestKernels:
    def test_supports_match_reference(self, numpy_mode):
        graph = erdos_renyi(35, 0.25, seed=6)
        csr = CSRGraph.from_graph(graph)
        supports = triangle_supports(csr)
        expected = reference_supports(graph, backend="reference")
        decoded = dict(zip(csr.edge_labels(), supports))
        assert decoded == expected

    def test_triangle_list_consistent_with_supports(self, numpy_mode):
        csr = CSRGraph.from_graph(erdos_renyi(25, 0.35, seed=7))
        supports, tri_edges = supports_and_triangles(csr)
        assert len(tri_edges) % 3 == 0
        assert sum(supports) == len(tri_edges)
        recounted = [0] * csr.num_edges
        for eid in tri_edges:
            recounted[eid] += 1
        assert recounted == list(supports)

    def test_peel_on_clique(self, numpy_mode):
        csr = CSRGraph.from_graph(complete_graph(6))
        kappa, order = peel(csr)
        assert set(kappa) == {4}
        assert sorted(order) == list(range(csr.num_edges))

    def test_peel_rejects_mismatched_precomputed(self, numpy_mode):
        csr = CSRGraph.from_graph(complete_graph(4))
        supports, _ = supports_and_triangles(csr)
        with pytest.raises(ValueError, match="supports_and_triangles"):
            peel(csr, (supports, []))

    def test_peel_empty_graph(self, numpy_mode):
        kappa, order = peel(CSRGraph.from_graph(Graph()))
        assert (list(kappa), list(order)) == ([], [])

    def test_peel_hands_arrays_with_numpy_lists_without(self, numpy_mode):
        # The supports_and_triangles contract: int64 arrays with numpy
        # (whichever peel path ran, K4 is small enough for the pure one),
        # lists without.
        for graph in (complete_graph(4), relaxed_caveman(8, 8, 0.1, seed=2)):
            for out in peel(CSRGraph.from_graph(graph)):
                if numpy_mode == "numpy":
                    assert isinstance(out, csr_module.np.ndarray)
                    assert out.dtype == csr_module.np.int64
                else:
                    assert type(out) is list


def _relabel(graph: Graph, label, seed: int = 0) -> Graph:
    """``graph`` with vertex ``v`` renamed ``label(v)``, inserted shuffled.

    The shuffle makes insertion order differ from label order, so the
    degree-order tie-break (insertion order) is exercised too.
    """
    vertices = list(graph.vertices())
    random.Random(seed).shuffle(vertices)
    return Graph(
        edges=[(label(u), label(v)) for u, v in graph.edges()],
        vertices=[label(v) for v in vertices],
    )


def _build_shapes() -> dict:
    base = relaxed_caveman(6, 6, 0.2, seed=4)
    return {
        "dense_ints": _relabel(base, lambda v: v),
        "wide_ints": _relabel(base, lambda v: v * 10**12),
        "negative_ints": _relabel(base, lambda v: -v - 7),
        "int64_extremes": _relabel(
            base, lambda v: (1 << 63) - 1 - v if v % 2 else -(1 << 63) + v
        ),
        "int64_top": _relabel(base, lambda v: (1 << 63) - 1 - v),
        "beyond_int64": _relabel(base, lambda v: (1 << 64) + v),
        "bools": Graph(edges=[(False, True), (True, 2), (False, 2), (2, 3)]),
        "strings": _relabel(base, lambda v: f"v{v}"),
        "mixed_str_int": _relabel(base, lambda v: v if v % 3 else f"s{v}"),
        "isolated_vertices": Graph(
            edges=[(3, 4), (4, 5), (3, 5), (5, 9)], vertices=range(12)
        ),
        "empty": Graph(),
        "vertices_only": Graph(vertices=["a", "b"]),
    }


class TestBuildIdentity:
    """The numpy build equals the pure build: arrays, labels and index."""

    @pytest.mark.skipif(csr_module.np is None, reason="needs numpy installed")
    @pytest.mark.parametrize("shape", sorted(_build_shapes()))
    def test_numpy_build_equals_pure_build(self, shape, monkeypatch):
        graph = _build_shapes()[shape]
        built_numpy = CSRGraph.from_graph(graph)
        monkeypatch.setattr(csr_module, "np", None)
        built_pure = CSRGraph.from_graph(graph)
        assert built_numpy.num_vertices == built_pure.num_vertices
        assert built_numpy.num_edges == built_pure.num_edges
        assert built_numpy.labels == built_pure.labels
        assert [type(v) for v in built_numpy.labels] == [
            type(v) for v in built_pure.labels
        ]
        assert built_numpy.index == built_pure.index
        for field in CSRGraph.ARRAY_FIELDS:
            assert list(getattr(built_numpy, field)) == list(
                getattr(built_pure, field)
            ), field


def _numpy_and_pure_enumeration(graph: Graph, monkeypatch):
    """``(numpy, pure)`` enumeration of one snapshot, as lists.

    Each is ``(supports, tri_edges, supports without the list, count)``.
    """
    csr = CSRGraph.from_graph(graph)

    def run():
        supports, tri_edges = supports_and_triangles(csr)
        return (
            list(supports),
            list(tri_edges),
            triangle_supports(csr),
            kernels.triangle_count(csr),
        )

    numpy_out = run()
    with monkeypatch.context() as patch:
        patch.setattr(csr_module, "np", None)
        pure_out = run()
    return numpy_out, pure_out


@pytest.mark.skipif(csr_module.np is None, reason="needs numpy installed")
class TestWedgeFilter:
    """The byte-table prefilter never changes what the wedge join finds."""

    @pytest.mark.parametrize("name", ZOO_NAMES)
    def test_colliding_table_matches_merge_loop(self, name, monkeypatch):
        # Four slots: nearly every open wedge lands on a set slot, so the
        # binary search behind the filter decides them all.
        monkeypatch.setattr(kernels, "_FILTER_SLOTS_PER_EDGE", 0)
        graph = zoo()[name]
        if graph.num_edges:
            table = kernels._edge_index(CSRGraph.from_graph(graph))[3]
            assert len(table) == 4
        numpy_out, pure_out = _numpy_and_pure_enumeration(graph, monkeypatch)
        assert numpy_out == pure_out

    @settings(max_examples=60, deadline=None)
    @given(graphs(max_vertices=20))
    def test_default_table_matches_merge_loop(self, graph):
        with pytest.MonkeyPatch.context() as monkeypatch:
            numpy_out, pure_out = _numpy_and_pure_enumeration(
                graph, monkeypatch
            )
        assert numpy_out == pure_out

    def test_ranges_concatenate_to_whole_graph(self):
        csr = CSRGraph.from_graph(relaxed_caveman(10, 8, 0.2, seed=3))
        index = kernels._edge_index(csr)
        whole = kernels._forward_wedges(csr)
        cuts = (0, 7, 8, 31, csr.num_vertices)
        parts = [
            kernels._forward_wedges(csr, lo, hi, index)
            for lo, hi in zip(cuts, cuts[1:])
        ]
        for column, pieces in zip(whole, zip(*parts)):
            assert column.tolist() == [e for p in pieces for e in p.tolist()]


def _restore_collector(was_enabled: bool) -> None:
    if was_enabled:
        gc.enable()
    else:
        gc.disable()


class TestCollectorPause:
    """The decode pauses the cyclic GC and leaves its switch as found."""

    def test_decode_leaves_switch_as_found(self, numpy_mode):
        graph = relaxed_caveman(6, 6, 0.2, seed=4)
        csr = CSRGraph.from_graph(graph)
        kappa, order = peel(csr)
        was_enabled = gc.isenabled()
        try:
            gc.enable()
            csr.decode_kappa(kappa, order)
            assert gc.isenabled()
            gc.disable()
            csr.decode_kappa(kappa, order)
            assert not gc.isenabled()
        finally:
            _restore_collector(was_enabled)

    def test_decode_runs_with_collector_off(self, numpy_mode, monkeypatch):
        seen = []

        @contextlib.contextmanager
        def recording():
            with collector_paused():
                seen.append(gc.isenabled())
                yield

        monkeypatch.setattr(csr_module, "collector_paused", recording)
        csr = CSRGraph.from_graph(complete_graph(5))
        csr.decode_kappa(*peel(csr))
        assert seen == [False]

    @pytest.mark.parametrize("enabled", [True, False])
    def test_exception_restores_switch(self, enabled):
        was_enabled = gc.isenabled()
        try:
            _restore_collector(enabled)
            with pytest.raises(RuntimeError, match="inside"):
                with collector_paused():
                    assert not gc.isenabled()
                    raise RuntimeError("raised inside the pause")
            assert gc.isenabled() is enabled
        finally:
            _restore_collector(was_enabled)
