"""The ``backend="csr"`` contract: identical results to the reference.

Property-based (hypothesis) comparison of the CSR kernel backend against
the dict-based reference implementation and networkx's independent
``k_truss`` on random Erdős–Rényi and Barabási–Albert graphs, plus the
edge cases the relabeler and kernels must survive.  Every test runs twice:
with numpy available and with the pure-``array`` fallback forced.
"""

from __future__ import annotations

import json
import multiprocessing

import pytest
from hypothesis import given, settings, strategies as st

import repro.fast.csr as csr_module
from repro.baselines import networkx_kappa
from repro.core import triangle_kcore_decomposition
from repro.engine import Engine
from repro.fast import (
    AUTO_MIN_WORK,
    CSRGraph,
    csr_triangle_supports,
    resolve_backend,
    triangle_supports as kernel_triangle_supports,
)
from repro.graph import Graph, barabasi_albert, complete_graph, erdos_renyi
from repro.graph.triangles import count_triangles, triangle_supports


@pytest.fixture(params=["numpy", "pure"])
def numpy_mode(request, monkeypatch):
    """Run the test body with and without the numpy accelerator."""
    if request.param == "pure":
        monkeypatch.setattr(csr_module, "np", None)
    elif csr_module.np is None:  # pragma: no cover - numpy-less environment
        pytest.skip("numpy not installed")
    return request.param


def assert_backends_agree(graph: Graph) -> None:
    reference = triangle_kcore_decomposition(graph, backend="reference")
    fast = triangle_kcore_decomposition(graph, backend="csr")
    assert fast.kappa == reference.kappa
    assert set(fast.processing_order) == set(reference.kappa)
    values = [fast.kappa[edge] for edge in fast.processing_order]
    assert values == sorted(values)


class TestPropertyBased:
    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(min_value=2, max_value=40),
        p=st.floats(min_value=0.0, max_value=0.5),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    def test_erdos_renyi_matches_reference(self, n, p, seed):
        assert_backends_agree(erdos_renyi(n, p, seed=seed))

    @settings(max_examples=25, deadline=None)
    @given(
        n=st.integers(min_value=5, max_value=40),
        m=st.integers(min_value=1, max_value=4),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    def test_barabasi_albert_matches_reference(self, n, m, seed):
        m = min(m, n - 1)
        assert_backends_agree(barabasi_albert(n, m, seed=seed))

    @settings(max_examples=15, deadline=None)
    @given(
        n=st.integers(min_value=3, max_value=25),
        p=st.floats(min_value=0.1, max_value=0.6),
        seed=st.integers(min_value=0, max_value=1_000),
    )
    def test_matches_networkx_truss(self, n, p, seed):
        graph = erdos_renyi(n, p, seed=seed)
        fast = triangle_kcore_decomposition(graph, backend="csr")
        assert fast.kappa == networkx_kappa(graph)

    @settings(max_examples=25, deadline=None)
    @given(
        n=st.integers(min_value=2, max_value=30),
        p=st.floats(min_value=0.0, max_value=0.5),
        seed=st.integers(min_value=0, max_value=1_000),
    )
    def test_supports_and_counts_match_reference(self, n, p, seed):
        graph = erdos_renyi(n, p, seed=seed)
        assert triangle_supports(graph, backend="csr") == triangle_supports(
            graph, backend="reference"
        )
        assert count_triangles(graph, backend="csr") == count_triangles(
            graph, backend="reference"
        )


class TestEdgeCases:
    def test_empty_graph(self, numpy_mode):
        result = triangle_kcore_decomposition(Graph(), backend="csr")
        assert result.kappa == {}
        assert result.processing_order == []
        assert count_triangles(Graph(), backend="csr") == 0

    def test_isolated_vertices_only(self, numpy_mode):
        graph = Graph(vertices=[1, 2, 3])
        result = triangle_kcore_decomposition(graph, backend="csr")
        assert result.kappa == {}

    def test_triangle_free_graph(self, numpy_mode):
        star = Graph(edges=[(0, i) for i in range(1, 9)])
        result = triangle_kcore_decomposition(star, backend="csr")
        assert set(result.kappa.values()) == {0}
        assert count_triangles(star, backend="csr") == 0
        assert set(triangle_supports(star, backend="csr").values()) == {0}

    def test_single_clique(self, numpy_mode):
        for n in range(3, 9):
            result = triangle_kcore_decomposition(complete_graph(n), backend="csr")
            assert set(result.kappa.values()) == {n - 2}

    def test_two_disjoint_cliques(self, numpy_mode):
        graph = complete_graph(6)
        for u, v in complete_graph(4, offset=100).edges():
            graph.add_edge(u, v)
        assert_backends_agree(graph)

    def test_non_integer_labels_round_trip(self, numpy_mode):
        graph = Graph(
            edges=[
                ("alpha", "beta"),
                ("beta", "gamma"),
                ("gamma", "alpha"),
                (("t", 1), "alpha"),
                (("t", 1), "beta"),
            ]
        )
        assert_backends_agree(graph)
        fast = triangle_kcore_decomposition(graph, backend="csr")
        # Keys must be the canonical edges of the input graph, unchanged by
        # the integer relabeling round trip.
        assert set(fast.kappa) == set(graph.edges())

    def test_string_labelled_fig2(self, fig2_graph, numpy_mode):
        fast = triangle_kcore_decomposition(fig2_graph, backend="csr")
        assert fast.kappa_of("A", "B") == 1
        assert fast.kappa_of("B", "C") == 2


class TestNumpyParity:
    """The pure-array fallback must be bit-identical to the numpy path."""

    @pytest.mark.parametrize("seed", range(4))
    def test_identical_results_and_order(self, monkeypatch, seed):
        if csr_module.np is None:  # pragma: no cover
            pytest.skip("numpy not installed")
        graph = erdos_renyi(30, 0.25, seed=seed)
        with_numpy = triangle_kcore_decomposition(graph, backend="csr")
        monkeypatch.setattr(csr_module, "np", None)
        without_numpy = triangle_kcore_decomposition(graph, backend="csr")
        assert with_numpy.kappa == without_numpy.kappa
        assert with_numpy.processing_order == without_numpy.processing_order

    def test_identical_csr_arrays(self, monkeypatch):
        if csr_module.np is None:  # pragma: no cover
            pytest.skip("numpy not installed")
        graph = barabasi_albert(40, 3, seed=9)
        built_numpy = csr_module.CSRGraph.from_graph(graph)
        monkeypatch.setattr(csr_module, "np", None)
        built_pure = csr_module.CSRGraph.from_graph(graph)
        assert built_numpy.labels == built_pure.labels
        assert built_numpy.indptr == built_pure.indptr
        assert built_numpy.indices == built_pure.indices
        assert built_numpy.arc_eids == built_pure.arc_eids
        assert built_numpy.forward_start == built_pure.forward_start
        assert built_numpy.edge_endpoints == built_pure.edge_endpoints


class TestPythonIntContract:
    """Every public value is a Python ``int`` in both numpy modes.

    ``--stats`` and ``GET /kappa`` serialize these values with ``json``,
    which rejects numpy integer scalars; ``type(v) is int`` also rules out
    ``bool`` and int subclasses.
    """

    @staticmethod
    def assert_ints(values) -> None:
        values = list(values)
        assert values
        bad = [v for v in values if type(v) is not int]
        assert not bad, f"non-int values: {bad[:5]}"

    @pytest.mark.parametrize("backend", ["csr", "csr-vec"])
    def test_decomposition_values_are_python_ints(self, numpy_mode, backend):
        graph = erdos_renyi(40, 0.3, seed=5)
        counters: dict = {}
        result = triangle_kcore_decomposition(
            graph, backend=backend, counters=counters
        )
        self.assert_ints(result.kappa.values())
        self.assert_ints(v for edge in result.processing_order for v in edge)
        self.assert_ints(counters.values())
        json.dumps(
            {
                "kappa": sorted(result.kappa.items()),
                "order": result.processing_order,
                "counters": counters,
            }
        )

    @pytest.mark.parametrize("backend", ["csr", "csr-vec"])
    def test_engine_stats_serialize(self, numpy_mode, backend):
        engine = Engine(max_cached_graphs=0)
        engine.decompose(erdos_renyi(40, 0.3, seed=6), backend=backend)
        payload = engine.stats_dict()
        section = payload["peel"]
        self.assert_ints(
            section[key]
            for key in ("levels", "batched_decrements", "bound_skips")
        )
        json.dumps(payload)

    def test_supports_are_python_ints(self, numpy_mode):
        graph = erdos_renyi(30, 0.3, seed=7)
        supports = kernel_triangle_supports(CSRGraph.from_graph(graph))
        assert type(supports) is list
        self.assert_ints(supports)
        by_edge = csr_triangle_supports(graph)
        self.assert_ints(by_edge.values())
        json.dumps(sorted(by_edge.items()))


class TestBackendResolution:
    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="unknown backend"):
            triangle_kcore_decomposition(Graph(), backend="gpu")

    def test_membership_forces_reference_on_auto(self):
        graph = erdos_renyi(20, 0.3, seed=1)
        assert resolve_backend("auto", graph, needs_reference=True) == "reference"

    def test_membership_with_explicit_csr_rejected(self):
        graph = erdos_renyi(20, 0.3, seed=1)
        with pytest.raises(ValueError, match="membership"):
            triangle_kcore_decomposition(
                graph, backend="csr", store_membership=True
            )

    def test_auto_picks_by_size(self):
        small = Graph(edges=[(0, 1)])
        assert resolve_backend("auto", small) == "reference"
        big = barabasi_albert(AUTO_MIN_WORK // 2 + 10, 2, seed=0)
        assert 2 * big.num_edges**2 >= AUTO_MIN_WORK * big.num_vertices
        assert resolve_backend("auto", big) == "csr"

    @pytest.mark.parametrize(
        "shape, size, expected",
        [
            # 2m²/n: star of 64 leaves 126.0, of 65 leaves 128.0;
            # K7 (21 edges) 126, K8 (28 edges) 196.
            ("star", 64, "reference"),
            ("star", 65, "csr"),
            ("clique", 7, "reference"),
            ("clique", 8, "csr"),
        ],
    )
    def test_auto_tiers_around_min_work(
        self, numpy_mode, shape, size, expected
    ):
        # The clique switches to csr with 28 edges, the star only with
        # 65: the threshold weighs edges by the average degree.
        if shape == "star":
            graph = Graph(edges=[(0, leaf) for leaf in range(1, size + 1)])
        else:
            graph = complete_graph(size)
        work = 2 * graph.num_edges**2
        assert (work >= AUTO_MIN_WORK * graph.num_vertices) == (
            expected == "csr"
        )
        assert resolve_backend("auto", graph) == expected
        assert Engine().resolve(None, graph) == expected

    @pytest.mark.parametrize("backend", ["parallel", "parallel-vec"])
    def test_retired_parallel_backends_rejected(self, backend):
        graph = complete_graph(4)
        calls = (
            lambda: Engine().decompose(graph, backend=backend),
            lambda: resolve_backend(backend, graph),
            lambda: count_triangles(graph, backend=backend),
        )
        for call in calls:
            with pytest.raises(ValueError, match="unknown backend") as info:
                call()
            for known in ("reference", "csr", "csr-vec", "external"):
                assert repr(known) in str(info.value)

    def test_auto_on_a_large_graph_starts_no_process(self, monkeypatch):
        # A fan: hub 0 joined to every other vertex, plus a matching on
        # the rim, so every rim edge closes a triangle with the hub.
        rim = 43_700
        edges = [(0, v) for v in range(1, rim + 1)]
        edges += [(v, v + 1) for v in range(1, rim, 2)]
        graph = Graph(edges=edges)
        assert graph.num_edges >= 65_536

        def refuse(process):
            raise AssertionError(f"auto started a process: {process!r}")

        monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", refuse)
        result = Engine(max_cached_graphs=0).decompose(graph)
        assert result.max_kappa == 1
        assert multiprocessing.active_children() == []

    def test_explicit_backends_respected(self):
        graph = Graph(edges=[(0, 1)])
        assert resolve_backend("reference", graph) == "reference"
        assert resolve_backend("csr", graph) == "csr"


class TestCLIFlag:
    @pytest.mark.parametrize("backend", ["auto", "reference", "csr"])
    def test_decompose_backend_flag(self, backend, capsys):
        from repro.cli import main

        assert main(["decompose", "synthetic", "--backend", backend]) == 0
        out = capsys.readouterr().out
        assert f"({backend} backend)" in out
        assert "kappa histogram" in out
