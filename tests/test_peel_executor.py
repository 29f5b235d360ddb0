"""The peel-executor seam (repro.fast.peelers): scalar vs vector.

The vectorized level-synchronous executor is an entirely different walk
of Algorithm 1 than the scalar bucket-queue — batched decrements against
pre-sub-round bounds instead of one decrement at a time — so this file
pins the contracts the conformance matrix relies on:

* kappa bit-identity with the scalar executor (fixed zoo + hypothesis);
* the vector order contract: deterministic, non-decreasing in kappa,
  identical between the numpy and pure-python code paths (including the
  telemetry counters, so a numpy-less CI leg measures the same algorithm);
* PeelStats telemetry (levels / batched_decrements / bound_skips) wired
  through ``peel`` and the engine's ``csr-vec`` backend;
* input validation of the raw ``run_peel`` entry point.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.engine import Engine
from repro.fast import (
    CSRGraph,
    PEEL_EXECUTORS,
    backend_executor,
    csr_decomposition,
    run_peel,
    supports_and_triangles,
)
from repro.fast import csr as csr_mod
from repro.fast import peelers as peelers_mod
from repro.fast.parallel import parallel_decomposition
from repro.graph import Graph, complete_graph, erdos_renyi


def zoo() -> dict:
    return {
        "fig2": Graph(
            edges=[
                ("A", "B"), ("A", "C"), ("B", "C"), ("B", "D"),
                ("B", "E"), ("C", "D"), ("C", "E"), ("D", "E"),
            ]
        ),
        "k6": complete_graph(6),
        "empty": Graph(),
        "single_edge": Graph(edges=[(0, 1)]),
        "triangle_free_star": Graph(edges=[(0, i) for i in range(1, 15)]),
        "er_small": erdos_renyi(30, 0.2, seed=0),
        "er_medium": erdos_renyi(80, 0.1, seed=1),
        "er_dense": erdos_renyi(40, 0.4, seed=2),
    }


ZOO_NAMES = tuple(zoo())


def peel_pair(graph: Graph, executor: str, stats: dict | None = None):
    csr = CSRGraph.from_graph(graph)
    pre = supports_and_triangles(csr)
    return run_peel(
        csr.num_edges, pre[0], pre[1], executor=executor, stats=stats
    )


# ------------------------------------------------------------------ #
# kappa identity
# ------------------------------------------------------------------ #


class TestKappaIdentity:
    @pytest.mark.parametrize("name", ZOO_NAMES)
    def test_vector_kappa_equals_scalar(self, name):
        graph = zoo()[name]
        scalar_kappa, _ = peel_pair(graph, "scalar")
        vector_kappa, _ = peel_pair(graph, "vector")
        assert vector_kappa == scalar_kappa

    @pytest.mark.parametrize("name", ZOO_NAMES)
    def test_vector_order_deterministic_and_sorted(self, name):
        graph = zoo()[name]
        kappa, order = peel_pair(graph, "vector")
        kappa2, order2 = peel_pair(graph, "vector")
        assert (kappa, order) == (kappa2, order2)
        assert sorted(order) == list(range(len(kappa)))
        assert [kappa[e] for e in order] == sorted(kappa)


@st.composite
def graphs(draw, max_vertices: int = 14) -> Graph:
    n = draw(st.integers(min_value=2, max_value=max_vertices))
    possible = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(
        st.lists(st.sampled_from(possible), unique=True, max_size=len(possible))
    )
    return Graph(edges=edges, vertices=range(n))


@settings(max_examples=100, deadline=None)
@given(graphs())
def test_vector_matches_scalar_on_random_graphs(graph):
    scalar_kappa, _ = peel_pair(graph, "scalar")
    vector_kappa, order = peel_pair(graph, "vector")
    assert vector_kappa == scalar_kappa
    assert [vector_kappa[e] for e in order] == sorted(vector_kappa)


# ------------------------------------------------------------------ #
# numpy / pure bit-identity
# ------------------------------------------------------------------ #


class TestNumpyPureIdentity:
    @pytest.mark.skipif(csr_mod.np is None, reason="needs numpy installed")
    @pytest.mark.parametrize("name", ZOO_NAMES)
    def test_pure_path_bit_identical_including_stats(self, name, monkeypatch):
        graph = zoo()[name]
        numpy_stats: dict = {}
        numpy_out = peel_pair(graph, "vector", numpy_stats)
        monkeypatch.setattr(csr_mod, "np", None)
        pure_stats: dict = {}
        pure_out = peel_pair(graph, "vector", pure_stats)
        assert pure_out == numpy_out
        assert pure_stats == numpy_stats

    @settings(max_examples=50, deadline=None)
    @given(graphs())
    def test_pure_path_bit_identical_on_random_graphs(self, graph):
        if csr_mod.np is None:
            return  # only one path exists; nothing to compare
        numpy_stats: dict = {}
        numpy_out = peel_pair(graph, "vector", numpy_stats)
        saved = csr_mod.np
        csr_mod.np = None
        try:
            pure_stats: dict = {}
            pure_out = peel_pair(graph, "vector", pure_stats)
        finally:
            csr_mod.np = saved
        assert pure_out == numpy_out
        assert pure_stats == numpy_stats


# ------------------------------------------------------------------ #
# telemetry
# ------------------------------------------------------------------ #


class TestPeelStats:
    def test_scalar_stats_shape(self):
        stats: dict = {}
        peel_pair(complete_graph(6), "scalar", stats)
        assert stats["executor"] == "scalar"
        assert stats["levels"] >= 1
        assert stats["batched_decrements"] == 0
        assert stats["bound_skips"] == 0

    def test_vector_stats_counters_move(self):
        stats: dict = {}
        peel_pair(erdos_renyi(40, 0.3, seed=3), "vector", stats)
        assert stats["executor"] == "vector"
        assert stats["levels"] >= 1
        assert stats["batched_decrements"] > 0
        assert stats["bound_skips"] >= 0

    def test_empty_graph_zeroes_stats(self):
        stats: dict = {}
        kappa, order = peel_pair(Graph(), "vector", stats)
        assert kappa == [] and order == []
        assert stats["levels"] == 0
        assert stats["batched_decrements"] == 0

    @pytest.mark.parametrize("backend", ["csr-vec"])
    def test_engine_records_peel_section(self, backend):
        engine = Engine(max_cached_graphs=0)
        engine.decompose(erdos_renyi(40, 0.2, seed=4), backend=backend)
        payload = engine.stats_dict()
        assert payload["backend_calls"][backend] == 1
        section = payload["peel"]
        assert section["executor"] == "vector"
        assert section["runs"] == 1
        assert section["levels"] >= 1

    def test_engine_scalar_backends_record_scalar_executor(self):
        engine = Engine(max_cached_graphs=0)
        engine.decompose(complete_graph(6), backend="csr")
        assert engine.stats_dict()["peel"]["executor"] == "scalar"


# ------------------------------------------------------------------ #
# composition: backend name -> peel executor
# ------------------------------------------------------------------ #


class TestComposition:
    def test_backend_executor_mapping(self):
        assert backend_executor("csr") == "scalar"
        assert backend_executor("csr-vec") == "vector"

    @pytest.mark.parametrize("seed", [2, 3, 7])
    def test_parallel_vec_order_identical_to_csr_vec(self, seed):
        # The repro.fast.parallel delegate composes the same vector
        # executor, so its order is csr-vec's bit for bit.
        graph = erdos_renyi(60, 0.15, seed=seed)
        expected = csr_decomposition(graph, executor="vector")
        result = parallel_decomposition(graph, executor="vector")
        assert result.kappa == expected.kappa
        assert result.processing_order == expected.processing_order


# ------------------------------------------------------------------ #
# validation
# ------------------------------------------------------------------ #


class TestValidation:
    def test_executor_registry(self):
        assert PEEL_EXECUTORS == ("scalar", "vector")
        assert set(PEEL_EXECUTORS) == set(peelers_mod._EXECUTORS)

    def test_unknown_executor_rejected(self):
        with pytest.raises(ValueError, match="unknown peel executor"):
            run_peel(0, [], [], executor="warp")

    def test_inconsistent_input_rejected(self):
        # supports say one triangle-incidence, tri_edges says none.
        with pytest.raises(ValueError, match="supports/triangles disagree"):
            run_peel(1, [3], [], executor="scalar")

    def test_kernel_level_executor_threading(self):
        # peel() forwards executor= and stats= to run_peel.
        from repro.fast.kernels import peel

        csr = CSRGraph.from_graph(complete_graph(5))
        stats: dict = {}
        kappa, order = peel(csr, executor="vector", stats=stats)
        assert stats["executor"] == "vector"
        scalar_kappa, _ = peel(csr)
        assert kappa == scalar_kappa
