"""The batched peel (repro.fast.peelers) behind ``backend="csr"``.

The level-synchronous peel is a different walk of Algorithm 1 than the
reference's bucket queue — batched decrements against pre-sub-round
bounds instead of one decrement at a time — so this file pins the
contracts the conformance matrix relies on:

* kappa bit-identity with the reference backend (fixed zoo + hypothesis);
* the canonical order contract: deterministic, non-decreasing in kappa,
  identical between the numpy and pure-python code paths (including the
  telemetry counters, so a numpy-less CI leg measures the same algorithm);
* PeelStats telemetry (levels / batched_decrements / bound_skips) wired
  through ``peel`` and the engine's ``csr`` backend and its alias;
* input validation of the raw ``run_peel`` entry point.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import triangle_kcore_decomposition
from repro.engine import Engine
from repro.fast import (
    CSRGraph,
    csr_decomposition,
    run_peel,
    supports_and_triangles,
)
from repro.fast import csr as csr_mod, peelers
from repro.fast.parallel import parallel_decomposition
from repro.graph import Graph, complete_graph, erdos_renyi, relaxed_caveman


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
        # Triangle-dense: many levels and sub-rounds, triangles shared by
        # several frontier edges of one sub-round.
        "caveman": relaxed_caveman(12, 10, 0.15, seed=5),
    }


ZOO_NAMES = tuple(zoo())


def as_lists(output: tuple) -> tuple:
    """Peel output with every int64 array as a list (lists pass through).

    The peel hands arrays with numpy and lists without, so outputs are
    compared in list form.
    """
    return tuple(
        value.tolist() if hasattr(value, "tolist") else value for value in output
    )


def peel_pair(graph: Graph, stats: dict | None = None):
    """``run_peel``'s ``(kappa, order)`` on ``graph``, as lists."""
    csr = CSRGraph.from_graph(graph)
    pre = supports_and_triangles(csr)
    return as_lists(run_peel(csr.num_edges, pre[0], pre[1], stats=stats))


def assert_csr_matches_reference(graph: Graph) -> None:
    expected = triangle_kcore_decomposition(graph, backend="reference")
    result = csr_decomposition(graph)
    assert result.kappa == expected.kappa
    kappas = [result.kappa[e] for e in result.processing_order]
    assert kappas == sorted(kappas)


# ------------------------------------------------------------------ #
# kappa identity
# ------------------------------------------------------------------ #


class TestKappaIdentity:
    @pytest.mark.parametrize("name", ZOO_NAMES)
    def test_csr_kappa_equals_reference(self, name):
        assert_csr_matches_reference(zoo()[name])

    @pytest.mark.parametrize("name", ZOO_NAMES)
    def test_vector_order_deterministic_and_sorted(self, name):
        graph = zoo()[name]
        kappa, order = peel_pair(graph)
        kappa2, order2 = peel_pair(graph)
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
def test_csr_matches_reference_on_random_graphs(graph):
    assert_csr_matches_reference(graph)


# ------------------------------------------------------------------ #
# numpy / pure bit-identity
# ------------------------------------------------------------------ #


def both_paths(graph: Graph):
    """``(numpy, pure)`` raw outputs, counters included, on ``graph``.

    The numpy path returns arrays and the pure path lists, so both are
    compared as lists.
    """
    csr = CSRGraph.from_graph(graph)
    supports, tri_edges = supports_and_triangles(csr)
    return (
        as_lists(peelers._peel_numpy(csr.num_edges, supports, tri_edges)),
        as_lists(peelers._peel_pure(csr.num_edges, supports, tri_edges)),
    )


class TestNumpyPureIdentity:
    # The paths are called directly: run_peel sends small inputs down the
    # pure path even with numpy, which would make a comparison through it
    # vacuous on most of the zoo.
    @pytest.mark.skipif(csr_mod.np is None, reason="needs numpy installed")
    @pytest.mark.parametrize("name", ZOO_NAMES)
    def test_pure_path_bit_identical_including_stats(self, name):
        numpy_out, pure_out = both_paths(zoo()[name])
        assert pure_out == numpy_out

    @settings(max_examples=50, deadline=None)
    @given(graphs())
    def test_pure_path_bit_identical_on_random_graphs(self, graph):
        if csr_mod.np is None:
            return  # only one path exists; nothing to compare
        numpy_out, pure_out = both_paths(graph)
        assert pure_out == numpy_out

    @pytest.mark.skipif(csr_mod.np is None, reason="needs numpy installed")
    @pytest.mark.parametrize(
        "min_triangles, path", [(10, "numpy"), (11, "pure")]
    )
    def test_numpy_path_from_min_triangles(
        self, monkeypatch, min_triangles, path
    ):
        # K5 holds 10 triangles: the numpy path runs from the threshold up.
        taken = []
        for name in ("numpy", "pure"):
            real = getattr(peelers, f"_peel_{name}")
            monkeypatch.setattr(
                peelers,
                f"_peel_{name}",
                lambda *args, _n=name, _f=real: taken.append(_n) or _f(*args),
            )
        monkeypatch.setattr(peelers, "NUMPY_MIN_TRIANGLES", min_triangles)
        kappa, _ = peel_pair(complete_graph(5))
        assert taken == [path]
        assert kappa == [3] * 10


class TestInputForms:
    """The peel takes supports_and_triangles' arrays or plain lists alike."""

    @pytest.mark.skipif(csr_mod.np is None, reason="needs numpy installed")
    @pytest.mark.parametrize("name", ZOO_NAMES)
    def test_arrays_and_lists_give_identical_output(self, name):
        np = csr_mod.np
        csr = CSRGraph.from_graph(zoo()[name])
        supports, tri_edges = supports_and_triangles(csr)
        assert isinstance(supports, np.ndarray)
        assert isinstance(tri_edges, np.ndarray)
        kept = (supports.copy(), tri_edges.copy())
        array_stats: dict = {}
        from_arrays = run_peel(
            csr.num_edges, supports, tri_edges, stats=array_stats
        )
        list_stats: dict = {}
        from_lists = run_peel(
            csr.num_edges, supports.tolist(), tri_edges.tolist(),
            stats=list_stats,
        )
        assert as_lists(from_arrays) == as_lists(from_lists)
        assert array_stats == list_stats
        # Inputs are read-only to the peel.
        assert np.array_equal(supports, kept[0])
        assert np.array_equal(tri_edges, kept[1])
        # Output follows supports_and_triangles' contract: int64 arrays
        # with numpy, whichever input form came in.
        for out in from_arrays + from_lists:
            assert isinstance(out, np.ndarray)
            assert out.dtype == np.int64


# ------------------------------------------------------------------ #
# telemetry
# ------------------------------------------------------------------ #


class TestPeelStats:
    def test_vector_stats_counters_move(self):
        stats: dict = {}
        peel_pair(erdos_renyi(40, 0.3, seed=3), stats)
        assert stats["executor"] == "vector"
        assert stats["levels"] >= 1
        assert stats["batched_decrements"] > 0
        assert stats["bound_skips"] >= 0

    def test_empty_graph_zeroes_stats(self):
        stats: dict = {}
        kappa, order = peel_pair(Graph(), stats)
        assert kappa == [] and order == []
        assert stats["levels"] == 0
        assert stats["batched_decrements"] == 0

    @pytest.mark.parametrize("backend", ["csr", "csr-vec"])
    def test_engine_records_peel_section(self, backend):
        engine = Engine(max_cached_graphs=0)
        engine.decompose(erdos_renyi(40, 0.2, seed=4), backend=backend)
        payload = engine.stats_dict()
        assert payload["backend_calls"][backend] == 1
        section = payload["peel"]
        assert section["executor"] == "vector"
        assert section["runs"] == 1
        assert section["levels"] >= 1


# ------------------------------------------------------------------ #
# composition: the parallel delegate
# ------------------------------------------------------------------ #


class TestComposition:
    @pytest.mark.parametrize("seed", [2, 3, 7])
    def test_parallel_vec_order_identical_to_csr_vec(self, seed):
        # The repro.fast.parallel delegate composes the same peel, so its
        # order is csr's (alias csr-vec) bit for bit.
        graph = erdos_renyi(60, 0.15, seed=seed)
        expected = csr_decomposition(graph)
        result = parallel_decomposition(graph)
        assert result.kappa == expected.kappa
        assert result.processing_order == expected.processing_order


# ------------------------------------------------------------------ #
# validation
# ------------------------------------------------------------------ #


class TestValidation:
    def test_inconsistent_input_rejected(self):
        # supports say one triangle-incidence, tri_edges says none.
        with pytest.raises(ValueError, match="supports/triangles disagree"):
            run_peel(1, [3], [])

    def test_kernel_level_stats_threading(self):
        # peel() forwards stats= to run_peel.
        from repro.fast.kernels import peel

        csr = CSRGraph.from_graph(complete_graph(5))
        stats: dict = {}
        kappa, order = peel(csr, stats=stats)
        assert stats["executor"] == "vector"
        assert as_lists((kappa, order)) == as_lists(peel(csr))
