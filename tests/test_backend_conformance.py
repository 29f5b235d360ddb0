"""Cross-backend conformance: every registered backend, same answers.

The matrix axes:

* **backends** — every entry of the engine registry (``reference``,
  ``csr``, ``csr-vec``, ``external``, ``dynamic``) plus
  a dummy backend registered at test time through
  ``Engine.register_backend``, proving third-party entrants ride the same
  contract (new registry entries join the matrix automatically), and the
  in-process ``repro.fast.parallel`` delegates the benchmark tracer
  imports, registered the same way under their old names;
* **graphs** — the paper's Figure 2/3 examples, cliques, degenerate
  shapes, seeded random graphs, the final state of every committed fuzz
  corpus bundle, and hypothesis-generated graphs.

Asserted per cell: the kappa map equals the reference backend's exactly;
processing order is the one canonical order wherever the batched peel
runs (``csr`` == its alias ``csr-vec`` == ``external`` == the
``repro.fast.parallel`` delegate); triangle counts
agree across counting backends; membership bookkeeping is refused by every backend
that cannot provide it (error contract), and the ``auto`` policy degrades
instead of erroring.  Each check runs on a fresh cache-disabled engine so
no backend can serve another's artifact.
"""

from __future__ import annotations

import glob
import hashlib
import os

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import triangle_kcore_decomposition
from repro.engine import Engine
from repro.engine.engine import _BUILTIN_BACKENDS, BACKENDS
from repro.fast import csr as csr_module, csr_decomposition
from repro.fast.parallel import parallel_decomposition
from repro.graph import Graph, complete_graph, erdos_renyi
from repro.graph.triangles import count_triangles
from repro.testing import ReproBundle

ALL_BACKENDS = tuple(_BUILTIN_BACKENDS)

#: The names the ``repro.fast.parallel`` delegate registers under (the
#: retired process-parallel backends' names).
COMPAT_BACKENDS = ("parallel", "parallel-vec")

CORPUS_DIR = os.path.join(os.path.dirname(__file__), "corpus")
CORPUS_PATHS = sorted(glob.glob(os.path.join(CORPUS_DIR, "*.json")))


def fixed_graphs() -> dict:
    """Named graph zoo shared by every matrix cell."""
    two_k4 = complete_graph(4)
    for u in (10, 11, 12):
        two_k4.add_edge(3, u)
    for i, u in enumerate((10, 11, 12)):
        for v in (10, 11, 12)[i + 1 :]:
            two_k4.add_edge(u, v)
    return {
        "fig2": Graph(
            edges=[
                ("A", "B"), ("A", "C"), ("B", "C"), ("B", "D"),
                ("B", "E"), ("C", "D"), ("C", "E"), ("D", "E"),
            ]
        ),
        "fig3": Graph(
            edges=[
                ("A", "B"), ("B", "C"), ("A", "E"), ("A", "F"),
                ("E", "F"), ("C", "D"), ("C", "E"), ("D", "E"),
            ]
        ),
        "k5": complete_graph(5),
        "k7": complete_graph(7),
        "two_k4": two_k4,
        "empty": Graph(),
        "single_edge": Graph(edges=[(0, 1)]),
        "star": Graph(edges=[(0, i) for i in range(1, 12)]),
        "path": Graph(edges=[(i, i + 1) for i in range(10)]),
        "er_small": erdos_renyi(25, 0.25, seed=0),
        "er_medium": erdos_renyi(60, 0.12, seed=1),
    }


GRAPH_NAMES = tuple(fixed_graphs())


def fresh_engine(**kwargs) -> Engine:
    kwargs.setdefault("max_cached_graphs", 0)
    return Engine(**kwargs)


def register_mirror(engine: Engine) -> None:
    """A dummy third-party backend: reference under another name."""

    def mirror(eng, graph, store_membership):
        return triangle_kcore_decomposition(
            graph, backend="reference", store_membership=store_membership
        )

    engine.register_backend("mirror", mirror)


def register_compat(engine: Engine) -> None:
    """The ``repro.fast.parallel`` delegates as third-party backends."""
    def compat(eng, graph, store_membership):
        assert not store_membership
        return parallel_decomposition(graph)

    for name in COMPAT_BACKENDS:
        engine.register_backend(name, compat)


# ------------------------------------------------------------------ #
# kappa conformance
# ------------------------------------------------------------------ #


class TestKappaConformance:
    @pytest.mark.parametrize(
        "backend", ALL_BACKENDS + ("mirror",) + COMPAT_BACKENDS
    )
    @pytest.mark.parametrize("name", GRAPH_NAMES)
    def test_fixed_graphs(self, backend, name):
        graph = fixed_graphs()[name]
        expected = triangle_kcore_decomposition(graph, backend="reference")
        engine = fresh_engine()
        if backend == "mirror":
            register_mirror(engine)
        if backend in COMPAT_BACKENDS:
            register_compat(engine)
        result = engine.decompose(graph, backend=backend)
        assert result.kappa == expected.kappa, (
            f"backend {backend!r} disagrees with reference on {name!r}"
        )

    @pytest.mark.parametrize("name", GRAPH_NAMES)
    def test_parallel_bit_identical_to_csr(self, name):
        graph = fixed_graphs()[name]
        expected = csr_decomposition(graph)
        result = parallel_decomposition(graph)
        assert result.kappa == expected.kappa
        assert result.processing_order == expected.processing_order

    @pytest.mark.parametrize("backend", ALL_BACKENDS)
    @pytest.mark.parametrize("path", CORPUS_PATHS, ids=os.path.basename)
    def test_corpus_final_states(self, backend, path):
        graph = ReproBundle.load(path).script.final_graph()
        expected = triangle_kcore_decomposition(graph, backend="reference")
        result = fresh_engine().decompose(graph, backend=backend)
        assert result.kappa == expected.kappa


# ------------------------------------------------------------------ #
# one peel: order identity
# ------------------------------------------------------------------ #


class TestExecutorFamilies:
    """Every backend that runs the batched peel gives one canonical order.

    Kappa must equal the reference everywhere (covered by the matrix
    above); processing order must be *bit-identical* across ``csr``, its
    ``csr-vec`` alias and ``external`` — a triangle file feeding the same
    level-synchronous peel cannot change the order — while the
    reference may legitimately order ties differently.
    """

    @pytest.mark.parametrize("name", GRAPH_NAMES)
    def test_csr_vec_alias_bit_identical_to_csr(self, name):
        graph = fixed_graphs()[name]
        runs = []
        for backend in ("csr", "csr-vec"):
            engine = fresh_engine()
            result = engine.decompose(graph, backend=backend)
            runs.append(
                (result.kappa, result.processing_order,
                 engine.stats_dict()["peel"])
            )
        assert runs[0] == runs[1]

    @pytest.mark.parametrize("name", GRAPH_NAMES)
    def test_external_bit_identical_to_csr_vec(self, name):
        # The out-of-core backend runs csr's peel over a triangle file: it
        # must reproduce csr's kappa, canonical order and peel counters.
        from repro.fast.external import external_decomposition

        graph = fixed_graphs()[name]
        expected_stats: dict = {}
        expected = csr_decomposition(graph, peel_stats=expected_stats)
        stats: dict = {}
        result = external_decomposition(graph, peel_stats=stats)
        assert result.kappa == expected.kappa
        assert result.processing_order == expected.processing_order
        stats.pop("executor")
        expected_stats.pop("executor")
        assert stats == expected_stats

    @pytest.mark.parametrize("name", GRAPH_NAMES)
    def test_vector_order_is_valid_and_kappa_sorted(self, name):
        graph = fixed_graphs()[name]
        result = csr_decomposition(graph)
        assert set(result.processing_order) == set(result.kappa)
        kappas = [result.kappa[e] for e in result.processing_order]
        assert kappas == sorted(kappas)  # non-decreasing, like Algorithm 1


#: sha256 prefix of ``repr([(edge, kappa), ...])`` in processing order, as
#: ``csr`` decoded each fixed graph before the decode moved into numpy
#: (the same with and without numpy).
DECODED_DIGESTS = {
    "fig2": "5ae6c2dfb5655464",
    "fig3": "f62333956c3058b5",
    "k5": "def72b6d9e2e5d3a",
    "k7": "00499baba930d4aa",
    "two_k4": "05cc42c5b8ea6336",
    "empty": "4f53cda18c2baa0c",
    "single_edge": "56284d1d300b80ab",
    "star": "769900d05f3128ca",
    "path": "bbdfc7f427fb4cd3",
    "er_small": "67a8afb30cfe3b61",
    "er_medium": "6910e109555a03f8",
}


class TestDecode:
    """The csr decode: kappa iterates in processing order, values unchanged."""

    @pytest.mark.parametrize("numpy_mode", ["numpy", "pure"])
    @pytest.mark.parametrize("name", GRAPH_NAMES)
    def test_order_is_kappa_iteration_and_output_unchanged(
        self, name, numpy_mode, monkeypatch
    ):
        if numpy_mode == "pure":
            monkeypatch.setattr(csr_module, "np", None)
        elif csr_module.np is None:  # pragma: no cover - numpy-less host
            pytest.skip("numpy not installed")
        result = csr_decomposition(fixed_graphs()[name])
        assert result.processing_order == list(result.kappa)
        decoded = [(edge, result.kappa[edge]) for edge in result.processing_order]
        digest = hashlib.sha256(repr(decoded).encode()).hexdigest()[:16]
        assert digest == DECODED_DIGESTS[name]

    def test_decoded_edges_hold_the_graph_label_objects(self):
        graph = Graph()
        labels = [10**6 + i for i in range(6)]  # beyond the small-int cache
        for i, u in enumerate(labels):
            for v in labels[i + 1 :]:
                graph.add_edge(u, v)
        keys = {vertex: vertex for vertex in graph.vertices()}
        result = csr_decomposition(graph)
        for u, v in result.kappa:
            assert u is keys[u] and v is keys[v]


# ------------------------------------------------------------------ #
# triangle-count conformance
# ------------------------------------------------------------------ #


class TestTriangleCountConformance:
    @pytest.mark.parametrize("name", GRAPH_NAMES)
    def test_counting_backends_agree(self, name):
        graph = fixed_graphs()[name]
        reference = count_triangles(graph, backend="reference")
        assert count_triangles(graph, backend="csr") == reference
        assert count_triangles(graph, backend="csr-vec") == reference
        engine = fresh_engine()
        assert engine.count_triangles(graph) == reference


# ------------------------------------------------------------------ #
# error contracts
# ------------------------------------------------------------------ #


class TestErrorContracts:
    @pytest.mark.parametrize(
        "backend", [b for b in ALL_BACKENDS if b != "reference"]
    )
    def test_membership_refused_by_non_reference(self, backend):
        graph = complete_graph(4)
        engine = fresh_engine()
        with pytest.raises(ValueError, match="membership"):
            engine.decompose(graph, backend=backend, store_membership=True)

    def test_membership_served_by_reference_and_auto(self):
        graph = complete_graph(4)
        engine = fresh_engine()
        direct = engine.decompose(
            graph, backend="reference", store_membership=True
        )
        assert direct.membership is not None
        degraded = engine.decompose(graph, backend="auto", store_membership=True)
        assert degraded.membership is not None
        assert degraded.kappa == direct.kappa

    def test_unknown_backend_lists_registry(self):
        engine = fresh_engine()
        with pytest.raises(ValueError, match="unknown backend 'warp'"):
            engine.decompose(complete_graph(4), backend="warp")
        # The low-level resolver names engine-only backends helpfully
        # instead of calling them unknown.
        from repro.fast import resolve_backend

        with pytest.raises(ValueError, match="repro.engine.Engine"):
            resolve_backend("dynamic", complete_graph(4))
        with pytest.raises(ValueError, match="unknown backend"):
            resolve_backend("warp", complete_graph(4))

    def test_backends_listing_matches_registry(self):
        engine = fresh_engine()
        assert engine.backends() == BACKENDS
        register_mirror(engine)
        assert "mirror" in engine.backends()
        # The module constant is itself registry-derived.
        assert BACKENDS == ("auto",) + tuple(_BUILTIN_BACKENDS)

    def test_registered_backend_is_cached_like_builtins(self):
        engine = Engine(max_cached_graphs=4)
        register_mirror(engine)
        graph = complete_graph(5)
        first = engine.decompose(graph, backend="mirror")
        second = engine.decompose(graph, backend="mirror")
        assert first is second
        assert engine.stats.cache_hits == 1


# ------------------------------------------------------------------ #
# hypothesis sweep
# ------------------------------------------------------------------ #


@st.composite
def graphs(draw, max_vertices: int = 14) -> Graph:
    n = draw(st.integers(min_value=2, max_value=max_vertices))
    possible = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(
        st.lists(st.sampled_from(possible), unique=True, max_size=len(possible))
    )
    return Graph(edges=edges, vertices=range(n))


@settings(max_examples=50, deadline=None)
@given(graphs())
def test_every_backend_agrees_on_random_graphs(graph):
    from repro.fast.external import external_decomposition

    expected = triangle_kcore_decomposition(graph, backend="reference")
    csr_stats: dict = {}
    csr = csr_decomposition(graph, peel_stats=csr_stats)
    assert csr.kappa == expected.kappa
    ext_stats: dict = {}
    ext = external_decomposition(graph, peel_stats=ext_stats)
    assert ext.kappa == expected.kappa
    assert ext.processing_order == csr.processing_order
    assert ext_stats["executor"] == "external"
    assert {**ext_stats, "executor": "vector"} == csr_stats
    dyn = Engine(max_cached_graphs=0).decompose(graph, backend="dynamic")
    assert dyn.kappa == expected.kappa
