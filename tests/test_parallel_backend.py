"""Tests of what the retired process-parallel backend left in place.

The ``parallel`` / ``parallel-vec`` backends, their process pool and the
shared-memory transport are gone; ``backend="parallel"`` is refused as an
unknown backend (see ``test_backend_csr``).  What remains, and is pinned
here:

* the in-process ``repro.fast.parallel`` delegates the benchmark tracer
  imports — bit-identical to the csr kernels, no process ever started;
* the arc-balanced vertex-range partitioner, which now lives on as the
  external backend's ``_partition_ranges`` (including the hypothesis
  tiling property);
* ``BackendError`` and the engine surfacing it, the ``auto`` policy that
  replaced the parallel tiering, the stats schema without its
  ``parallel`` section, and the ``Engine.map_decompose`` batch API.
"""

from __future__ import annotations

import multiprocessing
from types import SimpleNamespace

import pytest

from repro.engine import Engine, EngineStats, STATS_SCHEMA
from repro.exceptions import BackendError, ReproError
from repro.fast import (
    AUTO_MIN_WORK,
    CSRGraph,
    csr_decomposition,
    resolve_backend,
    supports_and_triangles,
)
from repro.fast import csr as csr_mod
from repro.fast.external import _partition_ranges
from repro.fast.parallel import (
    parallel_decomposition,
    parallel_supports_and_triangles,
)
from repro.graph import Graph, complete_graph, erdos_renyi

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover - hypothesis is a dev dependency
    HAVE_HYPOTHESIS = False


def er(seed: int = 0, n: int = 60, p: float = 0.15) -> Graph:
    return erdos_renyi(n, p, seed=seed)


def shard_ranges(csr: CSRGraph, shards: int):
    return _partition_ranges(csr.indptr, csr.num_vertices, shards)


# ------------------------------------------------------------------ #
# the in-process delegates: bit-identity with the csr backend
# ------------------------------------------------------------------ #


class TestBitIdentity:
    @pytest.mark.parametrize("seed", [2, 3, 5, 16])
    def test_inprocess_matches_csr_exactly(self, seed):
        graph = er(seed=seed)
        expected = csr_decomposition(graph)
        result = parallel_decomposition(graph)
        assert result.kappa == expected.kappa
        assert result.processing_order == expected.processing_order

    def test_counters_identical_to_csr(self):
        graph = er(seed=2)
        csr_counters: dict = {}
        par_counters: dict = {}
        csr_decomposition(graph, counters=csr_counters)
        parallel_decomposition(graph, counters=par_counters)
        assert par_counters == csr_counters

    def test_counters_deterministic_across_runs(self):
        graph = er(seed=3)
        runs = []
        for _ in range(2):
            counters: dict = {}
            parallel_decomposition(graph, counters=counters)
            runs.append(counters)
        assert runs[0] == runs[1]


class TestShortCircuitAndDegenerates:
    def test_workers_1_never_builds_a_pool(self, monkeypatch):
        def refuse(process):
            raise AssertionError(f"delegate started a process: {process!r}")

        monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", refuse)
        graph = er(seed=4)
        result = parallel_decomposition(graph)
        assert result.kappa == csr_decomposition(graph).kappa
        csr = CSRGraph.from_graph(graph)
        assert list(map(list, parallel_supports_and_triangles(csr))) == list(
            map(list, supports_and_triangles(csr))
        )
        assert multiprocessing.active_children() == []

    def test_empty_graph(self):
        result = parallel_decomposition(Graph())
        assert result.kappa == {}
        assert result.processing_order == []

    def test_vertices_without_edges(self):
        graph = Graph(vertices=range(10))
        result = parallel_decomposition(graph)
        assert result.kappa == {}

    def test_triangle_free_graph(self):
        graph = Graph(edges=[(0, i) for i in range(1, 40)])
        result = parallel_decomposition(graph)
        assert set(result.kappa.values()) == {0}


# ------------------------------------------------------------------ #
# arc-balanced vertex ranges (the external backend's partitioner)
# ------------------------------------------------------------------ #


class TestShardRanges:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("shards", [1, 2, 3, 7, 64])
    def test_partition_properties(self, seed, shards):
        csr = CSRGraph.from_graph(er(seed=seed, n=50, p=0.12))
        ranges = shard_ranges(csr, shards)
        assert 1 <= len(ranges) <= max(shards, 1)
        assert ranges[0][0] == 0
        assert ranges[-1][1] == csr.num_vertices
        for (_, hi), (lo, _) in zip(ranges, ranges[1:]):
            assert hi == lo  # contiguous, non-overlapping
        assert all(lo < hi for lo, hi in ranges)

    def test_empty_graph_yields_no_ranges(self):
        assert shard_ranges(CSRGraph.from_graph(Graph()), 4) == []

    def test_arc_balance_beats_vertex_balance_on_hub_graphs(self):
        # Degree-ordered relabeling puts the hub last; arc-balanced cuts
        # must not leave the whole workload in the final range.
        graph = Graph(edges=[(0, i) for i in range(1, 101)])
        csr = CSRGraph.from_graph(graph)
        ranges = shard_ranges(csr, 4)
        arcs = [csr.indptr[hi] - csr.indptr[lo] for lo, hi in ranges]
        total = csr.indptr[csr.num_vertices]
        assert max(arcs) < total  # the hub range does not own everything


if HAVE_HYPOTHESIS:

    class TestShardTilingProperty:
        """Hypothesis: the partitioner tiles [0, n) for any degree shape.

        The strategy builds adversarial shapes directly from degree
        sequences — empty vertices, one mega-hub, long paths, duplicate
        degrees — rather than from uniform random graphs, because the
        bisect-based cut placement only gets interesting when the arc
        prefix has plateaus (runs of isolated vertices) and cliffs (hubs).
        """

        @staticmethod
        def _graph_from_stubs(stubs):
            # Half-edge pairing: any even-sum degree-ish sequence becomes
            # some multigraph; collapse to the simple graph it induces.
            edges = []
            flat = [v for v, d in enumerate(stubs) for _ in range(d)]
            for u, v in zip(flat[::2], flat[1::2]):
                if u != v:
                    edges.append((u, v))
            vertices = range(len(stubs))
            return Graph(vertices=vertices, edges=edges)

        @given(
            stubs=st.lists(
                st.integers(min_value=0, max_value=12), min_size=1, max_size=40
            ),
            shards=st.integers(min_value=1, max_value=64),
        )
        @settings(max_examples=150, deadline=None)
        def test_tiles_exactly(self, stubs, shards):
            csr = CSRGraph.from_graph(self._graph_from_stubs(stubs))
            ranges = shard_ranges(csr, shards)
            if csr.num_vertices == 0:
                assert ranges == []
                return
            assert ranges[0][0] == 0
            assert ranges[-1][1] == csr.num_vertices
            for (_, hi), (lo, _) in zip(ranges, ranges[1:]):
                assert hi == lo
            assert all(lo < hi for lo, hi in ranges)

        @given(
            stubs=st.lists(
                st.integers(min_value=0, max_value=8), min_size=3, max_size=30
            ),
        )
        @settings(max_examples=100, deadline=None)
        def test_merged_supports_match_sequential(self, stubs):
            csr = CSRGraph.from_graph(self._graph_from_stubs(stubs))
            sequential = list(map(list, supports_and_triangles(csr)))
            assert list(map(list, parallel_supports_and_triangles(csr))) == (
                sequential
            )


# ------------------------------------------------------------------ #
# failure contract
# ------------------------------------------------------------------ #


class TestFailureContract:
    def test_backend_error_is_repro_error(self):
        assert issubclass(BackendError, ReproError)

    def test_engine_surfaces_backend_error(self, tmp_path):
        # A spill directory path occupied by a regular file is a backend
        # fault, surfaced as the typed error rather than a raw OSError.
        blocker = tmp_path / "spill"
        blocker.write_text("not a directory")
        engine = Engine(spill_dir=str(blocker), max_cached_graphs=0)
        with pytest.raises(BackendError):
            engine.decompose(er(seed=8), backend="external")


# ------------------------------------------------------------------ #
# auto-selection policy
# ------------------------------------------------------------------ #


class TestAutoPolicy:
    def test_auto_stays_in_process_below_threshold(self):
        half = AUTO_MIN_WORK // 2
        for edges in (half - 1, half, 8 * half):
            graph = SimpleNamespace(num_edges=edges, num_vertices=edges)
            assert resolve_backend("auto", graph) in ("reference", "csr", "csr-vec")

    def test_auto_composition_without_numpy(self, monkeypatch):
        monkeypatch.setattr(csr_mod, "np", None)
        # m = n = AUTO_MIN_WORK / 2 puts 2m²/n exactly on the threshold.
        big = SimpleNamespace(
            num_edges=AUTO_MIN_WORK // 2, num_vertices=AUTO_MIN_WORK // 2
        )
        assert resolve_backend("auto", big) == "csr"

    def test_membership_error_contract(self):
        graph = complete_graph(4)
        for backend in ("csr", "csr-vec"):
            with pytest.raises(ValueError, match="membership"):
                resolve_backend(backend, graph, needs_reference=True)
        assert resolve_backend("auto", graph, needs_reference=True) == "reference"


# ------------------------------------------------------------------ #
# engine stats: schema /8
# ------------------------------------------------------------------ #


class TestStatsSchema:
    def test_schema_bumped(self):
        assert STATS_SCHEMA == "repro.engine.stats/8"

    def test_v1_keys_still_present(self):
        # Old readers keep working: the /1 keys survive every bump, /7
        # dropped only the parallel section and /8 only the batch one.
        payload = EngineStats().as_dict()
        assert {"schema", "counters", "backend_calls", "stage_seconds"} <= (
            set(payload)
        )
        assert "parallel" not in payload
        assert "batch" not in payload


# ------------------------------------------------------------------ #
# Engine.map_decompose
# ------------------------------------------------------------------ #


class TestMapDecompose:
    def test_results_in_input_order(self):
        engine = Engine()
        g1, g2 = complete_graph(4), complete_graph(5)
        r1, r2 = engine.map_decompose([g1, g2], backend="csr")
        assert r1.max_kappa == 2
        assert r2.max_kappa == 3

    def test_duplicates_served_from_cache(self):
        engine = Engine()
        graph = er(seed=11)
        results = engine.map_decompose([graph, graph, graph])
        assert results[0] is results[1] is results[2]
        assert engine.stats.cache_hits == 2
        assert engine.stats.counters["batch_calls"] == 1
        assert engine.stats.counters["batch_graphs"] == 3

    def test_parallel_batch_matches_reference(self):
        engine = Engine(max_cached_graphs=0)
        graphs = [er(seed=s, n=40) for s in range(3)]
        results = engine.map_decompose(graphs, backend="csr-vec")
        for graph, result in zip(graphs, results):
            assert result.kappa == csr_decomposition(graph).kappa
        assert engine.stats_dict()["backend_calls"]["csr-vec"] == 3

    def test_mutation_between_batches_invalidates(self):
        engine = Engine()
        graph = complete_graph(4)
        (first,) = engine.map_decompose([graph])
        graph.add_edge(0, 99)
        graph.add_edge(1, 99)
        (second,) = engine.map_decompose([graph])
        assert second is not first
        assert second.kappa_of(0, 99) == 1
