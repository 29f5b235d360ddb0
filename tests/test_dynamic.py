"""Tests for incremental Triangle K-Core maintenance (Algorithms 2/5-7).

The central guarantee: after any sequence of edge insertions and deletions,
the maintainer's kappa map is identical to a from-scratch run of
Algorithm 1 on the current graph.
"""

import gc
import random

import pytest

import repro.core.dynamic as dynamic_mod
from repro.core import DynamicTriangleKCore, triangle_kcore_decomposition
from repro.core.dynamic import h_index, insertion_upper_bound
from repro.exceptions import EdgeExistsError, EdgeNotFoundError, SelfLoopError
from repro.graph import Graph, complete_graph, erdos_renyi


def assert_matches_static(maintainer: DynamicTriangleKCore) -> None:
    expected = triangle_kcore_decomposition(maintainer.graph).kappa
    assert maintainer.kappa == expected


class TestHIndex:
    def test_examples(self):
        assert h_index([]) == 0
        assert h_index([0, 0]) == 0
        assert h_index([1]) == 1
        assert h_index([3, 3, 2, 0]) == 2
        assert h_index([5, 5, 5, 5, 5]) == 5

    def test_insertion_upper_bound(self):
        assert insertion_upper_bound([]) == 0
        assert insertion_upper_bound([0]) == 1
        assert insertion_upper_bound([2, 2, 2]) == 3


class TestSingleInsertions:
    def test_lone_triangle_promotes_all_three(self):
        maintainer = DynamicTriangleKCore(Graph(edges=[(0, 1), (1, 2)]))
        maintainer.add_edge(0, 2)
        assert maintainer.kappa == {(0, 1): 1, (1, 2): 1, (0, 2): 1}

    def test_edge_without_triangles(self):
        maintainer = DynamicTriangleKCore(Graph(edges=[(0, 1)]))
        maintainer.add_edge(2, 3)
        assert maintainer.kappa_of(2, 3) == 0

    def test_new_vertex_edge(self):
        maintainer = DynamicTriangleKCore(complete_graph(3))
        maintainer.add_edge(0, 99)
        assert maintainer.kappa_of(0, 99) == 0
        assert_matches_static(maintainer)

    def test_completing_k5(self):
        g = complete_graph(5)
        g.remove_edge(0, 1)
        maintainer = DynamicTriangleKCore(g)
        maintainer.add_edge(0, 1)
        assert set(maintainer.kappa.values()) == {3}

    def test_new_edge_climbs_multiple_levels(self):
        """Re-inserting a K6 edge must lift the new edge to 4 and carry the
        other edges from 3 to 4 in the coupled climb pass."""
        g = complete_graph(6)
        g.remove_edge(0, 1)
        maintainer = DynamicTriangleKCore(g)
        stats = maintainer.add_edge(0, 1)
        assert maintainer.kappa_of(0, 1) == 4
        assert stats.levels_touched >= 1
        assert stats.edges_changed == 16  # e0 + all 15 edges end at 4
        assert_matches_static(maintainer)

    def test_duplicate_edge_rejected(self, triangle_graph):
        maintainer = DynamicTriangleKCore(triangle_graph)
        with pytest.raises(EdgeExistsError):
            maintainer.add_edge(0, 1)

    def test_self_loop_rejected(self, triangle_graph):
        maintainer = DynamicTriangleKCore(triangle_graph)
        with pytest.raises(SelfLoopError):
            maintainer.add_edge(1, 1)


class TestSingleDeletions:
    def test_breaking_lone_triangle(self, triangle_graph):
        maintainer = DynamicTriangleKCore(triangle_graph)
        maintainer.remove_edge(0, 1)
        assert maintainer.kappa == {(1, 2): 0, (0, 2): 0}

    def test_removing_clique_edge(self):
        maintainer = DynamicTriangleKCore(complete_graph(5))
        maintainer.remove_edge(0, 1)
        assert_matches_static(maintainer)
        assert set(maintainer.kappa.values()) == {2}

    def test_missing_edge_rejected(self, triangle_graph):
        maintainer = DynamicTriangleKCore(triangle_graph)
        with pytest.raises(EdgeNotFoundError):
            maintainer.remove_edge(0, 9)

    def test_cascading_demotion(self):
        """Deleting one edge of a chained structure demotes its neighbors."""
        g = complete_graph(4)
        g.add_edge(0, 4)
        g.add_edge(1, 4)
        maintainer = DynamicTriangleKCore(g)
        maintainer.remove_edge(2, 3)
        assert_matches_static(maintainer)


class TestVertexOperations:
    def test_add_vertex(self, triangle_graph):
        maintainer = DynamicTriangleKCore(triangle_graph)
        maintainer.add_vertex(42)
        assert maintainer.graph.has_vertex(42)
        assert_matches_static(maintainer)

    def test_remove_vertex(self):
        maintainer = DynamicTriangleKCore(complete_graph(5))
        maintainer.remove_vertex(0)
        assert not maintainer.graph.has_vertex(0)
        assert set(maintainer.kappa.values()) == {2}
        assert_matches_static(maintainer)


class TestBatchApply:
    def test_apply_matches_static(self):
        g = erdos_renyi(30, 0.2, seed=5)
        maintainer = DynamicTriangleKCore(g)
        removed = list(g.edges())[:5]
        added = [(0, 25), (1, 26), (2, 27)]
        added = [(u, v) for u, v in added if not g.has_edge(u, v)]
        stats = maintainer.apply(added=added, removed=removed)
        assert stats.edges_changed >= len(added) + len(removed)
        assert_matches_static(maintainer)

    def test_copy_semantics(self):
        g = complete_graph(4)
        maintainer = DynamicTriangleKCore(g)
        maintainer.remove_edge(0, 1)
        assert g.has_edge(0, 1), "caller graph must be untouched"

    def test_no_copy_semantics(self):
        g = complete_graph(4)
        maintainer = DynamicTriangleKCore(g, copy=False)
        maintainer.remove_edge(0, 1)
        assert not g.has_edge(0, 1)


class TestRandomizedEquivalence:
    @pytest.mark.parametrize("seed", range(6))
    def test_random_edit_scripts_sparse(self, seed):
        rng = random.Random(seed)
        g = erdos_renyi(24, 0.2, seed=seed)
        maintainer = DynamicTriangleKCore(g)
        vertices = sorted(g.vertices())
        for _ in range(50):
            u, v = rng.sample(vertices, 2)
            if maintainer.graph.has_edge(u, v):
                maintainer.remove_edge(u, v)
            else:
                maintainer.add_edge(u, v)
        assert_matches_static(maintainer)

    @pytest.mark.parametrize("seed", range(4))
    def test_random_edit_scripts_dense_checked_every_step(self, seed):
        rng = random.Random(seed + 100)
        g = erdos_renyi(16, 0.5, seed=seed)
        maintainer = DynamicTriangleKCore(g)
        vertices = sorted(g.vertices())
        for _ in range(30):
            u, v = rng.sample(vertices, 2)
            if maintainer.graph.has_edge(u, v):
                maintainer.remove_edge(u, v)
            else:
                maintainer.add_edge(u, v)
            assert_matches_static(maintainer)

    def test_grow_then_shrink_clique(self):
        maintainer = DynamicTriangleKCore(Graph(vertices=range(7)))
        pairs = [(i, j) for i in range(7) for j in range(i + 1, 7)]
        for u, v in pairs:
            maintainer.add_edge(u, v)
        assert set(maintainer.kappa.values()) == {5}
        for u, v in reversed(pairs):
            maintainer.remove_edge(u, v)
        assert maintainer.kappa == {}
        assert maintainer.graph.num_edges == 0

    def test_rule0_change_bound(self):
        """No existing edge moves more than one level per single update."""
        rng = random.Random(7)
        g = erdos_renyi(20, 0.4, seed=7)
        maintainer = DynamicTriangleKCore(g)
        vertices = sorted(g.vertices())
        for _ in range(40):
            before = dict(maintainer.kappa)
            u, v = rng.sample(vertices, 2)
            if maintainer.graph.has_edge(u, v):
                maintainer.remove_edge(u, v)
            else:
                maintainer.add_edge(u, v)
            after = maintainer.kappa
            for edge, old_value in before.items():
                if edge in after and edge != tuple(sorted((u, v), key=repr)):
                    assert abs(after[edge] - old_value) <= 1, edge


def assert_edge_keys_in_sync(maintainer: DynamicTriangleKCore) -> None:
    """The edge-key map mirrors the adjacency and reuses kappa's keys."""
    keys = maintainer._edge_keys
    graph = maintainer.graph
    assert {v: set(row) for v, row in keys.items()} == {
        v: set(graph.neighbors(v)) for v in graph.vertices()
    }
    assert len(maintainer.kappa) == graph.num_edges
    for edge in maintainer.kappa:
        a, b = edge
        assert keys[a][b] is edge and keys[b][a] is edge, edge


class TestEdgeKeyMap:
    """Every write path keeps the private edge-key map in step.

    A write path that forgets the map either crashes a later cascade on a
    missing key or, worse, leaves values that are equal to kappa's keys
    but not the same objects, which costs every lookup a tuple compare.
    """

    @pytest.mark.parametrize("copy", [True, False])
    def test_every_write_path(self, copy):
        g = erdos_renyi(24, 0.35, seed=61)
        maintainer = DynamicTriangleKCore(g, copy=copy)
        assert_edge_keys_in_sync(maintainer)
        edges = sorted(maintainer.graph.edges())
        absent = [
            (u, v)
            for u in range(24)
            for v in range(u + 1, 24)
            if not maintainer.graph.has_edge(u, v)
        ]

        def check():
            assert_edge_keys_in_sync(maintainer)
            assert_matches_static(maintainer)

        maintainer.apply(added=absent[:4] + [(0, 100)], removed=edges[:4])
        check()
        maintainer.apply(
            added=absent[4:8] + [edges[4]],
            removed=edges[4:7],
            strategy="batch",
        )
        check()
        maintainer.apply(added=absent[8:10], removed=edges[7:9],
                         strategy="recompute")
        check()
        for strategy in ("incremental", "batch", "recompute"):
            maintainer.diff_apply(
                added=edges[:2], removed=absent[:2], strategy=strategy
            )
            check()
            maintainer.diff_apply(
                added=absent[:2], removed=edges[:2], strategy=strategy
            )
            check()
        maintainer.add_vertex(200)
        check()
        maintainer.add_edge(200, 201)
        maintainer.remove_vertex(3)
        check()
        maintainer.remove_vertex(200)
        check()
        # An op that raises midway: every strategy rejects up front.
        present = sorted(maintainer.graph.edges())[0]
        good = next(
            (u, v)
            for u in range(24)
            for v in range(u + 1, 24)
            if u != 3 and v != 3 and not maintainer.graph.has_edge(u, v)
        )
        for strategy in DynamicTriangleKCore.STRATEGIES:
            with pytest.raises(EdgeExistsError):
                maintainer.apply(added=[good, present], strategy=strategy)
            check()
            assert not maintainer.graph.has_edge(*good)
            with pytest.raises(EdgeNotFoundError):
                maintainer.apply(removed=[present, good, good],
                                 strategy=strategy)
            check()
            assert maintainer.graph.has_edge(*present)

    def test_seed_result_keys_are_shared(self):
        g = erdos_renyi(20, 0.3, seed=62)
        seed = triangle_kcore_decomposition(g)
        maintainer = DynamicTriangleKCore(g, seed_result=seed)
        assert_edge_keys_in_sync(maintainer)
        maintainer.add_edge(0, 50)
        assert_edge_keys_in_sync(maintainer)

    def test_build_pauses_gc_through_shared_helper(self, monkeypatch):
        entered = []
        real = dynamic_mod.collector_paused

        def recording():
            entered.append(True)
            return real()

        monkeypatch.setattr(dynamic_mod, "collector_paused", recording)
        DynamicTriangleKCore(complete_graph(5))
        assert entered == [True]

    def test_build_leaves_gc_switch_as_found(self):
        """The build pauses the cyclic GC and must restore its state."""
        was_enabled = gc.isenabled()
        try:
            gc.enable()
            DynamicTriangleKCore(complete_graph(5))
            assert gc.isenabled()
            gc.disable()
            DynamicTriangleKCore(complete_graph(5))
            assert not gc.isenabled()
        finally:
            if was_enabled:
                gc.enable()
            else:
                gc.disable()


class TestResultSnapshot:
    def test_result_wraps_current_state(self, k5):
        maintainer = DynamicTriangleKCore(k5)
        result = maintainer.result()
        assert result.max_kappa == 3
        assert result.kappa == maintainer.kappa

    def test_max_kappa_property(self, triangle_graph):
        maintainer = DynamicTriangleKCore(triangle_graph)
        assert maintainer.max_kappa == 1


class TestApplyStrategies:
    def test_recompute_strategy_matches_incremental(self):
        g = erdos_renyi(25, 0.25, seed=31)
        removed = list(g.edges())[:6]
        added = [(0, 23), (1, 24), (2, 22)]
        added = [(u, v) for u, v in added if not g.has_edge(u, v)]
        a = DynamicTriangleKCore(g)
        a.apply(added=added, removed=removed, strategy="incremental")
        b = DynamicTriangleKCore(g)
        b.apply(added=added, removed=removed, strategy="recompute")
        assert a.kappa == b.kappa
        assert a.graph == b.graph

    def test_auto_picks_recompute_for_heavy_churn(self):
        g = erdos_renyi(25, 0.3, seed=33)
        removed = list(g.edges())[: g.num_edges // 2]  # ~50% churn
        maintainer = DynamicTriangleKCore(g)
        maintainer.apply(removed=removed, strategy="auto")
        assert_matches_static(maintainer)

    def test_auto_picks_incremental_for_light_churn(self):
        g = erdos_renyi(40, 0.3, seed=34)
        removed = list(g.edges())[:2]
        maintainer = DynamicTriangleKCore(g)
        maintainer.apply(removed=removed, strategy="auto")
        assert_matches_static(maintainer)

    def test_invalid_strategy(self, triangle_graph):
        maintainer = DynamicTriangleKCore(triangle_graph)
        with pytest.raises(ValueError):
            maintainer.apply(strategy="bogus")

    def test_recompute_strategy_edges_changed_counter(self):
        maintainer = DynamicTriangleKCore(complete_graph(4))
        stats = maintainer.apply(removed=[(0, 1)], strategy="recompute")
        # (0,1) disappeared and the remaining 5 edges moved 2 -> 1.
        assert stats.edges_changed == 6

    def test_stale_detected_in_recompute_path(self):
        from repro.exceptions import StaleIndexError

        g = complete_graph(4)
        maintainer = DynamicTriangleKCore(g, copy=False)
        g.add_edge(0, 9)
        with pytest.raises(StaleIndexError):
            maintainer.apply(removed=[(0, 1)], strategy="recompute")

    @pytest.mark.parametrize("strategy", DynamicTriangleKCore.STRATEGIES)
    def test_recompute_is_all_or_nothing_on_invalid_op(self, strategy):
        """A bad op rejects the whole batch before any mutation.

        Every strategy validates the batch first.  Without that the
        per-op path inserted (1, 3) and then raised on the duplicate
        (0, 1), and the recompute path also left kappa and the edge
        count stale.  Two ops on this 34-edge graph is under 10% churn,
        so ``auto`` resolves to incremental.
        """
        g = complete_graph(8, offset=10)
        for u, v in [(0, 1), (1, 2), (0, 2), (2, 3), (3, 10), (3, 11)]:
            g.add_edge(u, v)
        maintainer = DynamicTriangleKCore(g)
        assert maintainer.resolve_strategy(strategy, 2) == (
            "recompute" if strategy == "recompute" else "incremental"
        )
        before = dict(maintainer.kappa)
        version = maintainer.graph.version
        with pytest.raises(EdgeExistsError):
            maintainer.apply(added=[(1, 3), (0, 1)], strategy=strategy)
        with pytest.raises(EdgeNotFoundError):
            maintainer.apply(removed=[(2, 3), (0, 3)], strategy=strategy)
        with pytest.raises(SelfLoopError):
            maintainer.apply(added=[(1, 3), (3, 3)], strategy=strategy)
        assert maintainer.kappa == before
        assert maintainer.graph.version == version
        assert not maintainer.graph.has_edge(1, 3)
        assert maintainer.graph.has_edge(2, 3)
        stats = maintainer.apply(added=[(1, 3)], strategy=strategy)
        assert stats.strategy == maintainer.resolve_strategy(strategy, 1)
        assert_matches_static(maintainer)


class TestBatchStrategy:
    """strategy="batch" is an alias of "incremental" and reports it."""

    def test_batch_matches_per_op_mixed_script(self):
        g = erdos_renyi(30, 0.25, seed=51)
        removed = list(g.edges())[:8]
        added = [(0, 27), (1, 28), (2, 29), (3, 26)]
        added = [(u, v) for u, v in added if not g.has_edge(u, v)]
        a = DynamicTriangleKCore(g)
        a.apply(added=added, removed=removed, strategy="incremental")
        b = DynamicTriangleKCore(g)
        delta = b.diff_apply(added=added, removed=removed, strategy="batch")
        assert delta.stats.strategy == "incremental"
        assert a.kappa == b.kappa
        assert a.graph == b.graph
        assert_matches_static(b)

    def test_batch_remove_and_readd_same_edge(self):
        """A removed edge re-inserted in the same batch lands correctly."""
        g = complete_graph(5)
        maintainer = DynamicTriangleKCore(g)
        stats = maintainer.apply(
            added=[(0, 1)], removed=[(0, 1)], strategy="batch"
        )
        assert stats.strategy == "incremental"
        assert maintainer.kappa[(0, 1)] == 3
        assert_matches_static(maintainer)

    def test_empty_batch(self, k5):
        maintainer = DynamicTriangleKCore(k5)
        stats = maintainer.apply(strategy="batch")
        assert stats.strategy == "incremental"
        assert stats.edges_changed == 0
        assert_matches_static(maintainer)

    def test_batch_is_all_or_nothing_on_invalid_op(self):
        """The alias keeps the all-or-nothing contract."""
        g = complete_graph(5)
        maintainer = DynamicTriangleKCore(g)
        before = dict(maintainer.kappa)
        with pytest.raises(EdgeExistsError):
            maintainer.apply(added=[(0, 9), (0, 1)], strategy="batch")
        with pytest.raises(EdgeNotFoundError):
            maintainer.apply(removed=[(0, 9)], strategy="batch")
        with pytest.raises(SelfLoopError):
            maintainer.apply(added=[(7, 7)], strategy="batch")
        assert maintainer.kappa == before
        assert not maintainer.graph.has_edge(0, 9)

    def test_auto_never_picks_batch(self):
        """The measured crossovers put auto's winners at incremental
        (light churn) and recompute (heavy churn)."""
        g = erdos_renyi(40, 0.3, seed=53)
        maintainer = DynamicTriangleKCore(g)
        stats = maintainer.apply(
            removed=list(g.edges())[:3], strategy="auto"
        )
        assert stats.strategy == "incremental"
        assert_matches_static(maintainer)

    def test_auto_single_op_stays_incremental(self):
        g = erdos_renyi(40, 0.3, seed=54)
        maintainer = DynamicTriangleKCore(g)
        stats = maintainer.apply(removed=list(g.edges())[:1], strategy="auto")
        assert stats.strategy == "incremental"


class TestUpdateStatsContract:
    """Which UpdateStats fields each strategy guarantees (documented on
    the class) — pinned for every strategy."""

    def _graph(self):
        return erdos_renyi(25, 0.3, seed=61)

    def _ops(self, g):
        removed = list(g.edges())[:5]
        added = [(u, v) for u, v in [(0, 23), (1, 24)] if not g.has_edge(u, v)]
        return added, removed

    def test_incremental_contract(self):
        g = self._graph()
        added, removed = self._ops(g)
        stats = DynamicTriangleKCore(g).apply(
            added=added, removed=removed, strategy="incremental"
        )
        assert stats.strategy == "incremental"
        assert stats.full_snapshots == 0
        assert stats.candidates_examined > 0

    def test_recompute_contract(self):
        g = self._graph()
        added, removed = self._ops(g)
        stats = DynamicTriangleKCore(g).apply(
            added=added, removed=removed, strategy="recompute"
        )
        assert stats.strategy == "recompute"
        assert stats.full_snapshots == 1
        assert stats.edges_changed > 0

    def test_diff_apply_takes_no_full_snapshot_incremental_or_batch(self):
        """Satellite: the O(|E|) kappa copy is recompute-only now."""
        for strategy in ("incremental", "batch"):
            g = self._graph()
            maintainer = DynamicTriangleKCore(g)
            added, removed = self._ops(g)
            delta = maintainer.diff_apply(
                added=added, removed=removed, strategy=strategy
            )
            assert delta.stats.full_snapshots == 0, strategy
            assert delta.created or delta.deleted or delta.demoted

    def test_merge_stats_sums_new_counters(self):
        g = complete_graph(6)
        maintainer = DynamicTriangleKCore(g)
        s1 = maintainer.apply(removed=[(0, 1)])
        s2 = maintainer.apply(added=[(0, 1)])
        from repro.core.dynamic import UpdateStats

        merged = UpdateStats()
        DynamicTriangleKCore._merge_stats(merged, s1)
        DynamicTriangleKCore._merge_stats(merged, s2)
        for field in ("candidates_examined", "edges_changed",
                      "levels_touched", "full_snapshots"):
            assert getattr(merged, field) == (
                getattr(s1, field) + getattr(s2, field)
            ), field


class TestDiffApply:
    def test_deletion_delta(self):
        maintainer = DynamicTriangleKCore(complete_graph(5))
        delta = maintainer.diff_apply(removed=[(0, 1)])
        assert delta.deleted == {(0, 1): 3}
        assert len(delta.demoted) == 9
        assert all(old == 3 and new == 2 for old, new in delta.demoted.values())
        assert delta.created == {} and delta.promoted == {}
        assert not delta.is_empty
        assert len(delta.touched_edges()) == 10

    def test_insertion_delta(self):
        g = complete_graph(5)
        g.remove_edge(0, 1)
        maintainer = DynamicTriangleKCore(g)
        delta = maintainer.diff_apply(added=[(0, 1)])
        assert delta.created == {(0, 1): 3}
        assert all(old == 2 and new == 3 for old, new in delta.promoted.values())
        assert len(delta.promoted) == 9

    def test_empty_batch_is_empty_delta(self, k5):
        maintainer = DynamicTriangleKCore(k5)
        delta = maintainer.diff_apply()
        assert delta.is_empty
        assert "+0" in repr(delta)

    def test_empty_recompute_batch_runs_no_algorithm_1(self, k5, monkeypatch):
        import repro.core.dynamic as dynamic_mod

        maintainer = DynamicTriangleKCore(k5)
        version = maintainer.graph.version

        def refuse(*args, **kwargs):
            raise AssertionError("an empty batch ran Algorithm 1")

        monkeypatch.setattr(dynamic_mod, "triangle_kcore_decomposition", refuse)
        delta = maintainer.diff_apply((), (), strategy="recompute")
        assert delta.is_empty
        assert delta.stats.strategy == "recompute"
        assert delta.stats.full_snapshots == 0
        assert maintainer.graph.version == version

    def test_delta_under_recompute_strategy(self):
        g = erdos_renyi(20, 0.3, seed=41)
        a = DynamicTriangleKCore(g)
        b = DynamicTriangleKCore(g)
        removed = list(g.edges())[:4]
        delta_inc = a.diff_apply(removed=removed)
        delta_rec = b.diff_apply(removed=removed, strategy="recompute")
        assert delta_inc.deleted == delta_rec.deleted
        assert delta_inc.promoted == delta_rec.promoted
        assert delta_inc.demoted == delta_rec.demoted

    def test_delta_feeds_dual_view_scoring(self):
        """The delta contains exactly the edges Algorithm 3 re-scores."""
        g = complete_graph(6, offset=100)
        for v in range(3):
            g.add_vertex(v)
        maintainer = DynamicTriangleKCore(g)
        added = [(0, 1), (1, 2), (0, 2)]
        delta = maintainer.diff_apply(added=added)
        from repro.graph import canonical_edge

        assert set(delta.created) == {canonical_edge(u, v) for u, v in added}
        assert all(k == 1 for k in delta.created.values())


class TestMaxKappa:
    """``max_kappa`` is cached; every write path must leave it equal to a
    full scan of the kappa map."""

    @staticmethod
    def scan(maintainer):
        return max(maintainer.kappa.values(), default=0)

    @pytest.mark.parametrize("strategy", DynamicTriangleKCore.STRATEGIES)
    def test_matches_a_scan_after_every_write(self, strategy):
        rng = random.Random(11)
        maintainer = DynamicTriangleKCore(erdos_renyi(24, 0.35, seed=11))
        for step in range(60):
            graph = maintainer.graph
            vertices = sorted(graph.vertices())
            edges = sorted(graph.edges())
            kind = rng.choice(["diff", "apply", "edge", "vertex"])
            if kind in ("diff", "apply"):
                removed = rng.sample(edges, min(len(edges), rng.randint(0, 5)))
                added = set()
                for _ in range(rng.randint(0, 5)):
                    u, v = rng.sample(vertices, 2)
                    if not graph.has_edge(u, v):
                        added.add((min(u, v), max(u, v)))
                call = maintainer.diff_apply if kind == "diff" else maintainer.apply
                call(added=sorted(added), removed=removed, strategy=strategy)
            elif kind == "edge":
                u, v = rng.sample(vertices, 2)
                if graph.has_edge(u, v):
                    maintainer.remove_edge(u, v)
                else:
                    maintainer.add_edge(u, v)
            elif step % 2:
                maintainer.add_vertex(100 + step)
            else:
                maintainer.remove_vertex(rng.choice(vertices))
            assert maintainer.max_kappa == self.scan(maintainer)

    @pytest.mark.parametrize("strategy", DynamicTriangleKCore.STRATEGIES)
    def test_top_level_demoted_then_deleted(self, strategy):
        g = complete_graph(6)
        g.add_edge(10, 11)
        g.add_edge(11, 12)
        g.add_edge(10, 12)
        maintainer = DynamicTriangleKCore(g)
        assert maintainer.max_kappa == 4
        # One K6 edge out demotes the other fourteen.
        maintainer.diff_apply(removed=[(0, 1)], strategy=strategy)
        assert maintainer.max_kappa == self.scan(maintainer) == 3
        while maintainer.max_kappa > 0:
            level = maintainer.max_kappa
            top = [e for e, k in maintainer.kappa.items() if k == level]
            maintainer.diff_apply(removed=top, strategy=strategy)
            assert maintainer.max_kappa == self.scan(maintainer) < level

    def test_apply_advances_the_cache_without_a_scan(self):
        """apply shares diff_apply's write path, cache upkeep included."""
        maintainer = DynamicTriangleKCore(complete_graph(5))
        assert maintainer.max_kappa == 3
        maintainer.apply(added=[(10, 11), (11, 12), (10, 12)])
        assert maintainer._max_kappa == (maintainer.graph.version, 3)
        maintainer.apply(added=[(0, 5), (1, 5), (2, 5), (3, 5), (4, 5)])
        assert maintainer._max_kappa == (maintainer.graph.version, 4)

    @pytest.mark.parametrize("strategy", ["incremental", "recompute"])
    def test_apply_builds_no_delta(self, strategy, monkeypatch):
        """Only diff_apply builds a KappaDelta; apply folds max_kappa from
        the first-write record."""

        def refuse(*_args):
            raise AssertionError("apply built a KappaDelta")

        maintainer = DynamicTriangleKCore(complete_graph(5))
        monkeypatch.setattr(maintainer, "_delta_from_record", refuse)
        assert maintainer.max_kappa == 3
        stats = maintainer.apply(
            added=[(0, 5), (1, 5), (2, 5), (3, 5), (4, 5)], strategy=strategy
        )
        assert stats.strategy == strategy
        assert maintainer._max_kappa == (maintainer.graph.version, 4)
        maintainer.apply(removed=[(0, 1)], strategy=strategy)
        assert maintainer.max_kappa == self.scan(maintainer) == 3

    def test_delta_advances_the_cache_without_a_scan(self):
        maintainer = DynamicTriangleKCore(complete_graph(5))
        assert maintainer.max_kappa == 3
        maintainer.diff_apply(added=[(10, 11), (11, 12), (10, 12)])
        assert maintainer._max_kappa == (maintainer.graph.version, 3)
        maintainer.add_vertex(99)
        maintainer.remove_vertex(99)
        assert maintainer._max_kappa == (maintainer.graph.version, 3)
        # An edge at the maximum fell: only a scan can tell the new one.
        maintainer.diff_apply(removed=[(0, 1)])
        assert maintainer._max_kappa is None
        assert maintainer.max_kappa == 2


class TestSoak:
    def test_long_random_soak(self):
        """300 mixed operations, checked against a fresh decomposition
        every 60 ops and at the end."""
        rng = random.Random(2024)
        g = erdos_renyi(30, 0.25, seed=77)
        maintainer = DynamicTriangleKCore(g)
        vertices = sorted(g.vertices())
        for step in range(300):
            u, v = rng.sample(vertices, 2)
            if maintainer.graph.has_edge(u, v):
                maintainer.remove_edge(u, v)
            else:
                maintainer.add_edge(u, v)
            if step % 60 == 0:
                assert_matches_static(maintainer)
        assert_matches_static(maintainer)
