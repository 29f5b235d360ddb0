"""Stateful property testing of the dynamic maintainer.

A hypothesis rule-based state machine drives a
:class:`~repro.core.dynamic.DynamicTriangleKCore` through arbitrary interleavings of edge insertions, deletions,
vertex removals and batch applications, checking after every step that:

* the kappa map equals a fresh Algorithm 1 run (the core guarantee);
* the private edge-key map mirrors the adjacency and reuses kappa's keys;
* queries (max_kappa, result snapshots) agree with the ground truth.

This subsumes hundreds of hand-written interleaving tests.
"""

from __future__ import annotations

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)

from repro.baselines.recompute import RecomputeBaseline
from repro.core import DynamicTriangleKCore, triangle_kcore_decomposition
from repro.engine import Engine
from repro.graph import Graph

VERTICES = list(range(8))


class DynamicMaintainerMachine(RuleBasedStateMachine):
    """Random walks over the maintainer's write API."""

    def __init__(self):
        super().__init__()
        self.maintainer = DynamicTriangleKCore(
            Graph(vertices=VERTICES), copy=False
        )

    # ------------------------------------------------------------------ #
    # rules
    # ------------------------------------------------------------------ #

    @rule(u=st.sampled_from(VERTICES), v=st.sampled_from(VERTICES))
    def toggle_edge(self, u, v):
        if u == v:
            return
        if self.maintainer.graph.has_edge(u, v):
            self.maintainer.remove_edge(u, v)
        else:
            self.maintainer.add_edge(u, v)

    @rule(vertex=st.sampled_from(VERTICES))
    def remove_and_restore_vertex(self, vertex):
        if not self.maintainer.graph.has_vertex(vertex):
            self.maintainer.add_vertex(vertex)
            return
        self.maintainer.remove_vertex(vertex)
        self.maintainer.add_vertex(vertex)

    @rule(
        pairs=st.lists(
            st.tuples(st.sampled_from(VERTICES), st.sampled_from(VERTICES)),
            max_size=5,
        ),
        strategy=st.sampled_from(["incremental", "batch", "recompute", "auto"]),
    )
    def batch_apply(self, pairs, strategy):
        graph = self.maintainer.graph
        added = []
        removed = []
        seen = set()
        for u, v in pairs:
            if u == v:
                continue
            key = (min(u, v), max(u, v))
            if key in seen:
                continue
            seen.add(key)
            if graph.has_edge(u, v):
                removed.append((u, v))
            elif graph.has_vertex(u) and graph.has_vertex(v):
                added.append((u, v))
        self.maintainer.apply(added=added, removed=removed, strategy=strategy)

    # ------------------------------------------------------------------ #
    # invariants
    # ------------------------------------------------------------------ #

    @invariant()
    def kappa_matches_fresh_decomposition(self):
        expected = triangle_kcore_decomposition(self.maintainer.graph).kappa
        assert self.maintainer.kappa == expected

    @invariant()
    def max_kappa_agrees(self):
        values = list(self.maintainer.kappa.values())
        assert self.maintainer.max_kappa == (max(values) if values else 0)

    @invariant()
    def result_snapshot_consistent(self):
        result = self.maintainer.result()
        assert result.kappa == self.maintainer.kappa

    @invariant()
    def edge_key_map_in_sync(self):
        keys = self.maintainer._edge_keys
        graph = self.maintainer.graph
        assert {v: set(row) for v, row in keys.items()} == {
            v: set(graph.neighbors(v)) for v in graph.vertices()
        }
        for edge in self.maintainer.kappa:
            assert keys[edge[0]][edge[1]] is edge


class DiffApplyBaselineMachine(RuleBasedStateMachine):
    """Drive ``diff_apply`` and ``remove_vertex`` against RecomputeBaseline.

    The main machine above checks kappa against a fresh Algorithm 1 run;
    this one pits the maintainer against the paper's Table III baseline
    object (an independently-mutated graph plus recompute) after *every*
    rule, and additionally checks that each :class:`KappaDelta` is exact
    bookkeeping: ``before + delta == after``, edge for edge.
    """

    def __init__(self):
        super().__init__()
        self.maintainer = DynamicTriangleKCore(
            Graph(vertices=VERTICES), copy=False
        )
        self.baseline = RecomputeBaseline(Graph(vertices=VERTICES))

    @rule(
        pairs=st.lists(
            st.tuples(st.sampled_from(VERTICES), st.sampled_from(VERTICES)),
            max_size=6,
        ),
        strategy=st.sampled_from(["incremental", "batch", "recompute", "auto"]),
    )
    def diff_apply_batch(self, pairs, strategy):
        graph = self.maintainer.graph
        added, removed, seen = [], [], set()
        for u, v in pairs:
            if u == v:
                continue
            key = (min(u, v), max(u, v))
            if key in seen:
                continue
            seen.add(key)
            if graph.has_edge(u, v):
                removed.append((u, v))
            elif graph.has_vertex(u) and graph.has_vertex(v):
                added.append((u, v))
        before = dict(self.maintainer.kappa)
        delta = self.maintainer.diff_apply(
            added=added, removed=removed, strategy=strategy
        )
        after = dict(self.maintainer.kappa)
        # Delta arithmetic must reconstruct the after-map exactly.
        rebuilt = dict(before)
        for edge, old in delta.deleted.items():
            assert rebuilt.pop(edge) == old
        for edge, k in delta.created.items():
            assert edge not in rebuilt
            rebuilt[edge] = k
        for edge, (old, new) in delta.promoted.items():
            assert rebuilt[edge] == old and new > old
            rebuilt[edge] = new
        for edge, (old, new) in delta.demoted.items():
            assert rebuilt[edge] == old and new < old
            rebuilt[edge] = new
        assert rebuilt == after
        assert delta.touched_edges() == {
            e for e in set(before) | set(after)
            if before.get(e) != after.get(e)
        }
        assert delta.is_empty == (before == after)
        self.baseline.apply(added=added, removed=removed)

    @rule(vertex=st.sampled_from(VERTICES))
    def remove_vertex(self, vertex):
        if not self.maintainer.graph.has_vertex(vertex):
            self.maintainer.add_vertex(vertex)
            return
        incident = [
            (vertex, neighbor)
            for neighbor in self.maintainer.graph.neighbors(vertex)
        ]
        self.maintainer.remove_vertex(vertex)
        self.maintainer.add_vertex(vertex)
        self.baseline.apply(removed=incident)

    @invariant()
    def kappa_matches_recompute_baseline(self):
        assert self.maintainer.kappa == self.baseline.kappa


class EngineCacheMachine(RuleBasedStateMachine):
    """Graph mutations can never leave the engine serving stale kappa.

    Random structural edits interleave with cached ``Engine.decompose``
    calls (across every backend, including the warm dynamic maintainer).
    Invariants: the mutation counter bumps on every effective write (and
    only then), and whatever the cache serves equals a fresh Algorithm 1
    run — the engine's core safety property.
    """

    def __init__(self):
        super().__init__()
        self.graph = Graph(vertices=VERTICES)
        self.engine = Engine(max_cached_graphs=4)
        self.last_version = self.graph.version

    def _expect_bump(self, mutated: bool, before: int) -> None:
        if mutated:
            assert self.graph.version > before
        else:
            assert self.graph.version == before

    @rule(u=st.sampled_from(VERTICES), v=st.sampled_from(VERTICES))
    def toggle_edge(self, u, v):
        if u == v:
            return
        before = self.graph.version
        if self.graph.has_edge(u, v):
            self.graph.remove_edge(u, v)
        elif self.graph.has_vertex(u) and self.graph.has_vertex(v):
            self.graph.add_edge(u, v)
        else:
            return
        self._expect_bump(True, before)

    @rule(vertex=st.sampled_from(VERTICES))
    def remove_and_restore_vertex(self, vertex):
        before = self.graph.version
        if self.graph.has_vertex(vertex):
            self.graph.remove_vertex(vertex)
            self._expect_bump(True, before)
        else:
            self.graph.add_vertex(vertex)
            self._expect_bump(True, before)

    @rule(vertex=st.sampled_from(VERTICES))
    def noop_add_existing_vertex(self, vertex):
        if self.graph.has_vertex(vertex):
            before = self.graph.version
            self.graph.add_vertex(vertex)
            self._expect_bump(False, before)

    @rule(backend=st.sampled_from(["auto", "reference", "csr", "dynamic"]))
    def cached_decompose_is_fresh(self, backend):
        result = self.engine.decompose(self.graph, backend=backend)
        expected = triangle_kcore_decomposition(self.graph).kappa
        assert result.kappa == expected
        # Immediately served again (possibly from cache): still current.
        assert self.engine.decompose(self.graph, backend=backend).kappa == expected

    @invariant()
    def version_is_monotonic(self):
        assert self.graph.version >= self.last_version
        self.last_version = self.graph.version


TestDynamicMaintainerMachine = DynamicMaintainerMachine.TestCase
TestDynamicMaintainerMachine.settings = settings(
    max_examples=25, stateful_step_count=30, deadline=None
)

TestDiffApplyBaselineMachine = DiffApplyBaselineMachine.TestCase
TestDiffApplyBaselineMachine.settings = settings(
    max_examples=15, stateful_step_count=20, deadline=None
)

TestEngineCacheMachine = EngineCacheMachine.TestCase
TestEngineCacheMachine.settings = settings(
    max_examples=20, stateful_step_count=25, deadline=None
)
