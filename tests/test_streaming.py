"""Tests for sliding-window density monitoring."""

import random

import pytest

from repro.analysis import SlidingWindowDensity
from repro.core import triangle_kcore_decomposition
from repro.exceptions import ReproError
from repro.graph import Graph


class TestWindowMechanics:
    def test_triangle_forms_and_expires(self):
        monitor = SlidingWindowDensity(window=10)
        monitor.observe(0, 1, 0)
        monitor.observe(1, 2, 1)
        monitor.observe(0, 2, 2)
        assert monitor.max_kappa == 1
        expired = monitor.advance_to(11)
        assert expired == 2  # edges at t=0,1 are out; t=2 survives
        assert monitor.max_kappa == 0
        assert monitor.num_edges == 1

    def test_refresh_extends_lifetime(self):
        monitor = SlidingWindowDensity(window=10)
        monitor.observe(0, 1, 0)
        monitor.observe(1, 2, 0)
        monitor.observe(0, 2, 0)
        monitor.observe(0, 1, 9)  # refresh one edge
        monitor.advance_to(15)
        assert monitor.num_edges == 1
        assert monitor.graph.has_edge(0, 1)

    def test_out_of_order_rejected(self):
        monitor = SlidingWindowDensity(window=5)
        monitor.observe(0, 1, 10)
        with pytest.raises(ReproError):
            monitor.observe(1, 2, 3)

    def test_invalid_window(self):
        with pytest.raises(ValueError):
            SlidingWindowDensity(window=0)

    def test_repeated_observation_same_timestamp(self):
        monitor = SlidingWindowDensity(window=5)
        monitor.observe(0, 1, 0)
        monitor.observe(0, 1, 0)
        assert monitor.num_edges == 1


class TestMaxKappaCache:
    def test_writes_keep_max_kappa_current_without_a_scan(self):
        """Insertions and expiry sweeps go through apply, which advances
        the maintainer's cached maximum from its first-write record."""
        monitor = SlidingWindowDensity(window=10)
        monitor.observe(10, 11, 0)
        for t, (u, v) in enumerate([(0, 1), (1, 2), (0, 2)], start=5):
            monitor.observe(u, v, t)
        assert monitor.max_kappa == 1
        maintainer = monitor._maintainer
        monitor.observe(2, 3, 8)
        assert maintainer._max_kappa == (maintainer.graph.version, 1)
        assert monitor.advance_to(10.5) == 1  # only (10, 11) expires
        assert maintainer._max_kappa == (maintainer.graph.version, 1)
        assert monitor.max_kappa == 1


class TestQueries:
    def test_kappa_of_live_edge(self):
        monitor = SlidingWindowDensity(window=100)
        for t, (u, v) in enumerate([(0, 1), (1, 2), (0, 2), (2, 3)]):
            monitor.observe(u, v, t)
        assert monitor.kappa_of(0, 1) == 1
        assert monitor.kappa_of(2, 3) == 0

    def test_densest_community(self):
        monitor = SlidingWindowDensity(window=100)
        t = 0
        for u in range(5):
            for v in range(u + 1, 5):
                monitor.observe(u, v, t)
                t += 1
        level, members = monitor.densest_community()
        assert level == 3
        assert members == set(range(5))

    def test_densest_community_empty(self):
        monitor = SlidingWindowDensity(window=5)
        monitor.observe(0, 1, 0)
        assert monitor.densest_community() == (0, set())

    def test_alert_threshold(self):
        monitor = SlidingWindowDensity(window=100)
        t = 0
        for u in range(4):
            for v in range(u + 1, 4):
                monitor.observe(u, v, t)
                t += 1
        assert monitor.alert_when(2)       # K4 formed
        assert not monitor.alert_when(3)


class TestEdgeCases:
    def test_advance_to_out_of_order_rejected_and_state_intact(self):
        monitor = SlidingWindowDensity(window=10)
        monitor.observe(0, 1, 5)
        with pytest.raises(ReproError):
            monitor.advance_to(2)
        # The failed advance must not have expired or corrupted anything.
        assert monitor.num_edges == 1
        assert monitor.now == 5
        monitor.advance_to(5)  # equal timestamps are fine (not "backwards")
        assert monitor.num_edges == 1

    def test_advance_to_exact_horizon_boundary(self):
        monitor = SlidingWindowDensity(window=10)
        monitor.observe(0, 1, 0)
        # horizon = t - window; an edge stamped exactly at the horizon
        # has age == window and is expired (strict "last window units").
        assert monitor.advance_to(10) == 1
        assert monitor.num_edges == 0

    def test_alert_when_crosses_both_directions(self):
        monitor = SlidingWindowDensity(window=10)
        assert not monitor.alert_when(1)  # empty window: below threshold
        monitor.observe(0, 1, 0)
        monitor.observe(1, 2, 1)
        monitor.observe(0, 2, 2)
        assert monitor.alert_when(1)  # upward crossing: triangle formed
        monitor.advance_to(11)  # edges at t=0,1 expire; triangle breaks
        assert not monitor.alert_when(1)  # downward crossing
        for u, v in [(0, 1), (1, 2), (0, 2)]:
            monitor.observe(u, v, 12)
        assert monitor.alert_when(1)  # upward crossing again

    def test_alert_threshold_zero_always_true(self):
        monitor = SlidingWindowDensity(window=5)
        assert monitor.alert_when(0)  # max_kappa of empty state is 0

    def test_densest_community_triangle_free_window(self):
        monitor = SlidingWindowDensity(window=100)
        # A path graph: plenty of edges, zero triangles.
        for t, (u, v) in enumerate([(0, 1), (1, 2), (2, 3), (3, 4)]):
            monitor.observe(u, v, t)
        assert monitor.max_kappa == 0
        assert monitor.densest_community() == (0, set())

    def test_densest_community_after_expiry_back_to_triangle_free(self):
        monitor = SlidingWindowDensity(window=10)
        monitor.observe(0, 1, 0)
        monitor.observe(1, 2, 1)
        monitor.observe(0, 2, 2)
        assert monitor.densest_community()[0] == 1
        monitor.advance_to(50)
        assert monitor.densest_community() == (0, set())
        assert monitor.num_edges == 0


class TestEquivalenceWithStatic:
    def test_window_state_matches_fresh_decomposition(self):
        rng = random.Random(3)
        monitor = SlidingWindowDensity(window=25)
        events = []
        for t in range(120):
            u, v = rng.sample(range(10), 2)
            monitor.observe(u, v, t)
            events.append((u, v, t))
        # Rebuild the expected window graph from scratch.
        expected = Graph()
        horizon = monitor.now - monitor.window
        latest = {}
        from repro.graph import canonical_edge

        for u, v, t in events:
            latest[canonical_edge(u, v)] = t
        for (u, v), t in latest.items():
            if t > horizon:
                expected.add_edge(u, v, exist_ok=True)
        assert set(monitor.graph.edges()) == set(expected.edges())
        assert monitor._maintainer.kappa == (
            triangle_kcore_decomposition(expected).kappa
        )
