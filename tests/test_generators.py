"""Unit tests for synthetic graph generators."""

import hashlib

import pytest

from tests.conftest import assert_one_object_per_label


def _numpy_available() -> bool:
    try:
        import numpy  # noqa: F401
    except ImportError:
        return False
    return True


requires_numpy = pytest.mark.skipif(
    not _numpy_available(), reason="the R-MAT generator requires numpy"
)

from repro.graph import (
    barabasi_albert,
    canonical_edge,
    count_triangles,
    erdos_renyi,
    planted_cliques,
    random_edge_sample,
    random_non_edges,
    relaxed_caveman,
    rmat,
    watts_strogatz,
)


class TestErdosRenyi:
    def test_deterministic(self):
        a = erdos_renyi(50, 0.1, seed=3)
        b = erdos_renyi(50, 0.1, seed=3)
        assert a == b

    def test_different_seeds_differ(self):
        a = erdos_renyi(50, 0.1, seed=3)
        b = erdos_renyi(50, 0.1, seed=4)
        assert a != b

    def test_p_zero(self):
        g = erdos_renyi(20, 0.0, seed=1)
        assert g.num_edges == 0
        assert g.num_vertices == 20

    def test_p_one_is_complete(self):
        g = erdos_renyi(10, 1.0, seed=1)
        assert g.num_edges == 45

    def test_edge_count_near_expectation(self):
        n, p = 200, 0.1
        g = erdos_renyi(n, p, seed=9)
        expected = p * n * (n - 1) / 2
        assert 0.8 * expected < g.num_edges < 1.2 * expected

    def test_invalid_p(self):
        with pytest.raises(ValueError):
            erdos_renyi(10, 1.5)


class TestBarabasiAlbert:
    def test_size(self):
        g = barabasi_albert(100, 3, seed=1)
        assert g.num_vertices == 100
        # m+1 clique start, then m edges per vertex.
        assert g.num_edges == 6 + 3 * (100 - 4)

    def test_heavy_tail(self):
        g = barabasi_albert(400, 2, seed=7)
        degrees = sorted((g.degree(v) for v in g.vertices()), reverse=True)
        assert degrees[0] > 4 * (sum(degrees) / len(degrees))

    def test_invalid_m(self):
        with pytest.raises(ValueError):
            barabasi_albert(5, 5)


class TestWattsStrogatz:
    def test_lattice_degree(self):
        g = watts_strogatz(30, 4, 0.0, seed=1)
        assert all(g.degree(v) == 4 for v in g.vertices())

    def test_lattice_has_triangles(self):
        g = watts_strogatz(30, 4, 0.0, seed=1)
        assert count_triangles(g) > 0

    def test_odd_k_rejected(self):
        with pytest.raises(ValueError):
            watts_strogatz(30, 3, 0.1)

    def test_k_too_large_rejected(self):
        with pytest.raises(ValueError):
            watts_strogatz(4, 4, 0.1)


class TestPlantedCliques:
    def test_cliques_present(self):
        planted = planted_cliques(50, [8, 6], background_p=0.02, seed=5)
        for clique in planted.cliques:
            members = clique.vertices
            for i, u in enumerate(members):
                for v in members[i + 1 :]:
                    assert planted.graph.has_edge(u, v)

    def test_drop_edges(self):
        planted = planted_cliques(
            30, [10], background_p=0.0, drop_edges=[1], seed=5
        )
        clique = planted.cliques[0]
        assert len(clique.missing_edges) == 1
        u, v = clique.missing_edges[0]
        assert not planted.graph.has_edge(u, v)

    def test_too_many_clique_vertices(self):
        with pytest.raises(ValueError):
            planted_cliques(10, [8, 8])

    def test_misaligned_drop_edges(self):
        with pytest.raises(ValueError):
            planted_cliques(30, [5, 5], drop_edges=[1])


def _edge_digest(graph) -> str:
    return hashlib.sha256(repr(sorted(graph.edges())).encode()).hexdigest()[:16]


class TestRelaxedCaveman:
    def test_edges_unchanged_and_labels_shared(self):
        # The digest pins the edge set this seed has always produced.
        g = relaxed_caveman(30, 12, 0.2, seed=3)
        assert (g.num_vertices, g.num_edges) == (360, 1980)
        assert _edge_digest(g) == "311694f61c29efed"
        assert_one_object_per_label(g)

    def test_size(self):
        g = relaxed_caveman(5, 6, 0.1, seed=2)
        assert g.num_vertices == 30

    def test_zero_rewire_is_disjoint_cliques(self):
        g = relaxed_caveman(3, 4, 0.0, seed=2)
        assert g.num_edges == 3 * 6
        assert len(g.connected_components()) == 3


@requires_numpy
class TestRmat:
    def test_size_and_determinism(self):
        a = rmat(8, 4, seed=3)
        b = rmat(8, 4, seed=3)
        assert a == b
        assert a.num_vertices == 256
        assert a.num_edges >= 4 * 256 * 0.9  # may fall slightly short via dedup

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            rmat(6, 4, a=0.5, b=0.4, c=0.4)

    def test_edges_unchanged_and_labels_shared(self):
        # The digest pins the edge set this seed has always produced.
        g = rmat(10, 6, seed=5)
        assert (g.num_vertices, g.num_edges) == (1024, 6144)
        assert _edge_digest(g) == "2598ae2409249555"
        assert_one_object_per_label(g)


class TestSampling:
    def test_random_edge_sample_size(self):
        g = erdos_renyi(60, 0.2, seed=1)
        sample = random_edge_sample(g, 0.1, seed=2)
        assert len(sample) == round(0.1 * g.num_edges)
        assert all(g.has_edge(u, v) for u, v in sample)

    def test_random_edge_sample_unique(self):
        g = erdos_renyi(60, 0.2, seed=1)
        sample = random_edge_sample(g, 0.5, seed=2)
        assert len(sample) == len(set(sample))

    def test_invalid_fraction(self):
        with pytest.raises(ValueError):
            random_edge_sample(erdos_renyi(10, 0.5, seed=0), 1.5)

    def test_random_non_edges(self):
        g = erdos_renyi(40, 0.3, seed=4)
        pairs = random_non_edges(g, 20, seed=5)
        assert len(pairs) == 20
        assert all(not g.has_edge(u, v) for u, v in pairs)
        assert all(canonical_edge(u, v) == (u, v) for u, v in pairs)

    def test_triangle_closing_non_edges(self):
        g = erdos_renyi(40, 0.3, seed=4)
        pairs = random_non_edges(g, 10, seed=5, triangle_closing=True)
        for u, v in pairs:
            assert g.common_neighbors(u, v), "pair must close a wedge"
