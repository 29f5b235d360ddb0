"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import random
import sys

import pytest

from repro.graph import Graph, complete_graph, erdos_renyi


def assert_one_object_per_label(graph: Graph) -> None:
    """Every neighbour entry of ``graph`` *is* its vertex's key object."""
    keys = {vertex: vertex for vertex in graph.vertices()}
    for vertex in keys:
        for neighbor in graph.neighbors(vertex):
            assert neighbor is keys[neighbor], (vertex, neighbor)


def maxrss_bytes(ru_maxrss: int) -> int:
    """Normalize a ``resource.getrusage().ru_maxrss`` value to bytes.

    POSIX leaves the unit unspecified: Linux reports kilobytes, macOS
    reports bytes.  Every RSS assertion in the suite goes through this so
    the budget tests mean the same thing on both.
    """
    if sys.platform == "darwin":
        return int(ru_maxrss)
    return int(ru_maxrss) * 1024


def current_maxrss_bytes() -> int:
    """This process's peak RSS high-water mark, in bytes.

    Raises :class:`ImportError` where the stdlib ``resource`` module is
    unavailable (non-POSIX hosts) — callers skip with a recorded reason.
    """
    import resource

    return maxrss_bytes(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)


@pytest.fixture
def triangle_graph() -> Graph:
    """A single triangle."""
    return Graph(edges=[(0, 1), (1, 2), (0, 2)])


@pytest.fixture
def fig2_graph() -> Graph:
    """The paper's Figure 2 walk-through graph.

    Vertices A-E; {B,C,D,E} is a K4, A hangs off B and C forming one extra
    triangle ABC.
    """
    return Graph(
        edges=[
            ("A", "B"),
            ("A", "C"),
            ("B", "C"),
            ("B", "D"),
            ("B", "E"),
            ("C", "D"),
            ("C", "E"),
            ("D", "E"),
        ]
    )


@pytest.fixture
def fig3_original_graph() -> Graph:
    """The paper's Figure 3 graph before edge AC is added (solid edges)."""
    return Graph(
        edges=[
            ("A", "B"),
            ("B", "C"),
            ("A", "E"),
            ("A", "F"),
            ("E", "F"),
            ("C", "D"),
            ("C", "E"),
            ("D", "E"),
        ]
    )


@pytest.fixture
def k5() -> Graph:
    return complete_graph(5)


@pytest.fixture
def two_cliques_sharing_vertex() -> Graph:
    """Two K4s sharing a single vertex (distinct triangle-connected cores)."""
    g = complete_graph(4)  # 0..3
    for u in (10, 11, 12):
        g.add_edge(3, u)
    for i, u in enumerate((10, 11, 12)):
        for v in (10, 11, 12)[i + 1 :]:
            g.add_edge(u, v)
    return g


def random_graph(seed: int, n: int = 30, p: float = 0.2) -> Graph:
    """Deterministic random graph for parametrized tests."""
    return erdos_renyi(n, p, seed=seed)


def random_edit_script(graph: Graph, steps: int, seed: int):
    """Yield (op, u, v) tuples toggling random vertex pairs."""
    rng = random.Random(seed)
    vertices = sorted(graph.vertices(), key=repr)
    state = graph.copy()
    for _ in range(steps):
        u, v = rng.sample(vertices, 2)
        if state.has_edge(u, v):
            state.remove_edge(u, v)
            yield ("remove", u, v)
        else:
            state.add_edge(u, v)
            yield ("add", u, v)
