"""Deterministic synthetic graph generators.

These generators stand in for the real-world datasets of the paper's Table I
(see DESIGN.md §3).  All of them accept a ``seed`` and are fully
deterministic given it, which keeps the benchmark harness reproducible.

The generators cover the structural regimes the paper's datasets span:

* :func:`erdos_renyi` — sparse background noise (few triangles).
* :func:`barabasi_albert` — scale-free degree distributions with hubs
  (Epinions / Wiki / Flickr-like).
* :func:`watts_strogatz` — high clustering, local triangles (Stocks-like).
* :func:`planted_cliques` — explicit clique-like communities embedded in a
  sparse background (the structure the density plots are designed to
  surface).
* :func:`relaxed_caveman` — dense communities with rewired bridges
  (PPI / DBLP-like collaboration structure).
* :func:`rmat` — power-law graphs with community self-similarity
  (Amazon / LiveJournal-like).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from .edge import Vertex
from .undirected import Graph


def erdos_renyi(n: int, p: float, *, seed: int = 0) -> Graph:
    """G(n, p) random graph on vertices ``0..n-1``.

    Uses the skip-sampling trick so the cost is proportional to the number of
    edges generated, not :math:`n^2`, for small ``p``.

    >>> g = erdos_renyi(50, 0.1, seed=1)
    >>> g.num_vertices
    50
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must be in [0, 1], got {p}")
    rng = random.Random(seed)
    graph = Graph(vertices=range(n))
    if p == 0.0:
        return graph
    if p == 1.0:
        for i in range(n):
            for j in range(i + 1, n):
                graph.add_edge(i, j)
        return graph
    # Skip-sample over the lexicographic enumeration of vertex pairs.
    import math

    log_q = math.log(1.0 - p)
    if log_q == 0.0:
        # p below float precision (1 - p rounds to 1.0): the expected edge
        # count is ~p * n^2 / 2 ≈ 0, so the empty graph is the right sample.
        return graph
    v = 1
    w = -1
    while v < n:
        r = rng.random()
        w = w + 1 + int(math.log(1.0 - r) / log_q)
        while w >= v and v < n:
            w -= v
            v += 1
        if v < n:
            graph.add_edge(v, w)
    return graph


def barabasi_albert(n: int, m: int, *, seed: int = 0) -> Graph:
    """Preferential-attachment scale-free graph (``m`` edges per new vertex).

    >>> g = barabasi_albert(100, 3, seed=2)
    >>> g.num_edges >= 3 * (100 - 4)
    True
    """
    if m < 1 or m >= n:
        raise ValueError(f"need 1 <= m < n, got m={m}, n={n}")
    rng = random.Random(seed)
    graph = Graph(vertices=range(m + 1))
    # Start from a small clique so early vertices can form triangles.
    for i in range(m + 1):
        for j in range(i + 1, m + 1):
            graph.add_edge(i, j)
    # Repeated-endpoints list implements preferential attachment in O(1).
    endpoints: List[int] = []
    for u in range(m + 1):
        endpoints.extend([u] * graph.degree(u))
    for new_vertex in range(m + 1, n):
        targets: set[int] = set()
        while len(targets) < m:
            targets.add(rng.choice(endpoints))
        for target in targets:
            graph.add_edge(new_vertex, target)
            endpoints.append(new_vertex)
            endpoints.append(target)
    return graph


def powerlaw_cluster(n: int, m: int, p_triad: float, *, seed: int = 0) -> Graph:
    """Holme-Kim model: preferential attachment with triad formation.

    Like :func:`barabasi_albert`, but after each preferential link the next
    link closes a triangle with probability ``p_triad`` (attaching to a
    random neighbor of the previous target).  Produces scale-free graphs
    with tunable clustering — the degree/clustering regime of real PPI and
    social networks, which pure BA misses.
    """
    if m < 1 or m >= n:
        raise ValueError(f"need 1 <= m < n, got m={m}, n={n}")
    if not 0.0 <= p_triad <= 1.0:
        raise ValueError(f"p_triad must be in [0, 1], got {p_triad}")
    rng = random.Random(seed)
    graph = Graph(vertices=range(m + 1))
    for i in range(m + 1):
        for j in range(i + 1, m + 1):
            graph.add_edge(i, j)
    endpoints: List[int] = []
    for u in range(m + 1):
        endpoints.extend([u] * graph.degree(u))
    for new_vertex in range(m + 1, n):
        targets: set[int] = set()
        previous_target: Optional[int] = None
        while len(targets) < m:
            candidate: Optional[int] = None
            if previous_target is not None and rng.random() < p_triad:
                neighbors = [
                    w
                    for w in graph.neighbors(previous_target)
                    if w != new_vertex and w not in targets
                ]
                if neighbors:
                    candidate = rng.choice(neighbors)
            if candidate is None:
                candidate = rng.choice(endpoints)
                if candidate in targets:
                    continue
            targets.add(candidate)
            previous_target = candidate
        for target in targets:
            graph.add_edge(new_vertex, target)
            endpoints.append(new_vertex)
            endpoints.append(target)
    return graph


def watts_strogatz(n: int, k: int, p: float, *, seed: int = 0) -> Graph:
    """Small-world ring lattice with rewiring probability ``p``.

    Each vertex connects to its ``k`` nearest ring neighbors (``k`` must be
    even), then each lattice edge is rewired with probability ``p``.
    """
    if k % 2 != 0 or k <= 0:
        raise ValueError(f"k must be positive and even, got {k}")
    if k >= n:
        raise ValueError(f"need k < n, got k={k}, n={n}")
    rng = random.Random(seed)
    graph = Graph(vertices=range(n))
    for u in range(n):
        for offset in range(1, k // 2 + 1):
            graph.add_edge(u, (u + offset) % n, exist_ok=True)
    for u in range(n):
        for offset in range(1, k // 2 + 1):
            v = (u + offset) % n
            if rng.random() < p and graph.has_edge(u, v):
                candidates = [w for w in range(n) if w != u and not graph.has_edge(u, w)]
                if candidates:
                    graph.remove_edge(u, v)
                    graph.add_edge(u, rng.choice(candidates))
    return graph


@dataclass
class PlantedClique:
    """Description of one clique planted by :func:`planted_cliques`."""

    vertices: Tuple[Vertex, ...]
    missing_edges: Tuple[Tuple[Vertex, Vertex], ...] = ()

    @property
    def size(self) -> int:
        return len(self.vertices)


@dataclass
class PlantedGraph:
    """A graph plus the ground-truth cliques planted into it."""

    graph: Graph
    cliques: List[PlantedClique] = field(default_factory=list)


def planted_cliques(
    n: int,
    clique_sizes: Sequence[int],
    *,
    background_p: float = 0.01,
    drop_edges: Optional[Sequence[int]] = None,
    seed: int = 0,
) -> PlantedGraph:
    """Sparse background graph with disjoint cliques planted into it.

    Parameters
    ----------
    n:
        Total vertex count (must be at least ``sum(clique_sizes)``).
    clique_sizes:
        Size of each planted clique; cliques use disjoint vertex ranges
        starting at vertex 0.
    background_p:
        Erdős–Rényi probability for the background edges.
    drop_edges:
        Optional per-clique count of edges to delete from the planted clique,
        turning it into a quasi-clique (used to reproduce the paper's Fig 7
        "clique 3", a 10-vertex clique with one missing edge).
    seed:
        RNG seed.

    Returns the graph together with ground truth, which the Fig 6/Fig 7
    benchmarks use to score plateau recovery.
    """
    total = sum(clique_sizes)
    if total > n:
        raise ValueError(
            f"clique sizes sum to {total} but the graph only has {n} vertices"
        )
    if drop_edges is not None and len(drop_edges) != len(clique_sizes):
        raise ValueError("drop_edges must align with clique_sizes")
    rng = random.Random(seed)
    planted = PlantedGraph(graph=erdos_renyi(n, background_p, seed=seed + 1))
    graph = planted.graph
    start = 0
    for index, size in enumerate(clique_sizes):
        members = tuple(range(start, start + size))
        start += size
        for i, u in enumerate(members):
            for v in members[i + 1 :]:
                graph.add_edge(u, v, exist_ok=True)
        missing: List[Tuple[Vertex, Vertex]] = []
        if drop_edges is not None and drop_edges[index] > 0:
            pairs = [
                (u, v) for i, u in enumerate(members) for v in members[i + 1 :]
            ]
            rng.shuffle(pairs)
            for u, v in pairs[: drop_edges[index]]:
                graph.remove_edge(u, v)
                missing.append((u, v))
        planted.cliques.append(
            PlantedClique(vertices=members, missing_edges=tuple(missing))
        )
    return planted


def relaxed_caveman(
    num_communities: int,
    community_size: int,
    rewire_p: float,
    *,
    seed: int = 0,
) -> Graph:
    """Connected caves (cliques) with a fraction of edges rewired outward.

    A classic model for collaboration networks: start from
    ``num_communities`` disjoint cliques of ``community_size`` vertices, then
    rewire each edge with probability ``rewire_p`` to a uniformly random
    vertex, creating inter-community bridges while mostly preserving the
    dense cores.
    """
    rng = random.Random(seed)
    n = num_communities * community_size
    # One int object per vertex: every adjacency entry is its vertex's key
    # (as with a graph read by repro.graph.io.read_edge_list).
    labels = list(range(n))
    graph = Graph(vertices=labels)
    for c in range(num_communities):
        base = c * community_size
        for i in range(community_size):
            for j in range(i + 1, community_size):
                graph.add_edge(labels[base + i], labels[base + j])
    for u, v in list(graph.edges()):
        if rng.random() < rewire_p:
            w = rng.randrange(n)
            if w != u and not graph.has_edge(u, w):
                graph.remove_edge(u, v)
                graph.add_edge(u, labels[w])
    return graph


def rmat(
    scale: int,
    edge_factor: int,
    *,
    a: float = 0.57,
    b: float = 0.19,
    c: float = 0.19,
    seed: int = 0,
) -> Graph:
    """R-MAT / Kronecker-style power-law graph.

    Generates ``edge_factor * 2**scale`` directed edge samples in a
    ``2**scale`` vertex square, symmetrized and deduplicated into a simple
    undirected graph.  The defaults are the Graph500 parameters.
    """
    d = 1.0 - a - b - c
    if d < 0:
        raise ValueError("a + b + c must not exceed 1")
    import numpy as np

    rng = np.random.default_rng(seed)
    n = 1 << scale
    labels = list(range(n))  # one int object per vertex, as in relaxed_caveman
    graph = Graph(vertices=labels)
    target_edges = edge_factor * n
    attempts = 0
    # Vectorized quadrant descent: each batch draws `scale` quadrant choices
    # per candidate edge and assembles the bit patterns in one pass.
    thresholds = np.array([a, a + b, a + b + c])
    while graph.num_edges < target_edges and attempts < 12:
        attempts += 1
        batch = int((target_edges - graph.num_edges) * 1.6) + 64
        draws = rng.random((batch, scale))
        quadrant = np.searchsorted(thresholds, draws)  # 0..3 per bit
        u_bits = (quadrant >> 1) & 1  # quadrants 2,3 move u
        v_bits = quadrant & 1  # quadrants 1,3 move v
        weights = 1 << np.arange(scale - 1, -1, -1)
        us = (u_bits * weights).sum(axis=1)
        vs = (v_bits * weights).sum(axis=1)
        for u, v in zip(us.tolist(), vs.tolist()):
            if u != v:
                graph.add_edge(labels[u], labels[v], exist_ok=True)
                if graph.num_edges >= target_edges:
                    break
    return graph


def kronecker(
    initiator: Sequence[Sequence[float]],
    iterations: int,
    *,
    seed: int = 0,
) -> Graph:
    """Stochastic Kronecker graph sampled by recursive cell descent.

    The ``initiator`` is a small square matrix of non-negative cell
    weights (typically probabilities); after ``iterations`` Kronecker
    powers the vertex universe has :math:`k^{iterations}` vertices for a
    :math:`k \\times k` initiator.  Rather than evaluating all
    :math:`n^2` pair probabilities (infeasible in pure Python), edges
    are placed by the standard fast-sampling scheme: each sample
    descends ``iterations`` levels, picking cell ``(i, j)`` with
    probability proportional to ``initiator[i][j]`` at every level and
    accumulating the base-``k`` digits of both endpoints.  The number of
    samples is ``round(S ** iterations)`` where ``S`` is the total
    initiator weight — the expected directed edge count of the exact
    model.

    Self-loop / multi-edge handling (documented contract): sampled
    positions with ``u == v`` are *dropped* and repeat positions are
    *collapsed* (the "erased" convention, matching :func:`rmat`), so the
    realized simple-graph edge count is at most the sample count.  The
    output is symmetrized: a sampled arc ``(u, v)`` creates the
    undirected edge ``{u, v}``.

    Fully deterministic per ``(initiator, iterations, seed)`` and
    pure-stdlib — this is the self-similar community structure R-MAT
    approximates, without the numpy dependency.

    >>> g = kronecker([[0.9, 0.5], [0.5, 0.3]], 4, seed=1)
    >>> g.num_vertices
    16
    """
    k = len(initiator)
    if k < 2:
        raise ValueError(f"initiator must be at least 2x2, got {k}x{k}")
    if any(len(row) != k for row in initiator):
        raise ValueError("initiator must be square")
    cells: List[Tuple[int, int]] = []
    weights: List[float] = []
    for i, row in enumerate(initiator):
        for j, weight in enumerate(row):
            if weight < 0:
                raise ValueError(
                    f"initiator cell ({i}, {j}) is negative: {weight!r}"
                )
            if weight > 0:
                cells.append((i, j))
                weights.append(float(weight))
    if not cells:
        raise ValueError("initiator has no positive cells")
    if iterations < 1:
        raise ValueError(f"need iterations >= 1, got {iterations}")
    total = sum(weights)
    samples = max(1, round(total ** iterations))
    rng = random.Random(f"kronecker:{seed}")
    n = k ** iterations
    graph = Graph(vertices=range(n))
    for _ in range(samples):
        u = v = 0
        for _level in range(iterations):
            i, j = rng.choices(cells, weights=weights)[0]
            u = u * k + i
            v = v * k + j
        if u != v:
            graph.add_edge(u, v, exist_ok=True)
    return graph


def configuration_model(
    degree_sequence: Sequence[int], *, seed: int = 0
) -> Graph:
    """Erased configuration model for an exact target degree sequence.

    Builds the classic pairing (stub-matching) model: vertex ``i`` gets
    ``degree_sequence[i]`` stubs, the stub list is shuffled, and
    consecutive stubs are paired into edges.  The degree sum must be
    even (raises ``ValueError`` otherwise; pad the sequence to fix it).

    Self-loop / multi-edge handling (documented contract): pairings that
    would form a self loop or duplicate an existing edge are *erased*,
    not retried — the standard "erased configuration model" — so
    realized degrees are a lower bound on the requested ones (tight for
    sparse, spread-out sequences; hubs in heavy-tailed sequences lose
    the most).  Fully deterministic per ``(degree_sequence, seed)``.

    >>> g = configuration_model([3, 3, 2, 2, 2], seed=1)
    >>> g.num_vertices
    5
    """
    degrees = list(degree_sequence)
    if any(d < 0 for d in degrees):
        raise ValueError("degrees must be non-negative")
    if sum(degrees) % 2 != 0:
        raise ValueError(
            f"degree sum must be even, got {sum(degrees)} "
            "(pad the sequence by one stub to fix)"
        )
    rng = random.Random(f"configuration_model:{seed}")
    stubs: List[int] = []
    for vertex, degree in enumerate(degrees):
        stubs.extend([vertex] * degree)
    rng.shuffle(stubs)
    graph = Graph(vertices=range(len(degrees)))
    for index in range(0, len(stubs), 2):
        u, v = stubs[index], stubs[index + 1]
        if u != v:
            graph.add_edge(u, v, exist_ok=True)
    return graph


def forest_fire(
    n: int,
    p_forward: float = 0.37,
    *,
    seed: int = 0,
    ambassadors: int = 1,
) -> Graph:
    """Leskovec et al.'s forest-fire growth model (undirected variant).

    Each new vertex picks ``ambassadors`` random existing vertices, links
    to them, and "burns" outward: from each burned vertex it links to a
    geometrically-distributed number of that vertex's neighbors (mean
    ``p_forward / (1 - p_forward)``), recursively.  Produces the
    densifying, shrinking-diameter graphs the paper's related work ([13])
    describes — the natural growth process for exercising the dynamic
    maintenance algorithms.
    """
    if not 0.0 <= p_forward < 1.0:
        raise ValueError(f"p_forward must be in [0, 1), got {p_forward}")
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    rng = random.Random(seed)
    graph = Graph(vertices=[0])
    for new_vertex in range(1, n):
        graph.add_vertex(new_vertex)
        existing = new_vertex  # vertices 0..new_vertex-1 exist
        targets = {
            rng.randrange(existing)
            for _ in range(min(ambassadors, existing))
        }
        burned: set[int] = set()
        frontier = list(targets)
        while frontier:
            vertex = frontier.pop()
            if vertex in burned:
                continue
            burned.add(vertex)
            graph.add_edge(new_vertex, vertex, exist_ok=True)
            # Geometric number of forward links from this vertex.
            links = 0
            while rng.random() < p_forward:
                links += 1
            neighbors = [
                w
                for w in graph.neighbors(vertex)
                if w != new_vertex and w not in burned
            ]
            rng.shuffle(neighbors)
            frontier.extend(neighbors[:links])
    return graph


def growth_snapshots(
    n: int,
    snapshot_count: int,
    *,
    p_forward: float = 0.37,
    seed: int = 0,
) -> List[Graph]:
    """Snapshots of a forest-fire graph growing to ``n`` vertices.

    Returns ``snapshot_count`` cumulative snapshots taken at evenly spaced
    vertex counts — ready to wrap in a
    :class:`~repro.graph.snapshots.SnapshotStream` for dynamic workloads.
    """
    if snapshot_count < 1:
        raise ValueError("need at least one snapshot")
    full = forest_fire(n, p_forward, seed=seed)
    order = sorted(full.vertices())
    cuts = [
        max(1, round(n * (i + 1) / snapshot_count)) for i in range(snapshot_count)
    ]
    return [full.subgraph(order[:cut]) for cut in cuts]


def random_edge_sample(
    graph: Graph, fraction: float, *, seed: int = 0
) -> List[Tuple[Vertex, Vertex]]:
    """Sample ``fraction`` of the graph's edges uniformly without replacement.

    Used by the Table III benchmark ("randomly add/delete 1% of edges").
    """
    if not 0.0 <= fraction <= 1.0:
        raise ValueError(f"fraction must be in [0, 1], got {fraction}")
    rng = random.Random(seed)
    edges = sorted(graph.edges(), key=repr)
    count = int(round(fraction * len(edges)))
    rng.shuffle(edges)
    return edges[:count]


def random_non_edges(
    graph: Graph, count: int, *, seed: int = 0, triangle_closing: bool = False
) -> List[Tuple[Vertex, Vertex]]:
    """Sample ``count`` vertex pairs that are currently not edges.

    With ``triangle_closing`` set, pairs are sampled among endpoints of open
    wedges, so each insertion is guaranteed to create at least one triangle —
    the interesting case for the dynamic maintenance benchmark.
    """
    rng = random.Random(seed)
    vertices = sorted(graph.vertices(), key=repr)
    if len(vertices) < 2:
        return []
    result: List[Tuple[Vertex, Vertex]] = []
    chosen: set = set()
    attempts = 0
    max_attempts = max(1000, count * 200)
    while len(result) < count and attempts < max_attempts:
        attempts += 1
        if triangle_closing:
            center = rng.choice(vertices)
            neighbors = sorted(graph.neighbors(center), key=repr)
            if len(neighbors) < 2:
                continue
            u, w = rng.sample(neighbors, 2)
        else:
            u, w = rng.sample(vertices, 2)
        if u == w or graph.has_edge(u, w):
            continue
        from .edge import canonical_edge

        key = canonical_edge(u, w)
        if key in chosen:
            continue
        chosen.add(key)
        result.append(key)
    return result
