"""Seeded inputs and answer keys for the benchmark workloads.

Everything the program sees is made here from the run's seed: edge-list
files, edit batches and the HTTP request script.  The graph generators are
the benchmark's own, so a change to the program's generators cannot move
the inputs.  The answer keys (kappa maps) come from the program's
``reference`` backend, run on the graph as the program ingests it, and are
computed before any timed window opens.

``small=True`` shrinks every input so the benchmark's own tests run in
seconds; the workloads proper always use the full sizes.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

Edge = Tuple[int, int]
Batch = Tuple[List[Edge], List[Edge]]  # (removed, added)

#: Share of the graph's edges one edit batch touches (0.1% churn): half
#: removals, half triangle-closing insertions.
CHURN = 0.001

#: Distinct edit batches per run, by workload kind.  Every batch is
#: followed by its inverse, so the graph is stationary and a run cycles
#: through the pool.  maintain-cave draws about as many batches as a run
#: makes rounds, so a run's median is not set by a few batches; each
#: serve-dblp batch costs a reference decomposition for its answer key.
BATCH_POOL = {"maintain": 64, "serve": 16}

#: serve-dblp traffic per write pair: 8 kappa reads, a write, 9 kappa reads
#: (the first on an edge the write inserted), the inverse write, and one
#: community read of a vertex the writes touched = 85% / 10% / 5%.
READS_BEFORE_WRITE = 8
READS_AFTER_WRITE = 9


def _canon(u: int, v: int) -> Edge:
    return (u, v) if u < v else (v, u)


# ---------------------------------------------------------------------- #
# graph generators
# ---------------------------------------------------------------------- #


def rmat_edges(
    scale: int,
    edge_factor: int,
    *,
    seed: int,
    a: float = 0.45,
    b: float = 0.1833,
    c: float = 0.1833,
) -> Set[Edge]:
    """R-MAT edge set: ``edge_factor * 2**scale`` distinct undirected edges.

    The quadrant probabilities default to the program's LiveJournal
    stand-in.  Vertices no edge reaches never reach the edge list.
    """
    import numpy as np

    rng = np.random.default_rng(seed)
    target = edge_factor << scale
    thresholds = np.array([a, a + b, a + b + c])
    weights = 1 << np.arange(scale - 1, -1, -1)
    edges: Set[Edge] = set()
    for _ in range(32):
        if len(edges) >= target:
            break
        draws = rng.random((int((target - len(edges)) * 1.6) + 64, scale))
        quadrant = np.searchsorted(thresholds, draws)
        us = (((quadrant >> 1) & 1) * weights).sum(axis=1).tolist()
        vs = ((quadrant & 1) * weights).sum(axis=1).tolist()
        for u, v in zip(us, vs):
            if u != v:
                edges.add(_canon(u, v))
                if len(edges) >= target:
                    break
    return edges


def caveman_edges(
    communities: int, size: int, rewire_p: float, *, seed: int
) -> Set[Edge]:
    """Relaxed caveman graph: cliques with a share of edges rewired outward."""
    rng = random.Random(seed)
    n = communities * size
    adjacency: List[Set[int]] = [set() for _ in range(n)]
    order: List[Edge] = []
    for cave in range(communities):
        base = cave * size
        for i in range(size):
            for j in range(i + 1, size):
                adjacency[base + i].add(base + j)
                adjacency[base + j].add(base + i)
                order.append((base + i, base + j))
    for u, v in order:
        if rng.random() < rewire_p:
            w = rng.randrange(n)
            if w != u and w not in adjacency[u]:
                adjacency[u].discard(v)
                adjacency[v].discard(u)
                adjacency[u].add(w)
                adjacency[w].add(u)
    return {(u, w) for u in range(n) for w in adjacency[u] if u < w}


def dblp_edges(seed: int) -> Set[Edge]:
    """The program's bundled DBLP stand-in, relabelled to integers.

    The program's edge-list reader splits labels on whitespace, and DBLP
    author names contain spaces, so vertices are renumbered by a seeded
    shuffle of their sorted labels.
    """
    from repro import datasets

    graph = datasets.load("dblp").graph
    labels = sorted(graph.vertices(), key=repr)
    random.Random(seed).shuffle(labels)
    ids = {label: index for index, label in enumerate(labels)}
    return {_canon(ids[u], ids[v]) for u, v in graph.edges()}


def graph_edges(name: str, seed: int, *, small: bool = False) -> Set[Edge]:
    if name == "lj":
        return rmat_edges(8 if small else 14, 6, seed=seed)
    if name == "cave":
        if small:
            return caveman_edges(20, 8, 0.1, seed=seed)
        return caveman_edges(400, 20, 0.1, seed=seed)
    if name == "dblp":
        return dblp_edges(seed)
    raise ValueError(f"unknown graph {name!r}")


def write_edges(path: str, edges: Set[Edge]) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.writelines(f"{u} {v}\n" for u, v in sorted(edges))


# ---------------------------------------------------------------------- #
# edit batches
# ---------------------------------------------------------------------- #


def churn_batches(
    edges: Set[Edge], count: int, per_side: int, rng: random.Random
) -> List[Batch]:
    """``count`` batches of ``per_side`` removals + ``per_side`` insertions.

    Every batch is drawn against the same base graph (each is undone by its
    inverse before the next).  Insertions close a triangle that survives
    the batch's removals, so every one of them feeds the Rule-0 repair.
    """
    neighbours: Dict[int, List[int]] = {}
    for u, v in sorted(edges):
        neighbours.setdefault(u, []).append(v)
        neighbours.setdefault(v, []).append(u)
    vertices = sorted(neighbours)
    edge_list = sorted(edges)
    batches: List[Batch] = []
    for _ in range(count):
        removed = sorted(rng.sample(edge_list, per_side))
        gone = set(removed)
        added: Set[Edge] = set()
        while len(added) < per_side:
            u = rng.choice(vertices)
            v = rng.choice(neighbours[u])
            w = rng.choice(neighbours[v])
            new = _canon(u, w)
            if (
                w == u
                or new in edges
                or new in added
                or _canon(u, v) in gone
                or _canon(v, w) in gone
            ):
                continue
            added.add(new)
        batches.append((removed, sorted(added)))
    return batches


def per_side(num_edges: int) -> int:
    return max(1, round(num_edges * CHURN / 2))


# ---------------------------------------------------------------------- #
# answer keys
# ---------------------------------------------------------------------- #


def reference_kappa(graph) -> Dict[Edge, int]:
    """Kappa of ``graph`` by the program's ``reference`` backend."""
    from repro.engine import Engine

    engine = Engine(max_cached_graphs=0)
    return engine.decompose(graph, backend="reference").kappa


def ingest(path: str):
    """The graph exactly as the program reads the edge-list file."""
    from repro.graph.io import read_edge_list

    return read_edge_list(path)


@dataclass
class Request:
    """One HTTP request of the serve-dblp script and its answer key."""

    kind: str  # "kappa" | "edits" | "community"
    method: str
    path: str
    body: Optional[bytes] = None
    expect: Optional[int] = None  # kappa reads: the oracle's kappa
    ops: int = 0  # writes: edits in the batch


@dataclass
class Prepared:
    """A workload's inputs plus the facts the run reports about them."""

    path: str
    kappa: Dict[Edge, int] = field(default_factory=dict)
    batches: List[Batch] = field(default_factory=list)
    script: List[Request] = field(default_factory=list)
    facts: Dict[str, object] = field(default_factory=dict)


def _facts(graph, kappa: Dict[Edge, int]) -> Dict[str, object]:
    from repro.engine import Engine

    return {
        "vertices": graph.num_vertices,
        "edges": graph.num_edges,
        "kappa_max": max(kappa.values(), default=0),
        "resolved_backend": Engine().resolve(None, graph),
    }


def _kappa_path(u: int, v: int) -> str:
    return f"/kappa?u={u}&v={v}"


def _edits_body(removed: List[Edge], added: List[Edge]) -> bytes:
    ops = [["remove", u, v] for u, v in removed]
    ops += [["add", u, v] for u, v in added]
    return json.dumps({"ops": ops, "strategy": "auto"}).encode()


def serve_script(
    graph, base_kappa: Dict[Edge, int], batches: List[Batch], rng: random.Random
) -> List[Request]:
    """The request cycle: one 20-request block per batch, answer keys included.

    Each block returns the served graph to its start state, so the cycle
    can be replayed any number of times.
    """
    edge_list = sorted(base_kappa)
    script: List[Request] = []
    for removed, added in batches:
        state = graph.copy()
        for u, v in removed:
            state.remove_edge(u, v)
        for u, v in added:
            state.add_edge(u, v)
        state_kappa = reference_kappa(state)
        state_edges = sorted(state_kappa)
        for edge in rng.sample(edge_list, READS_BEFORE_WRITE):
            script.append(
                Request("kappa", "GET", _kappa_path(*edge), expect=base_kappa[edge])
            )
        script.append(
            Request(
                "edits", "POST", "/edits",
                body=_edits_body(removed, added), ops=len(removed) + len(added),
            )
        )
        reads = [added[0]] + rng.sample(state_edges, READS_AFTER_WRITE - 1)
        for edge in reads:
            script.append(
                Request("kappa", "GET", _kappa_path(*edge), expect=state_kappa[edge])
            )
        script.append(
            Request(
                "edits", "POST", "/edits",
                body=_edits_body(added, removed), ops=len(removed) + len(added),
            )
        )
        vertex = rng.choice(added)[rng.randrange(2)]
        script.append(Request("community", "GET", f"/community?vertex={vertex}"))
    return script


def prepare(
    kind: str, graph_name: str, seed: int, path: str, *, small: bool = False
) -> Prepared:
    """Write the workload's edge list to ``path`` and build its answer keys."""
    write_edges(path, graph_edges(graph_name, seed, small=small))
    graph = ingest(path)
    kappa = reference_kappa(graph)
    prepared = Prepared(path=path, facts=_facts(graph, kappa))
    rng = random.Random(f"{seed}:{kind}:{graph_name}")
    if kind in ("maintain", "serve"):
        edges = set(kappa)
        prepared.batches = churn_batches(
            edges, BATCH_POOL[kind], per_side(len(edges)), rng
        )
        prepared.facts["edits_per_batch"] = 2 * per_side(len(edges))
    if kind == "serve":
        prepared.script = serve_script(graph, kappa, prepared.batches, rng)
        prepared.facts["requests_per_cycle"] = len(prepared.script)
    else:
        prepared.kappa = kappa
    return prepared
