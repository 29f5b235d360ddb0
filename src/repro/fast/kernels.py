"""Flat-array kernels: triangle enumeration and Algorithm 1 peeling.

These are the hot loops behind ``backend="csr"``.  They operate purely on
the integer arrays of a :class:`~repro.fast.csr.CSRGraph` — no tuples, no
hashing, no sets — which is where the speedup over the reference
implementation comes from:

* :func:`triangle_count` / :func:`triangle_supports` — the *forward*
  algorithm over the degree-ordered CSR: for every forward arc ``(u, v)``
  the common forward neighbors are found by merge-intersecting two sorted
  adjacency suffixes.  Because the merge walks arc positions, the parallel
  ``arc_eids`` array yields the edge ids of all three triangle edges with
  no lookups.
* :func:`peel` — Algorithm 1 (paper §IV-A) on edge-indexed int arrays,
  delegated to the level-synchronous batched peel of
  :mod:`repro.fast.peelers` (layer L3).

Array handoff contract.  With numpy, :func:`supports_and_triangles`
returns int64 ``ndarray`` objects and the peel takes them as they are, so
the ``csr`` path stays in arrays from snapshot to peel; without
numpy the pure loops produce and consume plain ``list`` objects.  Every
value that leaves the kernel layer is a Python ``int``: :func:`peel`
returns lists and :func:`triangle_supports` converts once.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from . import csr as _csr_mod
from .csr import CSRGraph
from .peelers import IntSeq, run_peel


def _forward_wedges(csr: CSRGraph, lo: int = 0, hi: Optional[int] = None):
    """Vectorized forward-wedge join (numpy path).

    Returns ``(e_uv, e_uw, e_vw)`` int64 arrays, one entry per triangle, in
    exactly the order the pure merge loop discovers them: ascending by the
    first arc's position, then by the second endpoint.  For every forward
    arc position ``p`` the candidate apexes are the *later* positions of
    the same (sorted) block; a candidate closes a triangle iff ``(v, w)``
    is an edge, which one searchsorted over the sorted edge keys answers —
    and the found rank IS the edge id, because ids are assigned in sorted
    key order.

    ``lo``/``hi`` restrict the *first* vertex of each wedge to the id range
    ``[lo, hi)`` — the partitioning primitive behind the ``external`` backend.
    Because every triangle is discovered exactly once, from its
    lowest-ranked vertex, concatenating the outputs of disjoint covering
    ranges in ascending range order reproduces the full-graph output
    bit for bit.
    """
    np = _csr_mod.np
    n = csr.num_vertices
    m = csr.num_edges
    if hi is None:
        hi = n
    indptr = np.frombuffer(csr.indptr, dtype=np.int64)
    dst = np.frombuffer(csr.indices, dtype=np.int64)
    eids = np.frombuffer(csr.arc_eids, dtype=np.int64)
    fstart = np.frombuffer(csr.forward_start, dtype=np.int64)
    endpoints = np.frombuffer(csr.edge_endpoints, dtype=np.int64)
    edge_keys = endpoints[0::2] * n + endpoints[1::2]

    block_ends = indptr[lo + 1 : hi + 1]
    degrees = block_ends - indptr[lo:hi]
    positions = np.arange(indptr[lo], indptr[hi], dtype=np.int64)
    block_end = np.repeat(block_ends, degrees)
    is_forward = positions >= np.repeat(fstart[lo:hi], degrees)
    counts = np.where(is_forward, block_end - positions - 1, 0)
    total = int(counts.sum())
    if total == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty, empty
    first = np.repeat(positions, counts)
    offsets = np.concatenate(([0], np.cumsum(counts)[:-1]))
    second = np.arange(total, dtype=np.int64) - np.repeat(offsets, counts) + first + 1

    key = dst[first] * n + dst[second]
    loc = np.searchsorted(edge_keys, key)
    np.minimum(loc, m - 1, out=loc)
    hit = edge_keys[loc] == key
    return eids[first][hit], eids[second][hit], loc[hit]


def triangle_count(csr: CSRGraph) -> int:
    """Total number of triangles in the snapshot.

    >>> from ..graph.undirected import complete_graph
    >>> triangle_count(CSRGraph.from_graph(complete_graph(6)))
    20
    """
    if _csr_mod.np is not None:
        return 0 if csr.num_edges == 0 else len(_forward_wedges(csr)[0])
    indptr = csr.indptr.tolist()
    indices = csr.indices.tolist()
    fstart = csr.forward_start.tolist()
    total = 0
    for u in range(csr.num_vertices):
        a_end = indptr[u + 1]
        for p in range(fstart[u], a_end):
            v = indices[p]
            i, j = p + 1, fstart[v]
            b_end = indptr[v + 1]
            while i < a_end and j < b_end:
                wi = indices[i]
                wj = indices[j]
                if wi < wj:
                    i += 1
                elif wi > wj:
                    j += 1
                else:
                    total += 1
                    i += 1
                    j += 1
    return total


def triangle_supports(csr: CSRGraph) -> List[int]:
    """Per-edge triangle supports, indexed by edge id (length ``m``)."""
    supports, _ = supports_and_triangles(csr, record_triangles=False)
    return supports if isinstance(supports, list) else supports.tolist()


def supports_and_triangles(
    csr: CSRGraph,
    *,
    record_triangles: bool = True,
    lo: int = 0,
    hi: Optional[int] = None,
) -> Tuple[IntSeq, IntSeq]:
    """One forward pass: supports plus (optionally) the flat triangle list.

    Returns ``(supports, tri_edges)`` where ``supports[e]`` is the triangle
    support of edge id ``e`` and ``tri_edges`` stores each triangle as three
    consecutive edge ids (empty when ``record_triangles`` is false).  The
    peeling kernel consumes both, so the triangles found while counting
    supports are never recomputed.  Both are int64 ``ndarray`` objects with
    numpy and ``list`` objects without it (module docstring).

    ``lo``/``hi`` restrict the scan to triangles whose lowest-ranked vertex
    falls in the id range ``[lo, hi)`` (default: the whole graph).  The
    returned ``supports`` always has length ``m``: a partition may touch
    edges owned by other partitions, and summing the per-partition
    supports element-wise plus concatenating the per-partition ``tri_edges``
    in ascending range order reproduces the full-graph call exactly — the
    contract the ``external`` backend's partitioned enumeration relies on.

    Both implementations (vectorized numpy join, pure merge loop) emit the
    same triangles in the same order, so downstream results are identical
    with and without numpy — the test suite asserts it.
    """
    if hi is None:
        hi = csr.num_vertices
    np = _csr_mod.np
    if np is not None:
        if csr.num_edges == 0:
            empty = np.empty(0, dtype=np.int64)
            return empty, empty
        e_uv, e_uw, e_vw = _forward_wedges(csr, lo, hi)
        tri = np.stack((e_uv, e_uw, e_vw), axis=1).ravel()
        supports = np.bincount(tri, minlength=csr.num_edges)
        if not record_triangles:
            tri = np.empty(0, dtype=np.int64)
        return supports, tri

    indptr = csr.indptr.tolist()
    indices = csr.indices.tolist()
    eids = csr.arc_eids.tolist()
    fstart = csr.forward_start.tolist()
    supports = [0] * csr.num_edges
    tri_edges: List[int] = []
    append = tri_edges.append
    for u in range(lo, hi):
        a_end = indptr[u + 1]
        for p in range(fstart[u], a_end):
            v = indices[p]
            e_uv = eids[p]
            i, j = p + 1, fstart[v]
            b_end = indptr[v + 1]
            while i < a_end and j < b_end:
                wi = indices[i]
                wj = indices[j]
                if wi < wj:
                    i += 1
                elif wi > wj:
                    j += 1
                else:
                    e_uw = eids[i]
                    e_vw = eids[j]
                    supports[e_uv] += 1
                    supports[e_uw] += 1
                    supports[e_vw] += 1
                    if record_triangles:
                        append(e_uv)
                        append(e_uw)
                        append(e_vw)
                    i += 1
                    j += 1
    return supports, tri_edges


def peel(
    csr: CSRGraph,
    precomputed: Optional[Tuple[IntSeq, IntSeq]] = None,
    *,
    stats: Optional[dict] = None,
) -> Tuple[List[int], List[int]]:
    """Algorithm 1 over flat arrays: ``(kappa, processing_order)`` by edge id.

    ``precomputed`` may carry ``(supports, tri_edges)`` from
    :func:`supports_and_triangles` to skip the enumeration pass.  The peel
    is :func:`repro.fast.peelers.run_peel`: level-synchronous, batched
    decrements, canonical processing order (ascending level, sub-round,
    edge id).  ``stats`` (when given) receives its
    :data:`~repro.fast.peelers.PeelStats`.
    """
    supports, tri_edges = (
        precomputed
        if precomputed is not None
        else supports_and_triangles(csr, record_triangles=True)
    )
    return run_peel(csr.num_edges, supports, tri_edges, stats=stats)
