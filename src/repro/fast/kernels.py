"""Flat-array kernels: triangle enumeration and Algorithm 1 peeling.

These are the hot loops behind ``backend="csr"``.  They operate purely on
the integer arrays of a :class:`~repro.fast.csr.CSRGraph` — no tuples,
no dicts, no sets — which is where the speedup over the reference
implementation comes from:

* :func:`triangle_count` / :func:`triangle_supports` — the *forward*
  algorithm over the degree-ordered CSR: for every forward arc ``(u, v)``
  the common forward neighbors are found by merge-intersecting two sorted
  adjacency suffixes.  Because the merge walks arc positions, the parallel
  ``arc_eids`` array yields the edge ids of all three triangle edges with
  no lookups.  With numpy the same triangles come from a vectorized join
  over forward edges (:func:`_forward_wedges`): each wedge ``(v, w)`` is
  first screened by one gather into a byte table hashed by the edge keys,
  which rejects most open wedges, and only the survivors pay the binary
  search that confirms the edge and returns its id.
* :func:`peel` — Algorithm 1 (paper §IV-A) on edge-indexed int arrays,
  delegated to the level-synchronous batched peel of
  :mod:`repro.fast.peelers` (layer L3).

Array handoff contract.  With numpy, :func:`supports_and_triangles` and
:func:`peel` return int64 ``ndarray`` objects, so the ``csr`` path stays in
arrays from snapshot through peel to the decode
(:meth:`~repro.fast.csr.CSRGraph.decode_kappa`), which is where values
become Python objects; without numpy the pure loops produce and consume
plain ``list`` objects.  :func:`triangle_supports` returns a list of
Python ``int`` in both modes.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from . import csr as _csr_mod
from .csr import CSRGraph
from .peelers import IntSeq, run_peel


#: Slots per edge in the byte table that screens wedges before the edge
#: search; the table has the next power of two at or above this many slots
#: per edge.  At 8 at most about 1 slot in 9 is set, so most open wedges
#: stop at one gather and only the rest pay the binary search.
_FILTER_SLOTS_PER_EDGE = 8

#: Odd 64-bit multiplier of the table's hash (Fibonacci hashing, 2^64/phi),
#: as the int64 with the same bits so the product wraps in int64.
_HASH_MULTIPLIER = 0x9E3779B97F4A7C15 - (1 << 64)


def _edge_index(csr: CSRGraph):
    """What every :func:`_forward_wedges` call over ``csr`` shares.

    Returns ``(eid_base, his, edge_keys, table, shift)``: ``eid_base[u]``
    is the first edge id whose lower endpoint is ``u`` (length ``n + 1``),
    ``his`` a view of every edge's upper endpoint, ``edge_keys`` the
    sorted ``lo * n + hi`` keys, and ``table`` the byte table that is set
    at the hash slot of every edge key (:func:`_slots` with ``shift``).
    Building it is O(n + m); a caller that enumerates in chunks builds it
    once.
    """
    np = _csr_mod.np
    n = csr.num_vertices
    m = csr.num_edges
    indptr = np.frombuffer(csr.indptr, dtype=np.int64)
    fstart = np.frombuffer(csr.forward_start, dtype=np.int64)
    endpoints = np.frombuffer(csr.edge_endpoints, dtype=np.int64)
    eid_base = np.zeros(n + 1, dtype=np.int64)
    (indptr[1:] - fstart).cumsum(out=eid_base[1:])
    his = endpoints[1::2]
    edge_keys = endpoints[0::2] * n
    edge_keys += his
    bits = max(2, (_FILTER_SLOTS_PER_EDGE * m - 1).bit_length())
    table = np.zeros(1 << bits, dtype=bool)
    shift = 64 - bits
    table[_slots(edge_keys, shift)] = True
    return eid_base, his, edge_keys, table, shift


def _slots(keys, shift: int):
    """Hash slot of each int64 key: the top ``64 - shift`` bits of a
    multiplicative hash.

    The product wraps in int64 and the shift is arithmetic, so a slot is
    in ``[-S/2, S/2)`` for a table of ``S = 2**(64 - shift)`` slots; numpy
    indexing maps the negative half onto the table's upper half.
    """
    slots = keys * _HASH_MULTIPLIER
    slots >>= shift
    return slots


def _forward_wedges(
    csr: CSRGraph, lo: int = 0, hi: Optional[int] = None, index=None
):
    """Vectorized forward-wedge join (numpy path).

    Returns ``(e_uv, e_uw, e_vw)`` int64 arrays, one entry per triangle, in
    exactly the order the pure merge loop discovers them: ascending by the
    first arc's position, then by the second endpoint.  The forward arcs
    in position order are the edges in id order, so the join runs in edge
    ids: for every edge ``(u, v)`` the candidate apexes ``w`` are the upper
    endpoints of the *later* edges with lower endpoint ``u``, and ``v`` is
    the edge's own upper endpoint, repeated once per candidate.  A
    candidate closes a triangle iff ``(v, w)`` is an edge.  One gather into
    a byte table hashed by the edge keys rejects most open wedges; a
    searchsorted over the sorted edge keys settles the rest, and the found
    rank IS the edge id, because ids are assigned in sorted key order.

    ``index`` is :func:`_edge_index` of ``csr``, built here when None; a
    caller that enumerates in chunks passes one built once.

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
    if index is None:
        index = _edge_index(csr)
    eid_base, his, edge_keys, table, shift = index

    # Edge e = (u, v) pairs with the later edges of u's forward block,
    # e + 1 .. eid_base[u + 1] - 1: each is one candidate (u, w).
    e0, e1 = int(eid_base[lo]), int(eid_base[hi])
    # (numpy calls below are methods: on small graphs the module-level
    # wrappers cost more than the work.)
    ids = np.arange(e0, e1 + 1, dtype=np.int64)
    block_end = eid_base[lo + 1 : hi + 1]
    counts = block_end.repeat(block_end - eid_base[lo:hi]) - ids[1:]
    total = int(counts.sum())
    if total == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty, empty
    first = ids[:-1].repeat(counts)
    # second = first + 1 + (rank inside first's run of candidates).
    second = np.arange(total, dtype=np.int64)
    second += (ids[1:] - (counts.cumsum() - counts)).repeat(counts)

    key = his[e0:e1].repeat(counts)
    key *= n
    key += his[second]
    maybe = table[_slots(key, shift)].nonzero()[0]
    key = key[maybe]
    loc = edge_keys.searchsorted(key)
    np.minimum(loc, m - 1, out=loc)
    hit = edge_keys[loc] == key
    maybe = maybe[hit]
    return first[maybe], second[maybe], loc[hit]


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
    consecutive edge ids (empty when ``record_triangles`` is false, and
    then never built: each edge column is counted on its own).  The
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
        columns = _forward_wedges(csr, lo, hi)
        if not record_triangles:
            supports = np.bincount(columns[0], minlength=csr.num_edges)
            for column in columns[1:]:
                supports += np.bincount(column, minlength=csr.num_edges)
            return supports, np.empty(0, dtype=np.int64)
        tri = np.stack(columns, axis=1).ravel()
        return np.bincount(tri, minlength=csr.num_edges), tri

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
) -> Tuple[IntSeq, IntSeq]:
    """Algorithm 1 over flat arrays: ``(kappa, processing_order)`` by edge id.

    ``precomputed`` may carry ``(supports, tri_edges)`` from
    :func:`supports_and_triangles` to skip the enumeration pass.  The peel
    is :func:`repro.fast.peelers.run_peel`: level-synchronous, batched
    decrements, canonical processing order (ascending level, sub-round,
    edge id).  Both outputs are int64 ``ndarray`` objects with numpy and
    lists without (module docstring).  ``stats`` (when given) receives its
    :data:`~repro.fast.peelers.PeelStats`.
    """
    supports, tri_edges = (
        precomputed
        if precomputed is not None
        else supports_and_triangles(csr, record_triangles=True)
    )
    return run_peel(csr.num_edges, supports, tri_edges, stats=stats)
