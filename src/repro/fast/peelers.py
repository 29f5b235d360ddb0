"""The peel (kernel layer L3): Algorithm 1 as a level-synchronous walk.

The peel turns ``(supports, tri_edges)`` into ``(kappa, processing_order)``.
It follows the batch processing in *Streaming and Batch Algorithms for
Truss Decomposition* (PAPERS.md): the whole frontier of minimum-bound
edges is peeled per sub-round and **all** of its support decrements are
applied in one batched pass (one sort of the decremented edge ids, whose
runs are the per-edge decrement counts).  Edges whose bound already sits
at or below the current level are provably stable this level (Theorem 1's
guard: :math:`\\tilde\\kappa` never drops below the frozen level) and are
skipped without touching them — the ``bound_skips`` counter.  The guard
is evaluated on the *pre-sub-round* bounds and a lowered bound is clamped
back to the level, so an edge with bound ``b > k`` hit by ``c``
unprocessed frontier triangles ends the sub-round at ``max(k, b - c)`` —
what Algorithm 1's one-at-a-time guarded decrements give.  Kappa is
therefore identical to the reference implementation on every graph; the
conformance matrix and the fuzz profiles assert it.

Canonical order.  The processing order is ascending level, then
sub-round, then ascending edge id: deterministic and non-decreasing in
kappa (any such order is valid per the paper).  The out-of-core backend
(:mod:`repro.fast.external`) reproduces it decision for decision.

Two code paths with bit-identical output and stats.  With numpy the
inner loop is O(sub-rounds) array passes, whose fixed cost per pass only
pays once the graph holds :data:`NUMPY_MIN_TRIANGLES` triangles; below
that, and on hosts without numpy, a pure-python path mirrors the numpy
one decision for decision, its levels drawn from a bucket queue of the
bounds, so the peel exists on every host.

Stats.  When a ``stats`` dict is passed, the peel records ``executor``
(``"vector"``), ``levels`` (distinct kappa values processed),
``batched_decrements`` (support decrements applied) and ``bound_skips``
(partner slots proven stable and skipped).  These feed the ``peel``
section of ``repro.engine.stats/8``.

Array handoff contract.  The peel follows the contract of
:func:`~repro.fast.kernels.supports_and_triangles`: with numpy it returns
``kappa`` and ``processing_order`` as int64 ``ndarray`` objects (whichever
path ran), without numpy as lists of ints.  It takes ``supports`` and
``tri_edges`` in either form, with identical results, and mutates neither.
Values become Python objects once, in the decode
(:meth:`~repro.fast.csr.CSRGraph.decode_kappa`).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from . import csr as _csr_mod
from .csr import _as_list

__all__ = ["NUMPY_MIN_TRIANGLES", "PeelStats", "run_peel"]

#: Per-run peel telemetry: ``{"executor": str, "levels": int,
#: "batched_decrements": int, "bound_skips": int}``.
PeelStats = Dict[str, object]

#: An int64 ``ndarray`` or a ``list`` of ints (module docstring, "Inputs").
IntSeq = Sequence[int]

#: The numpy path runs from this many triangles up.  Below it the pure
#: path is faster: a numpy sub-round costs tens of microseconds however
#: small its frontier, and small sparse graphs peel in many short
#: sub-rounds (R-MAT and caveman peels from 30 to 25k triangles put the
#: crossover between about 500 and 700 triangles).
NUMPY_MIN_TRIANGLES = 512

#: ``(kappa, order, levels, batched_decrements, bound_skips)``.
_PeelOutput = Tuple[IntSeq, IntSeq, int, int, int]


def _total(values: IntSeq) -> int:
    """Sum of ``values`` as a Python int, in one array pass when possible."""
    np = _csr_mod.np
    if np is not None and isinstance(values, np.ndarray):
        return int(values.sum())
    return sum(values)


def _incidence_arrays(tri, m: int):
    """Edge → triangle incidence of the flat int64 ``tri``, as a CSR.

    Returns ``(tri_start, incidence)``: ``incidence[tri_start[e]:
    tri_start[e + 1]]`` are the indices of the triangles holding edge ``e``,
    ascending — the layout a stable argsort of ``tri`` would give.  One
    plain sort of the packed ``(edge, triangle)`` keys gets it, about twice
    as fast as that argsort.
    """
    np = _csr_mod.np
    num_tris = tri.size // 3
    tri_ids = np.repeat(np.arange(num_tris, dtype=np.int64), 3)
    shift = max(num_tris - 1, 0).bit_length()
    if max(m - 1, 0).bit_length() + shift < 63:
        incidence = tri << shift
        incidence |= tri_ids
        incidence.sort()
        incidence &= (1 << shift) - 1
    else:  # pragma: no cover - keys would overflow int64
        incidence = tri_ids[np.argsort(tri, kind="stable")]
    tri_start = np.zeros(m + 1, dtype=np.int64)
    np.cumsum(np.bincount(tri, minlength=m), out=tri_start[1:])
    return tri_start, incidence


def _runs(values):
    """Sort ``values``; return its distinct values and each one's count.

    One sort plus an adjacent-difference pass: the numpy peel's per-edge
    decrement tally, in place of ``np.unique`` plus ``np.subtract.at``.
    """
    np = _csr_mod.np
    values = np.sort(values)
    if not values.size:
        return values, values
    heads = np.flatnonzero(np.concatenate(([True], values[1:] != values[:-1])))
    return values[heads], np.diff(np.append(heads, values.size))


def _peel_numpy(m: int, supports: IntSeq, tri_edges: IntSeq) -> _PeelOutput:
    np = _csr_mod.np
    tri = np.asarray(tri_edges, dtype=np.int64)
    bounds = np.array(supports, dtype=np.int64)  # a copy: mutated below
    num_tris = tri.size // 3
    tri3 = tri.reshape(num_tris, 3)
    tri_start, incidence = _incidence_arrays(tri, m)
    # Dedupe scratch: stamp[t] holds the slot of the last gathered copy.
    stamp = np.empty(num_tris, dtype=np.int64)
    processed = np.zeros(m, dtype=bool)
    consumed = np.zeros(num_tris, dtype=bool)
    kappa = np.zeros(m, dtype=np.int64)
    order_chunks: List[object] = []
    remaining = m
    sentinel = np.iinfo(np.int64).max
    levels = 0
    batched = 0
    skips = 0
    while remaining:
        masked = np.where(processed, sentinel, bounds)
        level = int(masked.min())
        levels += 1
        frontier = np.flatnonzero(~processed & (bounds == level))
        while frontier.size:
            order_chunks.append(frontier)
            processed[frontier] = True
            remaining -= int(frontier.size)
            kappa[frontier] = level
            # Gather the triangle lists of every frontier edge in one
            # repeat/cumsum pass (no per-edge python loop).
            counts = tri_start[frontier + 1] - tri_start[frontier]
            total = int(counts.sum())
            if total == 0:
                break  # no triangles => no decrements => no new frontier
            starts = tri_start[frontier]
            offsets = np.concatenate(([0], np.cumsum(counts)[:-1]))
            flat = np.repeat(starts - offsets, counts) + np.arange(
                total, dtype=np.int64
            )
            tris = incidence.take(flat)
            tris = tris[~consumed.take(tris)]
            # A triangle with 2+ frontier edges is gathered once per
            # edge: keep only the copy whose slot its stamp names.
            slots = np.arange(tris.size, dtype=np.int64)
            stamp[tris] = slots
            tris = tris[stamp.take(tris) == slots]
            consumed[tris] = True
            # take() gathers whole rows several times faster than
            # fancy indexing tri3[tris].
            partners = np.take(tri3, tris, axis=0).ravel()
            # Theorem 1 guard on the PRE-sub-round bounds: an edge at or
            # below the level is provably stable — skip it untouched.
            decremented = partners[bounds.take(partners) > level]
            skips += int(partners.size - decremented.size)
            batched += int(decremented.size)
            touched, hits = _runs(decremented)
            lowered = bounds[touched] - hits
            # Clamp: kappa never undershoots the level.
            bounds[touched] = np.maximum(lowered, level)
            frontier = touched[lowered <= level]
    order = (
        np.concatenate(order_chunks)
        if order_chunks
        else np.empty(0, dtype=np.int64)
    )
    return kappa, order, levels, batched, skips


def _peel_pure(m: int, supports: IntSeq, tri_edges: IntSeq) -> _PeelOutput:
    # Mirrors _peel_numpy decision for decision: same frontiers, same
    # sub-rounds, same ascending-id ordering, same counters — the test
    # suite asserts bit-identical output AND stats between the paths.
    bounds = _as_list(supports)
    tri_edges = _as_list(tri_edges)
    # incident[e]: indices of the triangles holding edge e, ascending.
    # Edges in no triangle share one empty tuple: on triangle-sparse
    # graphs most edges are such, and a list each costs more than the peel.
    incident: List[Sequence[int]] = [[] if s else () for s in bounds]
    edges = iter(tri_edges)
    for t, (a, b, c) in enumerate(zip(edges, edges, edges)):
        incident[a].append(t)
        incident[b].append(t)
        incident[c].append(t)
    consumed = bytearray(len(tri_edges) // 3)
    processed = bytearray(m)
    # buckets[b]: the edges filed at bound b.  A lowered bound refiles its
    # edge, so an entry is stale once its edge is processed or its bound
    # has moved; a level reads one bucket instead of scanning all m edges.
    top = max(bounds, default=0)
    buckets: List[List[int]] = [[] for _ in range(top + 1)]
    for e, b in enumerate(bounds):
        buckets[b].append(e)
    kappa = [0] * m
    order: List[int] = []
    remaining = m
    levels = 0
    batched = 0
    skips = 0
    level = -1
    while remaining:
        level += 1
        frontier = sorted(
            e for e in buckets[level] if not processed[e] and bounds[e] == level
        )
        buckets[level] = []
        if not frontier:
            continue
        levels += 1
        while frontier:
            order.extend(frontier)
            remaining -= len(frontier)
            for e in frontier:
                processed[e] = 1
                kappa[e] = level
            hit: List[int] = []
            for e in frontier:
                for t in incident[e]:
                    if not consumed[t]:
                        consumed[t] = 1
                        hit.append(t)
            if not hit:
                break
            # Aggregate decrements per edge first, then apply: the guard
            # must see the pre-sub-round bounds (decrement order within a
            # sub-round is commutative, so aggregation loses nothing).
            decrements: Dict[int, int] = {}
            for t in hit:
                base = 3 * t
                for e2 in (
                    tri_edges[base],
                    tri_edges[base + 1],
                    tri_edges[base + 2],
                ):
                    if bounds[e2] > level:
                        decrements[e2] = decrements.get(e2, 0) + 1
                    else:
                        skips += 1
            next_frontier: List[int] = []
            for e2, count in decrements.items():
                batched += count
                lowered = bounds[e2] - count
                if lowered <= level:
                    bounds[e2] = level
                    next_frontier.append(e2)
                else:
                    bounds[e2] = lowered
                    buckets[lowered].append(e2)
            next_frontier.sort()
            frontier = next_frontier
    return kappa, order, levels, batched, skips


def run_peel(
    m: int,
    supports: IntSeq,
    tri_edges: IntSeq,
    *,
    stats: Optional[PeelStats] = None,
) -> Tuple[IntSeq, IntSeq]:
    """Validated entry point: peel ``(supports, tri_edges)``.

    Returns ``(kappa, processing_order)``: kappa indexed by edge id, the
    order canonical, both int64 ``ndarray`` objects with numpy and lists
    without (module docstring).  Raises ``ValueError`` when the inputs
    are mutually inconsistent (each triangle contributes exactly 3 to the
    support sum).  ``stats`` (when given) receives the
    :data:`PeelStats`.
    """
    if not m:
        output: _PeelOutput = ([], [], 0, 0, 0)
    elif _total(supports) != len(tri_edges):
        raise ValueError(
            "precomputed supports/triangles disagree; pass the output of "
            "supports_and_triangles(csr, record_triangles=True)"
        )
    elif _csr_mod.np is None or len(tri_edges) < 3 * NUMPY_MIN_TRIANGLES:
        output = _peel_pure(m, supports, tri_edges)
    else:
        output = _peel_numpy(m, supports, tri_edges)
    kappa, order, levels, batched, skips = output
    np = _csr_mod.np
    if np is not None:  # the pure path also runs with numpy, on small inputs
        kappa = np.asarray(kappa, dtype=np.int64)
        order = np.asarray(order, dtype=np.int64)
    if stats is not None:
        stats["executor"] = "vector"
        stats["levels"] = levels
        stats["batched_decrements"] = batched
        stats["bound_skips"] = skips
    return kappa, order
