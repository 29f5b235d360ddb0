"""Peel executors (kernel layer L3): Algorithm 1 behind a swappable seam.

The peel — turn ``(supports, tri_edges)`` into ``(kappa, processing_order)``
— is isolated here behind the :class:`PeelExecutor` interface so the engine
can compose it independently of the substrate (L1) and enumeration (L2)
layers.  Two executors ship:

``"scalar"``
    The classic Batagelj–Zaveršnik bucket-queue walk (moved verbatim from
    ``kernels.peel``): pop a minimum-bound edge, freeze its bound as
    :math:`\\kappa`, decrement the partners of its unprocessed triangles
    one at a time via O(1) bucket swaps.  Pure stdlib, always available,
    and the bit-for-bit behavioral baseline — ``backend="csr"`` runs it.
``"vector"``
    A level-synchronous executor following the batch processing in
    *Streaming and Batch Algorithms for Truss Decomposition* (PAPERS.md):
    instead of decrementing one partner at a time, the whole frontier of
    minimum-bound edges is peeled per sub-round and **all** of its support
    decrements are applied in one batched array pass
    (``np.subtract.at``).  Edges whose bound already sits at or below the
    current level are provably stable this level (Theorem 1's guard:
    :math:`\\tilde\\kappa` never drops below the frozen level) and are
    skipped without touching them — the ``bound_skips`` counter.  With
    numpy the inner loop is O(sub-rounds) array passes instead of O(3T)
    interpreted steps; a mirrored pure-python path produces bit-identical
    output (and identical stats) so the executor exists on every host.

Equivalence.  Batched decrements with the guard evaluated on the
*pre-sub-round* bounds equal the scalar guarded sequential decrements:
for an edge with bound ``b > k`` hit by ``c`` unprocessed triangles of the
frontier, both produce ``max(k, b - c)`` (the vector path clamps dropped
edges back to the level ``k``), and edges with ``b <= k`` are untouched by
both.  Kappa is therefore identical to the scalar executor — and to the
reference implementation — on every graph; the conformance matrix and the
fuzz profiles assert it.  The *processing order* differs in tie-breaking:
the vector executor emits a canonical order — ascending level, then
sub-round, then ascending edge id — which is deterministic and
non-decreasing in kappa (any such order is valid per the paper), and
identical between the numpy and pure paths.

Stats.  When a ``stats`` dict is passed, the executor records
``executor`` (name), ``levels`` (distinct kappa values processed),
``batched_decrements`` (support decrements applied in array passes; 0 for
scalar, which decrements via bucket swaps counted separately) and
``bound_skips`` (partner slots proven stable and skipped; 0 for scalar).
These feed the ``peel`` section of ``repro.engine.stats/7``.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from . import csr as _csr_mod

__all__ = [
    "PEEL_EXECUTORS",
    "PeelExecutor",
    "PeelStats",
    "ScalarPeel",
    "VectorPeel",
    "resolve_peel_executor",
    "run_peel",
]

#: Per-run executor telemetry: ``{"executor": str, "levels": int,
#: "batched_decrements": int, "bound_skips": int}``.
PeelStats = Dict[str, object]


def _edge_triangle_incidence(
    supports: List[int], tri_edges: List[int]
) -> Tuple[List[int], List[int]]:
    """CSR-style edge → triangle-index incidence via counting sort.

    ``supports[e]`` is exactly the number of triangles incident to ``e``,
    so the offsets are its prefix sums; no second enumeration pass needed.
    """
    m = len(supports)
    tri_start = [0] * (m + 1)
    total = 0
    for e in range(m):
        tri_start[e] = total
        total += supports[e]
    tri_start[m] = total
    cursor = tri_start[:m]
    incidence = [0] * total
    for t in range(0, len(tri_edges), 3):
        tri = t // 3
        for e in (tri_edges[t], tri_edges[t + 1], tri_edges[t + 2]):
            incidence[cursor[e]] = tri
            cursor[e] += 1
    return tri_start, incidence


class PeelExecutor:
    """Interface of kernel layer L3: ``(supports, tri_edges) -> (kappa, order)``.

    Implementations must be pure functions of their inputs (no hidden
    state) and must produce a kappa array identical to Algorithm 1's and a
    processing order that is non-decreasing in kappa.  ``run`` may assume
    the inputs are consistent — :func:`run_peel` validates once on entry.
    """

    name: str = "abstract"

    def run(
        self,
        m: int,
        supports: List[int],
        tri_edges: List[int],
        stats: Optional[PeelStats] = None,
    ) -> Tuple[List[int], List[int]]:
        raise NotImplementedError


class ScalarPeel(PeelExecutor):
    """The sequential bucket-queue walk — the behavioral baseline."""

    name = "scalar"

    def run(
        self,
        m: int,
        supports: List[int],
        tri_edges: List[int],
        stats: Optional[PeelStats] = None,
    ) -> Tuple[List[int], List[int]]:
        np = _csr_mod.np
        bounds = list(supports)  # mutated in place: the tilde-kappa array
        if np is not None:
            # Same layouts as the pure counting sorts below, built
            # vectorized: stable argsort groups by value with ids ascending
            # inside a group, exactly the order the ascending fill produces.
            sup = np.array(supports, dtype=np.int64)
            order = np.argsort(sup, kind="stable")
            sorted_edges = order.tolist()
            pos = np.empty(m, dtype=np.int64)
            pos[order] = np.arange(m, dtype=np.int64)
            edge_pos = pos.tolist()
            bucket_start = np.concatenate(
                ([0], np.cumsum(np.bincount(sup)))
            ).tolist()
            tri_np = np.array(tri_edges, dtype=np.int64)
            incidence = (np.argsort(tri_np, kind="stable") // 3).tolist()
            tri_start = np.concatenate(
                ([0], np.cumsum(np.bincount(tri_np, minlength=m)))
            ).tolist()
        else:
            tri_start, incidence = _edge_triangle_incidence(supports, tri_edges)

            # Bucket sort by support: sorted_edges holds edge ids grouped by
            # bound, edge_pos[e] is e's slot, bucket_start[s] the live start
            # of bucket s.
            max_bound = max(bounds)
            counts = [0] * (max_bound + 1)
            for s in bounds:
                counts[s] += 1
            bucket_start = [0] * (max_bound + 2)
            total = 0
            for s in range(max_bound + 1):
                bucket_start[s] = total
                total += counts[s]
            bucket_start[max_bound + 1] = total
            cursor = bucket_start[: max_bound + 1]
            sorted_edges = [0] * m
            edge_pos = [0] * m
            for e in range(m):
                slot = cursor[bounds[e]]
                sorted_edges[slot] = e
                edge_pos[e] = slot
                cursor[bounds[e]] = slot + 1

        processed = bytearray(m)
        # Iterating the mutating list is safe: swaps only ever touch
        # positions strictly after the current one (their buckets start past
        # it).  Once an edge is popped its bound is frozen — decrements skip
        # triangles with a processed edge — so after the loop ``bounds`` IS
        # the kappa array.
        for e in sorted_edges:
            bound = bounds[e]
            start_t = tri_start[e]
            end_t = tri_start[e + 1]
            if start_t != end_t:
                for tpos in range(start_t, end_t):
                    base = 3 * incidence[tpos]
                    e0 = tri_edges[base]
                    e1 = tri_edges[base + 1]
                    e2 = tri_edges[base + 2]
                    if e0 == e:
                        a, b = e1, e2
                    elif e1 == e:
                        a, b = e0, e2
                    else:
                        a, b = e0, e1
                    # A triangle is processed once any edge is; skip those.
                    if processed[a] or processed[b]:
                        continue
                    if bounds[a] > bound:
                        s = bounds[a]
                        pos = edge_pos[a]
                        start = bucket_start[s]
                        if pos != start:
                            first = sorted_edges[start]
                            sorted_edges[start] = a
                            sorted_edges[pos] = first
                            edge_pos[a] = start
                            edge_pos[first] = pos
                        bucket_start[s] = start + 1
                        bounds[a] = s - 1
                    if bounds[b] > bound:
                        s = bounds[b]
                        pos = edge_pos[b]
                        start = bucket_start[s]
                        if pos != start:
                            first = sorted_edges[start]
                            sorted_edges[start] = b
                            sorted_edges[pos] = first
                            edge_pos[b] = start
                            edge_pos[first] = pos
                        bucket_start[s] = start + 1
                        bounds[b] = s - 1
            processed[e] = 1
        if stats is not None:
            stats["executor"] = self.name
            stats["levels"] = len(set(bounds)) if m else 0
            stats["batched_decrements"] = 0
            stats["bound_skips"] = 0
        return bounds, sorted_edges


class VectorPeel(PeelExecutor):
    """Level-synchronous batched peel (numpy path + bit-identical pure path)."""

    name = "vector"

    def run(
        self,
        m: int,
        supports: List[int],
        tri_edges: List[int],
        stats: Optional[PeelStats] = None,
    ) -> Tuple[List[int], List[int]]:
        if _csr_mod.np is not None:
            return self._run_numpy(m, supports, tri_edges, stats)
        return self._run_pure(m, supports, tri_edges, stats)

    def _run_numpy(
        self,
        m: int,
        supports: List[int],
        tri_edges: List[int],
        stats: Optional[PeelStats],
    ) -> Tuple[List[int], List[int]]:
        np = _csr_mod.np
        bounds = np.array(supports, dtype=np.int64)
        tri = np.array(tri_edges, dtype=np.int64)
        num_tris = tri.size // 3
        tri3 = tri.reshape(num_tris, 3)
        # Edge → triangle incidence as a CSR over edge ids: a stable argsort
        # of the flat triangle list groups positions by edge id, and
        # position // 3 recovers the triangle index.
        incidence = np.argsort(tri, kind="stable") // 3
        tri_start = np.concatenate(
            ([0], np.cumsum(np.bincount(tri, minlength=m)))
        )
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
                tris = incidence[flat]
                tris = tris[~consumed[tris]]
                tris = np.unique(tris)  # a triangle with 2+ frontier edges
                consumed[tris] = True
                partners = tri3[tris].ravel()
                # Theorem 1 guard on the PRE-sub-round bounds: an edge at or
                # below the level is provably stable — skip it untouched.
                live = bounds[partners] > level
                skips += int(partners.size - live.sum())
                decremented = partners[live]
                batched += int(decremented.size)
                np.subtract.at(bounds, decremented, 1)
                touched = np.unique(decremented)
                dropped = touched[bounds[touched] <= level]
                bounds[dropped] = level  # clamp: kappa never undershoots
                frontier = dropped
        if order_chunks:
            order = np.concatenate(order_chunks).tolist()
        else:
            order = []
        if stats is not None:
            stats["executor"] = self.name
            stats["levels"] = levels
            stats["batched_decrements"] = batched
            stats["bound_skips"] = skips
        return kappa.tolist(), order

    def _run_pure(
        self,
        m: int,
        supports: List[int],
        tri_edges: List[int],
        stats: Optional[PeelStats],
    ) -> Tuple[List[int], List[int]]:
        # Mirrors _run_numpy decision for decision: same frontiers, same
        # sub-rounds, same ascending-id ordering, same counters — the test
        # suite asserts bit-identical output AND stats between the paths.
        bounds = list(supports)
        tri_start, incidence = _edge_triangle_incidence(supports, tri_edges)
        num_tris = len(tri_edges) // 3
        processed = bytearray(m)
        consumed = bytearray(num_tris)
        kappa = [0] * m
        order: List[int] = []
        remaining = m
        levels = 0
        batched = 0
        skips = 0
        while remaining:
            level = min(
                bounds[e] for e in range(m) if not processed[e]
            )
            levels += 1
            frontier = [
                e for e in range(m) if not processed[e] and bounds[e] == level
            ]
            while frontier:
                order.extend(frontier)
                remaining -= len(frontier)
                for e in frontier:
                    processed[e] = 1
                    kappa[e] = level
                hit: List[int] = []
                for e in frontier:
                    for pos in range(tri_start[e], tri_start[e + 1]):
                        t = incidence[pos]
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
                next_frontier.sort()
                frontier = next_frontier
        if stats is not None:
            stats["executor"] = self.name
            stats["levels"] = levels
            stats["batched_decrements"] = batched
            stats["bound_skips"] = skips
        return kappa, order


_EXECUTORS: Dict[str, PeelExecutor] = {
    ScalarPeel.name: ScalarPeel(),
    VectorPeel.name: VectorPeel(),
}

#: Peel executor names, in registry order.
PEEL_EXECUTORS: Tuple[str, ...] = tuple(_EXECUTORS)


def resolve_peel_executor(name: str) -> PeelExecutor:
    """Look up an executor by name (ValueError on unknown names)."""
    try:
        return _EXECUTORS[name]
    except KeyError:
        raise ValueError(
            f"unknown peel executor {name!r}; expected one of {PEEL_EXECUTORS}"
        ) from None


def run_peel(
    m: int,
    supports: List[int],
    tri_edges: List[int],
    *,
    executor: str = "scalar",
    stats: Optional[PeelStats] = None,
) -> Tuple[List[int], List[int]]:
    """Validated entry point: peel ``(supports, tri_edges)`` with ``executor``.

    Returns ``(kappa, processing_order)`` indexed by edge id.  Raises
    ``ValueError`` when the inputs are mutually inconsistent (each triangle
    contributes exactly 3 to the support sum) or the executor is unknown.
    """
    impl = resolve_peel_executor(executor)
    if m == 0:
        if stats is not None:
            stats["executor"] = impl.name
            stats["levels"] = 0
            stats["batched_decrements"] = 0
            stats["bound_skips"] = 0
        return [], []
    if sum(supports) != len(tri_edges):
        raise ValueError(
            "precomputed supports/triangles disagree; pass the output of "
            "supports_and_triangles(csr, record_triangles=True)"
        )
    return impl.run(m, supports, tri_edges, stats)
