"""Incremental maintenance of Triangle K-Cores under edge updates.

This module implements the semantics of the paper's Algorithm 2 (with the
detailed Algorithms 5-7 of the appendix): after an edge insertion or
deletion, repair every edge's :math:`\\kappa` *locally* instead of re-running
Algorithm 1 from scratch.

The implementation rests on the paper's locality results:

* **Rule 0** — when a triangle with minimum edge level :math:`\\mu` appears
  or disappears, only edges currently at level :math:`\\mu` can change, and
  only by one.
* **Lemma 2** — a level-:math:`\\mu` change propagates only to neighboring
  edges that are themselves at level :math:`\\mu`.

Concretely we process a whole edge update at once (all the triangles it
creates or destroys), exploiting two consequences of Rule 0 that the k-truss
maintenance literature later formalized:

* every *existing* edge's level moves by at most one per inserted/deleted
  edge;
* the level-:math:`k` repair is independent of every other level, so each
  affected level is repaired with its own candidate search + cascade.

For an **insertion** of ``e0 = {u, v}``: the new edge starts at level 0 and
climbs one level per pass.  At level ``k``, the candidate set is ``e0`` plus
every unfrozen level-``k`` edge triangle-connected to it; the "obey
Theorem 1" eligibility cascade peels candidates that cannot gather ``k + 1``
supporting triangles, and survivors are promoted to ``k + 1``.  The coupling
matters: a brand-new triangle whose three edges all sit at level ``k`` must
promote all three together (they support each other), which is exactly what
the candidate-coupled peel decides.  This mirrors the PotentialList /
ChangingList simulation of Algorithm 5.

For a **deletion** of ``e0``: the side edges of each destroyed triangle that
counted it (their level is at most the levels of the other two edges) seed a
demotion cascade at their own level, mirroring Algorithm 7.

All updates keep the maintainer's kappa map equal to what
:func:`~repro.core.triangle_kcore.triangle_kcore_decomposition` would return
on the current graph — the equivalence is enforced by randomized property
tests in ``tests/test_dynamic.py``.

**Edge-key map.**  Next to the kappa map the maintainer keeps
``{vertex: {neighbor: edge}}`` whose values are the kappa map's *own* key
objects.  The cascades walk a triangle ``(a, b, w)`` as ``ea[w]`` /
``eb[w]`` (with ``ea = keys[a]``) instead of building a canonical tuple per
side, and every kappa lookup with such a key hits the dict's identity fast
path instead of a tuple compare.  Sync rule: the map mirrors the graph's
adjacency exactly (isolated vertices included), and each value *is* the
kappa key of its edge.  It is built once at construction, in one pass over
the kappa keys; every structural write (``add_vertex``, ``add_edge``,
``remove_edge``, ``remove_vertex``, the batch cluster path and the
recompute path) links or unlinks its edge in the same step.  The recompute
path copies the old kappa map and overwrites its values from the fresh
decomposition with ``dict.update``, which keeps the copy's key objects.
``tests/test_dynamic.py::TestEdgeKeyMap`` pins the rule on every write
path.
"""

from __future__ import annotations

import gc
from typing import Dict, Iterable, List, Optional, Set, Tuple

from ..exceptions import (
    EdgeExistsError,
    EdgeNotFoundError,
    SelfLoopError,
    StaleIndexError,
)
from ..graph.edge import Edge, Vertex, canonical_edge
from ..graph.undirected import Graph
from .triangle_kcore import (
    TriangleKCoreResult,
    kappa_from_mapping,
    triangle_kcore_decomposition,
)


def h_index(values: Iterable[int]) -> int:
    """Largest ``h`` such that at least ``h`` of the values are >= ``h``.

    >>> h_index([3, 3, 2, 0])
    2
    >>> h_index([])
    0
    """
    ordered = sorted(values, reverse=True)
    h = 0
    for i, value in enumerate(ordered, start=1):
        if value >= i:
            h = i
        else:
            break
    return h


class UpdateStats:
    """Counters describing the work one update performed (for benchmarks).

    Field guarantees by strategy (see :meth:`DynamicTriangleKCore.apply`):

    ==================  ===========  =========  =====
    field               incremental  recompute  batch
    ==================  ===========  =========  =====
    strategy            yes          yes        yes
    edges_changed       yes          yes        yes
    candidates_examined yes          0          yes
    levels_touched      yes          0          0
    full_snapshots      0            1          0
    region_edges        0            0          yes
    settle_iterations   0            0          yes
    bound_prune_hits    0            0          yes
    ==================  ===========  =========  =====

    ``levels_touched`` only makes sense for the per-op cascades (one entry
    per promotion/demotion pass); the batch settle repairs every level in a
    single localized fixpoint, so it reports ``region_edges`` /
    ``settle_iterations`` / ``bound_prune_hits`` instead.
    ``full_snapshots`` counts O(|E|) copies of the kappa map — zero on the
    incremental and batch paths by design (the satellite contract pinned by
    ``tests/test_dynamic.py``).
    """

    __slots__ = (
        "candidates_examined",
        "edges_changed",
        "levels_touched",
        "strategy",
        "full_snapshots",
        "region_edges",
        "settle_iterations",
        "bound_prune_hits",
    )

    def __init__(self) -> None:
        self.candidates_examined = 0
        self.edges_changed = 0
        self.levels_touched = 0
        self.strategy = "incremental"
        self.full_snapshots = 0
        self.region_edges = 0
        self.settle_iterations = 0
        self.bound_prune_hits = 0

    def __repr__(self) -> str:
        return (
            f"UpdateStats(strategy={self.strategy!r}, "
            f"candidates={self.candidates_examined}, "
            f"changed={self.edges_changed}, levels={self.levels_touched}, "
            f"region={self.region_edges})"
        )


class KappaDelta:
    """What a batch update did to the kappa map, edge by edge.

    The consumable form of an update for downstream pipelines: Dual View
    Plots re-score exactly ``created`` + ``promoted`` + ``demoted``;
    monitoring code watches ``max(promoted.values(), default=0)``.
    """

    __slots__ = ("created", "deleted", "promoted", "demoted", "stats")

    def __init__(
        self,
        created: Dict[Edge, int],
        deleted: Dict[Edge, int],
        promoted: Dict[Edge, Tuple[int, int]],
        demoted: Dict[Edge, Tuple[int, int]],
        stats: UpdateStats,
    ) -> None:
        self.created = created      #: new edge -> its kappa
        self.deleted = deleted      #: removed edge -> its old kappa
        self.promoted = promoted    #: edge -> (old kappa, new kappa), rising
        self.demoted = demoted      #: edge -> (old kappa, new kappa), falling
        self.stats = stats

    @property
    def is_empty(self) -> bool:
        return not (self.created or self.deleted or self.promoted or self.demoted)

    def touched_edges(self) -> Set[Edge]:
        """Every edge whose kappa value is different after the batch."""
        return (
            set(self.created)
            | set(self.deleted)
            | set(self.promoted)
            | set(self.demoted)
        )

    def __repr__(self) -> str:
        return (
            f"KappaDelta(+{len(self.created)} edges, -{len(self.deleted)}, "
            f"{len(self.promoted)} promoted, {len(self.demoted)} demoted)"
        )


class DynamicTriangleKCore:
    """Maintains every edge's :math:`\\kappa` under edge insertions/deletions.

    Parameters
    ----------
    graph:
        Initial graph.  A private copy is taken unless ``copy=False``; with
        ``copy=False`` the caller must *only* mutate the graph through this
        maintainer, otherwise kappa values go stale.
    seed_result:
        Optional precomputed :class:`TriangleKCoreResult` for ``graph``
        (e.g. from a faster engine backend, or loaded via
        :mod:`repro.core.persistence`).  When given, the warm-up
        decomposition is skipped and the maintainer starts from a copy of
        its kappa map.  The result must cover exactly the graph's edges;
        a mismatch raises :class:`~repro.exceptions.StaleIndexError`.

    Examples
    --------
    >>> g = Graph(edges=[("A", "B"), ("B", "C"), ("A", "C")])
    >>> core = DynamicTriangleKCore(g)
    >>> core.kappa_of("A", "B")
    1
    >>> _ = core.remove_edge("B", "C")
    >>> core.kappa_of("A", "B")
    0
    """

    def __init__(
        self,
        graph: Graph,
        *,
        copy: bool = True,
        store_triangles: bool = False,
        seed_result: Optional[TriangleKCoreResult] = None,
    ) -> None:
        self._graph = graph.copy() if copy else graph
        if seed_result is not None:
            if len(seed_result.kappa) != self._graph.num_edges or any(
                not self._graph.has_edge(u, v) for (u, v) in seed_result.kappa
            ):
                raise StaleIndexError(
                    "seed_result does not match the graph: it covers "
                    f"{len(seed_result.kappa)} edges, the graph has "
                    f"{self._graph.num_edges}; recompute or drop seed_result"
                )
            self._kappa: Dict[Edge, int] = dict(seed_result.kappa)
        else:
            self._kappa = triangle_kcore_decomposition(self._graph).kappa
        if store_triangles:
            from ..graph.triangle_store import TriangleStore

            self._store: Optional["TriangleStore"] = TriangleStore(self._graph)
        else:
            self._store = None
        self._expected_edges = self._graph.num_edges
        # One dict per vertex is a burst of container allocations: every
        # 700 of them (the default gen-0 threshold) run a cyclic-GC pass,
        # and right after a decomposition those passes tip into a full
        # collection of the whole heap (~20 ms on an 8k-vertex, 76k-edge
        # graph, nearly doubling the build).  The map holds no reference
        # cycles, so the collector is paused for the build instead.
        gc_was_enabled = gc.isenabled()
        gc.disable()
        try:
            keys: Dict[Vertex, Dict[Vertex, Edge]] = {
                vertex: {} for vertex in self._graph.vertices()
            }
            for edge in self._kappa:
                a, b = edge
                keys[a][b] = edge
                keys[b][a] = edge
        finally:
            if gc_was_enabled:
                gc.enable()
        #: ``{vertex: {neighbor: edge}}`` whose values are the kappa map's
        #: own key objects (see the module docstring for the sync rule).
        self._edge_keys = keys
        #: Active delta recorder: ``{edge: kappa before this update}`` for
        #: every edge written while the recorder is armed (None = absent).
        #: Armed by :meth:`diff_apply` so the incremental and batch paths
        #: can report an exact KappaDelta without snapshotting the map.
        self._recording: Optional[Dict[Edge, Optional[int]]] = None

    def _link(self, u: Vertex, v: Vertex) -> Edge:
        """Register the just-inserted edge ``{u, v}``; return its key."""
        edge = canonical_edge(u, v)
        keys = self._edge_keys
        keys.setdefault(u, {})[v] = edge
        keys.setdefault(v, {})[u] = edge
        return edge

    def _unlink(self, u: Vertex, v: Vertex) -> Edge:
        """Drop the just-removed edge ``{u, v}``; return its key."""
        keys = self._edge_keys
        del keys[v][u]
        return keys[u].pop(v)

    def _note(self, edge: Edge) -> None:
        """Remember ``edge``'s pre-update kappa, first write wins."""
        recording = self._recording
        if recording is not None and edge not in recording:
            recording[edge] = self._kappa.get(edge)

    def _check_not_stale(self) -> None:
        """Detect out-of-band graph mutations (possible with copy=False).

        The kappa map is only correct for the graph state the maintainer
        has seen; a caller that mutates the shared graph directly would
        silently read wrong densities, so we fail loudly instead.  The
        check is O(1) (edge-count comparison), so it cannot catch a
        balanced add+remove — it is a seatbelt, not a proof.
        """
        if self._graph.num_edges != self._expected_edges:
            raise StaleIndexError(
                "the underlying graph was modified outside this maintainer "
                f"({self._graph.num_edges} edges vs {self._expected_edges} "
                "expected); rebuild the DynamicTriangleKCore"
            )

    def _apexes(self, u: Vertex, v: Vertex):
        """Triangle apexes of an existing edge (store or intersection)."""
        if self._store is not None:
            return self._store.apexes(u, v)
        return self._graph.common_neighbors(u, v)

    # ------------------------------------------------------------------ #
    # read API
    # ------------------------------------------------------------------ #

    @property
    def graph(self) -> Graph:
        """The maintained graph (treat as read-only)."""
        return self._graph

    @property
    def kappa(self) -> Dict[Edge, int]:
        """Live ``{edge: kappa}`` map (treat as read-only)."""
        return self._kappa

    def kappa_of(self, u: Vertex, v: Vertex) -> int:
        """Current :math:`\\kappa` of edge ``{u, v}``."""
        return self._kappa[canonical_edge(u, v)]

    def result(self) -> TriangleKCoreResult:
        """Snapshot the current state as a :class:`TriangleKCoreResult`."""
        return kappa_from_mapping(self._kappa)

    @property
    def max_kappa(self) -> int:
        return max(self._kappa.values(), default=0)

    # ------------------------------------------------------------------ #
    # write API
    # ------------------------------------------------------------------ #

    def add_vertex(self, vertex: Vertex) -> None:
        """Add an isolated vertex (no kappa effect)."""
        self._graph.add_vertex(vertex)
        self._edge_keys.setdefault(vertex, {})

    def add_edge(self, u: Vertex, v: Vertex) -> UpdateStats:
        """Insert edge ``{u, v}`` and repair kappa values incrementally.

        Raises :class:`EdgeExistsError` on duplicates and
        :class:`SelfLoopError` for ``u == v``.
        """
        if u == v:
            raise SelfLoopError(u)
        self._check_not_stale()
        if self._graph.has_edge(u, v):
            raise EdgeExistsError(u, v)
        stats = UpdateStats()
        if self._store is not None:
            apexes = sorted(self._store.add_edge(u, v), key=repr)
        else:
            apexes = (
                sorted(self._graph.common_neighbors(u, v), key=repr)
                if self._graph.has_vertex(u) and self._graph.has_vertex(v)
                else []
            )
            self._graph.add_edge(u, v)
        e0 = self._link(u, v)
        self._note(e0)
        stats.edges_changed += 1
        self._expected_edges = self._graph.num_edges
        if not apexes:
            self._kappa[e0] = 0
            return stats

        # Phase A: the new edge immediately reaches the h-index of its
        # triangles' side minima — achievable with *old* side values alone
        # (take H = {kappa >= k_base} + e0: every triangle of e0 whose two
        # sides sit in H lies in H, so H is a (k_base)-Triangle K-Core).
        kappa = self._kappa
        eu = self._edge_keys[u]
        ev = self._edge_keys[v]
        side_minima = [min(kappa[eu[w]], kappa[ev[w]]) for w in apexes]
        k_base = h_index(side_minima)
        self._kappa[e0] = k_base

        # Phase B: coupled promotion passes (Lemma 2 locality).  Levels
        # below k_base may promote side edges (their new triangle counts
        # because kappa(e0) exceeds the level); at k_base and above the new
        # edge itself is a candidate and may keep climbing one level per
        # pass, carrying neighbors with it.  Old edges are frozen after one
        # move (Rule 0: at most one level per existing edge per update).
        frozen: Set[Edge] = set()
        for k in sorted({m for m in side_minima if m < k_base}):
            stats.levels_touched += 1
            self._promote_level(e0, k, frozen, stats)
        k = k_base
        while self._kappa[e0] == k:
            stats.levels_touched += 1
            if not self._promote_level(e0, k, frozen, stats):
                break
            k += 1
        return stats

    def remove_edge(self, u: Vertex, v: Vertex) -> UpdateStats:
        """Delete edge ``{u, v}`` and repair kappa values incrementally."""
        self._check_not_stale()
        if not self._graph.has_edge(u, v):
            raise EdgeNotFoundError(u, v)
        stats = UpdateStats()
        kappa = self._kappa
        if self._store is not None:
            apexes = sorted(self._store.remove_edge(u, v), key=repr)
        else:
            apexes = sorted(self._graph.common_neighbors(u, v), key=repr)
            self._graph.remove_edge(u, v)
        e0 = self._unlink(u, v)
        k_e0 = kappa[e0]
        self._note(e0)
        del kappa[e0]
        stats.edges_changed += 1
        self._expected_edges = self._graph.num_edges

        # Seed the demotion cascade: a side edge f of a destroyed triangle
        # counted that triangle at its own level k = kappa(f) only if the
        # other two edges both had kappa >= k.
        eu = self._edge_keys[u]
        ev = self._edge_keys[v]
        seeds_by_level: Dict[int, Set[Edge]] = {}
        for w in apexes:
            f1 = eu[w]
            f2 = ev[w]
            k1 = kappa[f1]
            k2 = kappa[f2]
            if k1 <= min(k_e0, k2) and k1 > 0:
                seeds_by_level.setdefault(k1, set()).add(f1)
            if k2 <= min(k_e0, k1) and k2 > 0:
                seeds_by_level.setdefault(k2, set()).add(f2)

        for k in sorted(seeds_by_level):
            stats.levels_touched += 1
            self._demote_level(seeds_by_level[k], k, stats)
        return stats

    def remove_vertex(self, vertex: Vertex) -> List[UpdateStats]:
        """Delete a vertex by removing its incident edges one at a time."""
        stats: List[UpdateStats] = []
        for neighbor in sorted(self._graph.neighbors(vertex), key=repr):
            stats.append(self.remove_edge(vertex, neighbor))
        self._graph.remove_vertex(vertex)
        del self._edge_keys[vertex]
        return stats

    #: Churn fraction above which ``apply(strategy="auto")`` abandons
    #: localized repair for one fresh Algorithm 1 run.  Re-measured after
    #: the edge-key map made per-op repair ~2x faster
    #: (``benchmarks/bench_ablation_churn.py``, epinions, scattered
    #: edits): per-op now ties the bare Algorithm 1 run at 5% churn
    #: (0.7-1.1x over three runs, was 0.5-0.9x) and loses at 20% (0.3x).
    #: Against the full ``apply(strategy="recompute")``, which also pays
    #: the structural edits and the O(|E|) change count, per-op wins up
    #: to 10% (1.2-1.3x) and loses from 15-20% (0.8-1.1x at 15%, 0.7-0.8x
    #: at 20%).  The crossover stays inside the 5-20% bracket, and 10%
    #: picks the faster (or a tied) strategy at every swept level, so the
    #: threshold is unchanged.  ``"batch"`` is deliberately never
    #: auto-selected: its measured win (8-24x over per-op at 200-op
    #: batches, 3-5x at 50) is on coalesced replay of bursty edit
    #: scripts, a regime the churn fraction alone cannot distinguish
    #: from scattered edits, where per-op repair stays ahead — callers
    #: that batch edits opt in explicitly.
    AUTO_RECOMPUTE_CHURN = 0.10

    #: Every strategy :meth:`apply` / :meth:`diff_apply` accept.
    STRATEGIES = ("incremental", "recompute", "auto", "batch")

    def _resolve_strategy(self, strategy: str, n_ops: int) -> str:
        """Validate ``strategy`` and collapse ``"auto"`` to a concrete one."""
        if strategy not in self.STRATEGIES:
            raise ValueError(
                "strategy must be incremental/recompute/auto/batch, "
                f"got {strategy!r}"
            )
        if strategy != "auto":
            return strategy
        if n_ops / max(self._graph.num_edges, 1) >= self.AUTO_RECOMPUTE_CHURN:
            return "recompute"
        return "incremental"

    def apply(
        self,
        added: Iterable[Tuple[Vertex, Vertex]] = (),
        removed: Iterable[Tuple[Vertex, Vertex]] = (),
        *,
        strategy: str = "incremental",
    ) -> UpdateStats:
        """Apply a batch of edge updates (removals first, then insertions).

        ``strategy``:

        * ``"incremental"`` (default) — per-edge Algorithm 2 repairs, one
          affected-neighborhood walk per op;
        * ``"batch"`` — one affected-region pass per vertex-disjoint op
          cluster: structurally apply everything, grow the affected
          region, settle levels with a localized fixpoint (see
          :meth:`_apply_by_batch`).  Bit-identical to per-op application
          at any batch size; wins big (8-24x over per-op at 200-op
          batches, 3-5x at 50) on coalesced bursty edit scripts, so it
          is the opt-in choice for replaying batched streams;
        * ``"recompute"`` — apply the batch structurally and re-run
          Algorithm 1 once (cheapest at very high churn);
        * ``"auto"`` — incremental below :attr:`AUTO_RECOMPUTE_CHURN`
          churn, recompute at or above it (measured in
          ``benchmarks/bench_ablation_churn.py``).

        Error contract: every strategy raises the same exception types for
        the same invalid ops (:class:`SelfLoopError`,
        :class:`EdgeExistsError`, :class:`EdgeNotFoundError`).  The batch
        and recompute paths pre-validate and raise *before* touching
        anything (all-or-nothing), whereas the per-op path has already
        applied the ops preceding the offending one.

        Returns aggregated statistics (see :class:`UpdateStats` for which
        fields each strategy fills).  This is the entry point snapshot
        streams use (see :func:`repro.graph.io.graph_diff`).
        """
        added = list(added)
        removed = list(removed)
        strategy = self._resolve_strategy(strategy, len(added) + len(removed))
        if strategy == "recompute":
            return self._apply_by_recompute(added, removed)
        if strategy == "batch":
            return self._apply_by_batch(added, removed)
        total = UpdateStats()
        for u, v in removed:
            self._merge_stats(total, self.remove_edge(u, v))
        for u, v in added:
            self._merge_stats(total, self.add_edge(u, v))
        return total

    def _apply_by_recompute(
        self,
        added: List[Tuple[Vertex, Vertex]],
        removed: List[Tuple[Vertex, Vertex]],
    ) -> UpdateStats:
        """Recompute path: mutate the graph, then one fresh Algorithm 1 run."""
        self._check_not_stale()
        self._validate_ops(added, removed)
        stats = UpdateStats()
        stats.strategy = "recompute"
        stats.full_snapshots = 1
        before = self._kappa
        kappa = dict(before)
        store = self._store
        for u, v in removed:
            if store is not None:
                store.remove_edge(u, v)
            else:
                self._graph.remove_edge(u, v)
            del kappa[self._unlink(u, v)]
        for u, v in added:
            if store is not None:
                store.add_edge(u, v)
            else:
                self._graph.add_edge(u, v)
            kappa[self._link(u, v)] = 0
        self._expected_edges = self._graph.num_edges
        # update() overwrites values but keeps this dict's key objects,
        # which are the edge-key map's, so no rebuild is needed.
        kappa.update(triangle_kcore_decomposition(self._graph).kappa)
        self._kappa = kappa
        stats.edges_changed = sum(
            1
            for edge, value in self._kappa.items()
            if before.get(edge) != value
        ) + sum(1 for edge in before if edge not in self._kappa)
        return stats

    def _validate_ops(
        self,
        added: List[Tuple[Vertex, Vertex]],
        removed: List[Tuple[Vertex, Vertex]],
    ) -> None:
        """Check removals-then-insertions against a simulated edge set.

        Raises exactly the exception the per-op path would raise at the
        first invalid op, but before any mutation, so the batch and
        recompute paths are all-or-nothing.
        """
        graph = self._graph
        removed_set: Set[Edge] = set()
        for u, v in removed:
            edge = canonical_edge(u, v)
            if edge in removed_set or not graph.has_edge(u, v):
                raise EdgeNotFoundError(u, v)
            removed_set.add(edge)
        added_set: Set[Edge] = set()
        for u, v in added:
            if u == v:
                raise SelfLoopError(u)
            edge = canonical_edge(u, v)
            if edge in added_set or (
                edge not in removed_set and graph.has_edge(u, v)
            ):
                raise EdgeExistsError(u, v)
            added_set.add(edge)

    # ------------------------------------------------------------------ #
    # batch path: one affected-region pass per edit batch
    # ------------------------------------------------------------------ #

    def _apply_by_batch(
        self,
        added: List[Tuple[Vertex, Vertex]],
        removed: List[Tuple[Vertex, Vertex]],
    ) -> UpdateStats:
        """Apply the whole batch, one affected-region repair per cluster.

        Phases:

        1. **Validate.**  The removals-then-insertions sequence is checked
           against a simulated edge set and raises exactly the exception
           the per-op path would — but *before* any mutation, so a bad
           batch is all-or-nothing instead of partially applied.
        1b. **Cluster.**  The ops are partitioned into vertex-disjoint
           clusters (union-find over op endpoints).  Kappa is a pure
           function of the graph, so applying exact sub-batches
           sequentially is exact for *any* grouping; clustering exists
           purely to tighten the per-cluster Rule 0 budgets below.  Each
           cluster then runs phases 2-4 (:meth:`_apply_batch_cluster`):
        2. **Apply structurally.**  Destroyed triangles of every removed
           edge are captured first (they seed the demotion side of the
           region), then removals and insertions mutate the graph.  Kappa
           values are left untouched: the old values double as the frozen
           boundary of the localized settle.
        3. **Grow the affected region** by BFS over the new graph's
           triangles, gated by cheap Rule 0 interval bounds: across a
           cluster of ``nA`` insertions and ``nR`` removals an existing
           edge's kappa stays within ``[kappa - nR, kappa + nA]``.  Seeds
           are the inserted edges plus the demotion-suspect side edges of
           destroyed triangles; a triangle neighbor whose bounds forbid
           any change is pruned (counted in ``bound_prune_hits``) and
           re-tested only if another of its triangle partners later joins.
        4. **Settle.**  Every region edge is seeded with an h-index upper
           bound over its triangles (bound values for region partners,
           exact old kappa for the frozen boundary) and a worklist
           fixpoint lowers values until every region edge satisfies the
           h-index equation ``kappa(e) = H({min of partner kappas over
           e's triangles})``.  Starting above the answer with an exact
           boundary, the greatest fixpoint *is* the new kappa on the
           region — which makes batch application bit-identical to per-op
           application at any batch size.
        """
        self._check_not_stale()
        stats = UpdateStats()
        stats.strategy = "batch"

        # Phase 1: validate the whole sequence, all-or-nothing.
        self._validate_ops(added, removed)
        # Phase 1b: partition the ops into vertex-disjoint clusters
        # (union-find over op endpoints).  Kappa is a pure function of
        # the graph, so applying exact batches sequentially is exact for
        # any grouping; clustering only tightens the Rule 0 budgets —
        # scattered edits get per-cluster nA/nR of 1-2 instead of the
        # whole batch's, which keeps their affected regions per-op-sized,
        # while overlapping bursts still collapse into one region pass.
        parent: Dict[Vertex, Vertex] = {}

        def find(x: Vertex) -> Vertex:
            root = x
            while parent[root] != root:
                root = parent[root]
            while parent[x] != root:
                parent[x], x = root, parent[x]
            return root

        def union(a: Vertex, b: Vertex) -> None:
            parent.setdefault(a, a)
            parent.setdefault(b, b)
            ra, rb = find(a), find(b)
            if ra != rb:
                parent[rb] = ra

        for u, v in removed:
            union(u, v)
        for u, v in added:
            union(u, v)
        clusters: Dict[Vertex, Tuple[list, list]] = {}
        for u, v in removed:
            clusters.setdefault(find(u), ([], []))[1].append((u, v))
        for u, v in added:
            clusters.setdefault(find(u), ([], []))[0].append((u, v))
        for cluster_added, cluster_removed in clusters.values():
            self._apply_batch_cluster(cluster_added, cluster_removed, stats)
        return stats

    def _apply_batch_cluster(
        self,
        added: List[Tuple[Vertex, Vertex]],
        removed: List[Tuple[Vertex, Vertex]],
        stats: UpdateStats,
    ) -> None:
        """Phases 2-4 of the batch path for one already-validated cluster."""
        graph = self._graph
        kappa = self._kappa
        keys = self._edge_keys
        removed_set: Set[Edge] = {canonical_edge(u, v) for u, v in removed}
        added_set: Set[Edge] = {canonical_edge(u, v) for u, v in added}
        nR = len(removed_set)
        nA = len(added_set)

        # Phase 2a: capture demotion seeds from the pre-batch graph.  A
        # surviving side edge f of a destroyed triangle (r, f, g) counted
        # that triangle at its own level kappa(f) only if kappa(r) and
        # kappa(g) both reach it (the per-op seeding rule, batched; the
        # other side g may itself be a removed edge).
        seed_edges: Set[Edge] = set()
        for u, v in removed:
            eu = keys[u]
            ev = keys[v]
            k_r = kappa[eu[v]]
            for w in graph.common_neighbors(u, v):
                f1 = eu[w]
                f2 = ev[w]
                k1 = kappa[f1]
                k2 = kappa[f2]
                if f1 not in removed_set and 0 < k1 <= min(k_r, k2):
                    seed_edges.add(f1)
                if f2 not in removed_set and 0 < k2 <= min(k_r, k1):
                    seed_edges.add(f2)

        # Phase 2b: mutate structurally (removals first, like per-op).
        store = self._store
        for u, v in removed:
            if store is not None:
                store.remove_edge(u, v)
            else:
                graph.remove_edge(u, v)
            edge = self._unlink(u, v)
            self._note(edge)
            del kappa[edge]
        for u, v in added:
            if store is not None:
                store.add_edge(u, v)
            else:
                graph.add_edge(u, v)
            self._link(u, v)
        self._expected_edges = graph.num_edges
        stats.edges_changed += nR

        # Phase 3: region closure with Rule 0 interval bounds.
        # lo/hi are defined for region members only; outside the region an
        # old edge is *assumed* unchanged (exact boundary), but the
        # promote test still bounds a not-yet-member partner by
        # kappa + nA — a valid bound on its final value no matter whether
        # it eventually joins.
        apexes_of = self._apexes
        lo: Dict[Edge, int] = {}
        hi: Dict[Edge, int] = {}
        queue: List[Edge] = []
        for u, v in added:
            edge = keys[u][v]
            if edge in hi:
                continue
            # A new edge's kappa is at most its triangle count.
            hi[edge] = sum(1 for _ in apexes_of(edge[0], edge[1]))
            lo[edge] = 0
            queue.append(edge)
        for edge in seed_edges:
            if edge in hi:
                continue
            k_old = kappa[edge]
            hi[edge] = k_old + nA
            lo[edge] = max(0, k_old - nR)
            queue.append(edge)

        def admit(f: Edge, may_promote: bool, may_demote: bool) -> bool:
            """Support test: can f's own triangles sustain a change?

            A pair test alone floods equal-kappa plateaus (with ``nA = 1``
            any neighbor whose partners merely match f's kappa passes), so
            mirror the per-op prune: promotion to ``k + 1`` needs at least
            ``k + 1`` triangles whose partners can both reach ``k + 1``,
            and demotion is impossible while at least ``k`` triangles
            provably persist at level ``k``.
            """
            k = kappa[f]
            strong = 0
            solid = 0
            fa, fb = f
            ea = keys[fa]
            eb = keys[fb]
            for w in apexes_of(fa, fb):
                p = ea[w]
                q = eb[w]
                up_p = hi[p] if p in hi else kappa[p] + nA
                up_q = hi[q] if q in hi else kappa[q] + nA
                if may_promote and up_p >= k + 1 and up_q >= k + 1:
                    strong += 1
                    if strong >= k + 1:
                        return True
                if may_demote:
                    low_p = lo[p] if p in hi else kappa[p]
                    low_q = lo[q] if q in hi else kappa[q]
                    if low_p >= k and low_q >= k:
                        solid += 1
            return may_demote and solid < k

        while queue:
            x = queue.pop()
            a, b = x
            hi_x = hi[x]
            lo_x = lo[x]
            ea = keys[a]
            eb = keys[b]
            for w in apexes_of(a, b):
                g1 = ea[w]
                g2 = eb[w]
                for f, g in ((g1, g2), (g2, g1)):
                    if f in hi:
                        continue
                    stats.candidates_examined += 1
                    k = kappa[f]
                    up_g = hi[g] if g in hi else kappa[g] + nA
                    # f could rise to k + 1 only if both partners can
                    # reach k + 1; it could lose this triangle at its own
                    # level k only if x may drop below k while the
                    # triangle otherwise qualified.  The pair tests are
                    # necessary conditions; admit() re-checks against f's
                    # own triangle support before it joins.  A prune here
                    # is provisional: f is re-tested whenever another of
                    # its triangle partners is admitted and popped.
                    may_promote = hi_x >= k + 1 and up_g >= k + 1
                    may_demote = bool(
                        nR > 0 and k >= 1 and lo_x < k <= hi_x and up_g >= k
                    )
                    if (may_promote or may_demote) and admit(
                        f, may_promote, may_demote
                    ):
                        hi[f] = k + nA
                        lo[f] = max(0, k - nR)
                        queue.append(f)
                    else:
                        stats.bound_prune_hits += 1

        region = self._trim_batch_region(set(hi), added_set)
        stats.region_edges += len(region)

        # Phase 4: bound-seeded localized h-index settle, frozen boundary.
        rho: Dict[Edge, int] = {}
        for edge in region:
            a, b = edge
            ea = keys[a]
            eb = keys[b]
            minima = []
            for w in apexes_of(a, b):
                g1 = ea[w]
                g2 = eb[w]
                b1 = hi[g1] if g1 in region else kappa[g1]
                b2 = hi[g2] if g2 in region else kappa[g2]
                minima.append(min(b1, b2))
            rho[edge] = max(lo[edge], min(hi[edge], h_index(minima)))

        def val(edge: Edge) -> int:
            value = rho.get(edge)
            return value if value is not None else kappa[edge]

        pending: List[Edge] = [e for e in region]
        in_pending: Set[Edge] = set(pending)
        while pending:
            edge = pending.pop()
            in_pending.discard(edge)
            stats.settle_iterations += 1
            a, b = edge
            ea = keys[a]
            eb = keys[b]
            apexes = apexes_of(a, b)
            minima = [min(val(ea[w]), val(eb[w])) for w in apexes]
            new_value = max(lo[edge], min(hi[edge], h_index(minima)))
            if new_value < rho[edge]:
                rho[edge] = new_value
                # Only neighbors whose value exceeds the drop can depend
                # on this edge through a min() — re-examine them.
                for w in apexes:
                    for f in (ea[w], eb[w]):
                        if (
                            f in region
                            and f not in in_pending
                            and rho[f] > new_value
                        ):
                            in_pending.add(f)
                            pending.append(f)

        stats.edges_changed += self._finalize_region(rho)

    def _trim_batch_region(
        self, region: Set[Edge], inserted: Set[Edge]
    ) -> Set[Edge]:
        """Fault-injection seam: the region the settle actually repairs.

        The default is the identity.  The fuzz harness's mutation
        smoke-check overrides it to drop one boundary edge, proving the
        differential fuzzer notices an under-grown region.
        """
        return region

    def _finalize_region(self, rho: Dict[Edge, int]) -> int:
        """Write settled region values into the kappa map; count changes."""
        kappa = self._kappa
        changed = 0
        for edge, value in rho.items():
            if kappa.get(edge) != value:
                self._note(edge)
                kappa[edge] = value
                changed += 1
        return changed

    def diff_apply(
        self,
        added: Iterable[Tuple[Vertex, Vertex]] = (),
        removed: Iterable[Tuple[Vertex, Vertex]] = (),
        *,
        strategy: str = "incremental",
    ) -> KappaDelta:
        """Like :meth:`apply`, but report exactly what changed.

        The incremental and batch paths accumulate the delta directly from
        the edges they actually write — O(changed) bookkeeping, no copy of
        the kappa map (``stats.full_snapshots`` stays 0).  Only the
        recompute fallback diffs full maps, because Algorithm 1 replaces
        the map wholesale.
        """
        added = list(added)
        removed = list(removed)
        strategy = self._resolve_strategy(strategy, len(added) + len(removed))
        if strategy == "recompute":
            # _apply_by_recompute replaces self._kappa rather than mutating
            # it, so aliasing the old dict is a safe "snapshot".
            before = self._kappa
            stats = self._apply_by_recompute(added, removed)
            after = self._kappa
            created: Dict[Edge, int] = {}
            deleted: Dict[Edge, int] = {}
            promoted: Dict[Edge, Tuple[int, int]] = {}
            demoted: Dict[Edge, Tuple[int, int]] = {}
            for edge, new_value in after.items():
                old_value = before.get(edge)
                if old_value is None:
                    created[edge] = new_value
                elif new_value > old_value:
                    promoted[edge] = (old_value, new_value)
                elif new_value < old_value:
                    demoted[edge] = (old_value, new_value)
            for edge, old_value in before.items():
                if edge not in after:
                    deleted[edge] = old_value
            return KappaDelta(created, deleted, promoted, demoted, stats)
        outer = self._recording
        self._recording = {}
        try:
            if strategy == "batch":
                stats = self._apply_by_batch(added, removed)
            else:
                stats = UpdateStats()
                for u, v in removed:
                    self._merge_stats(stats, self.remove_edge(u, v))
                for u, v in added:
                    self._merge_stats(stats, self.add_edge(u, v))
            record = self._recording
        finally:
            self._recording = outer
        return self._delta_from_record(record, stats)

    def _delta_from_record(
        self, record: Dict[Edge, Optional[int]], stats: UpdateStats
    ) -> KappaDelta:
        """Build the delta from first-write old values (no map snapshot)."""
        after = self._kappa
        created: Dict[Edge, int] = {}
        deleted: Dict[Edge, int] = {}
        promoted: Dict[Edge, Tuple[int, int]] = {}
        demoted: Dict[Edge, Tuple[int, int]] = {}
        for edge, old_value in record.items():
            new_value = after.get(edge)
            if old_value is None:
                if new_value is not None:
                    created[edge] = new_value
            elif new_value is None:
                deleted[edge] = old_value
            elif new_value > old_value:
                promoted[edge] = (old_value, new_value)
            elif new_value < old_value:
                demoted[edge] = (old_value, new_value)
        return KappaDelta(created, deleted, promoted, demoted, stats)

    @staticmethod
    def _merge_stats(total: UpdateStats, one: UpdateStats) -> None:
        total.candidates_examined += one.candidates_examined
        total.edges_changed += one.edges_changed
        total.levels_touched += one.levels_touched
        total.full_snapshots += one.full_snapshots
        total.region_edges += one.region_edges
        total.settle_iterations += one.settle_iterations
        total.bound_prune_hits += one.bound_prune_hits

    # ------------------------------------------------------------------ #
    # insertion internals
    # ------------------------------------------------------------------ #

    def _promote_level(
        self,
        e0: Edge,
        k: int,
        frozen: Set[Edge],
        stats: UpdateStats,
    ) -> bool:
        """Run the level-``k`` promotion cascade around the new edge ``e0``.

        Candidates are ``e0`` plus the unfrozen level-``k`` edges reachable
        from it through level-``k`` triangle connectivity (Lemma 2).  The
        cascade peels candidates that cannot assemble ``k + 1`` triangles
        whose other edges end at level >= ``k + 1``; survivors move to
        ``k + 1``.  Returns True when ``e0`` itself survived (it may then
        climb further levels).

        Edges in ``frozen`` already moved during this insertion and are
        settled (Rule 0: an existing edge moves at most one level per
        update); they neither join the candidate set nor count as support.

        When ``kappa(e0) > k`` (a side-only pass below the new edge's own
        level) the search starts from the level-``k`` side edges of the new
        triangles instead, and ``e0`` simply counts as qualified support.
        """
        kappa = self._kappa
        keys = self._edge_keys
        apexes_of = self._apexes
        need = k + 1
        e0_is_candidate = kappa[e0] == k

        # Grow the candidate set over level-k triangle connectivity with
        # eligibility pruning: an edge whose optimistic support (side pairs
        # where every level-k edge is hypothetically promotable) cannot
        # reach k + 1 can never be promoted, so the search does not expand
        # through it — this keeps the traversal local instead of sweeping
        # an entire level-k triangle-connected component.
        if e0_is_candidate:
            stack = [e0]
        else:
            u0, v0 = e0
            eu = keys[u0]
            ev = keys[v0]
            stack = []
            for w in apexes_of(u0, v0):
                f1 = eu[w]
                f2 = ev[w]
                k1 = kappa[f1]
                k2 = kappa[f2]
                if k1 == k and k2 >= k and f1 not in frozen:
                    stack.append(f1)
                if k2 == k and k1 >= k and f2 not in frozen:
                    stack.append(f2)

        # tris[e] caches, for each candidate, the triangles that can count
        # toward level k + 1 (both sides at level >= k) as tuples
        # (g1, g2, g1 above k, g2 above k).  Levels do not move until the
        # pass writes its survivors, so the flags stay exact.  A side whose
        # flag is False sits at level k and counts only while it is a
        # candidate.
        tris: Dict[Edge, List[tuple]] = {}
        candidates: Set[Edge] = set()
        visited: Set[Edge] = set(stack)
        while stack:
            edge = stack.pop()
            stats.candidates_examined += 1
            a, b = edge
            ea = keys[a]
            eb = keys[b]
            pairs = []
            for w in apexes_of(a, b):
                g1 = ea[w]
                g2 = eb[w]
                k1 = kappa[g1]
                k2 = kappa[g2]
                if k1 >= k and k2 >= k:
                    pairs.append((g1, g2, k1 > k, k2 > k))
            optimistic = len(pairs)
            if frozen:
                optimistic = 0
                for g1, g2, up1, up2 in pairs:
                    if (up1 or g1 not in frozen) and (up2 or g2 not in frozen):
                        optimistic += 1
            if optimistic < need:
                continue  # can never promote; do not expand through it
            tris[edge] = pairs
            candidates.add(edge)
            for g1, g2, up1, up2 in pairs:
                if not up1 and g1 not in visited and g1 not in frozen:
                    visited.add(g1)
                    stack.append(g1)
                if not up2 and g2 not in visited and g2 not in frozen:
                    visited.add(g2)
                    stack.append(g2)
        if e0_is_candidate and e0 not in candidates:
            # The new edge itself cannot reach k + 1; no level-k edge can
            # gain support without it.
            return False

        # Eligibility cascade: s(e) counts triangles whose other two edges
        # are above level k or are still-candidate level-k edges.  Peel
        # candidates that cannot reach k + 1 supporting triangles; survivors
        # form a genuine (k+1)-Triangle K-Core together with the >k edges.
        support: Dict[Edge, int] = {}
        worklist: List[Edge] = []
        for edge in candidates:
            count = 0
            for g1, g2, up1, up2 in tris[edge]:
                if (up1 or g1 in candidates) and (up2 or g2 in candidates):
                    count += 1
            support[edge] = count
            if count < need:
                worklist.append(edge)
        while worklist:
            edge = worklist.pop()
            if edge not in candidates or support[edge] >= need:
                continue
            candidates.discard(edge)
            for g1, g2, up1, up2 in tris[edge]:
                # The triangle counted for g1/g2 while `edge` was still a
                # candidate; now that it is peeled, decrement survivors
                # whose triangle remains otherwise qualified.
                in1 = g1 in candidates
                in2 = g2 in candidates
                if (up1 or in1) and (up2 or in2):
                    if in1:
                        support[g1] -= 1
                        if support[g1] < need:
                            worklist.append(g1)
                    if in2:
                        support[g2] -= 1
                        if support[g2] < need:
                            worklist.append(g2)
        for edge in candidates:
            self._note(edge)
            kappa[edge] = need
            stats.edges_changed += 1
            if edge != e0:
                frozen.add(edge)
        return e0 in candidates

    # ------------------------------------------------------------------ #
    # deletion internals
    # ------------------------------------------------------------------ #

    def _demote_level(self, seeds: Set[Edge], k: int, stats: UpdateStats) -> None:
        """Demote level-``k`` edges that lost their level-``k`` support.

        Poke-and-recompute cascade: whenever an edge is demoted, its level-k
        triangle neighbors are re-examined.  Each edge demotes at most once
        (Rule 0: change is at most one per deleted edge).
        """
        kappa = self._kappa
        keys = self._edge_keys
        apexes_of = self._apexes
        pending: List[Edge] = list(seeds)
        while pending:
            edge = pending.pop()
            if kappa.get(edge, -1) != k:
                continue
            stats.candidates_examined += 1
            a, b = edge
            ea = keys[a]
            eb = keys[b]
            apexes = apexes_of(a, b)
            count = 0
            for w in apexes:
                if kappa[ea[w]] >= k and kappa[eb[w]] >= k:
                    count += 1
                    if count >= k:
                        break
            if count >= k:
                continue
            self._note(edge)
            kappa[edge] = k - 1
            stats.edges_changed += 1
            # The demotion may strip support from level-k neighbors.
            for w in apexes:
                g1 = ea[w]
                g2 = eb[w]
                k1 = kappa[g1]
                k2 = kappa[g2]
                # The triangle (edge, g1, g2) supported g1 at level k only
                # if g2 also sat at >= k (edge itself sat at k before the
                # demotion, so it qualified).
                if k1 == k and k2 >= k:
                    pending.append(g1)
                if k2 == k and k1 >= k:
                    pending.append(g2)


def insertion_upper_bound(side_levels: List[int]) -> int:
    """Upper bound on the new edge's kappa after an insertion.

    Every side edge can rise by at most one (Rule 0), so the new edge's
    level is bounded by the h-index of ``min(side levels) + 1`` over its
    triangles.  The climb loop in :meth:`DynamicTriangleKCore.add_edge`
    terminates within this bound; exposed for tests and documentation.
    """
    return h_index([level + 1 for level in side_levels])
