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
``remove_edge``, ``remove_vertex`` and the recompute path) links or
unlinks its edge in the same step.  The recompute path copies the old
kappa map and overwrites its values from the fresh decomposition with
``dict.update``, which keeps the copy's key objects.
``tests/test_dynamic.py::TestEdgeKeyMap`` pins the rule on every write
path.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Set, Tuple

from .._gc import collector_paused
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

    ==================  ===========  =========
    field               incremental  recompute
    ==================  ===========  =========
    strategy            yes          yes
    edges_changed       yes          yes
    candidates_examined yes          0
    levels_touched      yes          0
    full_snapshots      0            1
    ==================  ===========  =========

    ``strategy`` is the resolved one: ``"auto"`` and the ``"batch"``
    alias report what they ran.  ``full_snapshots`` counts O(|E|) copies
    of the kappa map — zero on the incremental path by design (pinned by
    ``tests/test_dynamic.py``).
    """

    __slots__ = (
        "candidates_examined",
        "edges_changed",
        "levels_touched",
        "strategy",
        "full_snapshots",
    )

    def __init__(self) -> None:
        self.candidates_examined = 0
        self.edges_changed = 0
        self.levels_touched = 0
        self.strategy = "incremental"
        self.full_snapshots = 0

    def __repr__(self) -> str:
        return (
            f"UpdateStats(strategy={self.strategy!r}, "
            f"candidates={self.candidates_examined}, "
            f"changed={self.edges_changed}, levels={self.levels_touched})"
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
        self._expected_edges = self._graph.num_edges
        # One dict per vertex is a burst of container allocations: every
        # 700 of them (the default gen-0 threshold) run a cyclic-GC pass,
        # and right after a decomposition those passes tip into a full
        # collection of the whole heap (~20 ms on an 8k-vertex, 76k-edge
        # graph, nearly doubling the build).  The map holds no reference
        # cycles, so the collector is paused for the build instead.
        with collector_paused():
            keys: Dict[Vertex, Dict[Vertex, Edge]] = {
                vertex: {} for vertex in self._graph.vertices()
            }
            for edge in self._kappa:
                a, b = edge
                keys[a][b] = edge
                keys[b][a] = edge
        #: ``{vertex: {neighbor: edge}}`` whose values are the kappa map's
        #: own key objects (see the module docstring for the sync rule).
        self._edge_keys = keys
        #: Active delta recorder: ``{edge: kappa before this update}`` for
        #: every edge written while the recorder is armed (None = absent).
        #: Armed by :meth:`diff_apply` so the incremental path can report
        #: an exact KappaDelta without snapshotting the map.
        self._recording: Optional[Dict[Edge, Optional[int]]] = None
        #: ``(graph version, largest kappa)`` — see :attr:`max_kappa`.
        self._max_kappa: Optional[Tuple[int, int]] = None

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
        """Largest kappa in the graph (0 without triangles).

        Cached with the graph version it was taken at.  :meth:`apply` and
        :meth:`diff_apply` advance the cache from their first-write record
        in O(changed) and vertex-only writes carry it over; after any
        other write (or a write an edge at the old maximum lost) the next
        read rescans the map once.
        """
        cached = self._max_kappa
        version = self._graph.version
        if cached is not None and cached[0] == version:
            return cached[1]
        value = max(self._kappa.values(), default=0)
        self._max_kappa = (version, value)
        return value

    def _carry_max_kappa(self, version: int) -> None:
        """Re-stamp a cache taken at ``version`` after a kappa-neutral
        write (one that only added or dropped an isolated vertex)."""
        cached = self._max_kappa
        if cached is not None and cached[0] == version:
            self._max_kappa = (self._graph.version, cached[1])

    def _fold_max_kappa(
        self, version: int, record: Dict[Edge, Optional[int]]
    ) -> None:
        """Advance a cache taken at ``version`` past one write's record
        (``{edge: kappa before the write}``, see :meth:`_run_batch`)."""
        cached = self._max_kappa
        if cached is None or cached[0] != version:
            return
        old_max = cached[1]
        after = self._kappa
        rising = 0
        fell = False
        for edge, old in record.items():
            new = after.get(edge)
            if new is None or (old is not None and new < old):
                fell = fell or old == old_max
            elif new > rising:
                rising = new
        if rising >= old_max:
            new_max = rising
        elif fell:
            # An edge at the old maximum fell: nothing short of a scan
            # says where the maximum is now.
            self._max_kappa = None
            return
        else:
            new_max = old_max
        self._max_kappa = (self._graph.version, new_max)

    # ------------------------------------------------------------------ #
    # write API
    # ------------------------------------------------------------------ #

    def add_vertex(self, vertex: Vertex) -> None:
        """Add an isolated vertex (no kappa effect)."""
        version = self._graph.version
        self._graph.add_vertex(vertex)
        self._edge_keys.setdefault(vertex, {})
        self._carry_max_kappa(version)

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
        version = self._graph.version
        self._graph.remove_vertex(vertex)
        del self._edge_keys[vertex]
        self._carry_max_kappa(version)
        return stats

    #: Churn fraction above which ``apply(strategy="auto")`` abandons
    #: localized repair for one fresh Algorithm 1 run.  Calibrated
    #: against what ``auto`` actually runs, the whole
    #: ``apply(strategy="recompute")`` (structural edits, kappa-map copy
    #: and change count included), in the ``apply-rc`` column of
    #: ``benchmarks/bench_ablation_churn.py`` (epinions, scattered edits,
    #: every arm best of 3, six runs): per-op wins 1.3-1.7x at 5% churn
    #: and 1.1-1.8x at 10%, ties at 15% (0.8-1.0x) and loses at 20%
    #: (0.8-1.0x).  So the crossover lies between 10% and 15%, and
    #: ``auto`` picks the faster arm at every swept level but the tied
    #: one; any threshold in that gap makes the same picks, so it is
    #: unchanged.  (Against a bare Algorithm 1 run per-op already loses
    #: at 10%, 0.6-1.2x.)  Since ``apply`` records its delta through
    #: ``diff_apply``, three runs read 0.9-1.0x at 10%: a near tie, so
    #: the threshold still sits at the crossover.
    AUTO_RECOMPUTE_CHURN = 0.10

    #: Every strategy :meth:`apply` / :meth:`diff_apply` accept.
    #: ``"batch"`` is an alias of ``"incremental"``, kept so callers that
    #: name it keep working.
    STRATEGIES = ("incremental", "recompute", "auto", "batch")

    def resolve_strategy(self, strategy: str, n_ops: int) -> str:
        """Validate ``strategy`` and collapse it to the one that runs.

        ``"batch"`` resolves to ``"incremental"``; ``"auto"`` resolves to
        ``"recompute"`` when ``n_ops`` reaches :attr:`AUTO_RECOMPUTE_CHURN`
        of the current edge count and to ``"incremental"`` below it.
        """
        if strategy not in self.STRATEGIES:
            raise ValueError(
                "strategy must be incremental/recompute/auto/batch, "
                f"got {strategy!r}"
            )
        if strategy == "batch":
            return "incremental"
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
          affected-neighborhood walk per op (``"batch"`` is an alias);
        * ``"recompute"`` — apply the batch structurally and re-run
          Algorithm 1 once (cheapest at very high churn);
        * ``"auto"`` — incremental below :attr:`AUTO_RECOMPUTE_CHURN`
          churn, recompute at or above it (measured in
          ``benchmarks/bench_ablation_churn.py``).

        Error contract: every strategy is all-or-nothing.  The whole
        removals-then-insertions sequence is validated before any
        strategy runs, and an invalid op raises :class:`SelfLoopError`,
        :class:`EdgeExistsError` or :class:`EdgeNotFoundError` with the
        graph and kappa untouched.

        Returns the statistics (see :class:`UpdateStats` for which fields
        each strategy fills); :meth:`diff_apply` runs the same batch and
        also reports the delta.  This is the entry point snapshot streams
        use (see :func:`repro.graph.io.graph_diff`).
        """
        return self._run_batch(added, removed, strategy)[1]

    def _apply_by_recompute(
        self,
        added: List[Tuple[Vertex, Vertex]],
        removed: List[Tuple[Vertex, Vertex]],
    ) -> UpdateStats:
        """Recompute path: mutate the graph, then one fresh Algorithm 1 run.

        Replaces the kappa map with a new dict (the old one is left
        as it was); the caller counts ``edges_changed`` from the diff.
        """
        stats = UpdateStats()
        stats.strategy = "recompute"
        stats.full_snapshots = 1
        kappa = dict(self._kappa)
        for u, v in removed:
            self._graph.remove_edge(u, v)
            del kappa[self._unlink(u, v)]
        for u, v in added:
            self._graph.add_edge(u, v)
            kappa[self._link(u, v)] = 0
        self._expected_edges = self._graph.num_edges
        # update() overwrites values but keeps this dict's key objects,
        # which are the edge-key map's, so no rebuild is needed.
        kappa.update(triangle_kcore_decomposition(self._graph).kappa)
        self._kappa = kappa
        return stats

    def _validate_ops(
        self,
        added: List[Tuple[Vertex, Vertex]],
        removed: List[Tuple[Vertex, Vertex]],
    ) -> None:
        """Check removals-then-insertions against a simulated edge set.

        Raises exactly the exception the per-op path would raise at the
        first invalid op, but before any mutation, so every strategy is
        all-or-nothing.
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

    def diff_apply(
        self,
        added: Iterable[Tuple[Vertex, Vertex]] = (),
        removed: Iterable[Tuple[Vertex, Vertex]] = (),
        *,
        strategy: str = "incremental",
    ) -> KappaDelta:
        """Like :meth:`apply`, but report exactly what changed.

        The incremental path accumulates the delta directly from the
        edges it actually writes — O(changed) bookkeeping, no copy of
        the kappa map (``stats.full_snapshots`` stays 0).  Only the
        recompute fallback diffs full maps, because Algorithm 1 replaces
        the map wholesale.
        """
        record, stats = self._run_batch(added, removed, strategy)
        return self._delta_from_record(record, stats)

    def _run_batch(
        self,
        added: Iterable[Tuple[Vertex, Vertex]],
        removed: Iterable[Tuple[Vertex, Vertex]],
        strategy: str,
    ) -> Tuple[Dict[Edge, Optional[int]], UpdateStats]:
        """Validate and run one batch: the work behind :meth:`apply` and
        :meth:`diff_apply`.

        Returns the first-write record, ``{edge: kappa before the batch}``
        (None for an edge the batch created) for every edge the batch may
        have changed, and the batch's stats.  The record also keeps
        :attr:`max_kappa` current without a scan.
        """
        added = list(added)
        removed = list(removed)
        strategy = self.resolve_strategy(strategy, len(added) + len(removed))
        self._check_not_stale()
        self._validate_ops(added, removed)
        version = self._graph.version
        if strategy == "recompute":
            before = self._kappa
            stats = self._apply_by_recompute(added, removed)
            after = self._kappa
            # The old value of every edge whose kappa differs (None for a
            # created edge), in one pass over the new map.
            record: Dict[Edge, Optional[int]] = {
                edge: before.get(edge)
                for edge, value in after.items()
                if before.get(edge) != value
            }
            for u, v in removed:
                edge = canonical_edge(u, v)
                if edge not in after:
                    record[edge] = before[edge]
            stats.edges_changed = len(record)
        else:
            outer = self._recording
            self._recording = {}
            try:
                stats = UpdateStats()
                for u, v in removed:
                    self._merge_stats(stats, self.remove_edge(u, v))
                for u, v in added:
                    self._merge_stats(stats, self.add_edge(u, v))
                record = self._recording
            finally:
                self._recording = outer
        self._fold_max_kappa(version, record)
        return record, stats

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
        apexes_of = self._graph.common_neighbors
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
        apexes_of = self._graph.common_neighbors
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
