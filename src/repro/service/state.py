"""Authoritative in-process state behind the query service.

One :class:`ServiceState` owns everything a long-lived server needs:

* a warm :class:`~repro.engine.Engine` (any registered backend) whose
  artifact cache and instrumentation are shared with offline callers;
* a :class:`~repro.core.dynamic.DynamicTriangleKCore` maintainer as the
  **single source of truth** — every ``POST /edits`` batch is applied to
  it under a single-writer lock with Rule 0 incremental repairs, so the
  per-edge kappa map is always exact at the current
  :attr:`~repro.graph.undirected.Graph.version`;
* community reads answered by BFS over the maintainer's live graph and
  kappa map — no copy, no index — so they are always at-version;
* version-stamped caches of the other *derived* artifacts (hierarchy
  payload, template detections) with an explicit staleness escape
  hatch: when the server is lagging (queue pressure), a read may be
  answered from the last materialized cache, marked ``degraded`` and
  carrying ``answered_at_version`` so clients can see exactly how far
  behind the answer is.  Kappa and community reads never degrade — the
  maintainer is updated synchronously with each write.

The state is deliberately independent of the HTTP layer so tests (and
embedders) can drive it directly.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from typing import Deque, Dict, List, Optional, Set, Tuple

from ..core.community import community_of_vertex, densest_community_of_vertex
from ..core.hierarchy import CommunityHierarchy, CommunityNode
from ..engine import Engine
from ..graph.edge import Vertex, canonical_edge
from ..graph.undirected import Graph
from ..testing.editscript import (
    OUTCOME_NOOP,
    OUTCOME_OK,
    EditScript,
    apply_coalesced,
    coalesce,
)
from .protocol import (
    ERR_BAD_REQUEST,
    ERR_NOT_FOUND,
    SERVICE_SCHEMA,
    ServiceError,
)

#: Endpoint names metrics are keyed by (also the routing vocabulary).
ENDPOINTS = (
    "healthz",
    "kappa",
    "community",
    "hierarchy",
    "templates",
    "stats",
    "edits",
    "other",
)


class TokenBucket:
    """Per-client token bucket: ``rate`` tokens/second, ``burst`` capacity."""

    __slots__ = ("rate", "burst", "tokens", "updated")

    def __init__(self, rate: float, burst: float, *, now: float) -> None:
        self.rate = rate
        self.burst = burst
        self.tokens = burst
        self.updated = now

    def allow(self, now: float) -> bool:
        """Consume one token if available; refill by elapsed time first."""
        if now > self.updated:
            self.tokens = min(
                self.burst, self.tokens + (now - self.updated) * self.rate
            )
            self.updated = now
        if self.tokens >= 1.0:
            self.tokens -= 1.0
            return True
        return False

    def retry_after(self) -> float:
        """Seconds until one token will be available."""
        deficit = 1.0 - self.tokens
        return max(0.0, deficit / self.rate) if self.rate > 0 else 60.0


class LatencyReservoir:
    """Bounded sample reservoir with exact percentiles over recent requests.

    Keeps the most recent ``capacity`` samples (a sliding window, not a
    decaying sketch) — the right trade-off for a tail-latency dashboard
    that should reflect *current* behaviour, in O(capacity) memory.
    """

    __slots__ = ("_samples", "count", "total_seconds")

    def __init__(self, capacity: int = 2048) -> None:
        self._samples: Deque[float] = deque(maxlen=capacity)
        self.count = 0
        self.total_seconds = 0.0

    def record(self, seconds: float) -> None:
        self._samples.append(seconds)
        self.count += 1
        self.total_seconds += seconds

    def percentile_ms(self, fraction: float) -> float:
        """The ``fraction`` quantile of recent samples, in milliseconds."""
        if not self._samples:
            return 0.0
        ordered = sorted(self._samples)
        index = min(len(ordered) - 1, int(fraction * len(ordered)))
        return round(ordered[index] * 1000.0, 3)

    def summary(self) -> Dict[str, object]:
        return {
            "count": self.count,
            "mean_ms": round(
                (self.total_seconds / self.count) * 1000.0, 3
            )
            if self.count
            else 0.0,
            "p50_ms": self.percentile_ms(0.50),
            "p95_ms": self.percentile_ms(0.95),
            "p99_ms": self.percentile_ms(0.99),
        }


class ServiceMetrics:
    """Request counters, per-endpoint latency, queue and rejection gauges."""

    def __init__(self) -> None:
        self.started_at = time.monotonic()
        self.requests: Dict[str, LatencyReservoir] = {
            name: LatencyReservoir() for name in ENDPOINTS
        }
        self.errors: Dict[str, int] = {name: 0 for name in ENDPOINTS}
        self.rejected: Dict[str, int] = {
            "rate_limited": 0,
            "overloaded": 0,
            "timed_out": 0,
            "shutting_down": 0,
            "protocol": 0,
        }
        self.queue_depth = 0
        self.queue_peak = 0
        self.queue_max = 0
        self.connections_open = 0
        self.connections_total = 0
        self.degraded_reads = 0

    def note_queued(self) -> None:
        self.queue_depth += 1
        self.queue_peak = max(self.queue_peak, self.queue_depth)

    def note_dequeued(self) -> None:
        self.queue_depth = max(0, self.queue_depth - 1)

    def note_request(self, endpoint: str, seconds: float, *, error: bool) -> None:
        name = endpoint if endpoint in self.requests else "other"
        self.requests[name].record(seconds)
        if error:
            self.errors[name] += 1

    def note_rejected(self, reason: str) -> None:
        self.rejected[reason] = self.rejected.get(reason, 0) + 1

    def uptime_seconds(self) -> float:
        return time.monotonic() - self.started_at

    def as_dict(self) -> Dict[str, object]:
        """The ``service`` stats section (additive to engine stats /2)."""
        per_endpoint = {
            name: {**reservoir.summary(), "errors": self.errors[name]}
            for name, reservoir in self.requests.items()
            if reservoir.count or self.errors[name]
        }
        return {
            "schema": SERVICE_SCHEMA,
            "uptime_seconds": round(self.uptime_seconds(), 3),
            "total_requests": sum(r.count for r in self.requests.values()),
            "requests": per_endpoint,
            "rejected": dict(self.rejected),
            "queue": {
                "depth": self.queue_depth,
                "peak": self.queue_peak,
                "max": self.queue_max,
            },
            "connections": {
                "open": self.connections_open,
                "total": self.connections_total,
            },
            "degraded_reads": self.degraded_reads,
        }


def _tree_payload(node: CommunityNode) -> dict:
    """One hierarchy node as a JSON-native dict (recursive)."""
    return {
        "level": node.level,
        "first_level": node.first_level,
        "size": node.size,
        "vertices": sorted(node.vertices, key=repr),
        "children": [_tree_payload(child) for child in node.children],
    }


class ServiceState:
    """Warm engine + authoritative dynamic maintainer + derived caches.

    Parameters
    ----------
    graph:
        The startup graph.  A private copy becomes the maintained state;
        the original is kept (frozen) as the template baseline.
    backend:
        Engine backend for the startup decomposition and offline-style
        queries (any registered name or ``"auto"``).
    engine:
        Bring-your-own engine (tests); built from ``backend`` otherwise.
    """

    def __init__(
        self,
        graph: Graph,
        *,
        backend: Optional[str] = None,
        engine: Optional[Engine] = None,
        edit_strategy: str = "auto",
    ) -> None:
        if edit_strategy not in ("incremental", "recompute", "auto", "batch"):
            raise ValueError(
                f"edit_strategy must be incremental/recompute/auto/batch, "
                f"got {edit_strategy!r}"
            )
        self.engine = engine if engine is not None else Engine(
            default_backend=backend or "auto"
        )
        self.backend = backend or self.engine.default_backend
        self.edit_strategy = edit_strategy
        #: Startup snapshot, frozen: the "original graph" of Algorithm 4.
        self.baseline = graph.copy()
        self.baseline_version = self.baseline.version
        # One decomposition through the chosen backend seeds the
        # maintainer (shared-state hook: no duplicate warm-up work).
        self.maintainer = self.engine.maintainer(
            graph, copy=True, seed_backend=self.backend
        )
        self.metrics = ServiceMetrics()
        self.started_at = time.monotonic()
        #: Single-writer lock: edits are applied atomically with respect
        #: to each other even if the state is driven from several threads
        #: (the asyncio server serializes anyway; embedders may not).
        self._write_lock = threading.Lock()
        self._edits_applied = 0
        self._edit_batches = 0
        # Derived-artifact caches, each stamped with the graph version
        # they were materialized at.
        self._hierarchy_cache: Optional[Tuple[int, dict]] = None
        self._template_cache: Dict[str, Tuple[int, dict]] = {}

    # ------------------------------------------------------------------ #
    # identity / versioning
    # ------------------------------------------------------------------ #

    @property
    def graph(self) -> Graph:
        """The maintained (authoritative) graph — treat as read-only."""
        return self.maintainer.graph

    @property
    def version(self) -> int:
        """Monotonic version of the served state (echoed in responses)."""
        return self.graph.version

    def resolve_vertex(self, token: str) -> Vertex:
        """Interpret a query-string token as a vertex of the served graph.

        Tries the literal string first, then an integer reading — the
        same ambiguity rule as the CLI's ``probe`` subcommand.
        """
        if self.graph.has_vertex(token):
            return token
        try:
            return int(token)
        except ValueError:
            return token

    # ------------------------------------------------------------------ #
    # reads
    # ------------------------------------------------------------------ #

    def health(self, *, draining: bool = False) -> Dict[str, object]:
        return {
            "status": "draining" if draining else "ok",
            "schema": SERVICE_SCHEMA,
            "role": "standalone",
            "version": self.version,
            "answered_at_version": self.version,
            "vertices": self.graph.num_vertices,
            "edges": self.graph.num_edges,
            "max_kappa": self.maintainer.max_kappa,
            "uptime_seconds": round(self.metrics.uptime_seconds(), 3),
            "backend": self.backend,
            "draining": draining,
        }

    def kappa(self, u_token: str, v_token: str) -> Dict[str, object]:
        """Exact kappa of one edge (authoritative; never degraded)."""
        u = self.resolve_vertex(u_token)
        v = self.resolve_vertex(v_token)
        edge = canonical_edge(u, v)
        value = self.maintainer.kappa.get(edge)
        if value is None:
            raise ServiceError(
                404,
                ERR_NOT_FOUND,
                f"edge ({u!r}, {v!r}) is not in the served graph",
            )
        return {
            "u": edge[0],
            "v": edge[1],
            "kappa": value,
            "version": self.version,
            # Kappa never degrades: the maintainer is synchronous with the
            # local write/fold path, so the answer is always at-version.
            "answered_at_version": self.version,
        }

    def community(
        self, vertex_token: str, k: Optional[int] = None
    ) -> Dict[str, object]:
        """Densest (or level-``k``) triangle-connected community of a vertex.

        A BFS over the live graph and kappa map: it runs on the server's
        loop thread between writes, so it is always at-version (never
        ``degraded``).
        """
        vertex = self.resolve_vertex(vertex_token)
        if not self.graph.has_vertex(vertex):
            raise ServiceError(
                404, ERR_NOT_FOUND, f"vertex {vertex!r} is not in the served graph"
            )
        if k is not None and k < 1:
            raise ServiceError(400, ERR_BAD_REQUEST, f"k must be >= 1, got {k}")
        kappa = self.maintainer.kappa
        if k is None:
            level, members = densest_community_of_vertex(
                self.graph, vertex, result=kappa
            )
        else:
            communities = community_of_vertex(self.graph, vertex, k=k, result=kappa)
            level = k if communities else 0
            members = communities[0] if communities else set()
        return {
            "vertex": vertex,
            "level": level,
            "members": sorted(members, key=repr),
            "version": self.version,
            "degraded": False,
            "answered_at_version": self.version,
        }

    def hierarchy(self, *, allow_stale: bool = False) -> Dict[str, object]:
        """The nested community forest as a JSON tree."""
        cached = self._hierarchy_cache
        if cached is not None and (
            cached[0] == self.version or allow_stale
        ):
            at_version, payload = cached
        else:
            result = self.maintainer.result()
            hierarchy = CommunityHierarchy(
                self.graph, result, engine=self.engine
            )
            payload = {
                "max_level": result.max_kappa,
                "roots": [_tree_payload(root) for root in hierarchy.roots],
            }
            at_version = self.version
            self._hierarchy_cache = (at_version, payload)
        degraded = at_version != self.version
        if degraded:
            self.metrics.degraded_reads += 1
        return {
            **payload,
            "version": self.version,
            "degraded": degraded,
            "answered_at_version": at_version,
        }

    def templates(
        self, name: str, *, top: int = 5, allow_stale: bool = False
    ) -> Dict[str, object]:
        """Algorithm 4 between the startup baseline and the live graph."""
        from ..templates import BUILTIN_TEMPLATES, detect_on_snapshots

        if name not in BUILTIN_TEMPLATES:
            raise ServiceError(
                404,
                ERR_NOT_FOUND,
                f"unknown template {name!r}; expected one of "
                f"{sorted(BUILTIN_TEMPLATES)}",
            )
        cached = self._template_cache.get(name)
        if cached is not None and (cached[0] == self.version or allow_stale):
            at_version, payload = cached
        else:
            detection = detect_on_snapshots(
                self.baseline,
                self.graph,
                BUILTIN_TEMPLATES[name],
                engine=self.engine,
            )
            cliques = []
            for index, (kappa, vertices) in enumerate(
                detection.densest_cliques()
            ):
                if index >= top:
                    break
                cliques.append([kappa, sorted(vertices, key=repr)])
            payload = {
                "pattern": name,
                "baseline_version": self.baseline_version,
                "characteristic_triangles": len(
                    detection.characteristic_triangles
                ),
                "special_edges": len(detection.special_edges),
                "cliques": cliques,
            }
            at_version = self.version
            self._template_cache[name] = (at_version, payload)
        degraded = at_version != self.version
        if degraded:
            self.metrics.degraded_reads += 1
        return {
            **payload,
            "version": self.version,
            "degraded": degraded,
            "answered_at_version": at_version,
        }

    def stats(self) -> Dict[str, object]:
        """Engine stats /2 payload with the ``service`` section attached."""
        payload = self.engine.stats_dict()
        payload["version"] = self.version
        return payload

    # ------------------------------------------------------------------ #
    # writes
    # ------------------------------------------------------------------ #

    def apply_edits(
        self, script: EditScript, *, strategy: Optional[str] = None
    ) -> Dict[str, object]:
        """Apply one edit batch atomically; return what it did.

        Ops use the PR 2 total semantics: structurally invalid ops
        (duplicate add, self loop, remove of an absent edge/vertex) are
        counted per outcome and skipped — they never corrupt state or
        abort the rest of the batch.

        ``strategy`` picks how kappa is repaired: ``"incremental"``
        applies Rule 0 per-op repairs through the maintainer,
        ``"batch"`` coalesces the script to its net edge diff and runs
        one affected-region pass per op cluster (the opt-in choice for
        bursty multi-op streams, where it beats per-op repair by 3-24x),
        ``"recompute"`` replays the script structurally and runs one
        fresh decomposition (cheapest at very high churn), ``"auto"``
        (default) mirrors the maintainer's measured tiering — recompute
        at or above the churn crossover
        (:attr:`DynamicTriangleKCore.AUTO_RECOMPUTE_CHURN`), per-op
        repair below it.

        The incremental and batch paths never snapshot the kappa map:
        the reported ``delta`` counts come straight from the
        maintainer's :class:`~repro.core.dynamic.KappaDelta` recorder.
        Only the recompute path (which swaps the maintainer wholesale)
        still pays the O(|E|) before-snapshot.
        """
        from ..core.dynamic import DynamicTriangleKCore

        strategy = strategy or self.edit_strategy
        if strategy not in ("incremental", "recompute", "auto", "batch"):
            raise ServiceError(
                400,
                ERR_BAD_REQUEST,
                "strategy must be incremental/recompute/auto/batch, "
                f"got {strategy!r}",
            )
        with self._write_lock:
            prev_version = self.version
            maintainer = self.maintainer
            if strategy == "auto":
                churn = len(script) / max(self.graph.num_edges, 1)
                if churn >= DynamicTriangleKCore.AUTO_RECOMPUTE_CHURN:
                    strategy = "recompute"
                else:
                    strategy = "incremental"
            if strategy == "recompute":
                before_kappa = dict(maintainer.kappa)
                applied, rejected = self._replay_by_recompute(script)
                maintainer = self.maintainer
                after_kappa = maintainer.kappa
                created = sum(1 for e in after_kappa if e not in before_kappa)
                deleted = sum(1 for e in before_kappa if e not in after_kappa)
                promoted = demoted = 0
                for edge, value in after_kappa.items():
                    old = before_kappa.get(edge)
                    if old is None:
                        continue
                    if value > old:
                        promoted += 1
                    elif value < old:
                        demoted += 1
            else:
                co = coalesce(maintainer.graph, script)
                delta = apply_coalesced(maintainer, co, strategy=strategy)
                applied = co.applied
                rejected = co.rejected
                created = len(delta.created)
                deleted = len(delta.deleted)
                promoted = len(delta.promoted)
                demoted = len(delta.demoted)
                if delta.stats.strategy == "batch":
                    self.engine.stats.record_batch(
                        delta.stats.region_edges,
                        delta.stats.settle_iterations,
                        delta.stats.bound_prune_hits,
                    )
            self._edits_applied += applied
            self._edit_batches += 1
            return {
                "version": self.version,
                "prev_version": prev_version,
                "strategy": strategy,
                "ops": len(script),
                "applied": applied,
                "rejected": rejected,
                "delta": {
                    "created": created,
                    "deleted": deleted,
                    "promoted": promoted,
                    "demoted": demoted,
                },
                "max_kappa": maintainer.max_kappa,
            }

    def _replay_by_recompute(
        self, script: EditScript
    ) -> Tuple[int, Dict[str, int]]:
        """Recompute path: replay the script structurally, decompose once.

        The final graph goes through the engine's static backend (cache,
        instrumentation and all) and a fresh maintainer is seeded from
        that result, replacing the old one atomically.  The new graph's
        version is advanced past the old one so the monotonic-version
        contract survives the swap.
        """
        from ..core.dynamic import DynamicTriangleKCore
        from ..testing.editscript import apply_op

        old_version = self.version
        target = self.graph.copy()
        rejected: Dict[str, int] = {}
        applied = 0
        for op in script:
            outcome = apply_op(target, op)
            if outcome in (OUTCOME_OK, OUTCOME_NOOP):
                applied += 1
            else:
                rejected[outcome] = rejected.get(outcome, 0) + 1
        if target.version <= old_version:
            target.bump_version(old_version - target.version + 1)
        backend = self.engine.resolve(self.backend, target)
        if backend == "dynamic":
            backend = "reference"
        result = self.engine.decompose(target, backend=backend)
        self.maintainer = DynamicTriangleKCore(
            target, copy=False, seed_result=result
        )
        return applied, rejected

    # ------------------------------------------------------------------ #
    # stats wiring
    # ------------------------------------------------------------------ #

    def register_stats_section(self) -> None:
        """Expose service metrics through ``engine.stats_dict()``."""

        def provider() -> Dict[str, object]:
            payload = self.metrics.as_dict()
            payload["graph"] = {
                "vertices": self.graph.num_vertices,
                "edges": self.graph.num_edges,
                "version": self.version,
                "max_kappa": self.maintainer.max_kappa,
            }
            payload["edits"] = {
                "batches": self._edit_batches,
                "applied_ops": self._edits_applied,
            }
            return payload

        self.engine.register_stats_section("service", provider, replace=True)
