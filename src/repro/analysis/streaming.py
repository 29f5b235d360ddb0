"""Sliding-window density monitoring over temporal edge streams.

The paper's dynamic algorithms are motivated by networks that never stop
changing.  The natural deployment is a *temporal stream*: interactions
arrive with timestamps, only the last ``window`` time units matter, and an
analyst watches for dense structure forming right now (the §V event-
detection story, online).

:class:`SlidingWindowDensity` wraps
:class:`~repro.core.dynamic.DynamicTriangleKCore`: ``observe(u, v, t)``
inserts an interaction, expiring everything older than ``t - window``
first.  Repeated interactions refresh the edge's timestamp instead of
duplicating it.  Every query (max kappa, densest community, kappa of an
edge) reads the incrementally-maintained state — no recomputation.
Writes go through ``apply`` (one call per insertion and one per expiry
sweep), which keeps the maintainer's cached max kappa current.
"""

from __future__ import annotations

import heapq
from typing import Dict, List, Optional, Set, Tuple

from ..engine import resolve_engine
from ..exceptions import ReproError
from ..graph.edge import Edge, Vertex, canonical_edge
from ..graph.undirected import Graph
from ..core.extract import dense_communities


class SlidingWindowDensity:
    """Maintains Triangle K-Cores over the last ``window`` time units.

    Timestamps must be non-decreasing (a stream); out-of-order events
    raise :class:`~repro.exceptions.ReproError`.

    Examples
    --------
    >>> monitor = SlidingWindowDensity(window=10)
    >>> for t, (u, v) in enumerate([(0, 1), (1, 2), (0, 2)]):
    ...     _ = monitor.observe(u, v, t)
    >>> monitor.max_kappa
    1
    >>> _ = monitor.advance_to(20)   # everything expires
    >>> monitor.max_kappa
    0
    """

    def __init__(
        self,
        *,
        window: float,
        engine: Optional[object] = None,
    ) -> None:
        if window <= 0:
            raise ValueError(f"window must be positive, got {window}")
        self.window = window
        # copy=False: the maintainer owns the (initially empty) graph.
        self._maintainer = resolve_engine(engine).maintainer(Graph(), copy=False)
        self._last_seen: Dict[Edge, float] = {}
        #: (timestamp, edge) min-heap; stale entries are skipped on expiry.
        self._expiry_heap: List[Tuple[float, Edge]] = []
        self._now = float("-inf")

    # ------------------------------------------------------------------ #
    # stream input
    # ------------------------------------------------------------------ #

    def observe(self, u: Vertex, v: Vertex, timestamp: float) -> int:
        """Ingest one interaction; returns the number of expired edges.

        A repeated interaction refreshes the edge's timestamp (the edge
        stays; its expiry moves forward).
        """
        expired = self.advance_to(timestamp)
        edge = canonical_edge(u, v)
        self._last_seen[edge] = timestamp
        heapq.heappush(self._expiry_heap, (timestamp, edge))
        if not self._maintainer.graph.has_edge(u, v):
            self._maintainer.apply(added=[(u, v)])
        return expired

    def advance_to(self, timestamp: float) -> int:
        """Move time forward, expiring edges older than ``timestamp - window``.

        Returns the number of edges removed.  Raises on time going
        backwards.
        """
        if timestamp < self._now:
            raise ReproError(
                f"stream time went backwards: {timestamp} < {self._now}"
            )
        self._now = timestamp
        horizon = timestamp - self.window
        expired: List[Edge] = []
        while self._expiry_heap and self._expiry_heap[0][0] <= horizon:
            stamp, edge = heapq.heappop(self._expiry_heap)
            if self._last_seen.get(edge) != stamp:
                continue  # refreshed later; stale heap entry
            del self._last_seen[edge]
            expired.append(edge)
        if expired:
            self._maintainer.apply(removed=expired)
        return len(expired)

    # ------------------------------------------------------------------ #
    # queries (all O(1) or read-only on maintained state)
    # ------------------------------------------------------------------ #

    @property
    def now(self) -> float:
        return self._now

    @property
    def graph(self) -> Graph:
        """The current window's graph (treat as read-only)."""
        return self._maintainer.graph

    @property
    def num_edges(self) -> int:
        return len(self._last_seen)

    @property
    def max_kappa(self) -> int:
        return self._maintainer.max_kappa

    def kappa_of(self, u: Vertex, v: Vertex) -> int:
        """Current kappa of a live edge."""
        return self._maintainer.kappa_of(u, v)

    def densest_community(self) -> Tuple[int, Set[Vertex]]:
        """``(kappa, vertices)`` of the window's densest community.

        ``(0, set())`` when the window holds no triangles.
        """
        result = self._maintainer.result()
        if result.max_kappa == 0:
            return 0, set()
        for level, vertices in dense_communities(
            self._maintainer.graph, result, min_kappa=result.max_kappa
        ):
            return level, vertices
        return 0, set()

    def alert_when(self, threshold: int) -> bool:
        """True when some structure at kappa >= threshold is live.

        The one-liner for monitoring loops: "tell me when an approximate
        ``threshold + 2``-clique forms within the window".
        """
        return self._maintainer.max_kappa >= threshold
