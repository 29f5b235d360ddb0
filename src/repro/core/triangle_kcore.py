"""Algorithm 1: detect every edge's maximum Triangle K-Core number.

This is the paper's central static algorithm (§IV-A).  Outline:

1. Compute the triangle support of every edge — the initial upper bound
   :math:`\\tilde\\kappa(e)` (steps 1-5; every triangle on ``e`` *may* be in
   ``e``'s maximum Triangle K-Core).
2. Bucket-sort edges by :math:`\\tilde\\kappa` (step 7).
3. Repeatedly take a minimum edge ``e_t``; its bound is now exact:
   :math:`\\kappa(e_t) = \\tilde\\kappa(e_t)` (step 10, proved via Claim 2).
4. For every *unprocessed* triangle on ``e_t`` (no edge of it processed yet),
   decrement the bound of the other two edges when it exceeds
   :math:`\\kappa(e_t)` — the triangle cannot survive in their cores because
   that would violate Theorem 1 (steps 11-17).

The total cost beyond triangle enumeration is O(|E| + |Tri|).

Terminology note: :math:`\\kappa(e) + 2` equals the modern *k-truss* number
of the edge; the tests cross-check against networkx's independent
``k_truss`` implementation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Mapping, Optional

from ..graph.edge import Edge, Vertex, canonical_edge, canonical_triangle
from ..graph.undirected import Graph
from .bucket_queue import BucketQueue
from .membership import CoreMembership


@dataclass
class TriangleKCoreResult:
    """Output of the static decomposition.

    Attributes
    ----------
    kappa:
        ``{edge: maximum Triangle K-Core number}`` for every edge of the
        input graph (paper Definition 4, :math:`\\kappa(e)`).
    processing_order:
        Edges in the order Algorithm 1 froze them — non-decreasing in
        ``kappa``.  Position in this list initializes ``e.order`` for the
        dynamic update algorithms (paper §IX-A).
    membership:
        Optional :class:`CoreMembership` bookkeeping (AddToCore /
        DelFromCore state at termination); present when the decomposition was
        run with ``store_membership=True``.
    """

    kappa: Dict[Edge, int]
    processing_order: List[Edge] = field(default_factory=list)
    membership: Optional[CoreMembership] = None

    # -------------------------------------------------------------- #
    # lookups
    # -------------------------------------------------------------- #

    def kappa_of(self, u: Vertex, v: Vertex) -> int:
        """:math:`\\kappa` of the edge ``{u, v}`` (KeyError if absent)."""
        return self.kappa[canonical_edge(u, v)]

    @property
    def max_kappa(self) -> int:
        """The largest :math:`\\kappa` over all edges (0 for empty graphs)."""
        return max(self.kappa.values(), default=0)

    def co_clique_size(self, u: Vertex, v: Vertex) -> int:
        """CSV-style co-clique-size estimate ``kappa(e) + 2`` (paper §V).

        An ``n``-vertex clique is an ``(n-2)``-Triangle K-Core, so
        ``kappa + 2`` approximates the size of the largest clique-like
        structure the edge participates in.
        """
        return self.kappa_of(u, v) + 2

    def vertex_kappa(self) -> Dict[Vertex, int]:
        """Per-vertex density: max :math:`\\kappa` over incident edges.

        Vertices with no edges get 0.  This is the quantity the density plot
        draws on the y-axis (offset by +2 for co-clique size).
        """
        result: Dict[Vertex, int] = {}
        for (u, v), k in self.kappa.items():
            if result.get(u, -1) < k:
                result[u] = k
            if result.get(v, -1) < k:
                result[v] = k
        return result

    def edges_with_kappa_at_least(self, k: int) -> Iterator[Edge]:
        """Edges whose maximum Triangle K-Core number is >= ``k``."""
        return (edge for edge, value in self.kappa.items() if value >= k)

    def order_index(self) -> Dict[Edge, float]:
        """``{edge: position in processing_order}`` — the paper's ``e.order``."""
        return {edge: float(i) for i, edge in enumerate(self.processing_order)}

    def histogram(self) -> Dict[int, int]:
        """``{kappa value: edge count}`` — summary used by EXPERIMENTS.md."""
        counts: Dict[int, int] = {}
        for value in self.kappa.values():
            counts[value] = counts.get(value, 0) + 1
        return dict(sorted(counts.items()))


def triangle_kcore_decomposition(
    graph: Graph,
    *,
    store_membership: bool = False,
    backend: str = "auto",
    counters: Optional[Dict[str, int]] = None,
) -> TriangleKCoreResult:
    """Run Algorithm 1 on ``graph``.

    Parameters
    ----------
    graph:
        A simple undirected graph.
    store_membership:
        When True, maintain the AddToCore/DelFromCore bookkeeping (paper
        steps 5 and 14).  The paper notes the static algorithm does not need
        it; it costs O(|Tri|) memory and is mainly useful for inspecting the
        maximum-core triangles and validating Rule 1.  Forces the reference
        backend.
    backend:
        ``"reference"`` runs the dict-based implementation below;
        ``"csr"`` snapshots the graph into flat integer arrays and runs the
        :mod:`repro.fast` kernels (identical kappa maps, much faster on
        large graphs; ``"csr-vec"`` is an alias); ``"auto"`` (default)
        picks per the policy documented in :mod:`repro.fast`.
    counters:
        Optional dict that, when provided, receives work counters at no
        measurable cost (they are derived from state the peel computes
        anyway): ``triangles_enumerated``, ``support_sum`` (the sum of
        initial bounds), ``edges_peeled``, and ``bucket_decrements``
        (``support_sum`` minus the final kappa sum — every bucket
        decrement lowers exactly one bound by one).  This is the hook the
        instrumented engine (:mod:`repro.engine`) reads.

    Returns
    -------
    TriangleKCoreResult
        kappa values, processing order, and optional membership state.

    Examples
    --------
    The paper's Figure 2 example graph:

    >>> g = Graph(edges=[("A", "B"), ("A", "C"), ("B", "C"), ("B", "D"),
    ...                  ("B", "E"), ("C", "D"), ("C", "E"), ("D", "E")])
    >>> result = triangle_kcore_decomposition(g)
    >>> result.kappa_of("A", "B")
    1
    >>> result.kappa_of("B", "C")
    2
    """
    from ..fast import csr_decomposition, resolve_backend

    resolved = resolve_backend(backend, graph, needs_reference=store_membership)
    if resolved in ("csr", "csr-vec"):
        return csr_decomposition(graph, counters=counters)

    # Steps 1-5: initial upper bounds = triangle supports.  A single pass
    # over the canonical triangle enumeration both counts supports and, when
    # requested, populates the membership sets.
    from ..graph.triangles import enumerate_triangles

    kappa_bound: Dict[Edge, int] = {edge: 0 for edge in graph.edges()}
    membership = CoreMembership() if store_membership else None
    if membership is not None:
        for edge in kappa_bound:
            membership.ensure_edge(edge)
    for triangle in enumerate_triangles(graph):
        a, b, c = triangle
        for edge in ((a, b), (a, c), (b, c)):
            kappa_bound[edge] += 1
            if membership is not None:
                membership.add_to_core(triangle, edge)

    # Step 7: bucket sort.
    queue: BucketQueue[Edge] = BucketQueue(kappa_bound)

    kappa: Dict[Edge, int] = {}
    processing_order: List[Edge] = []
    processed: set[Edge] = set()

    # Steps 8-18: peel in increasing bound order.
    while len(queue):
        edge, bound = queue.pop_min()
        kappa[edge] = bound
        processing_order.append(edge)
        u, v = edge
        for w in graph.common_neighbors(u, v):
            e1 = canonical_edge(u, w)
            e2 = canonical_edge(v, w)
            # A triangle is processed once any of its edges is processed
            # (paper definition); only unprocessed triangles are updated.
            if e1 in processed or e2 in processed:
                continue
            triangle = canonical_triangle(u, v, w)
            for other in (e1, e2):
                # Step 13: Theorem 1 pruning — the triangle cannot be in
                # `other`'s maximum core if that core's number would exceed
                # the just-frozen kappa(edge).
                if queue.priority(other) > bound:
                    queue.decrement(other)
                    if membership is not None:
                        membership.del_from_core(triangle, other)
        processed.add(edge)

    if counters is not None:
        support_sum = sum(kappa_bound.values())
        counters["triangles_enumerated"] = support_sum // 3
        counters["support_sum"] = support_sum
        counters["edges_peeled"] = len(kappa)
        counters["bucket_decrements"] = support_sum - sum(kappa.values())

    return TriangleKCoreResult(
        kappa=kappa,
        processing_order=processing_order,
        membership=membership,
    )


def co_clique_sizes(result: TriangleKCoreResult) -> Dict[Edge, int]:
    """``{edge: kappa + 2}`` for every edge — the CSV proxy (paper §V)."""
    return {edge: value + 2 for edge, value in result.kappa.items()}


def kappa_upper_bounds(graph: Graph) -> Dict[Edge, int]:
    """The pre-peeling bounds :math:`\\tilde\\kappa(e)` (triangle supports).

    Exposed separately because the Figure 2 walk-through and several tests
    want to inspect the initial state of Algorithm 1.
    """
    from ..graph.triangles import triangle_supports

    return triangle_supports(graph)


def truss_numbers(result: TriangleKCoreResult) -> Dict[Edge, int]:
    """Modern k-truss numbers: ``kappa(e) + 2`` for every edge.

    Provided for interoperability; an edge belongs to the networkx
    ``k_truss(G, k)`` subgraph exactly when ``truss_numbers[e] >= k``.
    """
    return {edge: value + 2 for edge, value in result.kappa.items()}


def kappa_from_mapping(mapping: Mapping[Edge, int]) -> TriangleKCoreResult:
    """Wrap a plain ``{edge: kappa}`` mapping as a result object.

    Useful when kappa values come from elsewhere (e.g. the dynamic
    maintainer) but a :class:`TriangleKCoreResult` API is wanted.
    The processing order is synthesized in increasing-kappa order, which
    satisfies the invariant the dynamic algorithms rely on.
    """
    kappa = dict(mapping)
    order = sorted(kappa, key=lambda edge: (kappa[edge], repr(edge)))
    return TriangleKCoreResult(kappa=kappa, processing_order=order)
