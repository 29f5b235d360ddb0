"""``repro.fast`` — the layered flat-array (CSR) kernel substrate.

The reference implementations in :mod:`repro.core` and
:mod:`repro.graph.triangles` run on hash-keyed dicts of canonical edge
tuples: ideal for dynamic updates and as a cross-validation oracle, but an
order of magnitude slower than necessary for one-shot static work.  This
package provides the fast paths behind ``backend="csr"`` and
``"csr-vec"``, organized as four explicit layers (DESIGN.md "Kernel
layering" has the full composition table):

* **L1 — substrate**: :class:`~repro.fast.csr.CSRGraph`, an immutable
  integer-relabeled CSR snapshot whose five kernel arrays form a
  pluggable store (stdlib ``array``, ``bytes`` or ``memoryview``);
* **L2 — enumeration**: :mod:`~repro.fast.kernels` — forward-algorithm
  triangle counting/supports over any substrate, restrictable to a
  vertex range (the out-of-core backend enumerates partition by
  partition);
* **L3 — peel**: :mod:`~repro.fast.peelers` — Algorithm 1 as a
  level-synchronous walk with batched decrements and a canonical
  processing order;
* **L4 — dispatch**: this module — decoding kernel output back into the
  public dict-based API and the ``backend`` policy for every entry point.

From L2 through L3 to L4 the data stays in int64 ``ndarray`` objects when
numpy is present (lists without it).  L4's decode
(:meth:`~repro.fast.csr.CSRGraph.decode_kappa`) is where values become
Python objects, so every public value — kappa, processing order,
counters, supports — is a plain ``int`` in both modes.

Backends
--------

``"reference"``
    The original pure-dict implementations.  Always available; required
    for ``store_membership=True``.
``"csr"``
    Snapshot + enumeration kernels + the batched peel.  Identical kappa
    maps to the reference (property-tested against it and networkx);
    its processing order is the canonical one (ascending level,
    sub-round, edge id), which may break ties differently from the
    reference — any non-decreasing-kappa order is valid.  With numpy the
    kernels run as array passes; without it bit-identical pure loops
    keep the backend available everywhere.
``"csr-vec"``
    Accepted alias of ``"csr"``: the same peel, the same answers.
``"external"``
    Out-of-core: the CSR columns live in mmap'd spill files under a
    spill directory, triangles are enumerated partition by partition to
    disk, and a reconciliation peel iterates boundary demotions across
    partitions to a fixed point (:mod:`repro.fast.external`).  Resident
    memory stays O(n + m) words plus one byte per triangle regardless of
    graph size.  Bit-identical to ``"csr"`` (kappa *and* canonical
    processing order) for any partition count.
``"auto"``
    By measured tiering: ``"external"`` when a ``memory_budget`` is
    configured and the estimated CSR payload exceeds it (or the graph
    has at least :data:`AUTO_EXTERNAL_MIN_EDGES` edges); else ``"csr"``
    once ``m`` times the average degree (``2m²/n``) reaches
    :data:`AUTO_MIN_WORK`; else ``"reference"`` — and always
    ``"reference"`` whenever membership bookkeeping is requested.
    ``BENCH_kernels.json`` (``benchmarks/bench_backend_kernels.py``,
    ``tier_sweep``) records the evidence on R-MAT and caveman graphs.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from ..exceptions import BackendError
from ..graph.edge import Edge
from ..graph.undirected import Graph
from .csr import CSRGraph
from .external import (
    ExternalCSR,
    SpillError,
    cleanup_stale,
    decompose_spill,
    external_decomposition,
    inject_boundary_drop_bug,
    spill_edges,
)
from .kernels import peel, supports_and_triangles, triangle_count, triangle_supports
from .peelers import IntSeq, _total, run_peel

__all__ = [
    "AUTO_EXTERNAL_MIN_EDGES",
    "AUTO_MIN_WORK",
    "BACKENDS",
    "BackendError",
    "CSRGraph",
    "ExternalCSR",
    "SpillError",
    "cleanup_stale",
    "csr_count_triangles",
    "csr_decomposition",
    "csr_triangle_supports",
    "decompose_spill",
    "estimated_payload_nbytes",
    "external_decomposition",
    "inject_boundary_drop_bug",
    "peel",
    "resolve_backend",
    "run_peel",
    "spill_edges",
    "supports_and_triangles",
    "triangle_count",
    "triangle_supports",
]

#: Backends this package can resolve (the engine registry adds more, e.g.
#: ``"dynamic"`` — see :func:`_known_backends`).
BACKENDS = (
    "auto",
    "reference",
    "csr",
    "csr-vec",
    "external",
)

#: "auto" switches from the reference implementation to the CSR kernels
#: once ``m`` times the average degree, ``2m²/n``, reaches this value.  The
#: reference support pass intersects both endpoints' neighbour sets for
#: every edge, so its cost grows with that product, while the CSR kernels
#: pay a fixed snapshot cost first; an edge count alone cannot place the
#: crossover, which lies near 24 edges on cliques and near 48 on paths.
#: Set from the ``tier_sweep`` of benchmarks/bench_backend_kernels.py
#: (``BENCH_kernels.json``).
AUTO_MIN_WORK = 128

#: "auto" escalates to the out-of-core backend at this edge count even
#: without an explicit memory budget — the point where the in-RAM
#: triangle list (24 bytes/triangle plus the O(3T) incidence the peel
#: builds) starts to dominate typical container budgets.  With a
#: budget configured the payload-vs-budget comparison takes precedence.
AUTO_EXTERNAL_MIN_EDGES = 1 << 21


def _known_backends() -> Tuple[str, ...]:
    """Every backend name the system knows, for error messages.

    Derived from the engine registry when importable (so engine-level
    backends such as ``"dynamic"`` — and anything added via
    ``Engine.register_backend`` defaults — are listed automatically),
    falling back to this package's own tuple during partial imports.
    """
    try:
        from ..engine.engine import _BUILTIN_BACKENDS

        return ("auto",) + tuple(_BUILTIN_BACKENDS)
    except ImportError:  # pragma: no cover - only during bootstrap
        return BACKENDS


def resolve_backend(
    backend: str,
    graph: Graph,
    *,
    needs_reference: bool = False,
    memory_budget: Optional[int] = None,
) -> str:
    """Resolve ``backend`` to a concrete kernel composition.

    Returns one of ``"reference"``, ``"csr"``, ``"csr-vec"`` or
    ``"external"``.
    ``needs_reference`` marks calls the kernels cannot serve (currently:
    membership bookkeeping); ``"auto"`` then degrades silently while an
    explicit kernel backend raises, so callers never get an answer
    computed differently from what they asked for.  ``memory_budget``
    (bytes) feeds the out-of-core escalation — when the estimated CSR
    payload would exceed the budget, ``"auto"`` spills.
    """
    if backend not in BACKENDS:
        known = _known_backends()
        if backend in known:
            raise ValueError(
                f"backend {backend!r} is only available through "
                f"repro.engine.Engine (known backends: {known})"
            )
        raise ValueError(f"unknown backend {backend!r}; expected one of {known}")
    if backend == "reference":
        return "reference"
    if needs_reference:
        if backend != "auto":
            raise ValueError(
                f"backend={backend!r} does not support membership "
                "bookkeeping; use backend='reference' (or 'auto')"
            )
        return "reference"
    if backend != "auto":
        return backend
    if graph.num_edges >= AUTO_EXTERNAL_MIN_EDGES or (
        memory_budget is not None
        and estimated_payload_nbytes(graph) > memory_budget
    ):
        return "external"
    m = graph.num_edges
    if 2 * m * m < AUTO_MIN_WORK * graph.num_vertices:
        return "reference"
    return "csr"


def estimated_payload_nbytes(graph: Graph) -> int:
    """Estimated in-RAM CSR payload for ``graph``, without building it.

    The five kernel columns cost ``8 * (n + 1) + 8 * 2m + 8 * 2m + 8 * n
    + 16m`` bytes = ``48m + 16n + 8`` — the quantity ``"auto"`` compares
    against a configured memory budget to decide when to spill.
    """
    return 48 * graph.num_edges + 16 * graph.num_vertices + 8


def csr_count_triangles(graph: Graph) -> int:
    """Total triangle count via the CSR kernel."""
    return triangle_count(CSRGraph.from_graph(graph))


def csr_triangle_supports(graph: Graph) -> Dict[Edge, int]:
    """``{canonical edge: triangle support}`` via the CSR kernel."""
    csr = CSRGraph.from_graph(graph)
    return dict(zip(csr.edge_labels(), triangle_supports(csr)))


def _decode_decomposition(
    csr: CSRGraph,
    precomputed: Tuple[IntSeq, IntSeq],
    counters: Optional[Dict[str, int]] = None,
    *,
    peel_stats: Optional[Dict[str, object]] = None,
) -> "TriangleKCoreResult":  # noqa: F821
    """Peel ``precomputed`` and decode into the public result type.

    Shared tail of every kernel backend: given the ``(supports,
    tri_edges)`` pair — however it was computed — run the Algorithm 1
    peel and translate edge ids back to canonical label tuples.  The
    kappa dict iterates in processing order, so the processing order is
    ``list(kappa)``.  ``counters`` mirrors the instrumentation hook of
    :func:`repro.core.triangle_kcore.triangle_kcore_decomposition`;
    ``peel_stats`` receives the peel telemetry
    (:data:`~repro.fast.peelers.PeelStats`).
    """
    # Imported lazily: repro.core.triangle_kcore dispatches into this module.
    from ..core.triangle_kcore import TriangleKCoreResult

    kappa_by_eid, order_by_eid = peel(csr, precomputed, stats=peel_stats)
    kappa = csr.decode_kappa(kappa_by_eid, order_by_eid)
    if counters is not None:
        support_sum = _total(precomputed[0])
        counters["triangles_enumerated"] = support_sum // 3
        counters["support_sum"] = support_sum
        counters["edges_peeled"] = len(kappa)
        counters["bucket_decrements"] = support_sum - _total(kappa_by_eid)
    return TriangleKCoreResult(kappa=kappa, processing_order=list(kappa))


def csr_decomposition(
    graph: Graph,
    *,
    counters: Optional[Dict[str, int]] = None,
    peel_stats: Optional[Dict[str, object]] = None,
) -> "TriangleKCoreResult":  # noqa: F821
    """Algorithm 1 via the CSR kernels, decoded to the public result type.

    ``counters`` mirrors the instrumentation hook of
    :func:`repro.core.triangle_kcore.triangle_kcore_decomposition`: the
    same keys, derived from arrays the kernels build anyway;
    ``peel_stats`` receives the peel telemetry.
    """
    csr = CSRGraph.from_graph(graph)
    precomputed = supports_and_triangles(csr)
    return _decode_decomposition(
        csr, precomputed, counters, peel_stats=peel_stats
    )
