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
* **L3 — peel executor**: :mod:`~repro.fast.peelers` — Algorithm 1
  behind the :class:`~repro.fast.peelers.PeelExecutor` seam: the scalar
  bucket-queue walk or the vectorized level-synchronous executor;
* **L4 — dispatch**: this module — decoding kernel output back into the
  public dict-based API and the ``backend`` policy composing
  substrate × enumeration × executor for every entry point.

Backends
--------

``"reference"``
    The original pure-dict implementations.  Always available; required
    for ``store_membership=True``.
``"csr"``
    Snapshot + kernels + **scalar** peel.  Produces identical kappa maps
    (property-tested against both the reference and networkx), but its
    processing order may break ties differently — any
    non-decreasing-kappa order is valid.
``"csr-vec"``
    ``"csr"`` with the **vector** (level-synchronous, batched-decrement)
    peel executor.  Identical kappa; canonical processing order
    (ascending level, sub-round, edge id).  The fastest in-RAM backend
    whenever numpy is present (``BENCH_kernels.json``); without numpy a
    bit-identical pure path keeps it available everywhere.
``"external"``
    Out-of-core: the CSR columns live in mmap'd spill files under a
    spill directory, triangles are enumerated partition by partition to
    disk, and a reconciliation peel iterates boundary demotions across
    partitions to a fixed point (:mod:`repro.fast.external`).  Resident
    memory stays O(n + m) words plus one byte per triangle regardless of
    graph size.  Bit-identical to ``"csr"`` (kappa) *and* ``"csr-vec"``
    (canonical processing order) for any partition count.
``"auto"``
    By measured tiering: ``"external"`` when a ``memory_budget`` is
    configured and the estimated CSR payload exceeds it (or the graph
    has at least :data:`AUTO_EXTERNAL_MIN_EDGES` edges); else, at or
    above :data:`AUTO_MIN_EDGES` edges, ``"csr-vec"`` when numpy is
    present and ``"csr"`` without it; else ``"reference"`` — and always
    ``"reference"`` whenever membership bookkeeping is requested.
    ``BENCH_kernels.json`` (``benchmarks/bench_backend_kernels.py``)
    records the evidence: ``csr-vec`` beats scalar ``csr`` at every
    swept size from m≈1k to m≈100k on R-MAT and caveman graphs.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

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
from .peelers import PEEL_EXECUTORS, run_peel

__all__ = [
    "AUTO_EXTERNAL_MIN_EDGES",
    "AUTO_MIN_EDGES",
    "BACKENDS",
    "BackendError",
    "CSRGraph",
    "ExternalCSR",
    "PEEL_EXECUTORS",
    "SpillError",
    "backend_executor",
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

#: "auto" switches to the CSR kernels at this edge count; below it the
#: snapshot build costs more than the dict overhead it saves (measured in
#: benchmarks/bench_backend_kernels.py — the crossover sits near 10^3 edges).
#: At and above it the vector peel wins too (``BENCH_kernels.json``
#: ``executor_sweep``), so there is no separate vector threshold.
AUTO_MIN_EDGES = 1024

#: "auto" escalates to the out-of-core backend at this edge count even
#: without an explicit memory budget — the point where the in-RAM
#: triangle list (24 bytes/triangle plus the O(3T) incidence the peel
#: executors build) starts to dominate typical container budgets.  With a
#: budget configured the payload-vs-budget comparison takes precedence.
AUTO_EXTERNAL_MIN_EDGES = 1 << 21


def backend_executor(backend: str) -> str:
    """The peel-executor name a resolved kernel backend composes (L3)."""
    return "vector" if backend.endswith("-vec") else "scalar"


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
    from . import csr as _csr_mod

    has_numpy = _csr_mod.np is not None
    if graph.num_edges >= AUTO_EXTERNAL_MIN_EDGES or (
        memory_budget is not None
        and estimated_payload_nbytes(graph) > memory_budget
    ):
        return "external"
    if graph.num_edges < AUTO_MIN_EDGES:
        return "reference"
    return "csr-vec" if has_numpy else "csr"


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
    precomputed: Tuple[List[int], List[int]],
    counters: Optional[Dict[str, int]] = None,
    *,
    executor: str = "scalar",
    peel_stats: Optional[Dict[str, object]] = None,
) -> "TriangleKCoreResult":  # noqa: F821
    """Peel ``precomputed`` and decode into the public result type.

    Shared tail of every kernel backend: given the ``(supports,
    tri_edges)`` pair — however it was computed — run the selected
    Algorithm 1 peel executor and translate edge ids back to canonical
    label tuples.  ``counters`` mirrors the instrumentation hook of
    :func:`repro.core.triangle_kcore.triangle_kcore_decomposition`;
    ``peel_stats`` receives the executor telemetry
    (:data:`~repro.fast.peelers.PeelStats`).
    """
    # Imported lazily: repro.core.triangle_kcore dispatches into this module.
    from ..core.triangle_kcore import TriangleKCoreResult

    kappa_by_eid, order_by_eid = peel(
        csr, precomputed, executor=executor, stats=peel_stats
    )
    edges = csr.edge_labels()
    kappa: Dict[Edge, int] = dict(zip(edges, kappa_by_eid))
    processing_order: List[Edge] = list(map(edges.__getitem__, order_by_eid))
    if counters is not None:
        support_sum = int(sum(precomputed[0]))
        counters["triangles_enumerated"] = support_sum // 3
        counters["support_sum"] = support_sum
        counters["edges_peeled"] = len(kappa)
        counters["bucket_decrements"] = support_sum - int(sum(kappa_by_eid))
    return TriangleKCoreResult(kappa=kappa, processing_order=processing_order)


def csr_decomposition(
    graph: Graph,
    *,
    counters: Optional[Dict[str, int]] = None,
    executor: str = "scalar",
    peel_stats: Optional[Dict[str, object]] = None,
) -> "TriangleKCoreResult":  # noqa: F821
    """Algorithm 1 via the CSR kernels, decoded to the public result type.

    ``executor`` selects the peel executor (L3): ``"scalar"`` is
    ``backend="csr"``, ``"vector"`` is ``backend="csr-vec"``.
    ``counters`` mirrors the instrumentation hook of
    :func:`repro.core.triangle_kcore.triangle_kcore_decomposition`: the
    same keys, derived from arrays the kernels build anyway;
    ``peel_stats`` receives the executor telemetry.
    """
    csr = CSRGraph.from_graph(graph)
    precomputed = supports_and_triangles(csr)
    return _decode_decomposition(
        csr, precomputed, counters, executor=executor, peel_stats=peel_stats
    )
