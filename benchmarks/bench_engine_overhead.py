"""Engine layer — dispatch overhead, warm-cache wins, dynamic timelines.

PR 3 routes every kappa consumer through :class:`repro.engine.Engine`.
That indirection must be close to free when it cannot help and clearly
profitable when it can.  Three measurements, two artifacts:

* **cold overhead** — a fresh engine's ``decompose(use_cache=False)`` vs a
  direct ``triangle_kcore_decomposition`` call on the same graph/backend.
  Gate: < 5% wall-clock overhead (dispatch + instrumentation).
* **warm cache** — repeat decomposition of an unmutated graph (the
  CommunityIndex-then-hierarchy-then-plot access pattern) served from the
  version-keyed cache.
* **dynamic timeline** — a >= 20-snapshot churn stream answered by
  ``backend="dynamic"`` (diff + incremental apply against the engine's
  warm maintainer) vs a per-snapshot reference recompute.
  Gate: >= 2x total wall clock, bit-identical kappa maps throughout.

Artifacts: ``benchmarks/results/engine_overhead.txt`` (human table) and
``BENCH_engine.json`` at the repo root (machine-readable gates).
"""

from __future__ import annotations

import gc
import json
import time
from pathlib import Path

import pytest

from repro.core import triangle_kcore_decomposition
from repro.engine import Engine
from repro.graph.generators import random_edge_sample, random_non_edges

from common import format_table, host_info, write_report

REPO_ROOT = Path(__file__).parent.parent
BENCH_JSON = REPO_ROOT / "BENCH_engine.json"

#: Mid-sized Table II graph: big enough to amortize per-call dispatch.
OVERHEAD_DATASET = "dblp"
MAX_COLD_OVERHEAD = 0.05

#: Timeline workload: snapshots of a slowly churning graph.  Must be big
#: enough that a full Algorithm 1 pass clearly dominates an O(E) diff.
TIMELINE_DATASET = "dblp"
TIMELINE_SNAPSHOTS = 24
TIMELINE_CHURN = 0.002
TIMELINE_PASSES = 2
MIN_TIMELINE_SPEEDUP = 2.0

REPEATS = 5
#: The cold comparison resolves a ~1% true difference; it needs more
#: best-of rounds than the order-of-magnitude measurements do.
COLD_REPEATS = 11


def _best_of(fn, repeats: int = REPEATS):
    best = float("inf")
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return result, best


def _best_of_interleaved(fn_a, fn_b, repeats: int = REPEATS):
    """Best-of timing for two contenders, alternating A/B each round.

    Interleaving cancels clock-frequency drift between two sequential
    best-of blocks, which otherwise dominates a sub-100ms comparison.
    Collections are forced between timed regions so the previous
    contender's garbage never lands inside the next measurement.
    """
    fn_a(), fn_b()  # warm allocator / caches outside the timed region
    best_a = best_b = float("inf")
    result_a = result_b = None
    gc_was_enabled = gc.isenabled()
    try:
        for _ in range(repeats):
            gc.collect()
            gc.disable()
            start = time.perf_counter()
            result_a = fn_a()
            best_a = min(best_a, time.perf_counter() - start)
            gc.enable()
            gc.collect()
            gc.disable()
            start = time.perf_counter()
            result_b = fn_b()
            best_b = min(best_b, time.perf_counter() - start)
            gc.enable()
    finally:
        if gc_was_enabled:
            gc.enable()
    return (result_a, best_a), (result_b, best_b)


def _churn_snapshots(graph):
    """>= 20 copies of ``graph`` under small rolling edge churn."""
    working = graph.copy()
    snapshots = []
    for index in range(TIMELINE_SNAPSHOTS):
        removed = random_edge_sample(working, TIMELINE_CHURN, seed=index)
        added = random_non_edges(
            working, len(removed), seed=index, triangle_closing=True
        )
        for u, v in removed:
            working.remove_edge(u, v)
        for u, v in added:
            working.add_edge(u, v)
        snapshots.append(working.copy())
    return snapshots


@pytest.mark.parametrize("path", ["direct", "engine"])
def test_bench_cold_path(benchmark, dataset_loader, path):
    """pytest-benchmark view of the cold decomposition paths."""
    graph = dataset_loader(OVERHEAD_DATASET).graph
    if path == "direct":
        fn = lambda: triangle_kcore_decomposition(graph, backend="reference")
    else:
        fn = lambda: Engine().decompose(
            graph, backend="reference", use_cache=False
        )
    result = benchmark.pedantic(fn, rounds=1, iterations=1)
    assert result.max_kappa >= 0


def test_engine_overhead_report(dataset_loader, benchmark):
    benchmark.pedantic(
        lambda: _engine_overhead_report(dataset_loader), rounds=1, iterations=1
    )


def _engine_overhead_report(dataset_loader):
    graph = dataset_loader(OVERHEAD_DATASET).graph

    # --- cold: engine dispatch + instrumentation vs the direct call ----- #
    (direct_result, direct_seconds), (engine_result, engine_seconds) = (
        _best_of_interleaved(
            lambda: triangle_kcore_decomposition(graph, backend="reference"),
            lambda: Engine().decompose(
                graph, backend="reference", use_cache=False
            ),
            repeats=COLD_REPEATS,
        )
    )
    assert engine_result.kappa == direct_result.kappa
    cold_overhead = engine_seconds / max(direct_seconds, 1e-9) - 1.0

    # --- warm: repeat decomposition served from the version-keyed cache - #
    warm_engine = Engine()
    warm_engine.decompose(graph, backend="reference")
    _, warm_seconds = _best_of(
        lambda: warm_engine.decompose(graph, backend="reference")
    )
    warm_speedup = direct_seconds / max(warm_seconds, 1e-9)
    assert warm_engine.stats.cache_hits >= REPEATS

    # --- timeline: dynamic snapshot strategy vs per-snapshot recompute -- #
    snapshots = _churn_snapshots(dataset_loader(TIMELINE_DATASET).graph)
    assert len(snapshots) >= 20

    reference_seconds = dynamic_seconds = float("inf")
    for _ in range(TIMELINE_PASSES):
        start = time.perf_counter()
        reference_results = [
            triangle_kcore_decomposition(snap, backend="reference")
            for snap in snapshots
        ]
        reference_seconds = min(
            reference_seconds, time.perf_counter() - start
        )

        dynamic_engine = Engine()
        start = time.perf_counter()
        dynamic_results = [
            dynamic_engine.decompose(snap, backend="dynamic", use_cache=False)
            for snap in snapshots
        ]
        dynamic_seconds = min(dynamic_seconds, time.perf_counter() - start)

        for ref, dyn in zip(reference_results, dynamic_results):
            assert ref.kappa == dyn.kappa, "dynamic timeline diverged"
        counters = dynamic_engine.stats.counters
        assert counters["dynamic_cold_starts"] == 1
    timeline_speedup = reference_seconds / max(dynamic_seconds, 1e-9)

    rows = [
        (
            "cold decompose",
            OVERHEAD_DATASET,
            f"{direct_seconds:.4f}",
            f"{engine_seconds:.4f}",
            f"{cold_overhead:+.1%} overhead",
        ),
        (
            "warm cache",
            OVERHEAD_DATASET,
            f"{direct_seconds:.4f}",
            f"{warm_seconds:.6f}",
            f"{warm_speedup:.0f}x speedup",
        ),
        (
            f"timeline x{len(snapshots)}",
            TIMELINE_DATASET,
            f"{reference_seconds:.4f}",
            f"{dynamic_seconds:.4f}",
            f"{timeline_speedup:.2f}x speedup",
        ),
    ]
    lines = format_table(
        ("measurement", "dataset", "baseline(s)", "engine(s)", "verdict"), rows
    )
    lines.append("")
    lines.append(
        f"gates: cold overhead < {MAX_COLD_OVERHEAD:.0%}; timeline "
        f">= {MIN_TIMELINE_SPEEDUP:.0f}x over {len(snapshots)} snapshots "
        f"at {TIMELINE_CHURN:.1%} churn (best-of-{REPEATS} where repeated)"
    )
    write_report("engine_overhead", lines)

    BENCH_JSON.write_text(
        json.dumps(
            {
                "benchmark": "engine_overhead",
                "description": (
                    "repro.engine dispatch/cache/dynamic-strategy costs: "
                    "cold engine vs direct call, warm version-keyed cache, "
                    "and a churn-snapshot timeline via backend='dynamic' "
                    "vs per-snapshot reference recompute"
                ),
                "command": (
                    "PYTHONPATH=src python -m pytest "
                    "benchmarks/bench_engine_overhead.py -q"
                ),
                "smoke": False,
                "host": host_info(),
                "acceptance": {
                    "cold_overhead_max": MAX_COLD_OVERHEAD,
                    "cold_overhead_measured": round(cold_overhead, 4),
                    "timeline_min_speedup": MIN_TIMELINE_SPEEDUP,
                    "timeline_speedup_measured": round(timeline_speedup, 2),
                },
                "cold": {
                    "dataset": OVERHEAD_DATASET,
                    "direct_seconds": round(direct_seconds, 6),
                    "engine_seconds": round(engine_seconds, 6),
                },
                "warm_cache": {
                    "dataset": OVERHEAD_DATASET,
                    "hit_seconds": round(warm_seconds, 9),
                    "speedup": round(warm_speedup, 1),
                },
                "timeline": {
                    "dataset": TIMELINE_DATASET,
                    "snapshots": len(snapshots),
                    "churn_fraction": TIMELINE_CHURN,
                    "reference_seconds": round(reference_seconds, 6),
                    "dynamic_seconds": round(dynamic_seconds, 6),
                    "speedup": round(timeline_speedup, 2),
                    "dynamic_updates": counters.get("dynamic_updates", 0),
                    "dynamic_edges_applied": counters.get(
                        "dynamic_edges_applied", 0
                    ),
                },
            },
            indent=2,
        )
        + "\n",
        encoding="utf-8",
    )

    assert cold_overhead < MAX_COLD_OVERHEAD, (
        f"engine cold path is {cold_overhead:.1%} slower than the direct "
        f"call on {OVERHEAD_DATASET}; dispatch must stay < "
        f"{MAX_COLD_OVERHEAD:.0%}"
    )
    assert timeline_speedup >= MIN_TIMELINE_SPEEDUP, (
        f"dynamic timeline only {timeline_speedup:.2f}x faster than "
        f"per-snapshot recompute; must stay >= {MIN_TIMELINE_SPEEDUP:.0f}x"
    )
