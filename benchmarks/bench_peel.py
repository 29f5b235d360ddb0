"""Peel executors — scalar bucket-queue vs vectorized level-synchronous.

Times Algorithm 1's peel stage (L3 only: the ``(supports, tri_edges)``
input is computed once per graph and reused by both executors, so the
comparison isolates the executor seam) on the larger Table II sweep
datasets and on a triangle-dense relaxed caveman graph, where the peel is
the largest layer of a decomposition.  Each executor gets exactly what
``supports_and_triangles`` returns (int64 arrays with numpy), so any
conversion it needs is inside its time.  Kappa maps are asserted identical
along the way.  Two artifacts:

* ``benchmarks/results/peel_executors.txt`` — human-readable table;
* ``BENCH_peel.json`` at the repo root — the machine-readable record CI
  uploads, with a ``host`` block and a ``smoke`` flag.

Acceptance gate (ISSUE 8): the vector executor must be >= 1.5x faster
than the scalar one on the largest Table II graph *when numpy is
present* (the batched-decrement win is numpy's; the pure fallback exists
for availability, not speed).  Without numpy the speedup is recorded
with ``"enforced": false`` so the trajectory stays visible.

Run stand-alone (no pytest) with ``python benchmarks/bench_peel.py
[--smoke]``; ``--smoke`` does one timing pass instead of best-of-3.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

from common import SWEEP_DATASETS, format_table, host_info, write_report

REPO_ROOT = Path(__file__).parent.parent
BENCH_JSON = REPO_ROOT / "BENCH_peel.json"

#: The largest Table II stand-in — the acceptance-gate dataset.
GATE_DATASET = SWEEP_DATASETS[-1]
#: Datasets timed: the level-synchronous executor only wins where each
#: frontier is wide enough to amortize the array passes, so the sweep
#: includes one graph below the crossover (dblp) on purpose.
BENCH_DATASETS = [SWEEP_DATASETS[3], SWEEP_DATASETS[-2], GATE_DATASET]
#: The triangle-dense row: 400 caves of 20 (m≈76k, T≈330k), the shape of
#: the repo benchmark's decompose-cave graph.
CAVEMAN_ARGS = (400, 20, 0.1)
CAVEMAN_NAME = "caveman(400,20,0.1)"
MIN_SPEEDUP = 1.5
REPEATS = 3


def _best_of(fn, repeats):
    best = float("inf")
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return result, best


def _graphs(get_dataset):
    from repro.graph.generators import relaxed_caveman

    for name in BENCH_DATASETS:
        yield name, get_dataset(name).graph
    yield CAVEMAN_NAME, relaxed_caveman(*CAVEMAN_ARGS, seed=1)


def _peel_report(get_dataset, repeats=REPEATS, smoke=False):
    from repro.fast import CSRGraph, run_peel, supports_and_triangles
    from repro.fast import csr as csr_mod

    has_numpy = csr_mod.np is not None
    rows = []
    json_rows = []
    for name, graph in _graphs(get_dataset):
        csr = CSRGraph.from_graph(graph)
        supports, tri_edges = supports_and_triangles(csr)
        m = csr.num_edges

        scalar, scalar_seconds = _best_of(
            lambda: run_peel(m, supports, tri_edges, executor="scalar"),
            repeats,
        )
        stats: dict = {}
        vector, vector_seconds = _best_of(
            lambda: run_peel(
                m, supports, tri_edges, executor="vector", stats=stats
            ),
            repeats,
        )
        assert vector[0] == scalar[0], f"kappa mismatch on {name}"
        speedup = scalar_seconds / max(vector_seconds, 1e-9)
        json_rows.append(
            {
                "dataset": name,
                "vertices": graph.num_vertices,
                "edges": m,
                "triangles": len(tri_edges) // 3,
                "scalar_seconds": round(scalar_seconds, 6),
                "vector_seconds": round(vector_seconds, 6),
                "speedup": round(speedup, 2),
                "levels": stats["levels"],
                "batched_decrements": stats["batched_decrements"],
                "bound_skips": stats["bound_skips"],
            }
        )
        rows.append(
            (
                name,
                graph.num_vertices,
                m,
                f"{scalar_seconds:.4f}",
                f"{vector_seconds:.4f}",
                f"{speedup:.2f}x",
                stats["levels"],
            )
        )

    lines = format_table(
        ("dataset", "|V|", "|E|", "scalar(s)", "vector(s)", "speedup",
         "levels"),
        rows,
    )
    lines.append("")
    gate_state = "ENFORCED" if has_numpy else "recorded only (no numpy)"
    lines.append(
        f"gate: vector >= {MIN_SPEEDUP}x over scalar on {GATE_DATASET}; "
        f"numpy {'present' if has_numpy else 'absent'}, gate {gate_state}; "
        f"best-of-{repeats} wall clocks"
    )
    write_report("peel_executors", lines)

    gate_row = next(r for r in json_rows if r["dataset"] == GATE_DATASET)
    measured = gate_row["speedup"]
    BENCH_JSON.write_text(
        json.dumps(
            {
                "benchmark": "peel_executors",
                "description": (
                    "Algorithm 1 peel stage: scalar bucket-queue walk vs "
                    "vectorized level-synchronous executor "
                    f"(best-of-{repeats} wall clock, seconds)"
                ),
                "command": "PYTHONPATH=src python benchmarks/bench_peel.py",
                "smoke": smoke,
                "host": host_info(),
                "acceptance": {
                    "dataset": GATE_DATASET,
                    "min_speedup": MIN_SPEEDUP,
                    "measured_speedup": measured,
                    "enforced": has_numpy,
                    "numpy": has_numpy,
                },
                "rows": json_rows,
            },
            indent=2,
        )
        + "\n",
        encoding="utf-8",
    )

    if has_numpy:
        assert measured >= MIN_SPEEDUP, (
            f"vector executor only {measured:.2f}x faster than scalar on "
            f"{GATE_DATASET}; the level-synchronous peel must stay >= "
            f"{MIN_SPEEDUP}x with numpy present"
        )
    return measured


def test_peel_executor_report(dataset_loader, benchmark):
    benchmark.pedantic(
        lambda: _peel_report(dataset_loader), rounds=1, iterations=1
    )


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="single timing pass per cell instead of best-of-3",
    )
    args = parser.parse_args(argv)

    from repro.datasets import load

    cache = {}

    def get(name):
        if name not in cache:
            cache[name] = load(name)
        return cache[name]

    measured = _peel_report(
        get, repeats=1 if args.smoke else REPEATS, smoke=args.smoke
    )
    print(f"\nBENCH_peel.json written; gate speedup {measured:.2f}x")
    return 0


if __name__ == "__main__":
    sys.exit(main())
