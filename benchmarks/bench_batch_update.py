"""Batched maintenance — one affected-region pass vs per-op repairs.

Replays the PR 2 fuzz workloads (``triangle_bursts`` and ``churn``)
through the dynamic maintainer twice: once with the status-quo write
path (every op applied individually through the per-edge repair), and
once with the batched path end to end (chunks of ``batch_ops`` ops,
each :func:`~repro.testing.coalesce`-d and applied with the single
affected-region pass, ``strategy="batch"`` — coalescing cost included).
Final kappa maps are asserted bit-identical to each other and to a
fresh Algorithm 1 run.

Two artifacts are written:

* ``benchmarks/results/batch_update.txt`` — the human-readable table;
* ``BENCH_batch_update.json`` at the repo root — the machine-readable
  record CI uploads.

Acceptance gate (ISSUE 6): ``strategy="batch"`` must be >= 5x faster
than per-op application on both profiles at the gate batch size.  The
gate is single-core, so it is enforced on every host.

Run stand-alone (no pytest) with ``python benchmarks/bench_batch_update.py
[--smoke]``; ``--smoke`` shrinks the workload and does one timing pass
instead of best-of-3.  The gate is still enforced in smoke mode — the
speedup only grows with workload size, so the smoke run is the harder
test.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

from common import format_table, write_report

REPO_ROOT = Path(__file__).parent.parent
BENCH_JSON = REPO_ROOT / "BENCH_batch_update.json"

GATE_PROFILES = ("triangle_bursts", "churn")
FULL_OPS, SMOKE_OPS = 2000, 600
#: The gate batch size matches the service's edit-stream regime
#: (BENCH_service replays ~2.7k ops); the smaller size is recorded so
#: the crossover trajectory stays visible but is not gated — at 50 ops
#: per chunk the churn profile's win is real (~5x) yet too close to the
#: bar for a hard single-run assertion.
GATE_BATCH_OPS = 200
BATCH_SIZES = (50, 200)
MIN_SPEEDUP = 5.0
REPEATS = 3
SEED = 0


def _per_op_seconds(script):
    """The status-quo write path: every op applied individually."""
    from repro.core import DynamicTriangleKCore
    from repro.graph import Graph
    from repro.testing import expected_outcome

    maintainer = DynamicTriangleKCore(Graph(), copy=False)
    start = time.perf_counter()
    for op in script:
        if expected_outcome(maintainer.graph, op) != "ok":
            continue
        if op.kind == "add":
            maintainer.add_edge(op.u, op.v)
        elif op.kind == "remove":
            maintainer.remove_edge(op.u, op.v)
        elif op.kind == "add_vertex":
            maintainer.add_vertex(op.u)
        else:
            maintainer.remove_vertex(op.u)
    return maintainer, time.perf_counter() - start


def _batch_seconds(script, batch_ops):
    """The batched path end to end: coalesce each chunk, one region pass."""
    from repro.core import DynamicTriangleKCore
    from repro.graph import Graph
    from repro.testing import EditScript, apply_coalesced, coalesce

    maintainer = DynamicTriangleKCore(Graph(), copy=False)
    start = time.perf_counter()
    for begin in range(0, len(script), batch_ops):
        chunk = EditScript(ops=script.ops[begin:begin + batch_ops])
        co = coalesce(maintainer.graph, chunk)
        apply_coalesced(maintainer, co, strategy="batch")
    return maintainer, time.perf_counter() - start


def _best_of(fn, repeats):
    best = float("inf")
    result = None
    for _ in range(repeats):
        result, seconds = fn()
        best = min(best, seconds)
    return result, best


def _batch_update_report(ops, repeats=REPEATS):
    from repro.core import triangle_kcore_decomposition
    from repro.testing import generate

    json_rows = []
    table_rows = []
    gate_speedups = {}
    for profile in GATE_PROFILES:
        script = generate(profile, SEED, ops)
        per_op, per_op_seconds = _best_of(
            lambda: _per_op_seconds(script), repeats
        )
        reference = triangle_kcore_decomposition(per_op.graph).kappa
        assert per_op.kappa == reference, (
            f"per-op diverged from Algorithm 1 on {profile}"
        )
        for batch_ops in BATCH_SIZES:
            batch, batch_seconds = _best_of(
                lambda: _batch_seconds(script, batch_ops), repeats
            )
            assert per_op.kappa == batch.kappa, (
                f"batch diverged from per-op on {profile}"
            )
            assert per_op.graph == batch.graph
            speedup = per_op_seconds / max(batch_seconds, 1e-9)
            if batch_ops == GATE_BATCH_OPS:
                gate_speedups[profile] = round(speedup, 2)
            json_rows.append(
                {
                    "profile": profile,
                    "ops": ops,
                    "batch_ops": batch_ops,
                    "final_edges": per_op.graph.num_edges,
                    "per_op_seconds": round(per_op_seconds, 6),
                    "batch_seconds": round(batch_seconds, 6),
                    "speedup": round(speedup, 2),
                }
            )
            table_rows.append(
                (
                    profile,
                    ops,
                    batch_ops,
                    f"{per_op_seconds:.4f}",
                    f"{batch_seconds:.4f}",
                    f"{speedup:.1f}x",
                )
            )

    lines = format_table(
        ("profile", "ops", "batch", "per-op(s)", "batch(s)", "speedup"),
        table_rows,
    )
    lines.append("")
    lines.append(
        f"gate: batch >= {MIN_SPEEDUP}x over per-op at batch_ops="
        f"{GATE_BATCH_OPS} on both profiles (single-core, ENFORCED); "
        f"measured {gate_speedups}"
    )
    write_report("batch_update", lines)

    BENCH_JSON.write_text(
        json.dumps(
            {
                "benchmark": "batch_update",
                "description": (
                    "Dynamic maintenance write path: per-op incremental "
                    "repairs vs coalesce + one affected-region pass per "
                    "edit batch (wall clock, seconds)"
                ),
                "command": (
                    "PYTHONPATH=src python benchmarks/bench_batch_update.py"
                ),
                "acceptance": {
                    "profiles": list(GATE_PROFILES),
                    "batch_ops": GATE_BATCH_OPS,
                    "min_speedup": MIN_SPEEDUP,
                    "measured_speedups": gate_speedups,
                    "enforced": True,
                },
                "rows": json_rows,
            },
            indent=2,
        )
        + "\n",
        encoding="utf-8",
    )

    for profile, speedup in gate_speedups.items():
        assert speedup >= MIN_SPEEDUP, (
            f"batch only {speedup:.2f}x faster than per-op on {profile} "
            f"at batch_ops={GATE_BATCH_OPS}; the single affected-region "
            f"pass must stay >= {MIN_SPEEDUP}x"
        )
    return gate_speedups


def test_batch_update_report(benchmark):
    benchmark.pedantic(
        lambda: _batch_update_report(FULL_OPS), rounds=1, iterations=1
    )


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help=f"shorter workload ({SMOKE_OPS} ops instead of {FULL_OPS})",
    )
    args = parser.parse_args(argv)
    speedups = _batch_update_report(
        SMOKE_OPS if args.smoke else FULL_OPS,
        repeats=1 if args.smoke else REPEATS,
    )
    print(f"\nBENCH_batch_update.json written; gate speedups {speedups}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
