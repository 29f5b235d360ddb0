"""Complexity verification — Algorithm 1 is linear in triangles.

The paper claims "the complexity of this algorithm is linear in the number
of triangles in the graph (so it is very fast for sparse graphs)".  This
bench measures runtime across a geometric size sweep of one generator
family and fits the log-log slope of runtime against ``|E| + |Tri|``: a
slope near 1 confirms the linear scaling (pure-Python constants aside).

Run standalone (``make bench-external``) this module also exercises the
out-of-core tier: it streams an R-MAT edge sample roughly 10x the
livejournal stand-in's arc budget straight into :func:`repro.fast.spill_edges`
(no in-RAM graph is ever built), decomposes the spill under a capped
memory budget, and records the peak-RSS delta against the cap in
``BENCH_external.json`` at the repo root.  On hosts that can measure RSS
(stdlib ``resource``) and run the vectorized kernels the cap is a hard
gate (non-zero exit on breach); elsewhere the run is recorded unenforced
with a ``skip_reason``.
"""

from __future__ import annotations

import math
import sys
from pathlib import Path

from repro.core import triangle_kcore_decomposition
from repro.graph import count_triangles, powerlaw_cluster

from common import format_table, host_info, timed, write_report

SIZES = (1000, 2000, 4000, 8000, 16000)

REPO_ROOT = Path(__file__).resolve().parent.parent
BENCH_JSON = REPO_ROOT / "BENCH_external.json"

#: The livejournal stand-in is ``rmat(14, 6)`` — 6 * 2**14 arc samples.
LIVEJOURNAL_STANDIN_ARCS = 6 * (1 << 14)


def test_bench_scaling_largest(benchmark):
    graph = powerlaw_cluster(SIZES[-1], 4, 0.4, seed=5)
    benchmark.pedantic(
        lambda: triangle_kcore_decomposition(graph), rounds=1, iterations=1
    )


def test_scaling_report(benchmark):
    benchmark.pedantic(_scaling_report, rounds=1, iterations=1)


def _scaling_report():
    rows = []
    points = []
    for n in SIZES:
        graph = powerlaw_cluster(n, 4, 0.4, seed=5)
        triangles = count_triangles(graph)
        # Median of 3 runs to tame timer noise on the small sizes.
        samples = sorted(
            timed(lambda: triangle_kcore_decomposition(graph))[1]
            for _ in range(3)
        )
        seconds = samples[1]
        work = graph.num_edges + triangles
        points.append((math.log(work), math.log(seconds)))
        rows.append(
            (
                n,
                graph.num_edges,
                triangles,
                f"{seconds:.4f}",
                f"{seconds / work * 1e6:.2f}",
            )
        )

    # Least-squares slope of log(time) vs log(|E| + |Tri|).
    mean_x = sum(x for x, _ in points) / len(points)
    mean_y = sum(y for _, y in points) / len(points)
    slope = sum((x - mean_x) * (y - mean_y) for x, y in points) / sum(
        (x - mean_x) ** 2 for x, _ in points
    )

    lines = format_table(
        ("|V|", "|E|", "|Tri|", "seconds", "us per (edge+triangle)"),
        rows,
    )
    lines.append("")
    lines.append(f"log-log slope of time vs (|E| + |Tri|): {slope:.2f}")
    lines.append(
        "shape check vs paper SIV-A: slope ~1.0 confirms the linear-in-"
        "triangles complexity claim; the per-unit cost stays flat across "
        "a 16x size sweep."
    )
    write_report("scaling", lines)

    assert 0.7 <= slope <= 1.35, f"non-linear scaling: slope {slope:.2f}"


# --------------------------------------------------------------------- #
# out-of-core bench (standalone: `make bench-external`)
# --------------------------------------------------------------------- #


def stream_rmat_arcs(scale, edge_factor, *, a=0.45, b=0.1833, c=0.1833,
                     seed=73, batch=1 << 15):
    """Yield R-MAT arc samples ``(u, v)`` without ever building a graph.

    Same quadrant-descent recurrence (and livejournal stand-in skew
    parameters) as :func:`repro.graph.generators.rmat`, but emitted as a
    flat stream: dedup, self-loop filtering, and canonicalization are the
    spill builder's job, so the generator's memory footprint is one batch
    of samples regardless of scale.  Falls back to a scalar walk when
    numpy is unavailable.
    """
    total = edge_factor * (1 << scale)
    try:
        import numpy as np
    except ImportError:
        np = None
    if np is None:
        import random

        rng = random.Random(seed)
        thresholds = (a, a + b, a + b + c)
        for _ in range(total):
            u = v = 0
            for _bit in range(scale):
                draw = rng.random()
                quadrant = sum(draw >= t for t in thresholds)
                u = (u << 1) | ((quadrant >> 1) & 1)
                v = (v << 1) | (quadrant & 1)
            yield u, v
        return
    rng = np.random.default_rng(seed)
    thresholds = np.array([a, a + b, a + b + c])
    weights = 1 << np.arange(scale - 1, -1, -1)
    emitted = 0
    while emitted < total:
        size = min(batch, total - emitted)
        quadrant = np.searchsorted(thresholds, rng.random((size, scale)))
        us = (((quadrant >> 1) & 1) * weights).sum(axis=1)
        vs = ((quadrant & 1) * weights).sum(axis=1)
        emitted += size
        yield from zip(us.tolist(), vs.tolist())


def _maxrss_bytes():
    """Peak RSS in bytes, or None where it cannot be measured.

    Prefers ``VmHWM`` from ``/proc/self/status``: unlike ``ru_maxrss``
    (which survives execve on Linux, so a process spawned by a large
    parent starts with the parent's high-water mark), it belongs to this
    process's own address space.
    """
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) * 1024
    except OSError:
        pass
    try:
        import resource
    except ImportError:
        return None
    value = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return int(value) if sys.platform == "darwin" else int(value) * 1024


def run_external_bench(*, scale, edge_factor, budget, spill_dir=None,
                       smoke=False):
    """Stream -> spill -> decompose under ``budget``; return the record.

    The record names the host it ran on and whether it was a ``--smoke``
    run, like every other ``BENCH_*.json``.
    """
    import json
    import shutil
    import tempfile

    from repro.fast.external import decompose_spill, spill_edges

    try:
        import numpy  # noqa: F401
        have_numpy = True
    except ImportError:
        have_numpy = False

    num_vertices = 1 << scale
    arcs = edge_factor * num_vertices
    record = {
        "dataset": f"rmat-{scale}-{edge_factor} (livejournal stand-in skew)",
        "arcs_streamed": arcs,
        "target_arc_ratio": round(arcs / LIVEJOURNAL_STANDIN_ARCS, 2),
        "budget_bytes": budget,
        "enforced": False,
        "skip_reason": None,
        "smoke": smoke,
        "host": host_info(),
    }
    baseline = _maxrss_bytes()
    owns_dir = spill_dir is None
    spill = spill_dir or tempfile.mkdtemp(prefix="repro-bench-spill-")
    try:
        ext = spill_edges(
            stream_rmat_arcs(scale, edge_factor), num_vertices, spill
        )
        try:
            _, seconds = timed(
                lambda: decompose_spill(
                    ext, memory_budget=budget, decode=False
                )
            )
            record["edges"] = ext.csr.num_edges
            record["seconds"] = round(seconds, 3)
            record["in_ram_estimate_bytes"] = (
                48 * ext.csr.num_edges + 16 * ext.csr.num_vertices + 8
            )
        finally:
            ext.close()
    except MemoryError:
        record["skip_reason"] = (
            "MemoryError: host cannot allocate the generator input"
        )
    finally:
        if owns_dir:
            shutil.rmtree(spill, ignore_errors=True)
    peak = _maxrss_bytes()
    if record["skip_reason"] is None:
        if baseline is None or peak is None:
            record["skip_reason"] = (
                "stdlib 'resource' unavailable: RSS high-water unmeasurable"
            )
        elif not have_numpy:
            record["peak_delta_bytes"] = peak - baseline
            record["skip_reason"] = (
                "numpy unavailable: pure-python run recorded, cap unenforced"
            )
        else:
            record["peak_delta_bytes"] = peak - baseline
            record["enforced"] = True
    BENCH_JSON.write_text(
        json.dumps(record, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    lines = [f"{key}: {value}" for key, value in sorted(record.items())]
    write_report("external", lines)
    return record


def main(argv=None):
    import argparse

    from repro.cli import _parse_size

    parser = argparse.ArgumentParser(
        description="out-of-core decomposition under a capped RSS budget"
    )
    parser.add_argument("--scale", type=int, default=17,
                        help="R-MAT scale (2**scale vertices)")
    parser.add_argument("--edge-factor", type=int, default=8)
    parser.add_argument("--budget", type=_parse_size, default="256M",
                        metavar="BYTES", help="memory budget (K/M/G ok)")
    parser.add_argument("--spill-dir", default=None, metavar="DIR")
    parser.add_argument(
        "--smoke", action="store_true",
        help="tiny instance: exercises the plumbing, not the cap",
    )
    args = parser.parse_args(argv)
    scale, edge_factor = args.scale, args.edge_factor
    if args.smoke:
        scale, edge_factor = 11, 6
    record = run_external_bench(
        scale=scale, edge_factor=edge_factor,
        budget=args.budget, spill_dir=args.spill_dir, smoke=args.smoke,
    )
    if record["skip_reason"] is not None:
        print(f"cap unenforced: {record['skip_reason']}")
        return 0
    delta = record["peak_delta_bytes"]
    if delta > record["budget_bytes"]:
        print(
            f"FAIL: peak RSS delta {delta} exceeds budget "
            f"{record['budget_bytes']}"
        )
        return 1
    print(
        f"ok: peak RSS delta {delta} <= budget {record['budget_bytes']} "
        f"({record['edges']} edges)"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())