"""Backend kernels — reference (dict) vs CSR (flat-array) speedups.

Times the static Triangle K-Core decomposition and triangle counting with
``backend="reference"`` and ``backend="csr"`` across the Table II sweep
datasets, asserting identical kappa maps along the way.  Two artifacts are
written:

* ``benchmarks/results/backend_kernels.txt`` — the human-readable table;
* ``BENCH_kernels.json`` at the repo root — the machine-readable perf
  trajectory baseline later perf PRs compare against, with a ``host``
  block naming the machine it ran on.

Acceptance gate: the CSR backend must be >= 3x faster than the reference
on the largest synthetic Table II graph.

The executor sweep (``executor_sweep`` in the JSON) is the evidence for the
``auto`` tiering in :mod:`repro.fast`: ``Engine.decompose`` with ``csr``
(scalar peel) vs ``csr-vec`` (vector peel) on R-MAT and relaxed-caveman
graphs from m≈1k to m≈100k edges.  Its gate: on every row, the backend
``auto`` resolves to is within 10% of the faster of the two.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import time
from pathlib import Path

import pytest

from repro.core import triangle_kcore_decomposition
from repro.engine import Engine
from repro.graph.generators import relaxed_caveman, rmat
from repro.graph.triangles import count_triangles

from common import SWEEP_DATASETS, format_table, write_report

REPO_ROOT = Path(__file__).parent.parent
BENCH_JSON = REPO_ROOT / "BENCH_kernels.json"

#: The largest synthetic Table II graph — the acceptance-gate dataset.
LARGEST_DATASET = SWEEP_DATASETS[-1]
MIN_SPEEDUP_LARGEST = 3.0
REPEATS = 3

#: ``(family, generator args)`` of the csr vs csr-vec sweep, m≈1k..100k:
#: R-MAT at edge factor 6 (the LiveJournal stand-in's shape) and relaxed
#: caves of 20 (the clique-rich regime the paper targets).
EXECUTOR_SWEEP = (
    ("rmat", (8, 6)),
    ("rmat", (10, 6)),
    ("rmat", (12, 6)),
    ("rmat", (14, 6)),
    ("caveman", (6, 20, 0.1)),
    ("caveman", (25, 20, 0.1)),
    ("caveman", (100, 20, 0.1)),
    ("caveman", (500, 20, 0.1)),
)
SWEEP_REPEATS = 5
#: The tiering gate: auto's pick may be at most this much slower than the
#: faster in-RAM backend on a sweep row.
AUTO_TOLERANCE = 1.10


def _best_of(fn, repeats: int = REPEATS):
    """Run ``fn`` ``repeats`` times; return (last result, best seconds)."""
    best = float("inf")
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return result, best


@pytest.mark.parametrize("backend", ["reference", "csr"])
@pytest.mark.parametrize("name", SWEEP_DATASETS)
def test_bench_backend(benchmark, dataset_loader, name, backend):
    """pytest-benchmark timing of Algorithm 1 per dataset and backend."""
    graph = dataset_loader(name).graph
    result = benchmark.pedantic(
        lambda: triangle_kcore_decomposition(graph, backend=backend),
        rounds=1,
        iterations=1,
    )
    assert result.max_kappa >= 0


def _host() -> dict:
    """Where the numbers came from: commit, CPUs, interpreter, numpy."""
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=REPO_ROOT,
            capture_output=True,
            text=True,
            check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        sha = None
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "git_sha": sha,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "machine": platform.machine(),
    }


def _sweep_graph(family: str, args: tuple):
    if family == "rmat":
        return rmat(*args, seed=1)
    return relaxed_caveman(*args, seed=1)


def _executor_sweep():
    """csr vs csr-vec through ``Engine.decompose``, interleaved per round."""
    engine = Engine(max_cached_graphs=0)
    rows = []
    for family, args in EXECUTOR_SWEEP:
        graph = _sweep_graph(family, args)
        best = {"csr": float("inf"), "csr-vec": float("inf")}
        answers = {}
        for _ in range(SWEEP_REPEATS):
            for backend in best:
                start = time.perf_counter()
                answers[backend] = engine.decompose(graph, backend=backend)
                best[backend] = min(best[backend], time.perf_counter() - start)
        assert answers["csr"].kappa == answers["csr-vec"].kappa, (
            f"kappa mismatch on {family}{args}"
        )
        auto = engine.resolve("auto", graph)
        rows.append(
            {
                "graph": f"{family}{args}",
                "vertices": graph.num_vertices,
                "edges": graph.num_edges,
                "csr_seconds": round(best["csr"], 6),
                "csr_vec_seconds": round(best["csr-vec"], 6),
                "csr_vec_speedup": round(best["csr"] / best["csr-vec"], 2),
                "auto": auto,
                "auto_vs_best": round(best[auto] / min(best.values()), 3),
            }
        )
    return rows


def test_backend_kernels_report(dataset_loader, benchmark):
    benchmark.pedantic(
        lambda: _backend_kernels_report(dataset_loader), rounds=1, iterations=1
    )


def _backend_kernels_report(dataset_loader):
    rows = []
    json_rows = []
    for name in SWEEP_DATASETS:
        graph = dataset_loader(name).graph
        reference, ref_seconds = _best_of(
            lambda: triangle_kcore_decomposition(graph, backend="reference")
        )
        fast, csr_seconds = _best_of(
            lambda: triangle_kcore_decomposition(graph, backend="csr")
        )
        assert fast.kappa == reference.kappa, f"kappa mismatch on {name}"
        triangles = count_triangles(graph, backend="csr")
        speedup = ref_seconds / max(csr_seconds, 1e-9)
        rows.append(
            (
                name,
                graph.num_vertices,
                graph.num_edges,
                triangles,
                f"{ref_seconds:.4f}",
                f"{csr_seconds:.4f}",
                f"{speedup:.2f}x",
            )
        )
        json_rows.append(
            {
                "dataset": name,
                "vertices": graph.num_vertices,
                "edges": graph.num_edges,
                "triangles": triangles,
                "reference_seconds": round(ref_seconds, 6),
                "csr_seconds": round(csr_seconds, 6),
                "speedup": round(speedup, 2),
            }
        )

    lines = format_table(
        ("dataset", "|V|", "|E|", "|Tri|", "reference(s)", "csr(s)", "speedup"),
        rows,
    )
    lines.append("")
    lines.append(
        f"gate: csr >= {MIN_SPEEDUP_LARGEST:.0f}x on {LARGEST_DATASET} "
        f"(largest Table II graph); best-of-{REPEATS} wall clocks"
    )
    sweep = _executor_sweep()
    lines.append("")
    lines.extend(
        format_table(
            ("graph", "|V|", "|E|", "csr(s)", "csr-vec(s)", "speedup", "auto"),
            [
                (
                    r["graph"],
                    r["vertices"],
                    r["edges"],
                    f"{r['csr_seconds']:.4f}",
                    f"{r['csr_vec_seconds']:.4f}",
                    f"{r['csr_vec_speedup']:.2f}x",
                    r["auto"],
                )
                for r in sweep
            ],
        )
    )
    lines.append("")
    lines.append(
        f"executor sweep: Engine.decompose best-of-{SWEEP_REPEATS}, csr and "
        f"csr-vec interleaved; gate: auto's pick within "
        f"{AUTO_TOLERANCE:.2f}x of the faster on every row"
    )
    write_report("backend_kernels", lines)

    largest = next(r for r in json_rows if r["dataset"] == LARGEST_DATASET)
    BENCH_JSON.write_text(
        json.dumps(
            {
                "benchmark": "backend_kernels",
                "description": (
                    "Algorithm 1 static decomposition: dict-based reference "
                    "backend vs repro.fast CSR flat-array kernels "
                    f"(best-of-{REPEATS} wall clock, seconds)"
                ),
                "command": (
                    "PYTHONPATH=src python -m pytest "
                    "benchmarks/bench_backend_kernels.py -q"
                ),
                "smoke": False,
                "host": _host(),
                "acceptance": {
                    "dataset": LARGEST_DATASET,
                    "min_speedup": MIN_SPEEDUP_LARGEST,
                    "measured_speedup": largest["speedup"],
                },
                "rows": json_rows,
                "executor_sweep": {
                    "description": (
                        "Engine.decompose with csr (scalar peel) vs csr-vec "
                        f"(vector peel), best-of-{SWEEP_REPEATS} seconds, "
                        "interleaved; auto is the backend the auto policy "
                        "resolves to"
                    ),
                    "auto_tolerance": AUTO_TOLERANCE,
                    "rows": sweep,
                },
            },
            indent=2,
        )
        + "\n",
        encoding="utf-8",
    )

    assert largest["speedup"] >= MIN_SPEEDUP_LARGEST, (
        f"csr backend only {largest['speedup']:.2f}x faster than reference "
        f"on {LARGEST_DATASET}; the kernel layer must stay >= "
        f"{MIN_SPEEDUP_LARGEST:.0f}x"
    )
    slow = [r for r in sweep if r["auto_vs_best"] > AUTO_TOLERANCE]
    assert not slow, f"auto picks a slower in-RAM backend on {slow}"
