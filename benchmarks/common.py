"""Shared infrastructure for the benchmark harness.

Every benchmark regenerates one of the paper's tables or figures.  Besides
the pytest-benchmark timings, each bench writes a human-readable report
(the paper-style rows) under ``benchmarks/results/`` so EXPERIMENTS.md can
reference concrete numbers.
"""

from __future__ import annotations

import os
import platform
import subprocess
import time
from pathlib import Path
from typing import Callable, Iterable, List, Sequence, Tuple

RESULTS_DIR = Path(__file__).parent / "results"

#: Datasets used in Table II / Table III sweeps, smallest first.  CSV and
#: the DN-Graph variants are only run on the prefix (the paper could not
#: run them on its largest graphs either).
SWEEP_DATASETS = [
    "synthetic",
    "stocks",
    "ppi",
    "dblp",
    "astro",
    "epinions",
    "amazon",
    "wiki",
    "flickr",
    "livejournal",
]
CSV_CAPABLE = {"synthetic", "stocks", "ppi", "dblp"}
DNGRAPH_CAPABLE = {"synthetic", "stocks", "ppi", "dblp", "astro", "epinions"}
#: The five largest, as in Table III.
UPDATE_DATASETS = ["astro", "epinions", "amazon", "wiki", "flickr", "livejournal"]


def host_info() -> dict:
    """Where the numbers came from: commit, CPUs, interpreter, numpy."""
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=Path(__file__).parent.parent,
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


def write_report(name: str, lines: Iterable[str]) -> Path:
    """Write (and echo) a report file; returns its path."""
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    path = RESULTS_DIR / f"{name}.txt"
    text = "\n".join(lines)
    path.write_text(text + "\n", encoding="utf-8")
    print(f"\n--- {name} ---")
    print(text)
    return path


def timed(fn: Callable[[], object]) -> Tuple[object, float]:
    """Run ``fn`` once, returning (result, seconds)."""
    start = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - start


def format_table(headers: Sequence[str], rows: Sequence[Sequence[object]]) -> List[str]:
    """Simple fixed-width table formatting for the report files."""
    columns = [
        [str(h)] + [str(row[i]) for row in rows] for i, h in enumerate(headers)
    ]
    widths = [max(len(cell) for cell in col) for col in columns]
    lines = []
    header = "  ".join(h.ljust(w) for h, w in zip(headers, widths))
    lines.append(header)
    lines.append("-" * len(header))
    for row in rows:
        lines.append(
            "  ".join(str(cell).ljust(w) for cell, w in zip(row, widths))
        )
    return lines
