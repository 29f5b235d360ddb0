"""Ablation — where does incremental maintenance stop paying off?

Table III fixes churn at 1%.  This sweep varies the churn fraction to
locate the crossovers among the three write strategies — per-op
incremental repairs, the batched single affected-region pass, and a
full Algorithm 1 recompute — the measurement behind the ``auto``
strategy's churn threshold (``AUTO_RECOMPUTE_CHURN`` in
``repro.core.dynamic``).

Two recompute columns: ``recompute(s)`` is a bare Algorithm 1 run on the
edited graph, and ``apply-rc(s)`` is ``apply(strategy="recompute")``,
which also pays the structural edits, the kappa-map copy and the change
count.  ``auto`` chooses between per-op repair and the latter, so the
``auto`` column names its pick at each level and flags (``!``) a level
where that pick is the slower of the two.  Every arm is timed as the
best of ``REPEATS`` runs from a fresh copy of the graph.
"""

from __future__ import annotations

import time

import pytest

from repro.baselines import RecomputeBaseline
from repro.core import DynamicTriangleKCore
from repro.graph import random_edge_sample, random_non_edges

from common import format_table, write_report

FRACTIONS = (0.001, 0.01, 0.05, 0.10, 0.15, 0.20)
#: Best-of repeats for every timed arm.
REPEATS = 3
DATASET = "epinions"


@pytest.mark.parametrize("fraction", FRACTIONS)
def test_bench_update_at_churn(benchmark, dataset_loader, fraction):
    graph = dataset_loader(DATASET).graph
    removed = random_edge_sample(graph, fraction / 2, seed=5)
    added = random_non_edges(graph, len(removed), seed=6, triangle_closing=True)

    def setup():
        return (DynamicTriangleKCore(graph),), {}

    benchmark.pedantic(
        lambda maintainer: maintainer.apply(added=added, removed=removed),
        setup=setup,
        rounds=1,
        iterations=1,
    )


def test_ablation_churn_report(dataset_loader, benchmark):
    benchmark.pedantic(lambda: _ablation_churn_report(dataset_loader), rounds=1, iterations=1)


def _best_apply(graph, added, removed, strategy=None):
    """Fastest of ``REPEATS`` fresh ``apply`` calls: (seconds, kappa).

    ``strategy=None`` times ``RecomputeBaseline``'s bare decomposition.
    """
    best = None
    for _ in range(REPEATS):
        if strategy is None:
            arm = RecomputeBaseline(graph)
            seconds = arm.apply(added=added, removed=removed).seconds
        else:
            arm = DynamicTriangleKCore(graph)
            start = time.perf_counter()
            arm.apply(added=added, removed=removed, strategy=strategy)
            seconds = time.perf_counter() - start
        best = seconds if best is None else min(best, seconds)
    return best, arm.kappa


def _ablation_churn_report(dataset_loader):
    graph = dataset_loader(DATASET).graph
    rows = []
    incremental_crossover = None
    batch_crossover = None
    apply_crossover = None
    auto_misses = []
    for fraction in FRACTIONS:
        removed = random_edge_sample(graph, fraction / 2, seed=5)
        added = random_non_edges(
            graph, len(removed), seed=6, triangle_closing=True
        )

        update_seconds, update_kappa = _best_apply(
            graph, added, removed, "incremental"
        )
        apply_rc_seconds, apply_rc_kappa = _best_apply(
            graph, added, removed, "recompute"
        )
        assert apply_rc_kappa == update_kappa

        batch_seconds, batch_kappa = _best_apply(
            graph, added, removed, "batch"
        )
        assert batch_kappa == update_kappa
        recompute_seconds, recompute_kappa = _best_apply(graph, added, removed)
        assert update_kappa == recompute_kappa

        speedup = recompute_seconds / max(update_seconds, 1e-9)
        batch_speedup = recompute_seconds / max(batch_seconds, 1e-9)
        if speedup < 1 and incremental_crossover is None:
            incremental_crossover = fraction
        if batch_speedup < 1 and batch_crossover is None:
            batch_crossover = fraction
        apply_speedup = apply_rc_seconds / max(update_seconds, 1e-9)
        if apply_speedup < 1 and apply_crossover is None:
            apply_crossover = fraction
        churn = (len(added) + len(removed)) / graph.num_edges
        picks_recompute = churn >= DynamicTriangleKCore.AUTO_RECOMPUTE_CHURN
        if picks_recompute != (apply_rc_seconds < update_seconds):
            auto_misses.append(fraction)
        auto = "recompute" if picks_recompute else "per-op"
        if fraction in auto_misses:
            auto += " !"
        rows.append(
            (
                f"{fraction:.1%}",
                len(added) + len(removed),
                f"{recompute_seconds:.4f}",
                f"{update_seconds:.4f}",
                f"{speedup:.1f}x",
                f"{batch_seconds:.4f}",
                f"{batch_speedup:.1f}x",
                f"{apply_rc_seconds:.4f}",
                f"{apply_speedup:.1f}x",
                auto,
            )
        )
    lines = format_table(
        (
            "churn", "edges changed", "recompute(s)",
            "per-op(s)", "x", "batch(s)", "x",
            "apply-rc(s)", "x", "auto",
        ),
        rows,
    )
    lines.append("")

    def describe(name, crossover):
        if crossover is None:
            return f"{name}: beats recompute at every churn level swept"
        return f"{name}: loses to recompute above ~{crossover:.1%} churn"

    lines.append(describe("per-op incremental", incremental_crossover))
    lines.append(describe("batch", batch_crossover))
    lines.append(
        describe("per-op vs apply(strategy='recompute')", apply_crossover)
    )
    lines.append(
        f"auto (AUTO_RECOMPUTE_CHURN="
        f"{DynamicTriangleKCore.AUTO_RECOMPUTE_CHURN:g}): "
        + (
            "picks the faster of per-op and apply-rc at every level"
            if not auto_misses
            else "picks the slower arm at "
            + ", ".join(f"{f:.1%}" for f in auto_misses)
        )
    )
    lines.append(
        "shape: the paper's 1% regime is deep inside per-op territory "
        "for scattered edits; the batch path's wins are on coalesced "
        "bursty streams (see bench_batch_update), and auto's recompute "
        "tier (AUTO_RECOMPUTE_CHURN) covers everything above the "
        "crossover."
    )
    write_report("ablation_churn", lines)

    # At the paper's 1% the per-op path must win clearly; the batch
    # path must at least win in the near-static regime (0.1%), where
    # its per-cluster regions collapse to per-op size.
    one_percent = rows[1]
    assert float(one_percent[2]) > float(one_percent[3])
    near_static = rows[0]
    assert float(near_static[2]) > float(near_static[5])
