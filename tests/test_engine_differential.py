"""Differential test: the engine's dynamic backend vs per-snapshot recompute.

Reuses the PR 2 workload generators (``repro.testing.workloads``): each
profile's edit script is replayed under shadow semantics and snapshotted
every few ops, producing the kind of snapshot sequence ``backend="dynamic"``
exists for.  The engine must answer every snapshot bit-identically to a
fresh Algorithm 1 run on that snapshot — regardless of profile, churn
level, or the incremental/recompute strategy crossover.
"""

import pytest

from repro.core import DynamicTriangleKCore, triangle_kcore_decomposition
from repro.engine import Engine
from repro.graph import Graph
from repro.testing.editscript import apply_op
from repro.testing.workloads import PROFILES, generate

OPS_PER_PROFILE = 120
SNAPSHOT_EVERY = 15


def snapshot_sequence(profile: str, seed: int):
    """Replay the profile's script from empty, snapshotting periodically."""
    script = generate(profile, seed, OPS_PER_PROFILE)
    working = Graph()
    snapshots = []
    for index, op in enumerate(script, start=1):
        apply_op(working, op)
        if index % SNAPSHOT_EVERY == 0:
            snapshots.append(working.copy())
    return snapshots


@pytest.mark.parametrize("profile", sorted(PROFILES))
@pytest.mark.parametrize("seed", [0, 7])
def test_dynamic_backend_bit_identical_to_recompute(profile, seed):
    snapshots = snapshot_sequence(profile, seed)
    assert len(snapshots) >= 2, "workload too short to exercise diffs"
    engine = Engine()
    for snap in snapshots:
        dynamic = engine.decompose(snap, backend="dynamic", use_cache=False)
        recompute = triangle_kcore_decomposition(snap)
        assert dynamic.kappa == recompute.kappa
        assert dynamic.max_kappa == recompute.max_kappa
    # The sequence genuinely exercised the warm path: one cold start, the
    # rest answered by diff application.
    assert engine.stats.counters["dynamic_cold_starts"] == 1
    assert engine.stats.counters.get("dynamic_updates", 0) >= len(snapshots) - 2


@pytest.mark.parametrize("strategy", DynamicTriangleKCore.STRATEGIES)
def test_every_dynamic_strategy_agrees(strategy):
    """Every accepted strategy, the "batch" alias of "incremental" too."""
    snapshots = snapshot_sequence("churn", 3)
    engine = Engine(dynamic_strategy=strategy)
    for snap in snapshots:
        got = engine.decompose(snap, backend="dynamic", use_cache=False)
        assert got.kappa == triangle_kcore_decomposition(snap).kappa
    assert engine.stats.counters["dynamic_updates"] >= 1
    assert "batch" not in engine.stats_dict()
