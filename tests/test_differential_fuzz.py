"""Differential oracle fuzzing of dynamic kappa maintenance.

Three layers:

* a **tier-1 seed matrix** — every workload profile at two seeds, driven
  through the full oracle runner (Rule 0 invariants per op, oracle matrix
  at checkpoints), in both maintainer modes;
* a **mutation smoke-check** — an injected off-by-one kappa bug must be
  detected, shrunk to <= 10 ops, and survive a JSON round trip, proving a
  green fuzz run is meaningful;
* an **opt-in heavy matrix** (``REPRO_FUZZ_HEAVY=1`` or ``-m fuzz_heavy``)
  — more seeds x more ops for nightly/exhaustive runs.

The CLI equivalent of the tier-1 layer is ``repro fuzz``; both call
:func:`repro.testing.fuzz`.
"""

from __future__ import annotations

import json
import os

import pytest

from repro.testing import (
    DEFAULT_ORACLES,
    EditOp,
    EditScript,
    ORACLE_NAMES,
    PROFILES,
    ReproBundle,
    apply_coalesced,
    apply_op,
    batch_boundary_bug_sut,
    coalesce,
    expected_outcome,
    fuzz,
    generate,
    perturbed_sut_factory,
    replay,
    run_script,
    shrink_script,
    stored_sut,
)

ALL_PROFILES = sorted(PROFILES)


# ------------------------------------------------------------------ #
# edit-script semantics
# ------------------------------------------------------------------ #


class TestEditScript:
    def test_json_round_trip_byte_identical(self):
        script = generate("uniform", 3, 60)
        text = script.dumps()
        again = EditScript.loads(text)
        assert again.dumps() == text
        assert again.ops == script.ops

    def test_total_semantics_classification(self):
        from repro.graph import Graph

        graph = Graph(edges=[(0, 1)])
        assert expected_outcome(graph, EditOp("add", 0, 0)) == "self_loop"
        assert expected_outcome(graph, EditOp("add", 1, 0)) == "duplicate"
        assert expected_outcome(graph, EditOp("remove", 0, 2)) == "missing_edge"
        assert expected_outcome(graph, EditOp("remove_vertex", 9)) == "missing_vertex"
        assert expected_outcome(graph, EditOp("add_vertex", 0)) == "noop"
        assert expected_outcome(graph, EditOp("add", 1, 2)) == "ok"

    def test_adversarial_ops_do_not_mutate_shadow(self):
        from repro.graph import Graph

        graph = Graph(edges=[(0, 1)])
        for op in (
            EditOp("add", 0, 0),
            EditOp("add", 1, 0),
            EditOp("remove", 0, 2),
            EditOp("remove_vertex", 9),
        ):
            outcome = apply_op(graph, op)
            assert outcome != "ok"
        assert graph.num_edges == 1

    def test_rejects_non_json_vertices(self):
        with pytest.raises(ValueError):
            EditOp("add", (0, 1), 2)

    def test_vertex_ops_arity_checked(self):
        with pytest.raises(ValueError):
            EditOp("add", 0)
        with pytest.raises(ValueError):
            EditOp("remove_vertex", 0, 1)


class TestWorkloads:
    @pytest.mark.parametrize("profile", ALL_PROFILES)
    def test_deterministic_and_sized(self, profile):
        first = generate(profile, 7, 80)
        second = generate(profile, 7, 80)
        assert first.dumps() == second.dumps()
        assert len(first) == 80
        assert generate(profile, 8, 80).dumps() != first.dumps()

    def test_adversarial_covers_every_rejection_class(self):
        from repro.graph import Graph

        script = generate("adversarial", 0, 400)
        graph = Graph()
        outcomes = {apply_op(graph, op) for op in script}
        assert {
            "ok",
            "self_loop",
            "duplicate",
            "missing_edge",
            "missing_vertex",
        } <= outcomes

    def test_grow_shrink_exercises_vertex_removal(self):
        script = generate("grow_shrink", 0, 600)
        kinds = {op.kind for op in script}
        assert "remove_vertex" in kinds

    def test_unknown_profile_rejected(self):
        with pytest.raises(ValueError):
            generate("nope", 0, 10)


class TestCoalesce:
    """coalesce(): net structural effect of a script, per-op classification."""

    def test_add_then_remove_same_edge_cancels(self):
        from repro.graph import Graph

        graph = Graph(edges=[(0, 1)])
        script = EditScript(
            ops=[EditOp("add", 1, 2), EditOp("remove", 2, 1)]
        )
        co = coalesce(graph, script)
        assert co.added == [] and co.removed == []
        # Both ops were fine per-op; the *net* effect is empty.
        assert co.outcomes == {"ok": 2}

    def test_remove_then_readd_cancels(self):
        from repro.graph import Graph

        graph = Graph(edges=[(0, 1), (1, 2), (0, 2)])
        co = coalesce(
            graph,
            EditScript(ops=[EditOp("remove", 0, 1), EditOp("add", 0, 1)]),
        )
        assert co.added == [] and co.removed == []
        assert co.outcomes == {"ok": 2}

    def test_remove_vertex_expands_to_incident_edges(self):
        from repro.graph import Graph

        graph = Graph(edges=[(0, 1), (0, 2), (1, 2)])
        co = coalesce(graph, EditScript(ops=[EditOp("remove_vertex", 0)]))
        assert sorted(co.removed) == [(0, 1), (0, 2)]
        assert co.removed_vertices == [0]
        assert co.outcomes == {"ok": 1}

    def test_outcome_counts_match_per_op_classification(self):
        from repro.graph import Graph

        for profile in ("adversarial", "grow_shrink"):
            script = generate(profile, seed=3, n_ops=200)
            co = coalesce(Graph(), script)
            shadow = Graph()
            expected: dict = {}
            for op in script:
                tag = apply_op(shadow, op)
                expected[tag] = expected.get(tag, 0) + 1
            assert co.outcomes == expected, profile

    def test_empty_script(self):
        from repro.graph import Graph

        co = coalesce(Graph(edges=[(0, 1)]), EditScript())
        assert not co.added and not co.removed and not co.outcomes
        assert co.applied == 0 and co.rejected == {}

    def test_apply_coalesced_matches_per_op_replay(self):
        from repro.core import DynamicTriangleKCore
        from repro.graph import Graph

        script = generate("grow_shrink", seed=9, n_ops=250)
        shadow = Graph()
        for op in script:
            apply_op(shadow, op)
        maintainer = DynamicTriangleKCore(Graph(), copy=False)
        co = coalesce(maintainer.graph, script)
        apply_coalesced(maintainer, co, strategy="batch")
        assert maintainer.graph == shadow
        from repro.core import triangle_kcore_decomposition

        assert maintainer.kappa == triangle_kcore_decomposition(shadow).kappa


# ------------------------------------------------------------------ #
# tier-1 seed matrix
# ------------------------------------------------------------------ #


class TestTier1Matrix:
    @pytest.mark.parametrize("profile", ALL_PROFILES)
    @pytest.mark.parametrize("seed", [0, 1])
    def test_no_divergence(self, profile, seed):
        report = run_script(
            generate(profile, seed, 150), checkpoint_every=50
        )
        assert report.ok, report.divergence
        assert report.checkpoints >= 3
        # The recompute and csr oracles always run; networkx when installed.
        assert "recompute" in report.oracles
        assert "csr" in report.oracles

    @pytest.mark.parametrize("profile", ["churn", "grow_shrink"])
    def test_no_divergence_with_triangle_store(self, profile):
        report = run_script(
            generate(profile, 0, 120),
            checkpoint_every=40,
            sut_factory=stored_sut,
        )
        assert report.ok, report.divergence

    def test_fuzz_aggregates_all_profiles(self):
        result = fuzz(seed=0, ops=60, checkpoint_every=30)
        assert result.ok
        assert [o.profile for o in result.outcomes] == ALL_PROFILES
        assert result.total_steps() == 60 * len(ALL_PROFILES)

    def test_empty_script_is_clean(self):
        report = run_script(EditScript())
        assert report.ok
        assert report.final_kappa == {}

    @pytest.mark.parametrize("profile", ALL_PROFILES)
    def test_no_divergence_batch_mode(self, profile):
        """The whole-batch write path under the same oracle matrix."""
        report = run_script(
            generate(profile, 0, 150),
            apply_mode="batch",
            batch_ops=25,
        )
        assert report.ok, report.divergence
        assert report.checkpoints >= 6  # one per chunk boundary

    def test_batch_mode_empty_script_is_clean(self):
        report = run_script(EditScript(), apply_mode="batch")
        assert report.ok
        assert report.final_kappa == {}

    def test_batch_mode_final_kappa_matches_per_op(self):
        script = generate("churn", 4, 200)
        per_op = run_script(script, checkpoint_every=50)
        batch = run_script(script, apply_mode="batch", batch_ops=40)
        assert per_op.ok and batch.ok
        assert per_op.final_kappa == batch.final_kappa


# ------------------------------------------------------------------ #
# mutation smoke-check: the harness can actually catch bugs
# ------------------------------------------------------------------ #


class TestMutationSmokeCheck:
    @pytest.mark.parametrize("level,profile", [(1, "triangle_bursts"), (2, "churn")])
    def test_injected_bug_is_detected_and_shrunk(self, level, profile):
        result = fuzz(
            seed=0,
            ops=300,
            profiles=[profile],
            checkpoint_every=50,
            sut_factory=perturbed_sut_factory(level),
            shrink=True,
        )
        assert not result.ok, (
            "the harness failed to notice a deliberately injected "
            f"off-by-one kappa bug at level {level}"
        )
        failure = result.first_failure
        assert failure.bundle is not None
        assert failure.shrink is not None
        # Acceptance bar: locally minimal repro within 10 ops.
        assert len(failure.bundle.script) <= 10
        # A kappa == level edge requires a (level + 2)-clique, so the true
        # minimum is C(level + 2, 2) insertions; the shrinker must find it.
        minimum = (level + 2) * (level + 1) // 2
        assert len(failure.bundle.script) == minimum
        assert failure.bundle.divergence is not None

    def test_bundle_round_trips_and_replays(self, tmp_path):
        result = fuzz(
            seed=0,
            ops=200,
            profiles=["triangle_bursts"],
            checkpoint_every=50,
            sut_factory=perturbed_sut_factory(1),
            shrink=True,
        )
        bundle = result.first_failure.bundle
        path = tmp_path / "bundle.json"
        bundle.save(path)
        loaded = ReproBundle.load(path)
        assert loaded.dumps() == bundle.dumps()
        assert json.loads(path.read_text())["format"] == "triangle-kcore-fuzz/1"
        # Replaying under the buggy maintainer still fails...
        assert not replay(loaded, sut_factory=perturbed_sut_factory(1)).ok
        # ...and the same bytes replay clean against the real maintainer.
        assert replay(loaded).ok

    def test_shrinker_refuses_passing_script(self):
        script = generate("uniform", 0, 30)
        with pytest.raises(ValueError):
            shrink_script(script, lambda s: False)

    def test_shrinker_on_synthetic_predicate(self):
        # Fails iff the script still adds both (0,1) and (2,3) somewhere:
        # the minimum is exactly those two ops.
        script = generate("uniform", 0, 120)
        script.ops.append(EditOp("add", 0, 1))
        script.ops.append(EditOp("add", 2, 3))

        def fails(candidate: EditScript) -> bool:
            pairs = {
                (min(op.u, op.v), max(op.u, op.v))
                for op in candidate
                if op.kind == "add"
            }
            return (0, 1) in pairs and (2, 3) in pairs

        result = shrink_script(script, fails)
        assert len(result.script) == 2
        assert result.original_ops == len(script)
        assert fails(result.script)


class TestBatchMutationSmokeCheck:
    """A green batch fuzz run is meaningful: an injected batch-boundary
    bug (one affected-region edge silently dropped before settling) must
    be detected, shrunk, and must replay clean on the real maintainer."""

    def test_batch_boundary_bug_is_detected_and_shrunk(self):
        result = fuzz(
            seed=0,
            ops=200,
            profiles=["triangle_bursts"],
            sut_factory=batch_boundary_bug_sut,
            apply_mode="batch",
            batch_ops=25,
            shrink=True,
        )
        assert not result.ok, (
            "the harness failed to notice the injected batch-boundary "
            "bug (dropped affected-region edge)"
        )
        failure = result.first_failure
        bundle = failure.bundle
        assert bundle is not None and failure.shrink is not None
        assert bundle.apply_mode == "batch"
        assert bundle.divergence is not None
        # Minimal trigger: a region edge NOT inserted in the same chunk
        # whose kappa must still move — a handful of ops, not hundreds.
        assert len(bundle.script) <= 10
        # The recorded (tightened) chunking replays the divergence...
        assert not replay(bundle, sut_factory=batch_boundary_bug_sut).ok
        # ...and the same bundle is clean on the real maintainer.
        assert replay(bundle).ok

    def test_per_op_mode_does_not_trip_the_batch_bug(self):
        """The seam only affects the batch path, pinning that per-op
        coverage alone would have missed this bug class."""
        report = run_script(
            generate("triangle_bursts", 0, 200),
            checkpoint_every=50,
            sut_factory=batch_boundary_bug_sut,
        )
        assert report.ok, report.divergence


class TestPerOpOracle:
    """The per_op differential oracle: a stateful per-op maintainer fed
    net diffs at every checkpoint, so batch-mode runs are checked against
    genuinely per-op application (not just recompute)."""

    def test_per_op_is_optin_not_default(self):
        assert "per_op" in ORACLE_NAMES
        assert "per_op" not in DEFAULT_ORACLES

    @pytest.mark.parametrize("mode", ["per_op", "batch"])
    def test_clean_run_with_per_op_oracle(self, mode):
        report = run_script(
            generate("churn", 0, 150),
            checkpoint_every=50,
            oracles=DEFAULT_ORACLES + ("per_op",),
            apply_mode=mode,
            batch_ops=25,
        )
        assert report.ok, report.divergence
        assert "per_op" in report.oracles

    def test_per_op_oracle_catches_batch_bug(self):
        report = run_script(
            generate("triangle_bursts", 0, 200),
            oracles=("per_op",),
            sut_factory=batch_boundary_bug_sut,
            apply_mode="batch",
            batch_ops=25,
        )
        assert not report.ok
        assert report.divergence.kind == "oracle"
        assert report.divergence.oracle == "per_op"


# ------------------------------------------------------------------ #
# opt-in heavy matrix
# ------------------------------------------------------------------ #

heavy = pytest.mark.skipif(
    not os.environ.get("REPRO_FUZZ_HEAVY"),
    reason="heavy fuzz matrix is opt-in: set REPRO_FUZZ_HEAVY=1",
)


@heavy
@pytest.mark.fuzz_heavy
@pytest.mark.parametrize("seed", range(5))
def test_heavy_matrix(seed):
    result = fuzz(seed=seed, ops=1000, checkpoint_every=100)
    assert result.ok, result.first_failure.report.divergence


@heavy
@pytest.mark.fuzz_heavy
@pytest.mark.parametrize("seed", range(5))
def test_heavy_matrix_batch_mode(seed):
    result = fuzz(seed=seed, ops=1000, apply_mode="batch", batch_ops=50)
    assert result.ok, result.first_failure.report.divergence


@heavy
@pytest.mark.fuzz_heavy
@pytest.mark.parametrize("seed", range(3))
def test_heavy_matrix_stored_mode(seed):
    result = fuzz(
        seed=seed, ops=600, checkpoint_every=100, sut_factory=stored_sut
    )
    assert result.ok, result.first_failure.report.divergence
