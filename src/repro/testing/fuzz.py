"""Top-level fuzzing orchestration shared by the CLI and the test suite.

:func:`fuzz` generates one workload per requested profile, runs each
through the oracle runner, and — on divergence — optionally shrinks the
failing script and packages everything as a :class:`ReproBundle`.  The
pytest entry points (``tests/test_differential_fuzz.py``) and the ``repro
fuzz`` CLI subcommand are both thin wrappers over this function, so a CI
failure and a local ``pytest`` failure point at the same code path.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from .bundle import ReproBundle
from .editscript import EditScript
from .oracles import DEFAULT_ORACLES, SutFactory, default_sut
from .runner import RunReport, run_script
from .shrink import ShrinkResult, shrink_script
from .workloads import PROFILES, generate


@dataclass
class ProfileOutcome:
    """Result of fuzzing one (profile, seed) cell."""

    profile: str
    seed: int
    report: RunReport
    bundle: Optional[ReproBundle] = None   #: present when the cell diverged
    shrink: Optional[ShrinkResult] = None  #: present when shrinking ran

    @property
    def ok(self) -> bool:
        return self.report.ok


@dataclass
class FuzzResult:
    """Aggregate over every fuzzed cell."""

    outcomes: List[ProfileOutcome] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(outcome.ok for outcome in self.outcomes)

    @property
    def first_failure(self) -> Optional[ProfileOutcome]:
        for outcome in self.outcomes:
            if not outcome.ok:
                return outcome
        return None

    def total_steps(self) -> int:
        return sum(outcome.report.steps for outcome in self.outcomes)


def _script_fails(
    checkpoint_every: int,
    oracles: Tuple[str, ...],
    sut_factory: SutFactory,
    apply_mode: str,
    batch_ops: int,
    batch_strategy: str,
):
    """Build the shrinker predicate matching the runner configuration.

    The shrinker replays candidates with a *tight* cadence so a divergence
    originally caught at a distant checkpoint is still caught after the
    ops before that checkpoint are deleted: per-op mode tightens
    ``checkpoint_every``, batch mode tightens the chunk size (checkpoints
    sit at chunk boundaries there).
    """

    def fails(script: EditScript) -> bool:
        return not run_script(
            script,
            checkpoint_every=min(checkpoint_every, 5),
            oracles=oracles,
            sut_factory=sut_factory,
            apply_mode=apply_mode,
            batch_ops=min(batch_ops, 5),
            batch_strategy=batch_strategy,
        ).ok

    return fails


def fuzz(
    *,
    seed: int = 0,
    ops: int = 500,
    profiles: Optional[Sequence[str]] = None,
    checkpoint_every: int = 100,
    oracles: Tuple[str, ...] = DEFAULT_ORACLES,
    sut_factory: SutFactory = default_sut,
    shrink: bool = False,
    stop_on_failure: bool = True,
    apply_mode: str = "per_op",
    batch_ops: int = 50,
    batch_strategy: str = "incremental",
) -> FuzzResult:
    """Fuzz the dynamic maintainer across workload profiles.

    Parameters mirror the ``repro fuzz`` CLI flags; ``sut_factory`` is the
    extra hook the mutation smoke-check uses to inject a deliberately buggy
    maintainer.  ``apply_mode="batch"``
    drives the maintainer in chunks instead: chunks of ``batch_ops``
    ops are coalesced and applied via ``diff_apply(strategy=batch_strategy)``
    (see :func:`~repro.testing.runner.run_script`).  Returns a
    :class:`FuzzResult`; on divergence each failing outcome carries a
    ready-to-save :class:`ReproBundle` (shrunk when ``shrink=True``).
    """
    selected = list(profiles) if profiles is not None else sorted(PROFILES)
    result = FuzzResult()
    for profile in selected:
        script = generate(profile, seed, ops)
        report = run_script(
            script,
            checkpoint_every=checkpoint_every,
            oracles=oracles,
            sut_factory=sut_factory,
            apply_mode=apply_mode,
            batch_ops=batch_ops,
            batch_strategy=batch_strategy,
        )
        outcome = ProfileOutcome(profile=profile, seed=seed, report=report)
        if not report.ok:
            shrink_result: Optional[ShrinkResult] = None
            final_script = script
            if shrink:
                shrink_result = shrink_script(
                    script,
                    _script_fails(
                        checkpoint_every, oracles,
                        sut_factory, apply_mode, batch_ops, batch_strategy,
                    ),
                )
                final_script = shrink_result.script
                # Re-run the shrunk script to report *its* divergence (the
                # step index and diff of the original no longer apply).
                report_for_bundle = run_script(
                    final_script,
                    checkpoint_every=min(checkpoint_every, 5),
                    oracles=oracles,
                    sut_factory=sut_factory,
                    apply_mode=apply_mode,
                    batch_ops=min(batch_ops, 5),
                    batch_strategy=batch_strategy,
                )
                divergence = report_for_bundle.divergence
            else:
                divergence = report.divergence
            outcome.shrink = shrink_result
            outcome.bundle = ReproBundle(
                script=final_script,
                profile=profile,
                seed=seed,
                ops_requested=ops,
                checkpoint_every=checkpoint_every,
                oracles=oracles,
                apply_mode=apply_mode,
                # A shrunk script was minimized under the tightened chunk
                # size; record that so the bundle replays identically.
                batch_ops=min(batch_ops, 5) if shrink else batch_ops,
                batch_strategy=batch_strategy,
                divergence=divergence,
                description=(
                    f"fuzz divergence: profile={profile} seed={seed} "
                    f"ops={ops}"
                ),
                shrunk=shrink,
            )
        result.outcomes.append(outcome)
        if not report.ok and stop_on_failure:
            break
    return result
