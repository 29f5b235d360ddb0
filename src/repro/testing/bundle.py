"""Repro bundles: self-contained JSON records of a fuzzing failure.

A bundle captures everything needed to re-run a divergence byte-for-byte:
the generator coordinates (profile, seed, requested ops), the exact edit
script, the runner configuration (checkpoint cadence, oracle selection),
the divergence that was observed, and — for corpus regression bundles —
the expected final kappa map recorded from the reference oracle at the
time the bundle was minted.

Bundles serve two roles:

* **failure hand-off** — ``repro fuzz --out bundle.json`` writes one on
  divergence; ``repro fuzz --replay bundle.json`` re-runs it;
* **regression corpus** — shrunk bundles under ``tests/corpus/`` are
  replayed against the full oracle matrix by ``tests/test_corpus_replay.py``
  on every CI run, so every bug ever found stays found.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from .editscript import EditScript, kappa_from_json, kappa_to_json
from .oracles import DEFAULT_ORACLES, SutFactory, default_sut
from .runner import Divergence, RunReport, run_script

#: Bundle schema identifier; bump on incompatible changes.
FORMAT = "triangle-kcore-fuzz/1"


@dataclass
class ReproBundle:
    """One serializable fuzzing scenario (failing or regression)."""

    script: EditScript
    profile: str = ""
    seed: Optional[int] = None
    ops_requested: Optional[int] = None
    checkpoint_every: int = 100
    oracles: Tuple[str, ...] = DEFAULT_ORACLES
    divergence: Optional[Divergence] = None
    expected_kappa: Optional[List[list]] = None  #: [[u, v, kappa], ...]
    description: str = ""
    shrunk: bool = False
    #: Runner apply mode the divergence was found under ("per_op" or
    #: "batch"); chunked bundles must replay chunked or a bug that only
    #: shows at chunk granularity silently replays clean.  A
    #: ``batch_strategy`` of ``"batch"`` (written by older bundles) is
    #: the maintainer's alias of ``"incremental"``.
    apply_mode: str = "per_op"
    batch_ops: int = 50
    batch_strategy: str = "incremental"
    format_version: str = FORMAT

    # -------------------------------------------------------------- #
    # serialization
    # -------------------------------------------------------------- #

    def to_json_obj(self) -> dict:
        obj: dict = {
            "format": self.format_version,
            "profile": self.profile,
            "seed": self.seed,
            "ops_requested": self.ops_requested,
            "checkpoint_every": self.checkpoint_every,
            "oracles": list(self.oracles),
            "shrunk": self.shrunk,
            "description": self.description,
            "script": self.script.to_json_obj(),
        }
        if self.apply_mode != "per_op":
            # Additive, omitted for per-op bundles: old readers of the
            # /1 format never see the new keys.
            obj["apply_mode"] = self.apply_mode
            obj["batch_ops"] = self.batch_ops
            obj["batch_strategy"] = self.batch_strategy
        if self.divergence is not None:
            obj["divergence"] = self.divergence.to_json_obj()
        if self.expected_kappa is not None:
            obj["expected_kappa"] = self.expected_kappa
        return obj

    @classmethod
    def from_json_obj(cls, obj: dict) -> "ReproBundle":
        version = obj.get("format", "")
        if version != FORMAT:
            raise ValueError(
                f"unsupported repro bundle format {version!r}; "
                f"this build reads {FORMAT!r}"
            )
        return cls(
            script=EditScript.from_json_obj(obj["script"]),
            profile=obj.get("profile", ""),
            seed=obj.get("seed"),
            ops_requested=obj.get("ops_requested"),
            checkpoint_every=obj.get("checkpoint_every", 100),
            oracles=tuple(obj.get("oracles", DEFAULT_ORACLES)),
            divergence=(
                Divergence.from_json_obj(obj["divergence"])
                if "divergence" in obj
                else None
            ),
            expected_kappa=obj.get("expected_kappa"),
            description=obj.get("description", ""),
            shrunk=obj.get("shrunk", False),
            apply_mode=obj.get("apply_mode", "per_op"),
            batch_ops=obj.get("batch_ops", 50),
            batch_strategy=obj.get("batch_strategy", "incremental"),
            format_version=version,
        )

    def dumps(self, *, indent: Optional[int] = 2) -> str:
        return json.dumps(self.to_json_obj(), indent=indent, sort_keys=True)

    @classmethod
    def loads(cls, text: str) -> "ReproBundle":
        return cls.from_json_obj(json.loads(text))

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(self.dumps())
            handle.write("\n")

    @classmethod
    def load(cls, path) -> "ReproBundle":
        with open(path, "r", encoding="utf-8") as handle:
            return cls.loads(handle.read())

    def __repr__(self) -> str:
        status = "diverging" if self.divergence is not None else "regression"
        return (
            f"ReproBundle({status}, {len(self.script)} ops, "
            f"profile={self.profile!r}, seed={self.seed})"
        )


def replay(
    bundle: ReproBundle,
    *,
    sut_factory: SutFactory = default_sut,
    oracles: Optional[Tuple[str, ...]] = None,
    checkpoint_every: Optional[int] = None,
) -> RunReport:
    """Re-run a bundle's script with its recorded runner configuration.

    When the bundle carries ``expected_kappa`` (regression bundles do), a
    clean run whose final kappa map differs from the recorded one is turned
    into a ``"state"`` divergence — the replay is byte-for-byte, not merely
    crash-free.
    """
    report = run_script(
        bundle.script,
        checkpoint_every=checkpoint_every or bundle.checkpoint_every,
        oracles=oracles if oracles is not None else bundle.oracles,
        sut_factory=sut_factory,
        apply_mode=bundle.apply_mode,
        batch_ops=bundle.batch_ops,
        batch_strategy=bundle.batch_strategy,
    )
    if (
        report.ok
        and bundle.expected_kappa is not None
        and report.final_kappa is not None
    ):
        expected = kappa_from_json(bundle.expected_kappa)
        if expected != report.final_kappa:
            from .runner import _kappa_diff

            report.divergence = Divergence(
                step=max(len(bundle.script) - 1, 0),
                kind="state",
                message=(
                    "final kappa map differs from the bundle's recorded "
                    "expected_kappa"
                ),
                diff=_kappa_diff(expected, report.final_kappa),
            )
    return report


def regression_bundle(
    script: EditScript,
    *,
    description: str,
    profile: str = "",
    seed: Optional[int] = None,
    checkpoint_every: int = 25,
    oracles: Tuple[str, ...] = DEFAULT_ORACLES,
    shrunk: bool = True,
) -> ReproBundle:
    """Mint a corpus regression bundle, recording the reference final kappa.

    Raises ``ValueError`` if the script does not replay cleanly — a corpus
    entry must be green at mint time (it pins behavior, it does not track an
    open bug).
    """
    report = run_script(
        script, checkpoint_every=checkpoint_every, oracles=oracles
    )
    if not report.ok:
        raise ValueError(
            f"cannot mint regression bundle: script diverges "
            f"({report.divergence.kind}: {report.divergence.message})"
        )
    return ReproBundle(
        script=script,
        profile=profile,
        seed=seed,
        checkpoint_every=checkpoint_every,
        oracles=oracles,
        expected_kappa=kappa_to_json(report.final_kappa or {}),
        description=description,
        shrunk=shrunk,
    )
