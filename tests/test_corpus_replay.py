"""Replay every committed regression bundle against the full oracle matrix.

``tests/corpus/`` holds shrunk :class:`~repro.testing.ReproBundle` files —
each one a maintenance scenario that either caught a (deliberately
injected) bug during development or pins a subtle algorithmic branch.  The
contract: every future maintenance bug becomes one more JSON file here, and
this module keeps it failing-proof forever.

Each bundle is checked three ways: byte-identical JSON round trip, clean
replay against all oracles with the default maintainer, and a final-kappa
match against the ``expected_kappa`` recorded when the bundle was minted
(byte-for-byte replay, not merely crash-free).
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.testing import ReproBundle, replay

CORPUS_DIR = Path(__file__).parent / "corpus"
BUNDLE_PATHS = sorted(CORPUS_DIR.glob("*.json"))


def test_corpus_is_populated():
    assert len(BUNDLE_PATHS) >= 5, (
        f"regression corpus shrank to {len(BUNDLE_PATHS)} bundles; "
        "bundles must never be deleted, only added"
    )


@pytest.mark.parametrize(
    "path", BUNDLE_PATHS, ids=[p.stem for p in BUNDLE_PATHS]
)
class TestCorpusBundle:
    def test_round_trips_byte_identical(self, path):
        bundle = ReproBundle.load(path)
        assert ReproBundle.loads(bundle.dumps()).dumps() == bundle.dumps()
        obj = json.loads(path.read_text())
        assert obj["format"] == "triangle-kcore-fuzz/1"
        assert obj["description"], "corpus bundles must say what they pin"
        assert obj.get("expected_kappa") is not None, (
            "corpus bundles must record the expected final kappa"
        )

    def test_replays_clean_default_maintainer(self, path):
        bundle = ReproBundle.load(path)
        report = replay(bundle)
        assert report.ok, (
            f"regression bundle {path.name} diverged: "
            f"{report.divergence.kind}: {report.divergence.message} "
            f"{report.divergence.diff[:5]}"
        )
        assert report.steps == len(bundle.script)

    def test_tight_checkpoints_also_clean(self, path):
        # A cadence of 1 turns every op into a full oracle comparison; the
        # corpus is small enough to afford maximum scrutiny.
        bundle = ReproBundle.load(path)
        report = replay(bundle, checkpoint_every=1)
        assert report.ok, report.divergence
