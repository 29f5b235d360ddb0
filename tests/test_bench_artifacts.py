"""Every committed ``BENCH_*.json`` comes from a full run and names its host.

A speed or memory claim is only as good as the run behind it: a smoke run
exercises the plumbing at a toy size, and a record without its host
cannot be compared with the next one.  The benches write both fields
(``smoke`` and ``host``, from ``benchmarks/common.host_info``); this test
rejects a committed artifact that lacks them or was a smoke run.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
ARTIFACTS = sorted(REPO_ROOT.glob("BENCH_*.json"))
HOST_FIELDS = ("git_sha", "cpu_count", "python", "numpy")


def test_artifacts_are_committed():
    assert ARTIFACTS, "no BENCH_*.json at the repo root"


@pytest.mark.parametrize("path", ARTIFACTS, ids=lambda path: path.name)
def test_artifact_is_a_full_run_with_host(path):
    record = json.loads(path.read_text(encoding="utf-8"))
    assert record.get("smoke") is False, (
        f"{path.name} is a smoke run (or does not say): regenerate it "
        "with a full run"
    )
    host = record.get("host")
    assert isinstance(host, dict), f"{path.name} has no host block"
    missing = [field for field in HOST_FIELDS if field not in host]
    assert not missing, f"{path.name} host block lacks {missing}"
