"""Tests of the benchmark itself (answer checks, span arithmetic, seeding).

Run from the repository root: ``python -m pytest perfbench/tests -q``.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

import inputs  # noqa: E402
import measure  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

COUNT_METRICS = [name for name, unit in workloads.PER_LAYER.items() if unit == "count"]


def _prepare(tmp_path, kind, graph, seed, name="g.edges"):
    return inputs.prepare(kind, graph, seed, str(tmp_path / name), small=True)


# ---------------------------------------------------------------------- #
# answer checking
# ---------------------------------------------------------------------- #


def test_decompose_off_by_one_kappa_fails(tmp_path):
    prepared = _prepare(tmp_path, "decompose", "lj", 3)
    good = workloads.run_decompose(
        workloads.WORKLOADS["decompose-lj"], prepared, 0.0, False
    )
    assert good.attempted > 0 and good.failed == 0
    edge = next(iter(prepared.kappa))
    prepared.kappa[edge] += 1
    bad = workloads.run_decompose(
        workloads.WORKLOADS["decompose-lj"], prepared, 0.0, False
    )
    assert bad.failed == bad.attempted > 0


def test_maintain_off_by_one_start_kappa_fails(tmp_path):
    prepared = _prepare(tmp_path, "maintain", "cave", 3)
    edge = next(iter(prepared.kappa))
    prepared.kappa[edge] += 1
    outcome = workloads.run_maintain(
        workloads.WORKLOADS["maintain-cave"], prepared, 0.0, False
    )
    assert outcome.failed == outcome.attempted > 0


def test_serve_answers_checked_against_oracle():
    read = inputs.Request("kappa", "GET", "/kappa?u=1&v=2", expect=3)
    assert workloads._answer_ok(read, (200, b'{"kappa": 3}'))
    assert not workloads._answer_ok(read, (200, b'{"kappa": 4}'))
    assert not workloads._answer_ok(read, (404, b'{"kappa": 3}'))
    write = inputs.Request("edits", "POST", "/edits", body=b"{}", ops=2)
    assert workloads._answer_ok(write, (200, b'{"applied": 2, "rejected": {}}'))
    assert not workloads._answer_ok(write, (200, b'{"applied": 1, "rejected": {"duplicate": 1}}'))
    community = inputs.Request("community", "GET", "/community?vertex=1")
    assert not workloads._answer_ok(community, (503, b"{}"))


# ---------------------------------------------------------------------- #
# span arithmetic
# ---------------------------------------------------------------------- #


def test_self_time_of_nested_calls():
    ticks = iter([0.0, 1.0, 3.0, 4.0, 6.0, 10.0])
    recorder = spans.SpanRecorder(clock=lambda: next(ticks))
    inner = recorder.wrap("inner", lambda: None)

    def body():
        inner()
        inner()

    recorder.wrap("outer", body)()
    assert [s[0] for s in recorder.spans] == ["outer", "inner", "inner"]
    assert [s[3] for s in recorder.spans] == [None, 0, 0]
    assert spans.self_times(recorder.spans) == [6.0, 2.0, 2.0]
    summary = spans.layer_summary(recorder.spans)
    assert summary["outer"] == {"calls": 1, "self_s": 6.0}
    assert summary["inner"] == {"calls": 2, "self_s": 4.0}
    assert spans.root_seconds(recorder.spans) == 10.0
    assert spans.root_seconds(recorder.spans, ["inner"]) == 0


def test_overlapping_children_are_covered_once():
    recorded = [
        ["root", 0.0, 10.0, None],
        ["a", 1.0, 5.0, 0],
        ["b", 3.0, 7.0, 0],
        ["c", 9.0, 12.0, 0],  # sticks out of its parent: clipped
    ]
    assert spans.self_times(recorded)[0] == pytest.approx(10.0 - 6.0 - 1.0)


def test_install_wraps_and_restores_every_target():
    from repro.engine.engine import Engine
    from repro.fast.csr import CSRGraph
    from repro.graph.undirected import complete_graph

    before_decompose = Engine.__dict__["decompose"]
    before_build = CSRGraph.__dict__["from_graph"]
    recorder = spans.SpanRecorder()
    uninstall = spans.install(recorder)
    try:
        Engine(max_cached_graphs=0).decompose(complete_graph(6), backend="csr")
    finally:
        uninstall()
    names = {s[0] for s in recorder.spans}
    assert {"engine.decompose", "fast.build", "fast.enumerate", "fast.peel",
            "fast.decode"} <= names
    assert recorder.counts["fast.enumerate.triangles"] == 20
    assert Engine.__dict__["decompose"] is before_decompose
    assert CSRGraph.__dict__["from_graph"] is before_build


# ---------------------------------------------------------------------- #
# seeding
# ---------------------------------------------------------------------- #


@pytest.mark.parametrize("name,kind", [("decompose-lj", "decompose"),
                                       ("maintain-cave", "maintain")])
def test_same_seed_repeats_counts_exactly(tmp_path, name, kind):
    workload = workloads.WORKLOADS[name]
    runs = []
    for attempt in range(2):
        prepared = _prepare(tmp_path, kind, workload.graph, 5, f"g{attempt}.edges")
        run = workloads.run_decompose if kind == "decompose" else workloads.run_maintain
        outcome = run(workload, prepared, 0.0, True)
        assert outcome.failed == 0
        runs.append({key: outcome.metrics[key] for key in COUNT_METRICS})
    assert runs[0] == runs[1]
    if kind == "decompose":
        assert runs[0]["fast.enumerate.triangles"] > 0
        assert runs[0]["fast.peel.levels"] > 0
    else:
        assert runs[0]["core.apply.candidates_per_edit"] > 0


def _script_fingerprint(prepared):
    return [(r.kind, r.method, r.path, r.body, r.expect) for r in prepared.script]


def test_serve_script_repeats_and_has_the_mix(tmp_path):
    first = _prepare(tmp_path, "serve", "dblp", 7, "a.edges")
    second = _prepare(tmp_path, "serve", "dblp", 7, "b.edges")
    assert _script_fingerprint(first) == _script_fingerprint(second)
    kinds = [r.kind for r in first.script]
    assert len(kinds) == 20 * inputs.BATCH_POOL["serve"]
    assert kinds.count("kappa") / len(kinds) == 0.85
    assert kinds.count("edits") / len(kinds) == 0.10
    assert kinds.count("community") / len(kinds) == 0.05
    assert all(r.expect is not None for r in first.script if r.kind == "kappa")
    writes = [json.loads(r.body) for r in first.script if r.kind == "edits"]
    assert {len(w["ops"]) for w in writes} == {first.facts["edits_per_batch"]}


def test_second_seed_gives_different_inputs(tmp_path):
    for graph in ("lj", "cave"):
        assert inputs.graph_edges(graph, 1, small=True) != inputs.graph_edges(graph, 2, small=True)
        assert inputs.graph_edges(graph, 1, small=True) == inputs.graph_edges(graph, 1, small=True)
    one = _prepare(tmp_path, "maintain", "cave", 1, "one.edges")
    two = _prepare(tmp_path, "maintain", "cave", 2, "two.edges")
    assert one.batches != two.batches
    assert inputs.dblp_edges(1) != inputs.dblp_edges(2)


def test_batches_close_triangles_and_are_disjoint_from_the_graph():
    edges = inputs.graph_edges("cave", 4, small=True)
    import random

    for removed, added in inputs.churn_batches(edges, 4, 3, random.Random(0)):
        assert set(removed) <= edges
        assert not set(added) & edges
        remaining = edges - set(removed)
        for u, w in added:
            apexes = [v for v in {x for e in remaining for x in e}
                      if inputs._canon(u, v) in remaining and inputs._canon(v, w) in remaining]
            assert apexes


# ---------------------------------------------------------------------- #
# percentiles and the command line
# ---------------------------------------------------------------------- #


def test_tail_percentile_keeps_ten_samples_beyond():
    for pct in (75, 80, 99):
        count = measure.min_samples(pct)
        assert measure.samples_beyond(pct, count) >= 10
        assert measure.samples_beyond(pct, count - 1) < 10
    assert measure.min_samples(80) == 50
    assert measure.percentile(list(range(1, 101)), 80) == 80


def test_normalised_times_remove_a_slow_stretch_of_the_host():
    # Ten ops of 0.1 s on a host whose calibration loop takes 10 ms, then a
    # stretch where the host runs at half speed: ops and loop both double.
    loop = measure.Loop()
    loop.speeds = [0.010] * 10 + [0.020] * 10 + [0.010] * 10
    loop.seconds = [speed * 10 for speed in loop.speeds]
    assert measure.percentile(loop.seconds, 80) == pytest.approx(0.2)
    assert loop.normalised(half_window=2) == pytest.approx([0.1] * 30)
    assert measure.Loop(seconds=[0.3, 0.1]).normalised() == [0.3, 0.1]


def test_exits_nonzero_without_program_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".work", "results", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path / "BENCHMARK.json")
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "decompose-lj",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert "correct" not in done.stdout


def _marked_pids(marker: str) -> list:
    """Pids whose environment holds ``marker`` (every descendant inherits it)."""
    found = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/environ", "rb") as handle:
                if marker.encode() in handle.read():
                    found.append(int(entry))
        except OSError:
            continue
    return found


@pytest.mark.skipif(not os.path.isdir("/proc"), reason="needs /proc")
@pytest.mark.parametrize("workload", ["decompose-lj", "serve-dblp"])
def test_run_leaves_no_process_behind(workload):
    marker = f"perfbench-leftover-check-{os.getpid()}-{workload}"
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", "0", "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
        env=dict(os.environ, PERFBENCH_TEST_MARKER=marker),
    )
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout.splitlines()[-1])["correct"]
    assert _marked_pids(marker) == []
