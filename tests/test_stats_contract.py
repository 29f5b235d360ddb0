"""The ``--stats`` output contract, across every stats-bearing subcommand.

Contract: with ``--stats``, a subcommand's **last stdout line** is exactly
one JSON object validating against the engine stats schema
(``repro.engine.stats/8``) — everything human-readable goes above it, so
scripts can always ``tail -1 | jq``.  The ``serve`` subcommand honours the
same contract by dumping stats after its SIGTERM drain, and ``shell`` by
dumping stats after its last command.

Also pins the package version single-source-of-truth:
``repro.__version__`` == ``pyproject.toml`` == ``--version`` output.
"""

import json
import os
import re
import signal
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import main
from repro.graph import Graph, write_edge_list

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Required top-level keys of the stats /8 schema.
STATS_KEYS = {
    "schema",
    "counters",
    "backend_calls",
    "stage_seconds",
    "peel",
    "external",
    "workspace",
    "default_backend",
    "cached_graphs",
    "cached_artifacts",
}


def assert_stats_contract(stdout: str) -> dict:
    """The last non-empty stdout line is one valid stats JSON object."""
    lines = [line for line in stdout.strip().splitlines() if line.strip()]
    assert lines, "no output produced"
    payload = json.loads(lines[-1])
    assert isinstance(payload, dict)
    assert payload["schema"] == "repro.engine.stats/8"
    assert STATS_KEYS <= set(payload), sorted(STATS_KEYS - set(payload))
    # Exactly one JSON object: the line above it (if any) must NOT parse
    # as a JSON object (it is human-readable prose).
    if len(lines) > 1:
        try:
            previous = json.loads(lines[-2])
        except json.JSONDecodeError:
            previous = None
        assert not isinstance(previous, dict), "two stats objects emitted"
    return payload


@pytest.fixture
def edge_file(tmp_path):
    g = Graph(edges=[(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (2, 4)])
    path = tmp_path / "g.edges"
    write_edge_list(g, path)
    return str(path)


def _stats_argvs(edge_file, tmp_path):
    return [
        ["decompose", edge_file, "--stats"],
        ["plot", edge_file, "--stats"],
        ["communities", edge_file, "--stats"],
        ["hierarchy", edge_file, "--stats"],
        ["probe", edge_file, "0", "1", "--stats"],
        ["update", edge_file, "--fraction", "0.2", "--stats"],
        ["events", "--dataset", "wiki_snapshots", "--stats"],
        ["robustness", edge_file, "--fractions", "0.1", "--trials", "1",
         "--stats"],
        [
            "report", edge_file, "-o", str(tmp_path / "r.html"), "--stats",
        ],
    ]


class TestSchemaCompat:
    """Schema bumps only add sections, except the removals of /7 and /8.

    /4 added the "peel" section, /5 the "external" section and /6 the
    "workspace" section, each a strict superset of its predecessor.  /7
    removed the "parallel" section together with the process-parallel
    backends it described, and /8 the "batch" section together with the
    batch update strategy; every other /7 key is unchanged, so a /7
    reader that never read "batch" keeps working.
    """

    V7_KEYS = {
        "schema", "counters", "backend_calls", "stage_seconds",
        "batch", "peel", "external", "workspace",
    }

    def test_v8_drops_only_the_batch_section_from_v7(self):
        from repro.engine import EngineStats

        payload = EngineStats().as_dict()
        assert set(payload) == self.V7_KEYS - {"batch"}

    def test_workspace_section_populates_from_workspace_use(self):
        from repro.engine import Engine
        from repro.graph import complete_graph
        from repro.workspace import Workspace

        engine = Engine()
        ws = Workspace(engine=engine)
        ws.add_graph("k6", complete_graph(6))
        ws.create_view("hot", "slice", "k6", {"k": 1})
        ws.decompose("hot")
        section = engine.stats_dict()["workspace"]
        assert section["graphs"] == 1
        assert section["views"] == 1
        assert section["views_created"] == 1
        assert section["materializations"] >= 1

    def test_external_section_populates_from_external_run(self):
        from repro.engine import Engine
        from repro.graph import complete_graph

        engine = Engine(max_cached_graphs=0)
        engine.decompose(complete_graph(6), backend="external")
        section = engine.stats_dict()["external"]
        assert section["decompositions"] == 1
        assert section["partitions"] >= 1
        assert section["passes"] >= 1
        assert section["bytes_mapped"] > 0
        assert section["bound_prune_hits"] == 0

    def test_peel_section_populates_from_vector_run(self):
        from repro.engine import Engine
        from repro.graph import complete_graph

        engine = Engine(max_cached_graphs=0)
        engine.decompose(complete_graph(6), backend="csr-vec")
        section = engine.stats_dict()["peel"]
        assert section["executor"] == "vector"
        assert section["runs"] == 1
        assert section["levels"] >= 1

    def test_peel_section_accumulates_across_runs(self):
        from repro.engine import Engine
        from repro.graph import complete_graph

        engine = Engine(max_cached_graphs=0)
        engine.decompose(complete_graph(6), backend="csr-vec")
        engine.decompose(complete_graph(5), backend="external")
        section = engine.stats_dict()["peel"]
        assert section["executor"] == "external"  # most recent run
        assert section["runs"] == 2


class TestStatsContract:
    @pytest.mark.parametrize(
        "index", range(9), ids=lambda i: f"subcommand-{i}"
    )
    def test_every_stats_subcommand_obeys_the_contract(
        self, edge_file, tmp_path, capsys, index
    ):
        argv = _stats_argvs(edge_file, tmp_path)[index]
        assert main(argv) == 0, argv
        assert_stats_contract(capsys.readouterr().out)

    def test_templates_and_dualview(self, edge_file, tmp_path, capsys):
        other = Graph(
            edges=[(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (2, 4), (0, 3)]
        )
        other_path = tmp_path / "other.edges"
        write_edge_list(other, other_path)
        for argv in (
            ["templates", edge_file, str(other_path), "--stats"],
            ["dualview", edge_file, str(other_path), "--stats"],
        ):
            assert main(argv) == 0, argv
            assert_stats_contract(capsys.readouterr().out)

    def test_shell_emits_exactly_one_stats_object(self, tmp_path, capsys):
        script = tmp_path / "script.txt"
        script.write_text(
            "load g karate\nview slice hot g 2\nrun decompose hot\n"
        )
        assert main(["shell", "--script", str(script), "--stats"]) == 0
        payload = assert_stats_contract(capsys.readouterr().out)
        assert payload["workspace"]["commands"] == 3
        assert payload["workspace"]["views"] == 1
        assert payload["workspace"]["graphs"] == 1

    def test_without_flag_no_stats_line(self, edge_file, capsys):
        assert main(["decompose", edge_file]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        with pytest.raises(json.JSONDecodeError):
            json.loads(lines[-1])


class TestServeStatsContract:
    """``serve --stats``: dump-on-exit after a clean SIGTERM drain."""

    def _spawn(self, *extra):
        env = {**os.environ}
        env["PYTHONPATH"] = str(REPO_ROOT / "src") + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        return subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve", "synthetic",
                "--port", "0", *extra,
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            env=env,
        )

    def _port_of(self, proc) -> int:
        line = proc.stdout.readline()
        match = re.search(r"on http://[^:]+:(\d+)", line)
        assert match, f"no announce line: {line!r}"
        return int(match.group(1))

    def test_sigterm_drains_cleanly_with_stats_last_line(self):
        import urllib.request

        proc = self._spawn("--stats")
        try:
            port = self._port_of(proc)
            with urllib.request.urlopen(
                f"http://127.0.0.1:{port}/healthz", timeout=10
            ) as response:
                health = json.loads(response.read())
            assert health["status"] == "ok"
            proc.send_signal(signal.SIGTERM)
            out, err = proc.communicate(timeout=60)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
        assert proc.returncode == 0, err
        payload = assert_stats_contract(out)
        assert payload["service"]["requests"]["healthz"]["count"] == 1
        assert "drained cleanly" in out

    def test_announce_line_is_stable(self):
        # Wrappers that bind port 0 (the perfbench serve workload) parse
        # this exact line; its bytes are part of the CLI contract.
        import urllib.request

        proc = self._spawn()
        try:
            announce = next(
                (line for line in proc.stdout if line.startswith("ANNOUNCE ")),
                None,
            )
            assert announce is not None, "serve exited before announcing"
            port = json.loads(announce[len("ANNOUNCE "):])["port"]
            assert announce == (
                f'ANNOUNCE {{"port": {port}, "role": "standalone"}}\n'
            )
            with urllib.request.urlopen(
                f"http://127.0.0.1:{port}/healthz", timeout=10
            ) as response:
                assert response.status == 200
            proc.send_signal(signal.SIGTERM)
            _out, err = proc.communicate(timeout=60)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
        assert proc.returncode == 0, err

    def test_sigterm_without_stats_exits_zero(self):
        proc = self._spawn()
        try:
            self._port_of(proc)
            proc.send_signal(signal.SIGTERM)
            out, err = proc.communicate(timeout=60)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
        assert proc.returncode == 0, err
        assert out.strip().endswith("drained cleanly")


class TestVersionFlag:
    def test_version_prints_and_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        out = capsys.readouterr().out.strip()
        from repro import __version__

        assert out == f"triangle-kcore {__version__}"

    def test_single_source_of_truth_vs_pyproject(self):
        from repro import __version__

        text = (REPO_ROOT / "pyproject.toml").read_text()
        match = re.search(
            r'^version\s*=\s*"([^"]+)"', text, flags=re.MULTILINE
        )
        assert match, "pyproject.toml has no version field"
        assert match.group(1) == __version__
