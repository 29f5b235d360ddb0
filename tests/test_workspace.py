"""The interactive workspace: views, shell, session replay, importers.

The three contracts pinned here (ISSUE 10 acceptance criteria):

* **view isolation** — every view-scoped analysis is bit-identical to
  running the same analysis on a materialized copy of the view's
  subgraph, across ``reference`` / ``csr`` / ``auto`` backends;
* **replay determinism** — a saved session log re-executed with
  ``shell --replay`` reproduces the original answers byte-for-byte,
  including against a freshly started live :class:`BackgroundServer`;
* **script-in / answers-out** — the shell is fully drivable from files
  and pipes (no pty), errors become deterministic ``error:`` lines, and
  with ``--stats`` the last stdout line is exactly one JSON object.
"""

import io
import json

import pytest

from repro.cli import main
from repro.engine import Engine
from repro.exceptions import PersistenceError, WorkspaceError
from repro.graph import (
    Graph,
    configuration_model,
    kronecker,
    read_adjacency_csv,
    write_edge_list,
)
from repro.testing.editscript import EditOp
from repro.testing.workloads import PROFILES, generate
from repro.workspace import (
    SESSION_SCHEMA,
    SessionLog,
    ShellContext,
    Workspace,
    execute,
)
from repro.workspace.shell import replay_session, run_lines


def karate() -> Graph:
    from repro.datasets import load

    return load("karate").graph


# --------------------------------------------------------------------- #
# generators (satellite)
# --------------------------------------------------------------------- #


class TestKronecker:
    def test_deterministic_per_seed(self):
        initiator = [[0.9, 0.5], [0.5, 0.3]]
        a = kronecker(initiator, 4, seed=3)
        b = kronecker(initiator, 4, seed=3)
        assert sorted(a.edges()) == sorted(b.edges())
        assert sorted(kronecker(initiator, 4, seed=4).edges()) != sorted(
            a.edges()
        )

    def test_vertex_space_is_k_to_the_iterations(self):
        g = kronecker([[0.9, 0.5], [0.5, 0.3]], 4, seed=1)
        assert g.num_vertices == 16
        assert all(0 <= v < 16 for v in g.vertices())

    def test_simple_graph_no_self_loops(self):
        g = kronecker([[0.95, 0.6], [0.6, 0.4]], 5, seed=0)
        assert all(u != v for u, v in g.edges())

    @pytest.mark.parametrize(
        "initiator, iterations",
        [
            ([[0.9]], 2),                      # 1x1 initiator
            ([[0.9, 0.5]], 2),                 # not square
            ([[0.9, 0.5], [0.5, -0.1]], 2),    # negative cell
            ([[0.0, 0.0], [0.0, 0.0]], 2),     # no positive cell
            ([[0.9, 0.5], [0.5, 0.3]], 0),     # iterations < 1
        ],
    )
    def test_rejects_bad_arguments(self, initiator, iterations):
        with pytest.raises(ValueError):
            kronecker(initiator, iterations)


class TestConfigurationModel:
    def test_deterministic_per_seed(self):
        degrees = [4, 3, 3, 2, 2, 2, 2, 2]
        a = configuration_model(degrees, seed=7)
        b = configuration_model(degrees, seed=7)
        assert sorted(a.edges()) == sorted(b.edges())

    def test_every_listed_vertex_exists(self):
        g = configuration_model([3, 3, 2, 2, 2, 2], seed=0)
        assert g.num_vertices == 6

    def test_erased_convention_simple_graph(self):
        g = configuration_model([6] * 8, seed=1)
        assert all(u != v for u, v in g.edges())
        assert len(set(g.edges())) == g.num_edges

    def test_rejects_odd_degree_sum_and_negative(self):
        with pytest.raises(ValueError):
            configuration_model([1, 2])
        with pytest.raises(ValueError):
            configuration_model([2, -1, 1])


# --------------------------------------------------------------------- #
# CSV adjacency import (satellite)
# --------------------------------------------------------------------- #


def _write(tmp_path, text: str) -> str:
    path = tmp_path / "m.csv"
    path.write_text(text)
    return str(path)


class TestAdjacencyCsv:
    def test_basic_matrix(self, tmp_path):
        g = read_adjacency_csv(
            _write(tmp_path, ",a,b,c\na,0,1,1\nb,1,0,\nc,1,,0\n")
        )
        assert sorted(g.vertices()) == ["a", "b", "c"]
        assert sorted(g.edges()) == [("a", "b"), ("a", "c")]

    def test_isolated_vertices_preserved(self, tmp_path):
        g = read_adjacency_csv(
            _write(tmp_path, ",1,2,3\n1,0,1,0\n2,1,0,0\n3,0,0,0\n")
        )
        assert g.num_vertices == 3
        assert g.has_vertex(3)
        assert g.num_edges == 1

    def test_integer_ids_and_weighted_cells(self, tmp_path):
        g = read_adjacency_csv(
            _write(tmp_path, ",1,2\n1,0,0.5\n2,0.5,0\n")
        )
        assert g.has_edge(1, 2)

    @pytest.mark.parametrize(
        "text, fragment",
        [
            ("", "empty adjacency matrix"),
            (",a,b\na,0,1\n", "expected 2 data rows"),
            (",a,b\na,0,1,9\nb,1,0\n", "ragged row 1"),
            (",a,a\na,0,1\na,1,0\n", "duplicate node id"),
            (",a,b\nb,0,1\na,1,0\n", "labelled"),
            (",a,b\na,1,0\nb,0,0\n", "self loop"),
            (",a,b\na,0,1\nb,0,0\n", "asymmetric cell"),
        ],
    )
    def test_faults_raise_typed_persistence_error(
        self, tmp_path, text, fragment
    ):
        path = _write(tmp_path, text)
        with pytest.raises(PersistenceError) as excinfo:
            read_adjacency_csv(path)
        assert fragment in str(excinfo.value)
        assert excinfo.value.path == path


# --------------------------------------------------------------------- #
# workload profiles (satellite)
# --------------------------------------------------------------------- #


class TestNewProfiles:
    @pytest.mark.parametrize("name", ["heavy_tail", "self_similar"])
    def test_registered_deterministic_exact_length(self, name):
        assert name in PROFILES
        for seed in (0, 1, 2):
            a = generate(name, seed, 150)
            b = generate(name, seed, 150)
            assert [(o.kind, o.u, o.v) for o in a.ops] == [
                (o.kind, o.u, o.v) for o in b.ops
            ]
            assert len(a.ops) == 150

    def test_fuzz_cli_choices_derive_from_profiles(self, capsys):
        with pytest.raises(SystemExit):
            main(["fuzz", "--profile", "not_a_profile"])
        err = capsys.readouterr().err
        for name in sorted(PROFILES):
            assert name in err

    def test_generate_unknown_profile_names_all(self):
        with pytest.raises(ValueError) as excinfo:
            generate("nope", 0, 10)
        for name in sorted(PROFILES):
            assert name in str(excinfo.value)


# --------------------------------------------------------------------- #
# workspace semantics
# --------------------------------------------------------------------- #


class TestWorkspace:
    def test_names_are_unique_across_graphs_and_views(self):
        ws = Workspace()
        ws.add_graph("g", karate())
        with pytest.raises(WorkspaceError):
            ws.add_graph("g", Graph())
        ws.create_view("hot", "slice", "g", {"k": 2})
        with pytest.raises(WorkspaceError):
            ws.add_graph("hot", Graph())
        with pytest.raises(WorkspaceError):
            ws.create_view("g", "slice", "g", {"k": 1})
        with pytest.raises(WorkspaceError):
            ws.add_graph("0bad name", Graph())

    def test_edit_through_maintainer_invalidates_dependent_views(self):
        ws = Workspace()
        ws.add_graph("g", karate())
        view = ws.create_view("hot", "slice", "g", {"k": 2})
        assert not view.stale
        applied, skipped, _ = ws.edit(
            "g", [EditOp("add", 0, 9), EditOp("add", 0, 9)]
        )
        assert (applied, skipped) == (1, 1)
        assert view.stale
        # lazily re-derived on next use
        subgraph = ws.view_subgraph("hot")
        assert not view.stale
        assert subgraph.num_vertices == len(view.vertices)

    def test_edit_keeps_max_kappa_current_without_a_scan(self):
        class ScanCounter(dict):
            scans = 0

            def values(self):
                self.scans += 1
                return super().values()

        ws = Workspace()
        ws.add_graph("g", karate())
        ws.edit("g", [EditOp("add", 0, 9)])
        maintainer = ws._maintainers["g"]
        maintainer._kappa = ScanCounter(maintainer._kappa)
        applied, skipped, max_kappa = ws.edit(
            "g",
            [
                EditOp("add", 100, 101),
                EditOp("add", 101, 102),
                EditOp("add", 100, 102),
                EditOp("add", 100, 101),  # duplicate
                EditOp("add_vertex", 0, None),  # already present
            ],
        )
        assert (applied, skipped) == (3, 2)
        assert maintainer._kappa.scans == 0
        assert max_kappa == max(dict(maintainer._kappa).values())

    def test_vertices_view_intersects_after_vertex_removal(self):
        ws = Workspace()
        g = Graph(edges=[(0, 1), (1, 2), (0, 2), (2, 3)])
        ws.add_graph("g", g)
        view = ws.create_view(
            "picked", "vertices", "g", {"vertices": (0, 1, 3, 99)}
        )
        assert view.vertices == (0, 1, 3)  # 99 never existed
        ws.edit("g", [EditOp("remove_vertex", 3, None)])
        assert ws.view_subgraph("picked").num_vertices == 2

    def test_drop_graph_cascades_to_views(self):
        ws = Workspace()
        ws.add_graph("g", karate())
        ws.create_view("a", "slice", "g", {"k": 1})
        ws.create_view("b", "vertices", "g", {"vertices": (0, 1)})
        kind, dependents = ws.drop("g")
        assert (kind, dependents) == ("graph", 2)
        assert not ws.views and not ws.graphs

    def test_materialized_subgraph_cached_per_version(self):
        ws = Workspace()
        ws.add_graph("g", karate())
        ws.create_view("hot", "slice", "g", {"k": 2})
        first = ws.view_subgraph("hot")
        assert ws.view_subgraph("hot") is first  # same object -> cache hits
        ws.edit("g", [EditOp("add", 0, 9)])
        assert ws.view_subgraph("hot") is not first

    def test_engine_cache_reused_across_repeat_view_analyses(self):
        engine = Engine()
        ws = Workspace(engine=engine)
        ws.add_graph("g", karate())
        ws.create_view("hot", "slice", "g", {"k": 2})
        ws.decompose("hot")
        hits_before = engine.stats.cache_hits
        ws.decompose("hot")
        assert engine.stats.cache_hits > hits_before

    def test_workspace_stats_section(self):
        engine = Engine()
        ws = Workspace(engine=engine)
        ws.add_graph("g", karate())
        ws.create_view("hot", "slice", "g", {"k": 2})
        ws.decompose("hot")
        ws.edit("g", [EditOp("add", 0, 9)])
        section = engine.stats_dict()["workspace"]
        assert section["graphs"] == 1
        assert section["views"] == 1
        assert section["views_created"] == 1
        assert section["view_invalidations"] == 1
        assert section["materializations"] == 1


# --------------------------------------------------------------------- #
# view isolation: bit-identity vs a materialized copy
# --------------------------------------------------------------------- #


VIEW_RECIPES = [
    ("slice", {"k": 2}),
    ("community", {"vertex": 0}),
    ("vertices", {"vertices": tuple(range(12))}),
]


class TestViewIsolation:
    @pytest.mark.parametrize("backend", ["reference", "csr", "auto"])
    @pytest.mark.parametrize(
        "kind, params", VIEW_RECIPES, ids=[k for k, _ in VIEW_RECIPES]
    )
    def test_view_scoped_decompose_bit_identical(
        self, backend, kind, params
    ):
        ws = Workspace(engine=Engine(), backend=backend)
        ws.add_graph("g", karate())
        view = ws.create_view("v", kind, "g", params)
        scoped = ws.decompose("v")

        # Independent path: materialize a *copy* of the induced subgraph
        # and analyze it with a fresh engine.
        copy = karate().subgraph(view.vertices).copy()
        control = Engine().decompose(copy, backend=backend)

        assert scoped.kappa == control.kappa
        assert scoped.max_kappa == control.max_kappa
        assert scoped.histogram() == control.histogram()

    @pytest.mark.parametrize("backend", ["reference", "csr", "auto"])
    def test_view_scoped_communities_and_maxcore_bit_identical(
        self, backend
    ):
        from repro.core import CommunityIndex, max_triangle_kcore

        ws = Workspace(engine=Engine(), backend=backend)
        ws.add_graph("g", karate())
        ws.create_view("hot", "slice", "g", {"k": 1})
        subgraph = ws.view_subgraph("hot")
        scoped_index = CommunityIndex(
            subgraph, backend=backend, engine=ws.engine
        )
        copy = karate().subgraph(ws.views["hot"].vertices).copy()
        control_index = CommunityIndex(copy, backend=backend)
        probe = sorted(subgraph.vertices(), key=repr)[0]
        assert scoped_index.densest_community_of_vertex(
            probe
        ) == control_index.densest_community_of_vertex(probe)
        assert max_triangle_kcore(subgraph)[0] == max_triangle_kcore(copy)[0]

    def test_view_scoped_analysis_after_edit_tracks_live_graph(self):
        ws = Workspace()
        ws.add_graph("g", karate())
        ws.create_view("all", "vertices", "g",
                       {"vertices": tuple(range(34))})
        before = ws.decompose("all").max_kappa
        # densify vertex 9's neighborhood so kappa actually moves
        for u, v in [(9, 0), (9, 1), (9, 2), (9, 7), (9, 13)]:
            ws.edit("g", [EditOp("add", u, v)])
        after = ws.decompose("all")
        control = Engine().decompose(ws.graphs["g"])
        assert after.kappa == control.kappa
        assert after.max_kappa >= before


# --------------------------------------------------------------------- #
# session log + replay
# --------------------------------------------------------------------- #


SCRIPT = """
load g karate
view slice hot g 2
run decompose hot
run maxcore hot
edit g add 0 9
refresh hot
run decompose hot
run hierarchy hot
views
"""


def _run_session(lines, connect_override=None):
    ctx = ShellContext(
        workspace=Workspace(engine=Engine()),
        connect_override=connect_override,
    )
    out = io.StringIO()
    run_lines(ctx, lines.splitlines() if isinstance(lines, str) else lines,
              out=out)
    return ctx, out.getvalue()


class TestSessionLog:
    def test_save_load_round_trip(self, tmp_path):
        ctx, _ = _run_session(SCRIPT)
        path = tmp_path / "s.json"
        SessionLog(entries=list(ctx.log)).save(path)
        loaded = SessionLog.load(path)
        assert loaded.entries == ctx.log
        payload = json.loads(path.read_text())
        assert payload["format"] == SESSION_SCHEMA

    @pytest.mark.parametrize(
        "payload, fragment",
        [
            ("not json {", "invalid JSON"),
            ("[]", "must be a JSON object"),
            ('{"format": "other/9", "commands": []}',
             "unsupported session format"),
            ('{"format": "repro.workspace-session/1", "commands": 3}',
             "'commands' must be a list"),
            ('{"format": "repro.workspace-session/1", '
             '"commands": [{"line": 5, "output": []}]}',
             "commands[0]"),
        ],
    )
    def test_malformed_logs_raise_persistence_error(
        self, tmp_path, payload, fragment
    ):
        path = tmp_path / "bad.json"
        path.write_text(payload)
        with pytest.raises(PersistenceError) as excinfo:
            SessionLog.load(path)
        assert fragment in str(excinfo.value)

    def test_missing_file_raises_persistence_error(self, tmp_path):
        with pytest.raises(PersistenceError):
            SessionLog.load(tmp_path / "absent.json")


class TestReplayDeterminism:
    def test_replay_reproduces_answers_byte_for_byte(self, tmp_path):
        ctx, original = _run_session(SCRIPT)
        path = tmp_path / "s.json"
        SessionLog(entries=list(ctx.log)).save(path)

        ctx2 = ShellContext(workspace=Workspace(engine=Engine()))
        out, err = io.StringIO(), io.StringIO()
        assert replay_session(ctx2, str(path), out=out, err=err) == 0
        assert out.getvalue() == original
        assert err.getvalue() == ""
        # re-saving the replayed session reproduces the file bytes too
        again = tmp_path / "s2.json"
        SessionLog(entries=list(ctx2.log)).save(again)
        assert again.read_text() == path.read_text()

    def test_replay_detects_tampered_output(self, tmp_path):
        ctx, _ = _run_session("load g karate\ngraphs\n")
        path = tmp_path / "s.json"
        log = SessionLog(entries=list(ctx.log))
        log.entries[1]["output"] = ["g: |V|=9999 |E|=9999"]
        log.save(path)
        ctx2 = ShellContext(workspace=Workspace(engine=Engine()))
        out, err = io.StringIO(), io.StringIO()
        assert replay_session(ctx2, str(path), out=out, err=err) == 1
        assert "replay mismatch at command 1" in err.getvalue()

    def test_replay_against_live_background_server(self, tmp_path):
        from repro.service.server import BackgroundServer

        with BackgroundServer(karate()) as server:
            ctx, original = _run_session(
                [
                    f"connect 127.0.0.1 {server.port}",
                    "remote kappa 0 1",
                    "remote community 0",
                    "remote hierarchy",
                    "remote edit add 0 9",
                    "remote kappa 0 9",
                    "disconnect",
                ]
            )
        path = tmp_path / "remote.json"
        SessionLog(entries=list(ctx.log)).save(path)

        # Fresh server, (almost certainly) different port: the recorded
        # lines are replayed verbatim; --connect overrides the target.
        with BackgroundServer(karate()) as fresh:
            ctx2 = ShellContext(
                workspace=Workspace(engine=Engine()),
                connect_override=("127.0.0.1", fresh.port),
            )
            out, err = io.StringIO(), io.StringIO()
            assert replay_session(ctx2, str(path), out=out, err=err) == 0
        assert out.getvalue() == original

    def test_remote_commands_require_connection(self):
        _, output = _run_session("remote kappa 0 1\n")
        assert output.startswith("error: not connected")


# --------------------------------------------------------------------- #
# the shell subcommand (script-driven, no pty)
# --------------------------------------------------------------------- #


class TestShellCli:
    def test_script_mode(self, tmp_path, capsys):
        script = tmp_path / "script.txt"
        script.write_text("load g karate\nrun decompose g\nexit\n")
        assert main(["shell", "--script", str(script)]) == 0
        out = capsys.readouterr().out
        assert "graph g: |V|=34 |E|=78" in out
        assert "max_kappa=3" in out

    def test_save_then_replay_via_cli(self, tmp_path, capsys):
        script = tmp_path / "script.txt"
        script.write_text(SCRIPT)
        session = tmp_path / "session.json"
        assert main(
            ["shell", "--script", str(script), "--save", str(session)]
        ) == 0
        original = capsys.readouterr().out
        assert main(["shell", "--replay", str(session)]) == 0
        assert capsys.readouterr().out == original

    def test_replay_mismatch_exits_one(self, tmp_path, capsys):
        session = tmp_path / "session.json"
        log = SessionLog()
        log.record("load g karate", ["graph g: |V|=1 |E|=1"])
        log.save(session)
        assert main(["shell", "--replay", str(session)]) == 1
        captured = capsys.readouterr()
        assert "replay mismatch" in captured.err

    def test_errors_are_lines_not_crashes(self, tmp_path, capsys):
        script = tmp_path / "script.txt"
        script.write_text(
            "bogus\nload g karate\nload g karate\nrun decompose nope\n"
            "graphs\n"
        )
        assert main(["shell", "--script", str(script)]) == 0
        out = capsys.readouterr().out
        assert "error: unknown command 'bogus'" in out
        assert "error: name 'g' is already a graph" in out
        assert "error: no graph or view named 'nope'" in out
        assert "g: |V|=34 |E|=78" in out

    def test_checked_in_session_replays(self, capsys):
        from pathlib import Path

        session = (
            Path(__file__).resolve().parent.parent
            / "examples"
            / "workspace-session.json"
        )
        assert main(["shell", "--replay", str(session)]) == 0

    def test_import_and_generate_commands(self, tmp_path, capsys):
        csv = tmp_path / "m.csv"
        csv.write_text(",a,b,c\na,0,1,1\nb,1,0,1\nc,1,1,0\n")
        script = tmp_path / "script.txt"
        script.write_text(
            f"import m {csv}\n"
            "generate e erdos_renyi 20 0.3 1\n"
            "generate kr kronecker 4 1\n"
            "generate cm configuration_model 10 2\n"
            "graphs\n"
        )
        assert main(["shell", "--script", str(script)]) == 0
        out = capsys.readouterr().out
        assert "graph m: |V|=3 |E|=3" in out
        assert "graph kr: |V|=16" in out

    def test_edge_list_files_load(self, tmp_path, capsys):
        path = tmp_path / "g.edges"
        write_edge_list(Graph(edges=[(0, 1), (1, 2), (0, 2)]), path)
        script = tmp_path / "script.txt"
        script.write_text(f"load g {path}\nrun decompose g\n")
        assert main(["shell", "--script", str(script)]) == 0
        assert "max_kappa=1" in capsys.readouterr().out
