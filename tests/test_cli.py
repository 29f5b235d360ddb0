"""Tests for the command-line interface."""

import json

import pytest


def _numpy_available() -> bool:
    try:
        import numpy  # noqa: F401
    except ImportError:
        return False
    return True

from repro.cli import build_parser, main
from repro.graph import Graph, write_edge_list


@pytest.fixture
def edge_file(tmp_path):
    g = Graph(edges=[(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (2, 4)])
    path = tmp_path / "g.edges"
    write_edge_list(g, path)
    return str(path)


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_known_subcommands(self):
        parser = build_parser()
        for command in ("decompose", "plot", "update", "templates", "datasets"):
            args = parser.parse_args(
                [command] + {
                    "decompose": ["synthetic"],
                    "plot": ["synthetic"],
                    "update": ["synthetic"],
                    "templates": ["a", "b"],
                    "datasets": [],
                }[command]
            )
            assert args.command == command


class TestDecompose:
    def test_on_edge_file(self, edge_file, capsys):
        assert main(["decompose", edge_file]) == 0
        out = capsys.readouterr().out
        assert "max kappa = 1" in out
        assert "|E|=6" in out

    def test_writes_output(self, edge_file, tmp_path, capsys):
        out_path = tmp_path / "kappa.txt"
        assert main(["decompose", edge_file, "-o", str(out_path)]) == 0
        lines = out_path.read_text().strip().splitlines()
        assert len(lines) == 6
        assert all(len(line.split()) == 3 for line in lines)

    def test_on_dataset_name(self, capsys):
        assert main(["decompose", "synthetic"]) == 0
        assert "kappa histogram" in capsys.readouterr().out

    def test_membership_with_csr_backend_is_rejected(self, edge_file, capsys):
        # PR 1 error path: the CSR kernels cannot track AddToCore/DelFromCore
        # state, so an explicit csr request with membership must fail loudly.
        assert main(
            ["decompose", edge_file, "--backend", "csr", "--membership"]
        ) == 2
        err = capsys.readouterr().err
        assert "--membership" in err
        assert "reference" in err

    def test_membership_with_auto_backend_degrades(self, edge_file, capsys):
        # PR 1 degradation path: auto silently falls back to the reference
        # implementation when membership bookkeeping is requested.
        assert main(
            ["decompose", edge_file, "--backend", "auto", "--membership"]
        ) == 0
        out = capsys.readouterr().out
        assert "membership:" in out
        assert "max kappa = 1" in out

    def test_explicit_csr_backend_without_membership_works(
        self, edge_file, capsys
    ):
        assert main(["decompose", edge_file, "--backend", "csr"]) == 0
        assert "max kappa = 1" in capsys.readouterr().out


class TestPlot:
    def test_ascii(self, edge_file, capsys):
        assert main(["plot", edge_file, "--height", "5", "--width", "40"]) == 0
        assert "+" in capsys.readouterr().out

    def test_svg(self, edge_file, tmp_path, capsys):
        svg_path = tmp_path / "out.svg"
        assert main(["plot", edge_file, "--svg", str(svg_path)]) == 0
        assert svg_path.read_text().startswith("<svg")


class TestUpdate:
    def test_update_agrees_and_reports(self, capsys):
        assert main(["update", "synthetic", "--fraction", "0.05"]) == 0
        out = capsys.readouterr().out
        assert "incremental update" in out
        assert "recompute" in out


class TestTemplates:
    def test_new_form_between_files(self, tmp_path, capsys):
        # A star keeps all five vertices present in the edge-list file (the
        # format cannot represent isolated vertices).
        old = Graph(edges=[(v, 9) for v in range(5)])
        new = old.copy()
        for u in range(5):
            for v in range(u + 1, 5):
                new.add_edge(u, v)
        old_path, new_path = tmp_path / "old.edges", tmp_path / "new.edges"
        write_edge_list(old, old_path)
        write_edge_list(new, new_path)
        assert main(
            ["templates", str(old_path), str(new_path), "--pattern", "new_form"]
        ) == 0
        out = capsys.readouterr().out
        assert "New Form Clique" in out
        assert "~5-vertex" in out


class TestDatasets:
    @pytest.mark.skipif(
        not _numpy_available(),
        reason="`datasets` loads the R-MAT stand-ins, which need numpy",
    )
    def test_lists_all(self, capsys):
        assert main(["datasets"]) == 0
        out = capsys.readouterr().out
        for name in ("synthetic", "stocks", "ppi", "dblp", "livejournal"):
            assert name in out


class TestCommunities:
    def test_level_listing(self, edge_file, capsys):
        assert main(["communities", edge_file, "--level", "1"]) == 0
        out = capsys.readouterr().out
        assert "triangle-connected communities" in out

    def test_vertex_query(self, edge_file, capsys):
        assert main(["communities", edge_file, "--vertex", "0"]) == 0
        out = capsys.readouterr().out
        assert "densest community" in out


class TestReport:
    def test_writes_html(self, edge_file, tmp_path, capsys):
        out_path = tmp_path / "report.html"
        assert main(["report", edge_file, "-o", str(out_path)]) == 0
        text = out_path.read_text()
        assert text.startswith("<!DOCTYPE html>")
        assert "<svg" in text


class TestEvents:
    def test_snapshot_files(self, tmp_path, capsys):
        before = Graph(edges=[(u, v) for u in range(6) for v in range(u + 1, 6)])
        after = Graph(
            edges=[(u, v) for u in range(9) for v in range(u + 1, 9)]
        )
        p1, p2 = tmp_path / "a.edges", tmp_path / "b.edges"
        write_edge_list(before, p1)
        write_edge_list(after, p2)
        assert main(["events", str(p1), str(p2)]) == 0
        out = capsys.readouterr().out
        assert "grow" in out

    def test_builtin_dataset(self, capsys):
        assert main(
            ["events", "--dataset", "wiki_snapshots", "--min-kappa", "4"]
        ) == 0
        assert "merge" in capsys.readouterr().out

    def test_dataset_without_snapshots(self, capsys):
        assert main(["events", "--dataset", "synthetic"]) == 1
        assert "no snapshots" in capsys.readouterr().out

    def test_decompose_json_output(self, edge_file, tmp_path, capsys):
        out_path = tmp_path / "kappa.json"
        assert main(["decompose", edge_file, "-o", str(out_path)]) == 0
        from repro.core import load_result

        result = load_result(out_path)
        assert len(result.kappa) == 6


class TestNewSubcommands:
    def test_hierarchy(self, edge_file, capsys):
        assert main(["hierarchy", edge_file]) == 0
        assert "level" in capsys.readouterr().out

    def test_maxcore(self, edge_file, capsys):
        assert main(["maxcore", edge_file]) == 0
        out = capsys.readouterr().out
        assert "densest Triangle K-Core" in out
        assert "kappa 1" in out

    def test_probe_exact(self, edge_file, capsys):
        assert main(["probe", edge_file, "0", "1", "--radius", "2"]) == 0
        out = capsys.readouterr().out
        assert "exact" in out

    def test_probe_string_vertices(self, tmp_path, capsys):
        g = Graph(edges=[("a", "b"), ("b", "c"), ("a", "c")])
        path = tmp_path / "s.edges"
        write_edge_list(g, path)
        assert main(["probe", str(path), "a", "b"]) == 0
        assert "[1, 1]" in capsys.readouterr().out

    def test_missing_file_friendly_error(self, capsys):
        assert main(["decompose", "/no/such/file.edges"]) == 2
        assert "no such file" in capsys.readouterr().err

    def test_library_error_friendly(self, edge_file, capsys):
        # Probe a non-existent edge -> EdgeNotFoundError -> exit 2.
        assert main(["probe", edge_file, "0", "99"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_robustness_subcommand(self, capsys):
        assert main(
            ["robustness", "synthetic", "--fractions", "0.1", "--trials", "1"]
        ) == 0
        out = capsys.readouterr().out
        assert "baseline densest core" in out
        assert "breakdown" in out


class TestFuzz:
    def test_clean_run_exits_zero(self, capsys):
        assert main(
            ["fuzz", "--seed", "0", "--ops", "60", "--checkpoint-every", "30"]
        ) == 0
        out = capsys.readouterr().out
        assert "no divergence" in out
        for profile in ("uniform", "churn", "triangle_bursts"):
            assert profile in out

    def test_single_profile_selection(self, capsys):
        assert main(
            ["fuzz", "--ops", "40", "--profile", "churn"]
        ) == 0
        out = capsys.readouterr().out
        assert "churn" in out
        assert "uniform" not in out

    def test_perturbed_self_test_detects_shrinks_and_dumps(
        self, tmp_path, capsys
    ):
        bundle_path = tmp_path / "bundle.json"
        assert main(
            [
                "fuzz",
                "--ops", "200",
                "--profile", "triangle_bursts",
                "--perturb-level", "1",
                "--shrink",
                "--out", str(bundle_path),
            ]
        ) == 1
        out = capsys.readouterr().out
        assert "DIVERGED" in out
        assert "shrunk" in out
        assert bundle_path.exists()
        from repro.testing import ReproBundle

        bundle = ReproBundle.load(bundle_path)
        assert len(bundle.script) <= 10
        assert bundle.divergence is not None

    def test_replay_round_trip(self, tmp_path, capsys):
        bundle_path = tmp_path / "bundle.json"
        main(
            [
                "fuzz",
                "--ops", "200",
                "--profile", "triangle_bursts",
                "--perturb-level", "1",
                "--shrink",
                "--out", str(bundle_path),
            ]
        )
        capsys.readouterr()
        # The shrunk script replays clean against the *real* maintainer...
        assert main(["fuzz", "--replay", str(bundle_path)]) == 0
        assert "replay clean" in capsys.readouterr().out
        # ...and still trips the injected bug when asked to re-inject it.
        assert main(
            ["fuzz", "--replay", str(bundle_path), "--perturb-level", "1"]
        ) == 1
        assert "DIVERGED" in capsys.readouterr().out

    def test_batch_strategy_is_an_alias(self, capsys):
        assert main(
            ["fuzz", "--ops", "60", "--profile", "churn",
             "--strategy", "batch", "--batch-ops", "20"]
        ) == 0
        out = capsys.readouterr().out
        assert "diff_apply(strategy='batch')" in out
        assert "no divergence" in out

    def test_replays_a_bundle_naming_the_batch_strategy(
        self, tmp_path, capsys
    ):
        """Bundles written while "batch" was its own strategy replay
        through the alias."""
        from repro.testing import ReproBundle, generate

        path = tmp_path / "bundle.json"
        ReproBundle(
            script=generate("triangle_bursts", 0, 80),
            profile="triangle_bursts",
            apply_mode="batch",
            batch_ops=20,
            batch_strategy="batch",
        ).save(path)
        assert json.loads(path.read_text())["batch_strategy"] == "batch"
        assert main(["fuzz", "--replay", str(path)]) == 0
        out = capsys.readouterr().out
        assert "diff_apply(strategy='batch')" in out
        assert "replay clean" in out


class TestEngineFlags:
    """PR 3: ``--stats`` / ``--backend`` wiring and the dualview subcommand."""

    @staticmethod
    def _last_line_stats(capsys):
        import json

        lines = capsys.readouterr().out.strip().splitlines()
        payload = json.loads(lines[-1])
        assert payload["schema"] == "repro.engine.stats/8"
        return payload

    def test_decompose_stats_json(self, edge_file, capsys):
        assert main(["decompose", edge_file, "--stats"]) == 0
        payload = self._last_line_stats(capsys)
        assert payload["counters"]["decompositions"] == 1
        assert payload["counters"]["triangles_enumerated"] == 2
        assert payload["backend_calls"] in (
            {"reference": 1},
            {"csr": 1},
        )
        assert payload["stage_seconds"]

    def test_decompose_dynamic_backend(self, edge_file, capsys):
        assert main(
            ["decompose", edge_file, "--backend", "dynamic", "--stats"]
        ) == 0
        payload = self._last_line_stats(capsys)
        assert payload["counters"]["dynamic_cold_starts"] == 1

    def test_membership_with_dynamic_backend_is_rejected(
        self, edge_file, capsys
    ):
        assert main(
            ["decompose", edge_file, "--backend", "dynamic", "--membership"]
        ) == 2
        assert "reference" in capsys.readouterr().err

    def test_events_stats_json(self, capsys):
        assert main(["events", "--dataset", "wiki_snapshots", "--stats"]) == 0
        payload = self._last_line_stats(capsys)
        assert payload["counters"]["decompositions"] >= 1

    def test_events_dynamic_backend_matches_default(self, capsys):
        assert main(["events", "--dataset", "wiki_snapshots"]) == 0
        default_out = capsys.readouterr().out
        assert main(
            ["events", "--dataset", "wiki_snapshots", "--backend", "dynamic"]
        ) == 0
        assert capsys.readouterr().out == default_out

    def test_dualview_ascii_and_stats(self, tmp_path, capsys):
        old = Graph(edges=[(0, 1), (1, 2), (0, 2)])
        new = Graph(edges=[(0, 1), (1, 2), (0, 2), (0, 3), (1, 3), (2, 3)])
        old_path, new_path = tmp_path / "old.edges", tmp_path / "new.edges"
        write_edge_list(old, old_path)
        write_edge_list(new, new_path)
        assert main(
            ["dualview", str(old_path), str(new_path), "--stats"]
        ) == 0
        out = capsys.readouterr().out
        assert "+3 / -0 edges" in out
        import json

        payload = json.loads(out.strip().splitlines()[-1])
        assert payload["counters"]["maintainers_built"] == 1

    def test_dualview_svg_pair(self, tmp_path, capsys):
        old = Graph(edges=[(0, 1), (1, 2), (0, 2)])
        new = Graph(edges=[(0, 1), (1, 2), (0, 2), (2, 3), (1, 3)])
        old_path, new_path = tmp_path / "old.edges", tmp_path / "new.edges"
        write_edge_list(old, old_path)
        write_edge_list(new, new_path)
        prefix = str(tmp_path / "dv")
        assert main(
            ["dualview", str(old_path), str(new_path), "--svg", prefix]
        ) == 0
        assert (tmp_path / "dv_before.svg").exists()
        assert (tmp_path / "dv_after.svg").exists()

    def test_robustness_methods_agree(self, capsys):
        args = ["robustness", "synthetic", "--fractions", "0.1",
                "--trials", "2", "--seed", "3"]
        assert main(args + ["--method", "dynamic"]) == 0
        dynamic_out = capsys.readouterr().out
        assert main(args + ["--method", "recompute"]) == 0
        assert capsys.readouterr().out == dynamic_out

    def test_stats_flag_on_other_subcommands(self, edge_file, capsys):
        for argv in (
            ["plot", edge_file, "--stats"],
            ["communities", edge_file, "--stats"],
            ["hierarchy", edge_file, "--stats"],
            ["probe", edge_file, "0", "1", "--stats"],
        ):
            assert main(argv) == 0, argv
            self._last_line_stats(capsys)
