"""Unit tests for edge-list and snapshot I/O."""

import pytest

from repro.exceptions import DatasetError
from repro.graph import (
    Graph,
    erdos_renyi,
    graph_diff,
    read_diff,
    read_edge_list,
    read_snapshots,
    write_diff,
    write_edge_list,
    write_snapshots,
)


class TestEdgeListRoundtrip:
    def test_roundtrip(self, tmp_path):
        g = erdos_renyi(30, 0.2, seed=1)
        path = tmp_path / "g.edges"
        write_edge_list(g, path)
        loaded = read_edge_list(path)
        assert set(loaded.edges()) == set(g.edges())

    def test_header_written(self, tmp_path):
        g = Graph(edges=[(1, 2)])
        path = tmp_path / "g.edges"
        write_edge_list(g, path, header="hello\nworld")
        text = path.read_text()
        assert "# hello" in text and "# world" in text

    def test_comments_and_blanks_skipped(self, tmp_path):
        path = tmp_path / "g.edges"
        path.write_text("# comment\n\n% also comment\n1 2\n")
        g = read_edge_list(path)
        assert g.num_edges == 1

    def test_string_vertices_preserved(self, tmp_path):
        path = tmp_path / "g.edges"
        path.write_text("alice bob\nbob 3\n")
        g = read_edge_list(path)
        assert g.has_edge("alice", "bob")
        assert g.has_edge("bob", 3)

    def test_self_loops_dropped(self, tmp_path):
        path = tmp_path / "g.edges"
        path.write_text("1 1\n1 2\n")
        assert read_edge_list(path).num_edges == 1

    def test_malformed_line_raises(self, tmp_path):
        path = tmp_path / "g.edges"
        path.write_text("justone\n")
        with pytest.raises(DatasetError):
            read_edge_list(path)

    def test_dblp_stand_in_round_trips(self, tmp_path):
        # Author-name labels contain spaces ("Author 1899"); they must not
        # reload as ("Author", 1899)-style fragments.
        from repro import datasets

        graph = datasets.load("dblp").graph
        path = tmp_path / "dblp.edges"
        write_edge_list(graph, path)
        assert read_edge_list(path) == graph

    def test_whitespace_labels_written_tab_separated(self, tmp_path):
        g = Graph(edges=[("Ada Lovelace", "Alan  Turing"), ("Ada Lovelace", 3)])
        path = tmp_path / "g.edges"
        write_edge_list(g, path)
        lines = [ln for ln in path.read_text().splitlines() if ln[0] != "#"]
        assert all("\t" in line for line in lines)
        assert read_edge_list(path) == g

    def test_plain_labels_stay_space_separated(self, tmp_path):
        g = Graph(edges=[(1, 2), ("alice", "bob")])
        path = tmp_path / "g.edges"
        write_edge_list(g, path)
        assert "\t" not in path.read_text()
        assert read_edge_list(path) == g

    def test_snap_and_weighted_files_parse_unchanged(self, tmp_path):
        path = tmp_path / "g.edges"
        path.write_text("# FromNodeId\tToNodeId\n0\t1\n1\t2\n3 4 0.5\n")
        g = read_edge_list(path)
        assert set(g.edges()) == {(0, 1), (1, 2), (3, 4)}

    @pytest.mark.parametrize("label", ["tab\there", "line\nbreak", " padded", ""])
    def test_unwritable_label_raises(self, tmp_path, label):
        g = Graph(edges=[(label, "x")])
        with pytest.raises(DatasetError, match="cannot be written"):
            write_edge_list(g, tmp_path / "g.edges")


class TestDiffs:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "delta.txt"
        write_diff([(1, 2), (3, 4)], [(5, 6)], path)
        added, removed = read_diff(path)
        assert added == [(1, 2), (3, 4)]
        assert removed == [(5, 6)]

    def test_malformed_diff(self, tmp_path):
        path = tmp_path / "delta.txt"
        path.write_text("? 1 2\n")
        with pytest.raises(DatasetError):
            read_diff(path)

    def test_graph_diff(self):
        old = Graph(edges=[(1, 2), (2, 3)])
        new = Graph(edges=[(2, 3), (3, 4)])
        added, removed = graph_diff(old, new)
        assert added == [(3, 4)]
        assert removed == [(1, 2)]


class TestSnapshots:
    def test_roundtrip(self, tmp_path):
        snaps = [erdos_renyi(20, 0.2, seed=s) for s in range(3)]
        paths = write_snapshots(snaps, tmp_path)
        assert len(paths) == 3
        loaded = read_snapshots(tmp_path)
        for original, back in zip(snaps, loaded):
            assert set(back.edges()) == set(original.edges())

    def test_missing_directory_contents(self, tmp_path):
        with pytest.raises(DatasetError):
            read_snapshots(tmp_path)
