"""Edge-list and snapshot I/O.

The on-disk formats are deliberately plain so files interoperate with SNAP /
networkx tooling:

* **edge list** — one ``u v`` pair per line, ``#`` comments allowed; a
  line holding a tab splits on tabs only, so labels containing spaces
  (author names) survive a round trip;
* **snapshot stream** — a directory (or single file) of edge lists, one per
  timestamp, plus :func:`write_diff` / :func:`read_diff` for the
  added/removed deltas the dynamic algorithms consume.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Iterable, List, Tuple, Union

from ..exceptions import DatasetError, PersistenceError
from .edge import Edge, Vertex, canonical_edge
from .undirected import Graph

PathLike = Union[str, os.PathLike]


def _parse_vertex(token: str) -> object:
    """Parse a vertex token: int if possible, else the raw string."""
    try:
        return int(token)
    except ValueError:
        return token


class _LabelTable(dict):
    """``{token: label}`` that parses each distinct token once.

    Every token that parses to the same label (``"7"`` and ``"07"``, or a
    repeated ``"7"``) yields the *same* label object, so a graph read
    through one table holds one object per vertex: each adjacency entry
    is its vertex's key, not an equal copy.  The CSR build flattens those
    entries, and one object per label keeps that pass cache-friendly; a
    repeated token is also a dict hit instead of an ``int()`` parse.
    """

    __slots__ = ("_labels",)

    def __init__(self) -> None:
        super().__init__()
        self._labels: dict = {}

    def __missing__(self, token: str) -> object:
        label = _parse_vertex(token)
        label = self._labels.setdefault(label, label)
        self[token] = label
        return label


def _split_fields(line: str) -> List[str]:
    """Fields of one stripped edge-list line.

    A line containing a tab is tab-separated (what :func:`write_edge_list`
    emits when a label contains whitespace, and what SNAP files use);
    any other line splits on runs of whitespace.
    """
    if "\t" in line:
        return [field.strip() for field in line.split("\t")]
    return line.split()


def _format_pair(u: Vertex, v: Vertex) -> str:
    """``u`` and ``v`` as one edge-list line, the inverse of :func:`_split_fields`.

    Labels are joined by a space unless one contains whitespace, then by a
    tab.  A label even the tab form cannot carry (empty, containing a tab
    or line break, or with leading/trailing whitespace) raises
    :class:`~repro.exceptions.DatasetError` rather than being written as a
    line that reloads as a different edge.
    """
    labels = (str(u), str(v))
    for label in labels:
        unsafe = any(c in label for c in "\t\n\r")
        if unsafe or not label or label != label.strip():
            raise DatasetError(
                f"vertex label {label!r} cannot be written to an edge list"
            )
    separator = "\t" if any(len(label.split()) > 1 for label in labels) else " "
    return separator.join(labels)


def read_edge_list(path: PathLike) -> Graph:
    """Load a graph from an edge-list file.

    Blank lines and lines starting with ``#`` or ``%`` are skipped.  A line
    containing a tab splits on tabs, any other line on whitespace; fields
    after the second (e.g. a weight column) are ignored.  Tokens that
    parse as integers become int vertices; everything else stays a
    string.  Each distinct label is one object: every adjacency entry is
    its vertex's own key.  Duplicate edges and self-loops in the file are
    ignored (the library works on simple graphs).
    """
    graph = Graph()
    labels = _LabelTable()
    with open(path, "r", encoding="utf-8") as handle:
        for line_number, line in enumerate(handle, start=1):
            stripped = line.strip()
            if not stripped or stripped.startswith(("#", "%")):
                continue
            parts = _split_fields(stripped)
            if len(parts) < 2 or not parts[0] or not parts[1]:
                raise DatasetError(
                    f"{path}:{line_number}: expected 'u v', got {stripped!r}"
                )
            u, v = labels[parts[0]], labels[parts[1]]
            if u == v:
                continue
            graph.add_edge(u, v, exist_ok=True)
    return graph


def write_edge_list(graph: Graph, path: PathLike, *, header: str = "") -> None:
    """Write ``graph`` as an edge-list file (canonical edge per line).

    Labels containing whitespace are written tab-separated, so
    :func:`read_edge_list` reloads them intact.
    """
    with open(path, "w", encoding="utf-8") as handle:
        if header:
            for line in header.splitlines():
                handle.write(f"# {line}\n")
        handle.write(f"# vertices={graph.num_vertices} edges={graph.num_edges}\n")
        for u, v in sorted(graph.edges(), key=repr):
            handle.write(_format_pair(u, v) + "\n")


def _is_adjacency_edge_cell(cell: str) -> bool:
    """True if a CSV adjacency cell denotes an edge (non-empty, non-zero)."""
    stripped = cell.strip()
    if not stripped:
        return False
    try:
        return float(stripped) != 0.0
    except ValueError:
        # Non-numeric cells (edge labels, "x" markers) denote an edge.
        return True


def read_adjacency_csv(path: PathLike) -> Graph:
    """Load a graph from a CSV adjacency matrix (the GCLI convention).

    The first row and first column list the node ids — the corner cell is
    ignored (conventionally blank).  A non-empty, non-zero cell at
    ``(row u, column v)`` creates the undirected edge ``{u, v}``; cell
    *values* (edge weights in GCLI) are not kept, only incidence.  Node
    ids that parse as integers become int vertices, like
    :func:`read_edge_list`.  Every listed node becomes a vertex even if
    its row/column is all zeros (isolated vertices are preserved).

    Validation — each fault raises :class:`~repro.exceptions.PersistenceError`
    carrying the offending ``path`` and naming the bad cell:

    * ragged rows (a row longer or shorter than the header);
    * duplicate node ids in the header, or a row labelled with an id that
      does not match the header order;
    * asymmetric cells — ``(u, v)`` marks an edge but ``(v, u)`` does not;
    * non-zero diagonal cells (self loops are not representable in a
      simple graph).
    """
    import csv

    with open(path, "r", encoding="utf-8", newline="") as handle:
        rows = list(csv.reader(handle))
    rows = [row for row in rows if any(cell.strip() for cell in row)]
    if not rows:
        raise PersistenceError(path, "empty adjacency matrix (no header row)")
    header = rows[0]
    if len(header) < 2:
        raise PersistenceError(
            path, "header must list at least one node id after the corner cell"
        )
    labels = _LabelTable()
    ids = [labels[cell.strip()] for cell in header[1:]]
    if len(set(ids)) != len(ids):
        seen: set = set()
        for node in ids:
            if node in seen:
                raise PersistenceError(
                    path, f"duplicate node id {node!r} in header"
                )
            seen.add(node)
    n = len(ids)
    if len(rows) - 1 != n:
        raise PersistenceError(
            path,
            f"expected {n} data rows (one per header id), got {len(rows) - 1}",
        )
    cells: List[List[str]] = []
    for row_number, row in enumerate(rows[1:], start=1):
        if len(row) != n + 1:
            raise PersistenceError(
                path,
                f"ragged row {row_number} (node {row[0].strip()!r}): "
                f"expected {n + 1} cells, got {len(row)}",
            )
        row_id = labels[row[0].strip()]
        if row_id != ids[row_number - 1]:
            raise PersistenceError(
                path,
                f"row {row_number} is labelled {row_id!r} but the header "
                f"lists {ids[row_number - 1]!r} at that position",
            )
        cells.append(row[1:])
    graph = Graph(vertices=ids)
    for i, u in enumerate(ids):
        for j, v in enumerate(ids):
            if not _is_adjacency_edge_cell(cells[i][j]):
                continue
            if i == j:
                raise PersistenceError(
                    path,
                    f"cell ({u!r}, {v!r}) = {cells[i][j].strip()!r} is a "
                    "self loop; simple graphs have a zero diagonal",
                )
            if not _is_adjacency_edge_cell(cells[j][i]):
                raise PersistenceError(
                    path,
                    f"asymmetric cell: ({u!r}, {v!r}) = "
                    f"{cells[i][j].strip()!r} but ({v!r}, {u!r}) = "
                    f"{cells[j][i].strip()!r}",
                )
            graph.add_edge(u, v, exist_ok=True)
    return graph


def write_diff(
    added: Iterable[Tuple[object, object]],
    removed: Iterable[Tuple[object, object]],
    path: PathLike,
) -> None:
    """Write an edge delta file: ``+ u v`` / ``- u v`` lines."""
    with open(path, "w", encoding="utf-8") as handle:
        for u, v in added:
            handle.write(f"+ {u} {v}\n")
        for u, v in removed:
            handle.write(f"- {u} {v}\n")


def read_diff(path: PathLike) -> Tuple[List[Edge], List[Edge]]:
    """Read a delta file produced by :func:`write_diff`.

    Returns ``(added, removed)`` lists of canonical edges; like
    :func:`read_edge_list`, each distinct label is one object.
    """
    labels = _LabelTable()
    added: List[Edge] = []
    removed: List[Edge] = []
    with open(path, "r", encoding="utf-8") as handle:
        for line_number, line in enumerate(handle, start=1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            parts = stripped.split()
            if len(parts) != 3 or parts[0] not in "+-":
                raise DatasetError(
                    f"{path}:{line_number}: expected '+/- u v', got {stripped!r}"
                )
            edge = canonical_edge(labels[parts[1]], labels[parts[2]])
            (added if parts[0] == "+" else removed).append(edge)
    return added, removed


def write_snapshots(
    snapshots: Iterable[Graph], directory: PathLike, *, prefix: str = "snapshot"
) -> List[Path]:
    """Write consecutive graph snapshots into ``directory``.

    Files are named ``<prefix>_000.edges``, ``<prefix>_001.edges``, …
    Returns the written paths in order.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    paths: List[Path] = []
    for index, graph in enumerate(snapshots):
        path = directory / f"{prefix}_{index:03d}.edges"
        write_edge_list(graph, path, header=f"snapshot {index}")
        paths.append(path)
    return paths


def read_snapshots(directory: PathLike, *, prefix: str = "snapshot") -> List[Graph]:
    """Read back the snapshots written by :func:`write_snapshots`, in order."""
    directory = Path(directory)
    paths = sorted(directory.glob(f"{prefix}_*.edges"))
    if not paths:
        raise DatasetError(f"no '{prefix}_*.edges' files under {directory}")
    return [read_edge_list(path) for path in paths]


def edge_set(graph: Graph) -> set[Edge]:
    """Return the graph's edges as a set of canonical tuples."""
    return set(graph.edges())


def graph_diff(old: Graph, new: Graph) -> Tuple[List[Edge], List[Edge]]:
    """Return ``(added, removed)`` canonical edge lists between two snapshots.

    This is the bridge between snapshot streams and the dynamic maintenance
    API: apply ``added``/``removed`` to a maintainer built on ``old`` and its
    state matches ``new``.
    """
    old_edges = edge_set(old)
    new_edges = edge_set(new)
    added = sorted(new_edges - old_edges, key=repr)
    removed = sorted(old_edges - new_edges, key=repr)
    return added, removed
