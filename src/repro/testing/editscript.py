"""Serializable edit scripts: the common language of the fuzzing harness.

An :class:`EditScript` is a flat list of :class:`EditOp` records describing a
deterministic sequence of graph mutations.  Scripts are the unit everything
else in :mod:`repro.testing` operates on: workload generators emit them, the
oracle runner drives them through the maintainer, repro bundles embed them,
and the shrinker minimizes them.

Scripts are *total*: every op is applicable to every graph state.  An op
that is structurally invalid at apply time (duplicate insertion, self loop,
deletion of an absent edge, removal of an absent vertex) is not an error in
the script — it is an *adversarial* op whose expected outcome is a specific
library exception and an unchanged graph.  :func:`expected_outcome` encodes
that contract in one place so the generator, the runner and the shrinker
can never disagree about what a script means.  Total semantics is also what
makes delta-debugging sound: dropping any subset of ops always yields
another valid script.

Vertices are restricted to JSON-native scalars (int or str) so scripts
round-trip through JSON byte-for-byte.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from ..graph.edge import Vertex, canonical_edge
from ..graph.undirected import Graph

#: Op kinds, in the order the runner documents them.
OP_KINDS = ("add", "remove", "add_vertex", "remove_vertex")

#: Outcome tags returned by :func:`expected_outcome`.
OUTCOME_OK = "ok"
OUTCOME_NOOP = "noop"  # structurally idempotent (add_vertex of existing)
OUTCOME_SELF_LOOP = "self_loop"
OUTCOME_DUPLICATE = "duplicate"
OUTCOME_MISSING_EDGE = "missing_edge"
OUTCOME_MISSING_VERTEX = "missing_vertex"


@dataclass(frozen=True)
class EditOp:
    """One graph mutation: ``kind`` plus one or two vertex operands."""

    kind: str
    u: Vertex
    v: Optional[Vertex] = None

    def __post_init__(self) -> None:
        if self.kind not in OP_KINDS:
            raise ValueError(f"unknown op kind {self.kind!r}; expected {OP_KINDS}")
        needs_v = self.kind in ("add", "remove")
        if needs_v and self.v is None:
            raise ValueError(f"op {self.kind!r} requires two vertices")
        if not needs_v and self.v is not None:
            raise ValueError(f"op {self.kind!r} takes a single vertex")
        for vertex in (self.u, self.v):
            if vertex is not None and not isinstance(vertex, (int, str)):
                raise ValueError(
                    "edit-script vertices must be JSON-native ints or strs, "
                    f"got {vertex!r}"
                )

    def to_json_obj(self) -> list:
        if self.v is None:
            return [self.kind, self.u]
        return [self.kind, self.u, self.v]

    @classmethod
    def from_json_obj(cls, obj: Sequence) -> "EditOp":
        if not isinstance(obj, (list, tuple)) or not 2 <= len(obj) <= 3:
            raise ValueError(f"malformed op record: {obj!r}")
        return cls(obj[0], obj[1], obj[2] if len(obj) == 3 else None)

    def __str__(self) -> str:
        if self.v is None:
            return f"{self.kind}({self.u!r})"
        return f"{self.kind}({self.u!r}, {self.v!r})"


def expected_outcome(graph: Graph, op: EditOp) -> str:
    """Classify ``op`` against the current ``graph`` state.

    Returns one of the ``OUTCOME_*`` tags.  The classification mirrors the
    precedence of the library's own error checks (self-loop before
    duplicate, matching :meth:`Graph.add_edge`), so the runner can predict
    exactly which exception an adversarial op must raise.
    """
    if op.kind == "add":
        if op.u == op.v:
            return OUTCOME_SELF_LOOP
        if graph.has_edge(op.u, op.v):
            return OUTCOME_DUPLICATE
        return OUTCOME_OK
    if op.kind == "remove":
        if not graph.has_edge(op.u, op.v):
            return OUTCOME_MISSING_EDGE
        return OUTCOME_OK
    if op.kind == "add_vertex":
        return OUTCOME_NOOP if graph.has_vertex(op.u) else OUTCOME_OK
    # remove_vertex
    if not graph.has_vertex(op.u):
        return OUTCOME_MISSING_VERTEX
    return OUTCOME_OK


def apply_op(graph: Graph, op: EditOp) -> str:
    """Apply ``op`` structurally to ``graph``; return its outcome tag.

    Adversarial ops leave the graph untouched.  This is the *shadow*
    semantics the oracle runner compares the maintainer against.
    """
    outcome = expected_outcome(graph, op)
    if outcome == OUTCOME_OK:
        if op.kind == "add":
            graph.add_edge(op.u, op.v)
        elif op.kind == "remove":
            graph.remove_edge(op.u, op.v)
        elif op.kind == "add_vertex":
            graph.add_vertex(op.u)
        else:
            graph.remove_vertex(op.u)
    elif outcome == OUTCOME_NOOP:
        pass
    return outcome


@dataclass
class EditScript:
    """An ordered sequence of :class:`EditOp` with JSON round-tripping."""

    ops: List[EditOp] = field(default_factory=list)
    name: str = ""

    def __len__(self) -> int:
        return len(self.ops)

    def __iter__(self) -> Iterator[EditOp]:
        return iter(self.ops)

    def __getitem__(self, index: int) -> EditOp:
        return self.ops[index]

    # -------------------------------------------------------------- #
    # derived views
    # -------------------------------------------------------------- #

    def vertices(self) -> List[Vertex]:
        """Every vertex the script mentions, in first-appearance order."""
        seen: Dict[Vertex, None] = {}
        for op in self.ops:
            seen.setdefault(op.u)
            if op.v is not None:
                seen.setdefault(op.v)
        return list(seen)

    def final_graph(self) -> Graph:
        """The graph the script produces from empty, under shadow semantics."""
        graph = Graph()
        for op in self.ops:
            apply_op(graph, op)
        return graph

    def effective_ops(self) -> int:
        """Number of ops that actually mutate state when run from empty."""
        graph = Graph()
        return sum(1 for op in self.ops if apply_op(graph, op) == OUTCOME_OK)

    def relabeled(self, mapping: Dict[Vertex, Vertex]) -> "EditScript":
        """A copy with every vertex renamed through ``mapping``."""
        ops = [
            EditOp(
                op.kind,
                mapping.get(op.u, op.u),
                None if op.v is None else mapping.get(op.v, op.v),
            )
            for op in self.ops
        ]
        return EditScript(ops=ops, name=self.name)

    # -------------------------------------------------------------- #
    # serialization
    # -------------------------------------------------------------- #

    def to_json_obj(self) -> dict:
        obj: dict = {"ops": [op.to_json_obj() for op in self.ops]}
        if self.name:
            obj["name"] = self.name
        return obj

    @classmethod
    def from_json_obj(cls, obj: dict) -> "EditScript":
        if not isinstance(obj, dict) or "ops" not in obj:
            raise ValueError("malformed edit script: expected {'ops': [...]}")
        return cls(
            ops=[EditOp.from_json_obj(record) for record in obj["ops"]],
            name=obj.get("name", ""),
        )

    def dumps(self, *, indent: Optional[int] = None) -> str:
        return json.dumps(self.to_json_obj(), indent=indent, sort_keys=True)

    @classmethod
    def loads(cls, text: str) -> "EditScript":
        return cls.from_json_obj(json.loads(text))

    def __repr__(self) -> str:
        label = f" {self.name!r}" if self.name else ""
        return f"EditScript({len(self.ops)} ops{label})"


@dataclass
class CoalescedScript:
    """The net structural effect of an :class:`EditScript` on a graph.

    Produced by :func:`coalesce`: the ops collapse to one batch of net
    edge removals and insertions (plus isolated-vertex adds/removals),
    exactly what :meth:`DynamicTriangleKCore.diff_apply
    <repro.core.dynamic.DynamicTriangleKCore.diff_apply>` consumes.
    ``remove_vertex`` ops are expanded into their incident edge
    removals; add-then-remove (or remove-then-re-add) of the same edge
    cancels out.  Because kappa is a pure function of the
    graph, applying the net batch yields bit-identical kappa to applying
    the ops one at a time.
    """

    added: List[Tuple[Vertex, Vertex]] = field(default_factory=list)
    removed: List[Tuple[Vertex, Vertex]] = field(default_factory=list)
    #: Vertices absent before that must exist after (isolated adds).
    added_vertices: List[Vertex] = field(default_factory=list)
    #: Vertices present before that must be gone after (edge removals
    #: above already cover their incident edges).
    removed_vertices: List[Vertex] = field(default_factory=list)
    #: Outcome tag -> count over the script's ops (total semantics).
    outcomes: Dict[str, int] = field(default_factory=dict)

    @property
    def applied(self) -> int:
        """Ops that mutate state (``ok``) or are idempotent (``noop``)."""
        return self.outcomes.get(OUTCOME_OK, 0) + self.outcomes.get(
            OUTCOME_NOOP, 0
        )

    @property
    def rejected(self) -> Dict[str, int]:
        """Adversarial-outcome counts (everything but ok/noop)."""
        return {
            tag: count
            for tag, count in self.outcomes.items()
            if tag not in (OUTCOME_OK, OUTCOME_NOOP)
        }


def coalesce(graph: Graph, script: EditScript) -> CoalescedScript:
    """Collapse ``script`` to its net effect on ``graph`` without copying it.

    The graph is *not* mutated: the simulation runs on a lazy adjacency
    overlay, touching only the vertices the script names — O(ops +
    touched degree), independent of the graph size.  Net lists come out
    in first-effective-touch order, so replay is deterministic.
    """
    # Overlay state: vertex presence deltas plus copied adjacency sets
    # for touched vertices; everything else reads through to the graph.
    vert_delta: Dict[Vertex, bool] = {}
    adj: Dict[Vertex, set] = {}

    def has_vertex(u: Vertex) -> bool:
        present = vert_delta.get(u)
        if present is not None:
            return present
        return graph.has_vertex(u)

    def neighbors(u: Vertex) -> set:
        over = adj.get(u)
        if over is not None:
            return over
        if graph.has_vertex(u) and vert_delta.get(u, True):
            return set(graph.neighbors(u))
        return set()

    def touch(u: Vertex) -> set:
        over = adj.get(u)
        if over is None:
            over = neighbors(u)
            adj[u] = over
        return over

    def has_edge(u: Vertex, v: Vertex) -> bool:
        if u in adj:
            return v in adj[u]
        if v in adj:
            return u in adj[v]
        return graph.has_edge(u, v)

    # Net bookkeeping, keyed by canonical edge, insertion-ordered.
    net_added: Dict[Tuple[Vertex, Vertex], Tuple[Vertex, Vertex]] = {}
    net_removed: Dict[Tuple[Vertex, Vertex], Tuple[Vertex, Vertex]] = {}
    outcomes: Dict[str, int] = {}

    def note_add(u: Vertex, v: Vertex) -> None:
        edge = canonical_edge(u, v)
        touch(u).add(v)
        touch(v).add(u)
        vert_delta[u] = True
        vert_delta[v] = True
        if edge in net_removed:
            del net_removed[edge]  # originally present: cancel out
        else:
            net_added[edge] = (u, v)

    def note_remove(u: Vertex, v: Vertex) -> None:
        edge = canonical_edge(u, v)
        touch(u).discard(v)
        touch(v).discard(u)
        if edge in net_added:
            del net_added[edge]  # added by this script: cancel out
        else:
            net_removed[edge] = (u, v)

    for op in script:
        # Classify against the overlay with the same precedence as
        # expected_outcome (self loop before duplicate, like Graph).
        if op.kind == "add":
            if op.u == op.v:
                outcome = OUTCOME_SELF_LOOP
            elif has_edge(op.u, op.v):
                outcome = OUTCOME_DUPLICATE
            else:
                outcome = OUTCOME_OK
                note_add(op.u, op.v)
        elif op.kind == "remove":
            if not has_edge(op.u, op.v):
                outcome = OUTCOME_MISSING_EDGE
            else:
                outcome = OUTCOME_OK
                note_remove(op.u, op.v)
        elif op.kind == "add_vertex":
            if has_vertex(op.u):
                outcome = OUTCOME_NOOP
            else:
                outcome = OUTCOME_OK
                vert_delta[op.u] = True
                adj.setdefault(op.u, set())
        else:  # remove_vertex
            if not has_vertex(op.u):
                outcome = OUTCOME_MISSING_VERTEX
            else:
                outcome = OUTCOME_OK
                for neighbor in sorted(neighbors(op.u), key=repr):
                    note_remove(op.u, neighbor)
                vert_delta[op.u] = False
                adj[op.u] = set()
        outcomes[outcome] = outcomes.get(outcome, 0) + 1

    added_vertices = [
        vertex
        for vertex, present in vert_delta.items()
        if present and not graph.has_vertex(vertex)
    ]
    removed_vertices = [
        vertex
        for vertex, present in vert_delta.items()
        if not present and graph.has_vertex(vertex)
    ]
    return CoalescedScript(
        added=list(net_added.values()),
        removed=list(net_removed.values()),
        added_vertices=added_vertices,
        removed_vertices=removed_vertices,
        outcomes=outcomes,
    )


def apply_coalesced(
    maintainer, co: CoalescedScript, *, strategy: str = "incremental"
):
    """Apply a :class:`CoalescedScript` through a dynamic maintainer.

    Isolated-vertex adds go first (edge insertions auto-create their own
    endpoints), then the net edge batch through
    ``maintainer.diff_apply(strategy=...)``, then now-isolated vertex
    removals.  Returns the batch's
    :class:`~repro.core.dynamic.KappaDelta`.
    """
    for vertex in co.added_vertices:
        maintainer.add_vertex(vertex)
    delta = maintainer.diff_apply(
        added=co.added, removed=co.removed, strategy=strategy
    )
    for vertex in co.removed_vertices:
        maintainer.remove_vertex(vertex)
    return delta


def kappa_to_json(kappa: Dict[Tuple[Vertex, Vertex], int]) -> List[list]:
    """``{edge: kappa}`` as a sorted, JSON-native ``[[u, v, k], ...]`` list."""
    return sorted(
        ([u, v, k] for (u, v), k in kappa.items()),
        key=lambda row: (repr(row[0]), repr(row[1])),
    )


def kappa_from_json(rows: Sequence[Sequence]) -> Dict[Tuple[Vertex, Vertex], int]:
    """Inverse of :func:`kappa_to_json` (edges re-canonicalized)."""
    return {canonical_edge(u, v): k for u, v, k in rows}
