"""Shell command parser/dispatcher: one line in, deterministic lines out.

Every command is one whitespace-tokenized line; ``execute`` returns the
command's output as a list of strings.  The contract that makes session
replay work (and the shell CI-testable without a pty) is that output is
a pure function of the workspace state and the command line: **no
timings, ports, uptimes, or wall-clock values ever appear in output**.
Errors raised by the library (:class:`~repro.exceptions.ReproError`,
including :class:`~repro.exceptions.WorkspaceError`) become
deterministic ``error: ...`` lines instead of aborting the session.
"""

from __future__ import annotations

import shlex
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from ..exceptions import ReproError, WorkspaceError
from ..graph.undirected import Graph
from ..testing.editscript import EditOp
from .session import Workspace

# --------------------------------------------------------------------- #
# token parsing helpers
# --------------------------------------------------------------------- #


def _vertex(token: str) -> object:
    """Vertex tokens: int if possible, else the raw string (I/O idiom)."""
    try:
        return int(token)
    except ValueError:
        return token


def _int(token: str, what: str) -> int:
    try:
        return int(token)
    except ValueError:
        raise WorkspaceError(f"{what} must be an integer, got {token!r}")


def _float(token: str, what: str) -> float:
    try:
        return float(token)
    except ValueError:
        raise WorkspaceError(f"{what} must be a number, got {token!r}")


def _need(args: Sequence[str], count: int, usage: str) -> None:
    if len(args) < count:
        raise WorkspaceError(f"usage: {usage}")


def _fmt_members(members) -> str:
    return ",".join(str(v) for v in sorted(members, key=repr)) or "-"


# --------------------------------------------------------------------- #
# generator registry (the shell's ``generate`` command)
# --------------------------------------------------------------------- #

def _gen_kronecker(n: int, seed: int) -> Graph:
    from ..graph.generators import kronecker

    # Fixed canonical 2x2 initiator; ``n`` is the iteration count.
    return kronecker([[0.9, 0.5], [0.5, 0.3]], n, seed=seed)


def _gen_configuration(n: int, seed: int) -> Graph:
    from ..graph.generators import configuration_model

    # Decreasing heavy-tail-ish sequence over ``n`` vertices, padded even.
    degrees = [max(2, n // (rank + 1)) for rank in range(n)]
    if sum(degrees) % 2 != 0:
        degrees[-1] += 1
    return configuration_model(degrees, seed=seed)


def _generators() -> Dict[str, Callable[..., Graph]]:
    from ..graph import generators as g

    return {
        "erdos_renyi": lambda a, seed: g.erdos_renyi(
            _int(a[0], "n"), _float(a[1], "p"), seed=seed
        ),
        "barabasi_albert": lambda a, seed: g.barabasi_albert(
            _int(a[0], "n"), _int(a[1], "m"), seed=seed
        ),
        "watts_strogatz": lambda a, seed: g.watts_strogatz(
            _int(a[0], "n"), _int(a[1], "k"), _float(a[2], "p"), seed=seed
        ),
        "rmat": lambda a, seed: g.rmat(
            _int(a[0], "scale"), _int(a[1], "edge_factor"), seed=seed
        ),
        "powerlaw_cluster": lambda a, seed: g.powerlaw_cluster(
            _int(a[0], "n"), _int(a[1], "m"), _float(a[2], "p_triad"),
            seed=seed,
        ),
        "relaxed_caveman": lambda a, seed: g.relaxed_caveman(
            _int(a[0], "communities"), _int(a[1], "size"),
            _float(a[2], "rewire_p"), seed=seed,
        ),
        "kronecker": lambda a, seed: _gen_kronecker(
            _int(a[0], "iterations"), seed
        ),
        "configuration_model": lambda a, seed: _gen_configuration(
            _int(a[0], "n"), seed
        ),
    }


#: arity (positional args before the optional seed) per generator.
_GEN_ARITY = {
    "erdos_renyi": 2, "barabasi_albert": 2, "watts_strogatz": 3,
    "rmat": 2, "powerlaw_cluster": 3, "relaxed_caveman": 3,
    "kronecker": 1, "configuration_model": 1,
}


# --------------------------------------------------------------------- #
# execution context
# --------------------------------------------------------------------- #


@dataclass
class ShellContext:
    """Mutable state the dispatcher threads through command handlers."""

    workspace: Workspace
    #: Recorded ``(line, output)`` pairs (the live session log).
    log: List[Dict[str, object]] = field(default_factory=list)
    #: ``(host, port)`` override applied to ``connect`` commands — lets
    #: ``shell --replay`` target a freshly started server on a different
    #: port while replaying the original, byte-identical session lines.
    connect_override: Optional[tuple] = None
    #: Set by the ``exit`` / ``quit`` commands.
    done: bool = False


# --------------------------------------------------------------------- #
# command handlers — each returns the output lines
# --------------------------------------------------------------------- #


def _cmd_help(ctx: ShellContext, args: List[str]) -> List[str]:
    return [
        "commands:",
        "  load <name> <dataset|edges-path|csv-path>",
        "  import <name> <adjacency.csv>",
        "  generate <name> <generator> <args...> [seed]",
        "    generators: " + " ".join(sorted(_GEN_ARITY)),
        "  graphs | views",
        "  view community <name> <graph> <vertex> [k]",
        "  view slice <name> <graph> <k>",
        "  view template <name> <graph> <pattern>",
        "  view vertices <name> <graph> <v...>",
        "  refresh <view> | drop <name>",
        "  run decompose|communities|hierarchy|maxcore|robustness|plot"
        " <target> [args]",
        "  run templates <old> <new> <pattern>",
        "  edit <graph> add|remove <u> <v>",
        "  edit <graph> addv|removev <v>",
        "  connect <host> <port> | disconnect",
        "  remote kappa|community|hierarchy|templates|edit <args...>",
        "  save <path> | exit",
    ]


def _describe_graph(name: str, graph: Graph) -> str:
    return f"graph {name}: |V|={graph.num_vertices} |E|={graph.num_edges}"


def _cmd_load(ctx: ShellContext, args: List[str]) -> List[str]:
    _need(args, 2, "load <name> <dataset|edges-path|csv-path>")
    graph = ctx.workspace.load(args[0], args[1])
    return [_describe_graph(args[0], graph)]


def _cmd_import(ctx: ShellContext, args: List[str]) -> List[str]:
    from ..graph.io import read_adjacency_csv

    _need(args, 2, "import <name> <adjacency.csv>")
    graph = ctx.workspace.add_graph(args[0], read_adjacency_csv(args[1]))
    return [_describe_graph(args[0], graph)]


def _cmd_generate(ctx: ShellContext, args: List[str]) -> List[str]:
    _need(args, 2, "generate <name> <generator> <args...> [seed]")
    name, gen_name, rest = args[0], args[1], args[2:]
    registry = _generators()
    if gen_name not in registry:
        raise WorkspaceError(
            f"unknown generator {gen_name!r} (expected one of "
            f"{', '.join(sorted(registry))})"
        )
    arity = _GEN_ARITY[gen_name]
    if len(rest) < arity or len(rest) > arity + 1:
        raise WorkspaceError(
            f"generate {gen_name}: expected {arity} argument(s) plus an "
            f"optional seed, got {len(rest)}"
        )
    seed = _int(rest[arity], "seed") if len(rest) > arity else 0
    ctx.workspace._check_new_name(name)
    graph = registry[gen_name](rest, seed)
    ctx.workspace.add_graph(name, graph)
    return [_describe_graph(name, graph)]


def _cmd_graphs(ctx: ShellContext, args: List[str]) -> List[str]:
    return ctx.workspace.describe_graphs()


def _cmd_views(ctx: ShellContext, args: List[str]) -> List[str]:
    return ctx.workspace.describe_views()


def _cmd_view(ctx: ShellContext, args: List[str]) -> List[str]:
    _need(args, 3, "view <kind> <name> <graph> <args...>")
    kind, name, graph_name, rest = args[0], args[1], args[2], args[3:]
    ws = ctx.workspace
    if kind == "community":
        _need(rest, 1, "view community <name> <graph> <vertex> [k]")
        params: Dict[str, object] = {"vertex": _vertex(rest[0])}
        if len(rest) > 1:
            params["k"] = _int(rest[1], "k")
    elif kind == "slice":
        _need(rest, 1, "view slice <name> <graph> <k>")
        params = {"k": _int(rest[0], "k")}
    elif kind == "template":
        _need(rest, 1, "view template <name> <graph> <pattern>")
        params = {"pattern": rest[0]}
    elif kind == "vertices":
        _need(rest, 1, "view vertices <name> <graph> <v...>")
        params = {"vertices": tuple(_vertex(t) for t in rest)}
    else:
        raise WorkspaceError(
            f"unknown view kind {kind!r} (expected community, slice, "
            "template, or vertices)"
        )
    view = ws.create_view(name, kind, graph_name, params)
    return [
        f"view {name}: kind={kind} graph={graph_name} "
        f"|V|={len(view.vertices)}"
    ]


def _cmd_refresh(ctx: ShellContext, args: List[str]) -> List[str]:
    _need(args, 1, "refresh <view>")
    view = ctx.workspace.refresh_view(args[0])
    return [f"view {args[0]}: refreshed |V|={len(view.vertices)}"]


def _cmd_drop(ctx: ShellContext, args: List[str]) -> List[str]:
    _need(args, 1, "drop <name>")
    kind, dependents = ctx.workspace.drop(args[0])
    if kind == "graph":
        return [f"dropped graph {args[0]} ({dependents} dependent view(s))"]
    return [f"dropped view {args[0]}"]


def _cmd_run(ctx: ShellContext, args: List[str]) -> List[str]:
    _need(args, 2, "run <analysis> <target> [args]")
    analysis, rest = args[0], args[1:]
    ws = ctx.workspace
    if analysis == "decompose":
        target = rest[0]
        graph = ws.resolve(target)
        result = ws.engine.decompose(graph, backend=ws.backend)
        histogram = " ".join(
            f"{k}:{n}" for k, n in sorted(result.histogram().items())
        )
        return [
            f"decompose {target}: |V|={graph.num_vertices} "
            f"|E|={graph.num_edges} max_kappa={result.max_kappa}",
            f"histogram: {histogram or '-'}",
        ]
    if analysis == "communities":
        _need(rest, 2, "run communities <target> <vertex> [k]")
        from ..core import community_of_vertex, densest_community_of_vertex

        target, vertex = rest[0], _vertex(rest[1])
        graph = ws.resolve(target)
        if not graph.has_vertex(vertex):
            raise WorkspaceError(
                f"vertex {vertex!r} is not in {target!r}"
            )
        source = {"backend": ws.backend, "engine": ws.engine}
        if len(rest) > 2:
            k = _int(rest[2], "k")
            communities = community_of_vertex(graph, vertex, k=k, **source)
            lines = [
                f"communities of {vertex} at k={k} in {target}: "
                f"{len(communities)}"
            ]
            for i, community in enumerate(
                sorted(communities, key=lambda c: sorted(c, key=repr))
            ):
                lines.append(f"  [{i}] {_fmt_members(community)}")
            return lines
        level, members = densest_community_of_vertex(graph, vertex, **source)
        return [
            f"densest community of {vertex} in {target}: level={level} "
            f"members={_fmt_members(members)}"
        ]
    if analysis == "hierarchy":
        from ..core import CommunityHierarchy

        target = rest[0]
        hierarchy = CommunityHierarchy(
            ws.resolve(target), backend=ws.backend, engine=ws.engine
        )
        return [f"hierarchy {target}:"] + hierarchy.ascii_tree().splitlines()
    if analysis == "maxcore":
        from ..core import max_triangle_kcore

        target = rest[0]
        k, subgraph = max_triangle_kcore(ws.resolve(target))
        return [
            f"maxcore {target}: k={k} |V|={subgraph.num_vertices} "
            f"|E|={subgraph.num_edges}"
        ]
    if analysis == "robustness":
        from ..analysis.robustness import robustness_report

        target = rest[0]
        fraction = _float(rest[1], "fraction") if len(rest) > 1 else 0.1
        trials = _int(rest[2], "trials") if len(rest) > 2 else 1
        report = robustness_report(
            ws.resolve(target),
            fractions=(fraction,),
            trials_per_fraction=trials,
            seed=0,
            backend=ws.backend,
            engine=ws.engine,
        )
        overlap = report.mean_core_overlap(fraction)
        kappa_after = report.mean_core_kappa_after(fraction)
        breakdown = report.breakdown_fraction()
        return [
            f"robustness {target}: fraction={fraction:g} "
            f"overlap={overlap:.4f} kappa_after={kappa_after:.4f} "
            f"breakdown={breakdown:g}"
        ]
    if analysis == "templates":
        _need(rest, 3, "run templates <old> <new> <pattern>")
        from ..templates import BUILTIN_TEMPLATES, detect_on_snapshots

        old_name, new_name, pattern = rest[0], rest[1], rest[2]
        if pattern not in BUILTIN_TEMPLATES:
            raise WorkspaceError(
                f"unknown template pattern {pattern!r} (expected one of "
                f"{', '.join(sorted(BUILTIN_TEMPLATES))})"
            )
        detection = detect_on_snapshots(
            ws.resolve(old_name),
            ws.resolve(new_name),
            BUILTIN_TEMPLATES[pattern],
            backend=ws.backend,
            engine=ws.engine,
        )
        cliques = list(detection.densest_cliques())
        return [
            f"templates {pattern} ({old_name} -> {new_name}): "
            f"cliques={len(cliques)} "
            f"max_size={detection.max_clique_size_estimate}"
        ]
    if analysis == "plot":
        from ..viz import density_plot, render

        target = rest[0]
        graph = ws.resolve(target)
        result = ws.engine.decompose(graph, backend=ws.backend)
        plot = density_plot(graph, result, title=f"workspace:{target}")
        return render(plot, height=10, width=60).splitlines()
    raise WorkspaceError(
        f"unknown analysis {analysis!r} (expected decompose, communities, "
        "hierarchy, maxcore, robustness, templates, or plot)"
    )


_EDIT_OPS = {
    "add": ("add", 2), "remove": ("remove", 2),
    "addv": ("add_vertex", 1), "removev": ("remove_vertex", 1),
}


def _cmd_edit(ctx: ShellContext, args: List[str]) -> List[str]:
    _need(args, 2, "edit <graph> <add|remove|addv|removev> <args...>")
    graph_name, verb, rest = args[0], args[1], args[2:]
    if verb not in _EDIT_OPS:
        raise WorkspaceError(
            f"unknown edit op {verb!r} (expected add, remove, addv, removev)"
        )
    kind, arity = _EDIT_OPS[verb]
    _need(rest, arity, f"edit <graph> {verb} " + " ".join(
        ("<u>", "<v>")[:arity]
    ))
    u = _vertex(rest[0])
    v = _vertex(rest[1]) if arity == 2 else None
    applied, skipped, max_kappa = ctx.workspace.edit(
        graph_name, [EditOp(kind, u, v)]
    )
    return [
        f"edit {graph_name}: applied={applied} skipped={skipped} "
        f"max_kappa={max_kappa}"
    ]


def _cmd_connect(ctx: ShellContext, args: List[str]) -> List[str]:
    _need(args, 2, "connect <host> <port>")
    host, port = args[0], _int(args[1], "port")
    if ctx.connect_override is not None:
        host, port = ctx.connect_override
    info = ctx.workspace.connect(host, port)
    # No host/port/uptime in the output: replay against a server on a
    # different port must reproduce these bytes exactly.
    return [
        f"connected: status={info.status} |V|={info.vertices} "
        f"|E|={info.edges} max_kappa={info.max_kappa}"
    ]


def _cmd_disconnect(ctx: ShellContext, args: List[str]) -> List[str]:
    if ctx.workspace.disconnect():
        return ["disconnected"]
    return ["not connected"]


def _cmd_remote(ctx: ShellContext, args: List[str]) -> List[str]:
    _need(args, 1, "remote <kappa|community|hierarchy|templates|edit> ...")
    client = ctx.workspace.require_client()
    verb, rest = args[0], args[1:]
    if verb == "kappa":
        _need(rest, 2, "remote kappa <u> <v>")
        answer = client.kappa(_vertex(rest[0]), _vertex(rest[1]))
        return [f"remote kappa({rest[0]}, {rest[1]}) = {answer.kappa}"]
    if verb == "community":
        _need(rest, 1, "remote community <vertex> [k]")
        k = _int(rest[1], "k") if len(rest) > 1 else None
        answer = client.community(_vertex(rest[0]), k)
        return [
            f"remote community of {rest[0]}: level={answer.level} "
            f"members={_fmt_members(answer.members)}"
        ]
    if verb == "hierarchy":
        answer = client.hierarchy()
        return [
            f"remote hierarchy: max_level={answer.max_level} "
            f"roots={len(answer.roots)}"
        ]
    if verb == "templates":
        _need(rest, 1, "remote templates <pattern>")
        answer = client.templates(rest[0])
        return [
            f"remote templates {rest[0]}: cliques={len(answer.cliques)}"
        ]
    if verb == "edit":
        _need(rest, 3, "remote edit <add|remove> <u> <v>")
        if rest[0] not in ("add", "remove"):
            raise WorkspaceError(
                f"unknown remote edit op {rest[0]!r} (expected add, remove)"
            )
        outcome = client.edits(
            [(rest[0], _vertex(rest[1]), _vertex(rest[2]))]
        )
        rejected = outcome.rejected
        n_rejected = (
            len(rejected) if hasattr(rejected, "__len__") else int(rejected)
        )
        return [
            f"remote edit: applied={outcome.applied} "
            f"rejected={n_rejected} max_kappa={outcome.max_kappa}"
        ]
    raise WorkspaceError(
        f"unknown remote command {verb!r} (expected kappa, community, "
        "hierarchy, templates, edit)"
    )


def _cmd_save(ctx: ShellContext, args: List[str]) -> List[str]:
    from .log import SessionLog

    _need(args, 1, "save <path>")
    log = SessionLog(entries=list(ctx.log))
    log.save(args[0])
    return [f"saved {len(ctx.log)} command(s) to {args[0]}"]


def _cmd_exit(ctx: ShellContext, args: List[str]) -> List[str]:
    ctx.done = True
    return []


_HANDLERS: Dict[str, Callable[[ShellContext, List[str]], List[str]]] = {
    "help": _cmd_help,
    "load": _cmd_load,
    "import": _cmd_import,
    "generate": _cmd_generate,
    "graphs": _cmd_graphs,
    "views": _cmd_views,
    "view": _cmd_view,
    "refresh": _cmd_refresh,
    "drop": _cmd_drop,
    "run": _cmd_run,
    "edit": _cmd_edit,
    "connect": _cmd_connect,
    "disconnect": _cmd_disconnect,
    "remote": _cmd_remote,
    "save": _cmd_save,
    "exit": _cmd_exit,
    "quit": _cmd_exit,
}


def execute(ctx: ShellContext, line: str) -> Optional[List[str]]:
    """Execute one command line; returns its output lines.

    Blank lines and ``#`` comments return ``None`` (nothing executed,
    nothing logged).  Executed commands — including ones that fail with
    an ``error:`` line — are appended to ``ctx.log``.
    """
    stripped = line.strip()
    if not stripped or stripped.startswith("#"):
        return None
    try:
        tokens = shlex.split(stripped)
    except ValueError as exc:
        tokens = None
        output = [f"error: unparseable line: {exc}"]
    if tokens is not None:
        handler = _HANDLERS.get(tokens[0])
        if handler is None:
            output = [
                f"error: unknown command {tokens[0]!r} (try: help)"
            ]
        else:
            try:
                output = handler(ctx, tokens[1:])
            except (ReproError, OSError, ValueError) as exc:
                output = [f"error: {exc}"]
    ctx.workspace.note_command()
    if not ctx.done or output:
        ctx.log.append({"line": stripped, "output": list(output)})
    return output
