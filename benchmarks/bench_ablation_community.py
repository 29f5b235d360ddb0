"""Ablation — community search (merge forest vs BFS).

When is building the :class:`~repro.core.community.CommunityIndex` merge
forest worth it over per-query BFS (the path the query service takes over
its live maintainer)?  It depends on answer size: on ppi, whose
communities hold thousands of vertices, a few queries; on dblp's small
communities, more than a thousand.

The community report also times :class:`~repro.core.hierarchy.CommunityHierarchy`
construction (forest plus tree) on dblp and ppi.
"""

from __future__ import annotations

import random
import time

from repro.core import (
    CommunityHierarchy,
    CommunityIndex,
    community_of_vertex,
    densest_community_of_vertex,
    triangle_kcore_decomposition,
)

from common import format_table, timed, write_report

DATASET = "ppi"
#: The query service's dataset: small communities, where BFS wins.
DATASETS = ("ppi", "dblp")
QUERY_COUNT = 200
#: Best-of repeats for the build timings.
REPEATS = 5


def test_bench_community_index_build(benchmark, dataset_loader):
    graph = dataset_loader(DATASET).graph
    result = triangle_kcore_decomposition(graph)
    benchmark.pedantic(
        lambda: CommunityIndex(graph, result), rounds=1, iterations=1
    )


def test_bench_community_queries_via_index(benchmark, dataset_loader):
    graph = dataset_loader(DATASET).graph
    index = CommunityIndex(graph)
    vertices = sorted(graph.vertices(), key=repr)[:QUERY_COUNT]

    def run():
        for vertex in vertices:
            index.community_of_vertex(vertex)

    benchmark.pedantic(run, rounds=1, iterations=1)


def test_ablation_community_report(dataset_loader, benchmark):
    benchmark.pedantic(
        lambda: _ablation_community_report(dataset_loader), rounds=1, iterations=1
    )


def _best_seconds(fn):
    return min(timed(fn)[1] for _ in range(REPEATS))


def _ablation_community_report(dataset_loader):
    query_rows, hierarchy_rows, breakevens = [], [], []
    for name in DATASETS:
        graph = dataset_loader(name).graph
        result = triangle_kcore_decomposition(graph)
        rng = random.Random(17)
        vertices = rng.sample(sorted(graph.vertices(), key=repr), QUERY_COUNT)

        index = CommunityIndex(graph, result)
        build_seconds = _best_seconds(lambda: CommunityIndex(graph, result))
        tree_seconds = _best_seconds(lambda: CommunityHierarchy(graph, result))

        start = time.perf_counter()
        via_index = [index.community_of_vertex(v) for v in vertices]
        index_query_seconds = time.perf_counter() - start

        start = time.perf_counter()
        via_bfs = [
            community_of_vertex(graph, v, result=result.kappa) for v in vertices
        ]
        bfs_seconds = time.perf_counter() - start

        assert via_index == via_bfs, f"index disagrees with one-shot BFS on {name}"
        assert [index.densest_community_of_vertex(v) for v in vertices] == [
            densest_community_of_vertex(graph, v, result=result.kappa)
            for v in vertices
        ], f"densest communities disagree on {name}"

        saved = (bfs_seconds - index_query_seconds) / QUERY_COUNT
        breakevens.append(
            f"{name}: index pays for itself after "
            + (
                f"~{build_seconds / saved:.0f} vertex queries"
                if saved > 0
                else "never (BFS queries are as fast)"
            )
        )
        query_rows += [
            (name, "one-shot BFS", "0.0000", f"{bfs_seconds:.4f}"),
            (
                name,
                "CommunityIndex",
                f"{build_seconds:.4f}",
                f"{index_query_seconds:.4f}",
            ),
        ]
        hierarchy_rows.append(
            (
                name,
                graph.num_edges,
                result.max_kappa,
                sum(1 for _ in index.forest()),
                f"{build_seconds:.4f}",
                f"{tree_seconds:.4f}",
            )
        )
    lines = format_table(
        ("dataset", "strategy", "build(s)", f"{QUERY_COUNT} queries(s)"),
        query_rows,
    )
    lines.append("")
    lines += breakevens
    lines.append("")
    lines += format_table(
        (
            "dataset", "edges", "max kappa", "forest nodes",
            "index build(s)", "hierarchy build(s)",
        ),
        hierarchy_rows,
    )
    lines.append("")
    lines.append(
        f"build times are best of {REPEATS}; hierarchy = merge forest + tree"
    )
    write_report("ablation_community", lines)
