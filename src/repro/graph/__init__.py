"""Graph substrate: dynamic undirected graphs, triangles, generators, I/O.

Public surface::

    from repro.graph import Graph, canonical_edge, enumerate_triangles

Everything the Triangle K-Core algorithms need from a graph lives here; no
external graph library is required (networkx conversion is optional, see
:mod:`repro.graph.convert`).
"""

from .edge import (
    Edge,
    Triangle,
    Vertex,
    apex,
    canonical_edge,
    canonical_triangle,
    other_edges,
    triangle_edges,
)
from .generators import (
    PlantedClique,
    PlantedGraph,
    barabasi_albert,
    configuration_model,
    erdos_renyi,
    forest_fire,
    growth_snapshots,
    kronecker,
    planted_cliques,
    powerlaw_cluster,
    random_edge_sample,
    random_non_edges,
    relaxed_caveman,
    rmat,
    watts_strogatz,
)
from .io import (
    graph_diff,
    read_adjacency_csv,
    read_diff,
    read_edge_list,
    read_snapshots,
    write_diff,
    write_edge_list,
    write_snapshots,
)
from .snapshots import (
    SnapshotDelta,
    SnapshotStream,
    apply_delta,
    classify_edges,
    classify_vertices,
    union_graph,
)
from .triangles import (
    count_triangles,
    edge_triangle_index,
    enumerate_triangles,
    global_clustering_coefficient,
    local_clustering,
    new_triangles_for_edge,
    triangle_degree,
    triangle_supports,
    triangles_of_edge,
)
from .undirected import Graph, complete_graph

__all__ = [
    "Edge",
    "Graph",
    "PlantedClique",
    "PlantedGraph",
    "SnapshotDelta",
    "SnapshotStream",
    "Triangle",
    "Vertex",
    "apex",
    "apply_delta",
    "barabasi_albert",
    "canonical_edge",
    "canonical_triangle",
    "classify_edges",
    "classify_vertices",
    "complete_graph",
    "configuration_model",
    "count_triangles",
    "edge_triangle_index",
    "enumerate_triangles",
    "erdos_renyi",
    "forest_fire",
    "global_clustering_coefficient",
    "graph_diff",
    "growth_snapshots",
    "kronecker",
    "local_clustering",
    "new_triangles_for_edge",
    "other_edges",
    "planted_cliques",
    "powerlaw_cluster",
    "random_edge_sample",
    "random_non_edges",
    "read_adjacency_csv",
    "read_diff",
    "read_edge_list",
    "read_snapshots",
    "relaxed_caveman",
    "rmat",
    "triangle_degree",
    "triangle_edges",
    "triangle_supports",
    "triangles_of_edge",
    "union_graph",
    "watts_strogatz",
    "write_diff",
    "write_edge_list",
    "write_snapshots",
]
