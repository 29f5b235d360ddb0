"""The paper's primary contribution: Triangle K-Core algorithms.

* :func:`triangle_kcore_decomposition` — Algorithm 1 (static peeling).
* :class:`DynamicTriangleKCore` — Algorithms 2/5/6/7 (incremental updates).
* :func:`kcore_decomposition` — the classic vertex K-Core substrate.
* extraction helpers (level subgraphs, triangle-connected communities).
* validators used as test oracles.
"""

from .bucket_queue import BucketQueue
from .community import (
    CommunityIndex,
    community_of_edge,
    community_of_vertex,
    densest_community_of_vertex,
)
from .dynamic import DynamicTriangleKCore, KappaDelta, UpdateStats, h_index
from .extract import (
    dense_communities,
    is_triangle_kcore,
    level_subgraph,
    max_core_of_edge,
    triangle_connected_component,
    triangle_connected_components,
    vertex_set_of_edges,
)
from .local import (
    ball_vertices,
    edge_ball,
    kappa_bounds,
    kappa_lower_bound,
    kappa_upper_bound,
)
from .hierarchy import CommunityHierarchy, CommunityNode
from .kcore import (
    core_filter_for_triangle_kcore,
    degeneracy,
    kcore_decomposition,
    kcore_subgraph,
)
from .maxcore import erode_to_triangle_kcore, max_triangle_kcore
from .membership import CoreMembership, recover_membership_rule1
from .peel_variants import triangle_kcore_heap, triangle_kcore_stored_triangles
from .persistence import load_result, save_result
from .triangle_kcore import (
    TriangleKCoreResult,
    co_clique_sizes,
    kappa_from_mapping,
    kappa_upper_bounds,
    triangle_kcore_decomposition,
    truss_numbers,
)
from .validate import (
    check_decomposition,
    check_level_subgraphs,
    check_maximality,
    check_theorem1,
    reference_decomposition,
)

__all__ = [
    "BucketQueue",
    "CommunityHierarchy",
    "CommunityIndex",
    "CommunityNode",
    "CoreMembership",
    "DynamicTriangleKCore",
    "KappaDelta",
    "TriangleKCoreResult",
    "UpdateStats",
    "ball_vertices",
    "check_decomposition",
    "check_level_subgraphs",
    "check_maximality",
    "check_theorem1",
    "co_clique_sizes",
    "community_of_edge",
    "community_of_vertex",
    "core_filter_for_triangle_kcore",
    "degeneracy",
    "dense_communities",
    "densest_community_of_vertex",
    "erode_to_triangle_kcore",
    "h_index",
    "edge_ball",
    "is_triangle_kcore",
    "kappa_bounds",
    "kappa_from_mapping",
    "kappa_lower_bound",
    "kappa_upper_bound",
    "kappa_upper_bounds",
    "kcore_decomposition",
    "kcore_subgraph",
    "level_subgraph",
    "load_result",
    "max_core_of_edge",
    "max_triangle_kcore",
    "recover_membership_rule1",
    "reference_decomposition",
    "save_result",
    "triangle_connected_component",
    "triangle_connected_components",
    "triangle_kcore_decomposition",
    "triangle_kcore_heap",
    "triangle_kcore_stored_triangles",
    "truss_numbers",
    "vertex_set_of_edges",
]
