"""Triangle K-Core motifs within networks.

A full reproduction of *"Extracting, Analyzing and Visualizing Triangle
K-Core Motifs within Networks"* (Zhang & Parthasarathy, ICDE 2012):

* static Triangle K-Core decomposition (Algorithm 1),
* incremental maintenance under dynamic edge updates (Algorithms 2/5-7),
* CSV-style density plots and Dual View Plots (Algorithm 3),
* template-pattern clique detection (Algorithm 4),
* baselines (CSV, DN-Graph TriDN/BiTriDN) and synthetic dataset stand-ins.

Quickstart::

    from repro import Graph, triangle_kcore_decomposition

    g = Graph(edges=[(0, 1), (1, 2), (0, 2), (2, 3)])
    result = triangle_kcore_decomposition(g)
    print(result.kappa_of(0, 1))   # 1: edge {0,1} is in one triangle
"""

from .core import (
    DynamicTriangleKCore,
    TriangleKCoreResult,
    kcore_decomposition,
    triangle_kcore_decomposition,
)
from .engine import Engine, get_default_engine, set_default_engine
from .exceptions import (
    DatasetError,
    DecompositionError,
    EdgeExistsError,
    EdgeNotFoundError,
    GraphError,
    ReproError,
    SelfLoopError,
    TemplateError,
    ValidationError,
    VertexNotFoundError,
)
from .graph import Graph, SnapshotStream, canonical_edge, canonical_triangle

__version__ = "6.0.0"

__all__ = [
    "DatasetError",
    "DecompositionError",
    "DynamicTriangleKCore",
    "EdgeExistsError",
    "EdgeNotFoundError",
    "Engine",
    "Graph",
    "GraphError",
    "ReproError",
    "SelfLoopError",
    "SnapshotStream",
    "TemplateError",
    "TriangleKCoreResult",
    "ValidationError",
    "VertexNotFoundError",
    "__version__",
    "canonical_edge",
    "canonical_triangle",
    "get_default_engine",
    "kcore_decomposition",
    "set_default_engine",
    "triangle_kcore_decomposition",
]
