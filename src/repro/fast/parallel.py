"""Import-compatibility names for the retired process-parallel backends.

This file exists only because the benchmark tracer (``perfbench/spans.py``
``TARGETS``) imports these two names.  Both are plain in-process delegates:
no pool, no shared memory, no worker count.  A later benchmark-only change
drops both ``TARGETS`` rows, and then this file.
"""

from __future__ import annotations

from typing import List, Tuple

from .csr import CSRGraph
from .kernels import supports_and_triangles

__all__ = ["parallel_decomposition", "parallel_supports_and_triangles"]


def parallel_supports_and_triangles(csr: CSRGraph) -> Tuple[List[int], List[int]]:
    """``(supports, tri_edges)`` of ``csr``; same as ``supports_and_triangles``."""
    return supports_and_triangles(csr)


def parallel_decomposition(graph, **kwargs):
    """Algorithm 1 via the CSR kernels; same as ``csr_decomposition``."""
    from . import csr_decomposition

    return csr_decomposition(graph, **kwargs)
