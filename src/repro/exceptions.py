"""Exception hierarchy for the Triangle K-Core library.

All library-raised exceptions derive from :class:`ReproError` so callers can
catch everything raised by this package with a single ``except`` clause while
still being able to distinguish specific failure modes.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every exception raised by this library."""


class GraphError(ReproError):
    """Base class for graph-structure errors."""


class VertexNotFoundError(GraphError, KeyError):
    """A vertex referenced by an operation does not exist in the graph."""

    def __init__(self, vertex: object) -> None:
        super().__init__(f"vertex {vertex!r} is not in the graph")
        self.vertex = vertex


class EdgeNotFoundError(GraphError, KeyError):
    """An edge referenced by an operation does not exist in the graph."""

    def __init__(self, u: object, v: object) -> None:
        super().__init__(f"edge ({u!r}, {v!r}) is not in the graph")
        self.u = u
        self.v = v


class EdgeExistsError(GraphError, ValueError):
    """An edge being added is already present in the graph."""

    def __init__(self, u: object, v: object) -> None:
        super().__init__(f"edge ({u!r}, {v!r}) is already in the graph")
        self.u = u
        self.v = v


class SelfLoopError(GraphError, ValueError):
    """Self loops are not meaningful for triangle analysis and are rejected."""

    def __init__(self, vertex: object) -> None:
        super().__init__(
            f"self loop on vertex {vertex!r} rejected: Triangle K-Cores are "
            "defined on simple undirected graphs"
        )
        self.vertex = vertex


class BackendError(ReproError):
    """A decomposition backend failed mechanically (not algorithmically).

    Raised by the ``external`` backend when its spill directory
    misbehaves (see :class:`SpillError`); the input graph is always left
    untouched and the caller can retry with an in-RAM backend
    (``csr``/``reference``).
    """


class SpillError(BackendError):
    """An on-disk spill artifact could not be read or failed validation.

    Raised by :mod:`repro.fast.external` for missing/truncated column
    files, checksum mismatches, manifest format-version mismatches, or a
    spill directory that vanished mid-run — instead of surfacing raw
    ``OSError`` / ``json.JSONDecodeError``.  ``path`` names the offending
    file or directory (mirrors :class:`PersistenceError`).
    """

    def __init__(self, path: object, message: str) -> None:
        super().__init__(f"{path}: {message}")
        self.path = str(path)


class DecompositionError(ReproError):
    """The decomposition state is inconsistent with the underlying graph."""


class PersistenceError(DecompositionError):
    """A persisted artifact could not be read or failed validation.

    Raised by :func:`repro.core.persistence.load_result` for truncated,
    corrupt, or schema-violating files instead of surfacing raw
    ``json.JSONDecodeError`` / ``KeyError``.  ``path`` names the offending
    file.
    """

    def __init__(self, path: object, message: str) -> None:
        super().__init__(f"{path}: {message}")
        self.path = str(path)


class StaleIndexError(DecompositionError):
    """A decomposition index was queried after its graph changed under it.

    Raised by :class:`repro.core.dynamic.DynamicTriangleKCore` when the caller
    mutated the graph directly instead of going through the maintainer's
    ``add_edge`` / ``remove_edge`` API.
    """


class TemplateError(ReproError):
    """A template-pattern specification is invalid or cannot be evaluated."""


class DatasetError(ReproError):
    """A named dataset could not be generated or loaded."""


class ValidationError(ReproError):
    """An invariant check failed (see :mod:`repro.core.validate`)."""


class WorkspaceError(ReproError):
    """An interactive-workspace command is invalid or cannot be executed.

    Raised by :mod:`repro.workspace` for unknown names, duplicate names,
    malformed shell commands, and remote commands issued while no service
    connection is active.  The shell catches these (like every other
    :class:`ReproError`) and prints a deterministic ``error:`` line
    instead of aborting the session.
    """
