"""Out-of-core partitioned CSR: the ``external`` backend (kernel layer L1-L3).

Every other backend materializes the full adjacency *and* the full triangle list in RAM, which
caps the reproduction far below the "graphs that don't fit in memory"
regime.  This module keeps both on disk:

* **Spill format** (:data:`SPILL_FORMAT`): one binary int64 file per
  kernel column (:data:`~repro.fast.csr.CSRGraph.ARRAY_FIELDS`) under a
  spill directory, described by a ``manifest.json`` carrying the format
  version, per-column byte counts and CRC32s, and the partition table — a
  list of vertex ranges ``[lo, hi)`` cut on the arc-count prefix
  (:func:`_partition_ranges`) with a CRC32 over each
  partition's slice of the ``indices`` column.  The manifest is written
  last via tmp+rename, so a crashed build can never leave a directory that
  passes :meth:`ExternalCSR.open` validation.
* **mmap'd store seam**: :meth:`ExternalCSR.open` maps each column and
  rehydrates a :class:`~repro.fast.csr.CSRGraph` through
  :meth:`~repro.fast.csr.CSRGraph.from_arrays` with ``memoryview`` stores
  over the maps — the L1 pluggable-store contract, so the enumeration
  kernels run unchanged on disk-backed columns.
* **Partitioned enumeration**: each partition ``[lo, hi)`` is enumerated
  with the unchanged :func:`~repro.fast.kernels.supports_and_triangles`
  sharding contract (every triangle is discovered exactly once, from its
  lowest-ranked vertex), in arc-bounded chunks so numpy temporaries stay
  small; each partition's triangles are spilled to a scratch file instead
  of accumulating as an in-RAM list.  Only the O(n + m) support/bound
  arrays stay resident — the semi-external memory model of *Truss
  Decomposition in Massive Networks* (PAPERS.md).
* **Bound-based partition admission**: when a ``floor`` is requested,
  partitions are admitted through the degree/h-index kappa upper bound of
  *Bounds and algorithms for graph trusses* (PAPERS.md):
  :math:`\\kappa(e=\\{u,v\\}) \\le \\min(h(u), h(v)) - 1` where ``h(v)``
  is the h-index of ``v``'s neighbor-degree list.  Every triangle owned by
  partition ``[lo, hi)`` has two edges incident to its minimum vertex
  ``w in [lo, hi)``, so if ``max h(w) - 1 < floor`` the partition cannot
  contribute a triangle of the floor-core and is skipped before any disk
  I/O (``bound_prune_hits``).  Dropped triangles all contain an edge with
  ``kappa < floor``, so kappa values ``>= floor`` are exact (the classical
  core-containment argument); ``floor=0`` — the engine default — admits
  everything and is bit-identical to ``csr``.
* **Reconciliation peel**: a per-partition, level-synchronous peel.  Each
  sub-round scans every live partition's triangle spill for unconsumed
  triangles touching the current frontier, aggregates their support
  decrements globally with the Theorem 1 guard on the *pre-sub-round*
  bounds, then applies them with the clamp — iterating boundary demotions
  (an edge demoted by one partition's triangles re-enters the frontier
  seen by every other partition on the next scan) to a fixed point.  This
  replicates the in-RAM peel (:mod:`repro.fast.peelers`) decision for
  decision — the set of triangles hit per sub-round and the aggregated
  per-edge decrement counts are identical, and application order within a
  sub-round is commutative — so kappa is bit-identical to ``csr`` (and
  the reference) and the processing order is bit-identical to the
  canonical ``csr`` order (ascending level, sub-round, edge id) on
  every graph.  The conformance matrix asserts both.

Lifetime rules: triangle spill files
live in a ``scratch-<pid>-<token>`` subdirectory removed in a ``finally``
on every exit path, and :func:`cleanup_stale` — run on every build and
open — removes scratch directories whose recorded pid is dead, so a
SIGKILL'd run cannot leak spill files past the next open.

All failure modes raise the typed :class:`~repro.exceptions.SpillError`
naming the offending path; see tests/test_external_backend.py for the
fault matrix.
"""

from __future__ import annotations

import json
import mmap
import os
import shutil
import tempfile
import zlib
from array import array
from bisect import bisect_left, bisect_right
from typing import Dict, List, Optional, Sequence, Tuple

from ..exceptions import SpillError
from . import csr as _csr_mod
from .csr import CSRGraph
from .kernels import _edge_index, _forward_wedges, supports_and_triangles

__all__ = [
    "DEFAULT_PARTITIONS",
    "SPILL_FORMAT",
    "ExternalCSR",
    "ExternalInfo",
    "cleanup_stale",
    "decompose_spill",
    "external_decomposition",
    "inject_boundary_drop_bug",
    "kappa_upper_bounds",
    "spill_edges",
]

#: On-disk spill format version; bump on layout changes.  ``open`` refuses
#: manifests carrying any other value.
SPILL_FORMAT = "repro.spill-csr/1"

#: Manifest file name inside a spill directory.
MANIFEST_NAME = "manifest.json"

#: Partition count when neither ``partitions`` nor ``memory_budget`` pins
#: one — small enough to keep per-partition overhead negligible, large
#: enough that every multi-shard code path (boundary reconciliation,
#: partition retirement) is exercised by default.
DEFAULT_PARTITIONS = 4

#: Arc-count ceiling per enumeration chunk: bounds the size of the numpy
#: temporaries `_forward_wedges` allocates (a few int64 arrays of this
#: order), independent of partition size.  The O(m) edge index every chunk
#: shares (`_edge_index`) is built once per run, not once per chunk.
ENUM_CHUNK_ARCS = 1 << 18

#: Triangles per peel-scan chunk: bounds the transient row block read from
#: a partition's triangle spill per step.
PEEL_CHUNK_TRIS = 1 << 17

#: Per-run telemetry: ``{"partitions": int, "admitted": int, "passes": int,
#: "bytes_mapped": int, "bound_prune_hits": int}``.
ExternalInfo = Dict[str, int]

#: Test hook (see tests/test_external_backend.py): SIGKILL-style crash in
#: the middle of enumeration, after the scratch directory exists.
_CRASH_ENV = "_REPRO_EXTERNAL_CRASH_TEST"

_BOUNDARY_DROP_BUG = False


class inject_boundary_drop_bug:
    """Context manager: drop boundary demotions at the partition seams.

    While active, the reconciliation peel consumes frontier-hit triangles
    found in partitions other than the first *without* applying their
    support demotions — exactly the class of bug a missing seam
    reconciliation would produce: demotions discovered while scanning a
    later partition never propagate back, bounds stay too high, and some
    kappa comes out too large whenever triangles span a seam.  The fuzz
    smoke-check proves the differential harness detects and shrinks it;
    see docs/testing.md.
    """

    def __enter__(self) -> "inject_boundary_drop_bug":
        global _BOUNDARY_DROP_BUG
        _BOUNDARY_DROP_BUG = True
        return self

    def __exit__(self, *exc_info: object) -> None:
        global _BOUNDARY_DROP_BUG
        _BOUNDARY_DROP_BUG = False


# ---------------------------------------------------------------------- #
# scratch-directory lifetime
# ---------------------------------------------------------------------- #


def _scratch_prefix() -> str:
    return "scratch-"


def cleanup_stale(spill_dir: str) -> List[str]:
    """Remove scratch directories whose recorded pid is dead.

    Every triangle-spill scratch directory is named
    ``scratch-<pid>-<token>``; a SIGKILL'd run leaves its directory
    behind, and the next :meth:`ExternalCSR.build`/:meth:`ExternalCSR.open`
    calls this to reap it.  Returns the removed paths (for tests/audits).
    """
    removed: List[str] = []
    try:
        entries = os.listdir(spill_dir)
    except OSError:
        return removed
    for name in entries:
        if not name.startswith(_scratch_prefix()):
            continue
        parts = name.split("-")
        try:
            pid = int(parts[1])
        except (IndexError, ValueError):
            continue
        if pid == os.getpid():
            continue
        try:
            os.kill(pid, 0)
        except ProcessLookupError:
            path = os.path.join(spill_dir, name)
            shutil.rmtree(path, ignore_errors=True)
            removed.append(path)
        except OSError:
            continue  # pid alive but not ours (EPERM): leave it alone
    return removed


def _make_spill_dir(spill_dir: str) -> None:
    """Create ``spill_dir`` if needed (SpillError when the path is unusable)."""
    try:
        os.makedirs(spill_dir, exist_ok=True)
    except OSError as exc:
        raise SpillError(spill_dir, f"cannot create spill directory: {exc}") from exc


def _make_scratch(spill_dir: str) -> str:
    """Create this run's scratch directory (SpillError on a dead spill dir)."""
    token = os.urandom(4).hex()
    path = os.path.join(spill_dir, f"{_scratch_prefix()}{os.getpid()}-{token}")
    try:
        os.makedirs(path)
    except OSError as exc:
        raise SpillError(
            spill_dir, f"cannot create triangle scratch directory: {exc}"
        ) from exc
    return path


# ---------------------------------------------------------------------- #
# spill directory: build / open / validate
# ---------------------------------------------------------------------- #


def _column_files() -> Tuple[str, ...]:
    return tuple(f"{field}.bin" for field in CSRGraph.ARRAY_FIELDS)


def _write_column(path: str, store: object) -> Tuple[int, int]:
    """Write one int64 column file; returns ``(nbytes, crc32)``."""
    if isinstance(store, memoryview):
        data = store.cast("B").tobytes()
    elif isinstance(store, array):
        data = store.tobytes()
    else:  # numpy array or bytes-like
        data = bytes(store)  # pragma: no cover - stores are array/memoryview
    try:
        with open(path, "wb") as fh:
            fh.write(data)
    except OSError as exc:
        raise SpillError(path, f"cannot write column: {exc}") from exc
    return len(data), zlib.crc32(data)


def _partition_ranges(
    indptr: Sequence[int], num_vertices: int, parts: int
) -> List[Tuple[int, int]]:
    """Vertex-range partitions cut on the arc-count prefix.

    Balanced arc scans, deduplicated degenerate cuts, exact tiling of
    ``[0, n)``; works over a bare ``indptr`` sequence so the spill builder
    can run before any :class:`CSRGraph` exists.
    """
    n = num_vertices
    if n == 0 or parts <= 1:
        return [(0, n)] if n else []
    total_arcs = indptr[n]
    if total_arcs == 0:
        return [(0, n)]
    parts = min(parts, n)
    cuts = [0]
    for i in range(1, parts):
        target = (total_arcs * i) // parts
        cut = bisect_left(indptr, target)
        if cut > cuts[-1] and cut < n:
            cuts.append(cut)
    cuts.append(n)
    return list(zip(cuts[:-1], cuts[1:]))


def _partition_count(
    payload_nbytes: int, num_vertices: int, memory_budget: Optional[int]
) -> int:
    """How many partitions a spill should carry.

    With a budget, aim for each partition's column slice plus its share of
    triangle scan state at roughly a third of the budget; without one, the
    default keeps the reconciliation machinery exercised.
    """
    if memory_budget is None or memory_budget <= 0:
        return DEFAULT_PARTITIONS
    per_part = max(1, memory_budget // 3)
    want = -(-payload_nbytes // per_part)  # ceil
    return max(1, min(num_vertices or 1, max(DEFAULT_PARTITIONS, want)))


def _crc_of_file(path: str, start: int = 0, length: Optional[int] = None) -> int:
    """Streaming CRC32 of ``path[start:start+length]`` (4 MiB chunks)."""
    crc = 0
    try:
        with open(path, "rb") as fh:
            fh.seek(start)
            todo = length
            while True:
                want = 1 << 22 if todo is None else min(1 << 22, todo)
                if want == 0:
                    break
                chunk = fh.read(want)
                if not chunk:
                    break
                crc = zlib.crc32(chunk, crc)
                if todo is not None:
                    todo -= len(chunk)
    except OSError as exc:
        raise SpillError(path, f"cannot read column: {exc}") from exc
    return crc


def _jsonable_labels(labels: Sequence[object]) -> Optional[List[object]]:
    """Labels as a JSON list when round-trippable, else None."""
    if labels and all(
        isinstance(lab, (int, str)) and not isinstance(lab, bool)
        for lab in labels
    ):
        return list(labels)
    return None


class _MappedColumn:
    """One mmap'd column file exposed as an int64 ``memoryview`` store."""

    __slots__ = ("path", "_file", "_mmap", "view", "nbytes")

    def __init__(self, path: str, nbytes: int) -> None:
        self.path = path
        self.nbytes = nbytes
        try:
            self._file = open(path, "rb")
        except OSError as exc:
            raise SpillError(path, f"cannot open column: {exc}") from exc
        if nbytes:
            try:
                self._mmap = mmap.mmap(
                    self._file.fileno(), nbytes, access=mmap.ACCESS_READ
                )
            except (OSError, ValueError) as exc:
                self._file.close()
                raise SpillError(path, f"cannot map column: {exc}") from exc
            self.view = memoryview(self._mmap).cast("q")
        else:
            self._mmap = None
            self.view = memoryview(b"").cast("q")

    def release_pages(self) -> None:
        """Hint the kernel to drop this column's resident pages."""
        if self._mmap is not None and hasattr(self._mmap, "madvise"):
            try:
                self._mmap.madvise(mmap.MADV_DONTNEED)
            except (OSError, ValueError):  # pragma: no cover - advisory only
                pass

    def close(self) -> None:
        try:
            self.view.release()
        except BufferError:  # pragma: no cover - a kernel still holds a view
            pass
        if self._mmap is not None:
            try:
                self._mmap.close()
            except BufferError:  # pragma: no cover - exported buffer lingers
                pass
        self._file.close()


class ExternalCSR:
    """A CSR snapshot whose kernel columns live in mmap'd spill files.

    ``csr`` is a regular :class:`CSRGraph` whose five stores are
    ``memoryview`` casts over the maps — any kernel that honors the L1
    store contract runs on it unchanged.  ``partitions`` is the manifest's
    partition table; :func:`decompose_spill` drives the out-of-core
    decomposition over it.
    """

    __slots__ = ("spill_dir", "csr", "partitions", "partition_crcs",
                 "_columns", "manifest")

    def __init__(
        self,
        spill_dir: str,
        csr: CSRGraph,
        partitions: List[Tuple[int, int]],
        partition_crcs: List[int],
        columns: Dict[str, _MappedColumn],
        manifest: Dict[str, object],
    ) -> None:
        self.spill_dir = spill_dir
        self.csr = csr
        self.partitions = partitions
        self.partition_crcs = partition_crcs
        self._columns = columns
        self.manifest = manifest

    # -------------------------------------------------------------- #
    # construction
    # -------------------------------------------------------------- #

    @classmethod
    def build(
        cls,
        graph: "object",
        spill_dir: str,
        *,
        partitions: Optional[int] = None,
        memory_budget: Optional[int] = None,
    ) -> "ExternalCSR":
        """Freeze ``graph`` into a spill directory and open it mmap'd.

        The in-RAM :class:`CSRGraph` build is reused (the graph is already
        resident when this path runs — the engine's entry point); columns
        are written, the manifest last via tmp+rename, then the arrays are
        dropped in favor of the maps.  For graphs too large to ever hold
        in RAM, build the spill with :func:`spill_edges` instead.
        """
        _make_spill_dir(spill_dir)
        cleanup_stale(spill_dir)
        snap = CSRGraph.from_graph(graph)
        parts = partitions if partitions is not None else _partition_count(
            snap.payload_nbytes(), snap.num_vertices, memory_budget
        )
        ranges = _partition_ranges(snap.indptr, snap.num_vertices, parts)
        columns_meta: Dict[str, Dict[str, object]] = {}
        for field in CSRGraph.ARRAY_FIELDS:
            fname = f"{field}.bin"
            nbytes, crc = _write_column(
                os.path.join(spill_dir, fname), getattr(snap, field)
            )
            columns_meta[field] = {"file": fname, "nbytes": nbytes,
                                   "crc32": crc}
        part_meta = []
        indices_path = os.path.join(spill_dir, "indices.bin")
        for lo, hi in ranges:
            start = 8 * snap.indptr[lo]
            length = 8 * (snap.indptr[hi] - snap.indptr[lo])
            part_meta.append({
                "lo": lo,
                "hi": hi,
                "crc32": _crc_of_file(indices_path, start, length),
            })
        manifest = {
            "format": SPILL_FORMAT,
            "num_vertices": snap.num_vertices,
            "num_edges": snap.num_edges,
            "columns": columns_meta,
            "partitions": part_meta,
            "labels": _jsonable_labels(snap.labels),
        }
        _write_manifest(spill_dir, manifest)
        ext = cls.open(spill_dir, verify=False)
        # The maps are fresh copies of arrays we just held — checksums are
        # tautologically valid, but the in-RAM labels may not have survived
        # the manifest (non-JSON labels): carry them over.
        ext.csr._set_labels(snap.labels)
        return ext

    @classmethod
    def open(cls, spill_dir: str, *, verify: bool = True) -> "ExternalCSR":
        """Map an existing spill directory, validating the manifest.

        ``verify=True`` (default) additionally streams every column
        through CRC32 — one sequential O(m/B) I/O pass; partition
        checksums over ``indices`` are *always* re-checked lazily at
        admission time by :func:`decompose_spill`, so corruption appearing
        after open still surfaces as a typed error.
        """
        cleanup_stale(spill_dir)
        manifest_path = os.path.join(spill_dir, MANIFEST_NAME)
        if not os.path.exists(manifest_path):
            raise SpillError(manifest_path, "manifest missing")
        try:
            with open(manifest_path, "r", encoding="utf-8") as fh:
                manifest = json.load(fh)
        except OSError as exc:
            raise SpillError(manifest_path, f"cannot read manifest: {exc}") \
                from exc
        except json.JSONDecodeError as exc:
            raise SpillError(manifest_path, f"invalid manifest JSON: {exc}") \
                from exc
        if not isinstance(manifest, dict):
            raise SpillError(manifest_path, "manifest is not a JSON object")
        fmt = manifest.get("format")
        if fmt != SPILL_FORMAT:
            raise SpillError(
                manifest_path,
                f"unsupported spill format {fmt!r}; expected "
                f"{SPILL_FORMAT!r}",
            )
        try:
            n = int(manifest["num_vertices"])
            m = int(manifest["num_edges"])
            columns_meta = manifest["columns"]
            part_meta = manifest["partitions"]
        except (KeyError, TypeError, ValueError) as exc:
            raise SpillError(manifest_path, f"malformed manifest: {exc}") \
                from exc
        columns: Dict[str, _MappedColumn] = {}
        try:
            for field in CSRGraph.ARRAY_FIELDS:
                meta = columns_meta.get(field) if isinstance(
                    columns_meta, dict) else None
                if not isinstance(meta, dict):
                    raise SpillError(
                        manifest_path, f"manifest lacks column {field!r}"
                    )
                path = os.path.join(spill_dir, str(meta.get("file")))
                nbytes = int(meta.get("nbytes", -1))
                try:
                    actual = os.path.getsize(path)
                except OSError as exc:
                    raise SpillError(path, f"column missing: {exc}") from exc
                if actual != nbytes:
                    raise SpillError(
                        path,
                        f"truncated column: expected {nbytes} bytes, "
                        f"found {actual}",
                    )
                if verify and _crc_of_file(path) != int(meta.get("crc32", -1)):
                    raise SpillError(path, "column checksum mismatch")
                columns[field] = _MappedColumn(path, nbytes)
        except Exception:
            for col in columns.values():
                col.close()
            raise
        labels = manifest.get("labels")
        if labels is None:
            labels = list(range(n))
        snap = CSRGraph.from_arrays(
            n, m,
            {field: columns[field].view for field in CSRGraph.ARRAY_FIELDS},
            labels=labels,
        )
        ranges: List[Tuple[int, int]] = []
        crcs: List[int] = []
        for entry in part_meta if isinstance(part_meta, list) else ():
            try:
                ranges.append((int(entry["lo"]), int(entry["hi"])))
                crcs.append(int(entry["crc32"]))
            except (KeyError, TypeError, ValueError) as exc:
                for col in columns.values():
                    col.close()
                raise SpillError(
                    manifest_path, f"malformed partition table: {exc}"
                ) from exc
        return cls(spill_dir, snap, ranges, crcs, columns, manifest)

    # -------------------------------------------------------------- #
    # introspection / lifetime
    # -------------------------------------------------------------- #

    def bytes_mapped(self) -> int:
        """Total bytes of column files currently mapped."""
        return sum(col.nbytes for col in self._columns.values())

    def verify_partition(self, index: int) -> None:
        """Re-check one partition's ``indices``-slice checksum (admission).

        Raises :class:`SpillError` naming the ``indices`` column on a
        mismatch — the lazy half of the validation story: corruption that
        appears *after* open (a flaky disk, an overwritten file) is caught
        before the partition's triangles reach the peel.
        """
        lo, hi = self.partitions[index]
        indptr = self.csr.indptr
        start, end = indptr[lo], indptr[hi]
        path = self._columns["indices"].path
        crc = _crc_of_file(path, 8 * start, 8 * (end - start))
        if crc != self.partition_crcs[index]:
            raise SpillError(
                path,
                f"partition {index} [{lo}, {hi}) checksum mismatch "
                f"(expected {self.partition_crcs[index]}, found {crc})",
            )

    def release_pages(self) -> None:
        """Drop resident pages of every column map (RSS control)."""
        for col in self._columns.values():
            col.release_pages()

    def close(self) -> None:
        """Unmap every column.  The snapshot must not be used afterwards."""
        for col in self._columns.values():
            col.close()

    def __enter__(self) -> "ExternalCSR":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __repr__(self) -> str:
        return (
            f"ExternalCSR(|V|={self.csr.num_vertices}, "
            f"|E|={self.csr.num_edges}, partitions={len(self.partitions)}, "
            f"dir={self.spill_dir!r})"
        )


def _write_manifest(spill_dir: str, manifest: Dict[str, object]) -> None:
    """Write the manifest atomically (tmp + rename), always last."""
    path = os.path.join(spill_dir, MANIFEST_NAME)
    tmp = path + ".tmp"
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(manifest, fh)
        os.replace(tmp, path)
    except OSError as exc:
        raise SpillError(path, f"cannot write manifest: {exc}") from exc


# ---------------------------------------------------------------------- #
# bounded-memory build from an edge stream
# ---------------------------------------------------------------------- #


def _write_run(scratch: str, tag: str, seq: int, keys: "object") -> str:
    """Write one sorted run of int64 keys; returns its path."""
    path = os.path.join(scratch, f"run-{tag}-{seq}.bin")
    np = _csr_mod.np
    try:
        with open(path, "wb") as fh:
            if np is not None and not isinstance(keys, array):
                keys.tofile(fh)
            else:
                keys.tofile(fh)
    except OSError as exc:
        raise SpillError(path, f"cannot write sort run: {exc}") from exc
    return path


def _iter_run(path: str, chunk: int = 1 << 16):
    """Stream int64 keys back out of a run file."""
    with open(path, "rb") as fh:
        while True:
            buf = array("q")
            try:
                buf.fromfile(fh, chunk)
            except EOFError:
                pass
            if not buf:
                return
            yield from buf


def _merge_runs(paths: List[str], *, dedup: bool):
    """K-way merge of sorted runs (optionally dropping duplicate keys)."""
    import heapq

    merged = heapq.merge(*map(_iter_run, paths))
    if not dedup:
        yield from merged
        return
    prev = None
    for key in merged:
        if key != prev:
            prev = key
            yield key


def spill_edges(
    edges: "object",
    num_vertices: int,
    spill_dir: str,
    *,
    partitions: Optional[int] = None,
    memory_budget: Optional[int] = None,
    chunk_arcs: int = 1 << 20,
) -> ExternalCSR:
    """Build a spill directory from an edge *stream* in bounded memory.

    ``edges`` yields integer pairs ``(u, v)`` with ``0 <= u, v <
    num_vertices``; duplicates and self-loops are dropped.  Resident
    memory stays O(n + chunk): degrees and offsets are the only full-length
    arrays, and the arc set is ordered by chunked external sorting
    (sorted runs + heap merge) — never materialized whole.  The vertex
    relabeling is the CSR convention (stable ascending degree, ties by
    id), so for a :class:`~repro.graph.undirected.Graph` whose insertion
    order is id order the result is bit-identical to
    :meth:`ExternalCSR.build`.  This is the entry point for graphs that
    never fit in RAM — the scaling benchmark decomposes a stream ~10x the
    livejournal stand-in through it under a capped RSS budget.
    """
    np = _csr_mod.np
    _make_spill_dir(spill_dir)
    cleanup_stale(spill_dir)
    n = num_vertices
    scratch = _make_scratch(spill_dir)
    try:
        # Pass 1: external sort + dedup of canonical arc keys lo*n + hi.
        runs: List[str] = []
        buf = array("q")
        seq = 0
        for u, v in edges:
            if u == v:
                continue
            lo, hi = (u, v) if u < v else (v, u)
            if lo < 0 or hi >= n:
                raise ValueError(
                    f"edge ({u}, {v}) outside vertex range [0, {n})"
                )
            buf.append(lo * n + hi)
            if len(buf) >= chunk_arcs:
                runs.append(_write_run(scratch, "canon", seq, _sort(buf)))
                seq += 1
                buf = array("q")
        if buf:
            runs.append(_write_run(scratch, "canon", seq, _sort(buf)))

        # Merged+deduped canonical arcs -> degree counts and a clean file.
        degrees = array("q", bytes(8 * n)) if np is None else np.zeros(
            n, dtype=np.int64
        )
        canon_path = os.path.join(scratch, "canonical.bin")
        m = 0
        with open(canon_path, "wb") as fh:
            out = array("q")
            for key in _merge_runs(runs, dedup=True):
                lo, hi = divmod(key, n)
                degrees[lo] += 1
                degrees[hi] += 1
                out.append(key)
                m += 1
                if len(out) >= chunk_arcs:
                    out.tofile(fh)
                    out = array("q")
            if out:
                out.tofile(fh)
        for path in runs:
            os.remove(path)

        # Degree-order relabel: rank[v] = new id (stable by (degree, id)).
        if np is not None:
            order = np.argsort(degrees, kind="stable")
            rank = np.empty(n, dtype=np.int64)
            rank[order] = np.arange(n, dtype=np.int64)
            labels = order.tolist()
            rank_get = rank.__getitem__
        else:
            labels = sorted(range(n), key=degrees.__getitem__)
            rank_arr = array("q", bytes(8 * n))
            for new_id, old in enumerate(labels):
                rank_arr[old] = new_id
            rank_get = rank_arr.__getitem__

        # Pass 2: relabeled directed arc keys, externally sorted again.
        runs = []
        seq = 0
        buf = array("q")
        for key in _iter_run(canon_path):
            lo, hi = divmod(key, n)
            a, b = rank_get(lo), rank_get(hi)
            buf.append(a * n + b)
            buf.append(b * n + a)
            if len(buf) >= chunk_arcs:
                runs.append(_write_run(scratch, "arc", seq, _sort(buf)))
                seq += 1
                buf = array("q")
        if buf:
            runs.append(_write_run(scratch, "arc", seq, _sort(buf)))
        os.remove(canon_path)

        # Merge pass A: indices column + per-vertex arc/backward counts.
        counts = array("q", bytes(8 * n))
        backward = array("q", bytes(8 * n))
        indices_path = os.path.join(spill_dir, "indices.bin")
        indices_crc = 0
        with open(indices_path, "wb") as fh:
            out = array("q")
            for key in _merge_runs(runs, dedup=False):
                src, dst = divmod(key, n)
                counts[src] += 1
                if dst < src:
                    backward[src] += 1
                out.append(dst)
                if len(out) >= chunk_arcs:
                    data = out.tobytes()
                    fh.write(data)
                    indices_crc = zlib.crc32(data, indices_crc)
                    out = array("q")
            data = out.tobytes()
            fh.write(data)
            indices_crc = zlib.crc32(data, indices_crc)

        indptr = array("q", bytes(8 * (n + 1)))
        forward_start = array("q", bytes(8 * n))
        eid_base = array("q", bytes(8 * n))
        total = 0
        eids_before = 0
        for u in range(n):
            indptr[u] = total
            forward_start[u] = total + backward[u]
            eid_base[u] = eids_before
            eids_before += counts[u] - backward[u]
            total += counts[u]
        indptr[n] = total

        # Merge pass B: arc_eids (backward arcs bisect the on-disk forward
        # suffix of their smaller endpoint) + edge_endpoints.
        with open(indices_path, "rb") as ifh:
            if total:
                imm = mmap.mmap(ifh.fileno(), 8 * total,
                                access=mmap.ACCESS_READ)
                iview = memoryview(imm).cast("q")
            else:
                imm = None
                iview = memoryview(b"").cast("q")
            try:
                eids_path = os.path.join(spill_dir, "arc_eids.bin")
                ends_path = os.path.join(spill_dir, "edge_endpoints.bin")
                eids_crc = 0
                ends_crc = 0
                next_eid = 0
                with open(eids_path, "wb") as efh, open(ends_path,
                                                        "wb") as pfh:
                    ebuf = array("q")
                    pbuf = array("q")
                    for key in _merge_runs(runs, dedup=False):
                        src, dst = divmod(key, n)
                        if src < dst:
                            ebuf.append(next_eid)
                            pbuf.append(src)
                            pbuf.append(dst)
                            next_eid += 1
                        else:
                            vf, vend = forward_start[dst], indptr[dst + 1]
                            pos = bisect_left(iview, src, vf, vend)
                            ebuf.append(eid_base[dst] + (pos - vf))
                        if len(ebuf) >= chunk_arcs:
                            data = ebuf.tobytes()
                            efh.write(data)
                            eids_crc = zlib.crc32(data, eids_crc)
                            ebuf = array("q")
                        if len(pbuf) >= chunk_arcs:
                            data = pbuf.tobytes()
                            pfh.write(data)
                            ends_crc = zlib.crc32(data, ends_crc)
                            pbuf = array("q")
                    data = ebuf.tobytes()
                    efh.write(data)
                    eids_crc = zlib.crc32(data, eids_crc)
                    data = pbuf.tobytes()
                    pfh.write(data)
                    ends_crc = zlib.crc32(data, ends_crc)
            finally:
                try:
                    iview.release()
                finally:
                    if imm is not None:
                        imm.close()
        for path in runs:
            os.remove(path)
        assert m == next_eid, "arc merge lost forward arcs"

        indptr_nbytes, indptr_crc = _write_column(
            os.path.join(spill_dir, "indptr.bin"), indptr
        )
        fstart_nbytes, fstart_crc = _write_column(
            os.path.join(spill_dir, "forward_start.bin"), forward_start
        )
        parts = partitions if partitions is not None else _partition_count(
            8 * (n + 1 + n + total + total + 2 * m), n, memory_budget
        )
        ranges = _partition_ranges(indptr, n, parts)
        part_meta = []
        for lo, hi in ranges:
            part_meta.append({
                "lo": lo,
                "hi": hi,
                "crc32": _crc_of_file(
                    indices_path, 8 * indptr[lo],
                    8 * (indptr[hi] - indptr[lo])
                ),
            })
        manifest = {
            "format": SPILL_FORMAT,
            "num_vertices": n,
            "num_edges": m,
            "columns": {
                "indptr": {"file": "indptr.bin", "nbytes": indptr_nbytes,
                           "crc32": indptr_crc},
                "indices": {"file": "indices.bin", "nbytes": 8 * total,
                            "crc32": indices_crc},
                "arc_eids": {"file": "arc_eids.bin", "nbytes": 8 * total,
                             "crc32": eids_crc},
                "forward_start": {"file": "forward_start.bin",
                                  "nbytes": fstart_nbytes,
                                  "crc32": fstart_crc},
                "edge_endpoints": {"file": "edge_endpoints.bin",
                                   "nbytes": 16 * m, "crc32": ends_crc},
            },
            "partitions": part_meta,
            "labels": labels,
        }
        _write_manifest(spill_dir, manifest)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return ExternalCSR.open(spill_dir, verify=False)


def _sort(buf: array) -> "object":
    """Sort one run buffer (numpy when available, else list sort)."""
    np = _csr_mod.np
    if np is not None:
        arr = np.frombuffer(buf, dtype=np.int64).copy()
        arr.sort()
        return arr
    out = array("q", sorted(buf))
    return out


# ---------------------------------------------------------------------- #
# kappa upper bounds (partition admission)
# ---------------------------------------------------------------------- #


def kappa_upper_bounds(csr: CSRGraph) -> List[int]:
    """Per-vertex h-index bound: ``kappa(e={u,v}) <= min(h(u), h(v)) - 1``.

    ``h(v)`` is the h-index of ``v``'s neighbor-degree multiset (*Bounds
    and algorithms for graph trusses*): at most ``h`` neighbors of ``v``
    have degree ``>= h``.  Any triangle through ``e`` needs a common
    neighbor ``w`` adjacent to both endpoints, so the triangles of ``e``
    inside any subgraph where every edge keeps ``>= k`` triangles are
    capped by ``min(h(u), h(v)) - 1 >= k`` — the admission test
    :func:`decompose_spill` applies per partition when a ``floor`` is
    requested.
    """
    indptr = csr.indptr
    indices = csr.indices
    n = csr.num_vertices
    degrees = [indptr[v + 1] - indptr[v] for v in range(n)]
    bounds: List[int] = []
    for v in range(n):
        neigh = sorted(
            (degrees[w] for w in indices[indptr[v]:indptr[v + 1]]),
            reverse=True,
        )
        h = 0
        for i, d in enumerate(neigh):
            if d >= i + 1:
                h = i + 1
            else:
                break
        bounds.append(h)
    return bounds


# ---------------------------------------------------------------------- #
# partitioned enumeration (triangles spilled per partition)
# ---------------------------------------------------------------------- #


def _enum_chunks(
    csr: CSRGraph, lo: int, hi: int, max_arcs: int
) -> List[Tuple[int, int]]:
    """Split ``[lo, hi)`` on arc counts so each chunk scans ``<= max_arcs``
    (single-vertex chunks may exceed it — a hub's block is indivisible)."""
    indptr = csr.indptr
    chunks: List[Tuple[int, int]] = []
    start = lo
    while start < hi:
        target = indptr[start] + max_arcs
        end = bisect_right(indptr, target, start + 1, hi + 1) - 1
        if end <= start:
            end = start + 1
        chunks.append((start, end))
        start = end
    return chunks


def _enumerate_partition(
    csr: CSRGraph,
    lo: int,
    hi: int,
    out_path: str,
    supports: "object",
    index: "object",
) -> int:
    """Enumerate triangles owned by ``[lo, hi)``, spilling them to disk.

    Accumulates into the full-length ``supports`` array and appends each
    triangle's three edge ids to ``out_path`` — in exactly the order
    :func:`supports_and_triangles` emits them, so concatenating partition
    files in ascending range order reproduces the in-RAM triangle list bit
    for bit.  Returns the triangle count.  ``index`` is the run's
    :func:`~repro.fast.kernels._edge_index` of ``csr`` (None without
    numpy).
    """
    np = _csr_mod.np
    count = 0
    try:
        with open(out_path, "wb") as fh:
            if np is not None:
                for sub_lo, sub_hi in _enum_chunks(csr, lo, hi,
                                                   ENUM_CHUNK_ARCS):
                    e_uv, e_uw, e_vw = _forward_wedges(
                        csr, sub_lo, sub_hi, index
                    )
                    if e_uv.size == 0:
                        continue
                    tri = np.stack((e_uv, e_uw, e_vw), axis=1).ravel()
                    np.add.at(supports, tri, 1)
                    tri.tofile(fh)
                    count += int(e_uv.size)
            else:
                # Pure path: the kernels' merge loop, streamed to disk in
                # bounded buffers (enumeration order is identical to the
                # numpy join — the substrate contract).
                _, tri_edges = supports_and_triangles(csr, lo=lo, hi=hi)
                for e in tri_edges:
                    supports[e] += 1
                array("q", tri_edges).tofile(fh)
                count = len(tri_edges) // 3
    except OSError as exc:
        raise SpillError(out_path, f"cannot write triangle spill: {exc}") \
            from exc
    return count


# ---------------------------------------------------------------------- #
# reconciliation peel (level-synchronous over partition spill files)
# ---------------------------------------------------------------------- #


def _external_peel_numpy(
    m: int,
    supports: "object",
    tri_files: List[Tuple[str, int]],
    stats: Dict[str, object],
    info: ExternalInfo,
    memory_budget: Optional[int],
) -> Tuple[List[int], List[int]]:
    np = _csr_mod.np
    bounds = np.asarray(supports, dtype=np.int64).copy()
    processed = np.zeros(m, dtype=bool)
    in_frontier = np.zeros(m, dtype=bool)
    kappa = np.zeros(m, dtype=np.int64)
    order_chunks: List[object] = []
    maps: List[Optional[object]] = []
    consumed: List[Optional[object]] = []
    live: List[int] = []
    total_tri_bytes = 0
    for path, count in tri_files:
        if count:
            try:
                mmarr = np.memmap(path, dtype=np.int64, mode="r",
                                  shape=(count, 3))
            except (OSError, ValueError) as exc:
                raise SpillError(
                    path, f"cannot map triangle spill: {exc}"
                ) from exc
            maps.append(mmarr)
            consumed.append(np.zeros(count, dtype=bool))
            total_tri_bytes += 24 * count
        else:
            maps.append(None)
            consumed.append(None)
        live.append(count)
    release_each_pass = (
        memory_budget is not None and total_tri_bytes > memory_budget // 2
    )
    remaining = m
    sentinel = np.iinfo(np.int64).max
    levels = 0
    batched = 0
    skips = 0
    passes = 0
    while remaining:
        masked = np.where(processed, sentinel, bounds)
        level = int(masked.min())
        levels += 1
        frontier = np.flatnonzero(~processed & (bounds == level))
        while frontier.size:
            order_chunks.append(frontier)
            processed[frontier] = True
            remaining -= int(frontier.size)
            kappa[frontier] = level
            in_frontier[frontier] = True
            delta = np.zeros(m, dtype=np.int64)
            total_hits = 0
            for p, tri3 in enumerate(maps):
                if tri3 is None or live[p] == 0:
                    continue
                passes += 1
                cons = consumed[p]
                for start in range(0, live_len(tri3), PEEL_CHUNK_TRIS):
                    stop = min(start + PEEL_CHUNK_TRIS, live_len(tri3))
                    cslice = cons[start:stop]
                    if cslice.all():
                        continue
                    try:
                        rows = np.asarray(tri3[start:stop])
                    except (OSError, ValueError) as exc:
                        raise SpillError(
                            tri_files[p][0],
                            f"cannot read triangle spill: {exc}",
                        ) from exc
                    hit = ~cslice & (
                        in_frontier[rows[:, 0]]
                        | in_frontier[rows[:, 1]]
                        | in_frontier[rows[:, 2]]
                    )
                    nhits = int(hit.sum())
                    if nhits == 0:
                        continue
                    if _BOUNDARY_DROP_BUG and p > 0:
                        # Injected seam bug: consume hit triangles of
                        # non-first partitions without applying their
                        # demotions (see inject_boundary_drop_bug).
                        cslice |= hit
                        live[p] -= nhits
                        total_hits += nhits
                        continue
                    cslice |= hit
                    live[p] -= nhits
                    total_hits += nhits
                    partners = rows[hit].ravel()
                    alive = bounds[partners] > level
                    skips += int(partners.size - int(alive.sum()))
                    np.add.at(delta, partners[alive], 1)
                if release_each_pass:
                    _release_memmap(tri3)
            in_frontier[frontier] = False
            if total_hits == 0:
                break
            touched = np.flatnonzero(delta)
            batched += int(delta[touched].sum())
            bounds[touched] -= delta[touched]
            dropped = touched[bounds[touched] <= level]
            bounds[dropped] = level
            frontier = dropped
    order = (
        np.concatenate(order_chunks).tolist() if order_chunks else []
    )
    stats["executor"] = "external"
    stats["levels"] = levels
    stats["batched_decrements"] = batched
    stats["bound_skips"] = skips
    info["passes"] = info.get("passes", 0) + passes
    for tri3 in maps:
        if tri3 is not None:
            _release_memmap(tri3)
    return kappa.tolist(), order


def live_len(tri3: "object") -> int:
    return int(tri3.shape[0])


def _release_memmap(arr: "object") -> None:
    mm = getattr(arr, "_mmap", None)
    if mm is not None and hasattr(mm, "madvise"):
        try:
            mm.madvise(mmap.MADV_DONTNEED)
        except (OSError, ValueError):  # pragma: no cover - advisory only
            pass


def _external_peel_pure(
    m: int,
    supports: Sequence[int],
    tri_files: List[Tuple[str, int]],
    stats: Dict[str, object],
    info: ExternalInfo,
) -> Tuple[List[int], List[int]]:
    # Mirrors _external_peel_numpy decision for decision (which in turn
    # mirrors repro.fast.peelers): same frontiers, same sub-rounds, same
    # counters.
    bounds = list(supports)
    processed = bytearray(m)
    in_frontier = bytearray(m)
    kappa = [0] * m
    order: List[int] = []
    consumed = [bytearray(count) for _, count in tri_files]
    live = [count for _, count in tri_files]
    remaining = m
    levels = 0
    batched = 0
    skips = 0
    passes = 0
    handles = []
    try:
        for path, count in tri_files:
            try:
                handles.append(open(path, "rb") if count else None)
            except OSError as exc:
                raise SpillError(
                    path, f"cannot read triangle spill: {exc}"
                ) from exc
        while remaining:
            level = min(bounds[e] for e in range(m) if not processed[e])
            levels += 1
            frontier = [
                e for e in range(m)
                if not processed[e] and bounds[e] == level
            ]
            while frontier:
                order.extend(frontier)
                remaining -= len(frontier)
                for e in frontier:
                    processed[e] = 1
                    kappa[e] = level
                    in_frontier[e] = 1
                decrements: Dict[int, int] = {}
                total_hits = 0
                for p, fh in enumerate(handles):
                    if fh is None or live[p] == 0:
                        continue
                    passes += 1
                    fh.seek(0)
                    cons = consumed[p]
                    tidx = 0
                    while True:
                        buf = array("q")
                        try:
                            buf.fromfile(fh, 3 * PEEL_CHUNK_TRIS)
                        except EOFError:
                            pass
                        except OSError as exc:
                            raise SpillError(
                                tri_files[p][0],
                                f"cannot read triangle spill: {exc}",
                            ) from exc
                        if not buf:
                            break
                        for base in range(0, len(buf), 3):
                            if not cons[tidx]:
                                e0 = buf[base]
                                e1 = buf[base + 1]
                                e2 = buf[base + 2]
                                if (in_frontier[e0] or in_frontier[e1]
                                        or in_frontier[e2]):
                                    cons[tidx] = 1
                                    live[p] -= 1
                                    total_hits += 1
                                    if _BOUNDARY_DROP_BUG and p > 0:
                                        pass  # injected seam bug: demotions
                                        # from non-first partitions dropped
                                    else:
                                        for ex in (e0, e1, e2):
                                            if bounds[ex] > level:
                                                decrements[ex] = (
                                                    decrements.get(ex, 0) + 1
                                                )
                                            else:
                                                skips += 1
                            tidx += 1
                for e in frontier:
                    in_frontier[e] = 0
                if total_hits == 0:
                    break
                next_frontier: List[int] = []
                for e2, count in decrements.items():
                    batched += count
                    lowered = bounds[e2] - count
                    if lowered <= level:
                        bounds[e2] = level
                        next_frontier.append(e2)
                    else:
                        bounds[e2] = lowered
                next_frontier.sort()
                frontier = next_frontier
    finally:
        for fh in handles:
            if fh is not None:
                fh.close()
    stats["executor"] = "external"
    stats["levels"] = levels
    stats["batched_decrements"] = batched
    stats["bound_skips"] = skips
    info["passes"] = info.get("passes", 0) + passes
    return kappa, order


# ---------------------------------------------------------------------- #
# decomposition drivers
# ---------------------------------------------------------------------- #


def decompose_spill(
    ext: ExternalCSR,
    *,
    memory_budget: Optional[int] = None,
    floor: int = 0,
    counters: Optional[Dict[str, int]] = None,
    peel_stats: Optional[Dict[str, object]] = None,
    info: Optional[ExternalInfo] = None,
    decode: bool = True,
):
    """Out-of-core Algorithm 1 over an opened spill directory.

    With ``floor=0`` (default) the result is bit-identical to ``csr``:
    same kappa map, and the canonical processing order.  With
    ``floor > 0`` the h-index admission bound prunes partitions that
    provably cannot reach the floor; kappa values ``>= floor`` remain
    exact (values below it may be underestimates — see the module
    docstring), which is the filtered-query contract.

    ``decode=False`` skips the label decode and returns the raw
    ``(kappa_by_eid, order_by_eid)`` sequences — decoding builds O(m)
    Python tuples, which dwarfs the out-of-core working set on the graphs
    this backend exists for (the RSS-capped benchmark uses this).
    """
    if floor < 0:
        raise ValueError(f"floor must be >= 0, got {floor}")
    csr = ext.csr
    np = _csr_mod.np
    m = csr.num_edges
    run_info: ExternalInfo = {
        "partitions": len(ext.partitions),
        "admitted": 0,
        "passes": 0,
        "bytes_mapped": ext.bytes_mapped(),
        "bound_prune_hits": 0,
    }
    stats: Dict[str, object] = {}
    supports = (
        np.zeros(m, dtype=np.int64) if np is not None else [0] * m
    )
    admitted: List[int] = []
    if floor > 0 and ext.partitions:
        vertex_bounds = kappa_upper_bounds(csr)
        for idx, (lo, hi) in enumerate(ext.partitions):
            best = max(vertex_bounds[lo:hi], default=0)
            if best - 1 < floor:
                run_info["bound_prune_hits"] += 1
            else:
                admitted.append(idx)
    else:
        admitted = list(range(len(ext.partitions)))
    run_info["admitted"] = len(admitted)

    scratch = _make_scratch(ext.spill_dir)
    try:
        tri_files: List[Tuple[str, int]] = []
        index = _edge_index(csr) if np is not None and admitted else None
        for idx in admitted:
            ext.verify_partition(idx)
            lo, hi = ext.partitions[idx]
            path = os.path.join(scratch, f"tri-{idx}.bin")
            count = _enumerate_partition(csr, lo, hi, path, supports, index)
            tri_files.append((path, count))
            if os.environ.get(_CRASH_ENV):
                os._exit(13)
            if memory_budget is not None:
                ext.release_pages()
        index = None  # O(m) and unused by the peel: free it first
        run_info["bytes_mapped"] += sum(24 * c for _, c in tri_files)

        if m == 0:
            kappa_by_eid: List[int] = []
            order_by_eid: List[int] = []
            stats["executor"] = "external"
            stats["levels"] = 0
            stats["batched_decrements"] = 0
            stats["bound_skips"] = 0
        elif np is not None:
            kappa_by_eid, order_by_eid = _external_peel_numpy(
                m, supports, tri_files, stats, run_info, memory_budget
            )
        else:
            kappa_by_eid, order_by_eid = _external_peel_pure(
                m, supports, tri_files, stats, run_info
            )
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    if peel_stats is not None:
        peel_stats.update(stats)
    if info is not None:
        info.update(run_info)
    if counters is not None:
        support_sum = int(
            supports.sum() if np is not None else sum(supports)
        )
        counters["triangles_enumerated"] = support_sum // 3
        counters["support_sum"] = support_sum
        counters["edges_peeled"] = m
        counters["bucket_decrements"] = support_sum - int(sum(kappa_by_eid))
    if not decode:
        return kappa_by_eid, order_by_eid
    from ..core.triangle_kcore import TriangleKCoreResult

    kappa = csr.decode_kappa(kappa_by_eid, order_by_eid)
    return TriangleKCoreResult(kappa=kappa, processing_order=list(kappa))


def external_decomposition(
    graph: "object",
    *,
    spill_dir: Optional[str] = None,
    memory_budget: Optional[int] = None,
    partitions: Optional[int] = None,
    floor: int = 0,
    counters: Optional[Dict[str, int]] = None,
    peel_stats: Optional[Dict[str, object]] = None,
    info: Optional[ExternalInfo] = None,
) -> "object":
    """Algorithm 1 via the out-of-core backend, decoded to the result type.

    Spills ``graph`` into ``spill_dir`` (a private temporary directory
    when None, removed afterwards) and decomposes it partition by
    partition — bit-identical to ``csr`` (kappa and canonical order) at
    the default ``floor=0``.  ``memory_budget``
    (bytes) sizes the partition table and turns on page-release between
    partition passes; ``partitions`` pins the partition count explicitly
    (tests use it to force seams on small graphs).
    """
    tmp: Optional[str] = None
    if spill_dir is None:
        tmp = tempfile.mkdtemp(prefix="repro-spill-")
        spill_dir = tmp
    try:
        ext = ExternalCSR.build(
            graph, spill_dir, partitions=partitions,
            memory_budget=memory_budget,
        )
        try:
            return decompose_spill(
                ext,
                memory_budget=memory_budget,
                floor=floor,
                counters=counters,
                peel_stats=peel_stats,
                info=info,
            )
        finally:
            ext.close()
    finally:
        if tmp is not None:
            shutil.rmtree(tmp, ignore_errors=True)
