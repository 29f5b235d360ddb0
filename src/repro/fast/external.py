"""Out-of-core CSR: the ``external`` backend (kernel layers L1-L3).

Every other backend holds the full adjacency *and* the full triangle list
in RAM.  This one keeps both on disk and holds only the O(m) edge state
(supports, bounds, kappa) in RAM — the semi-external memory model of
*Truss Decomposition in Massive Networks* (PAPERS.md):

* **Spill format** (:data:`SPILL_FORMAT`): one binary int64 file per
  kernel column (:data:`~repro.fast.csr.CSRGraph.ARRAY_FIELDS`) under a
  spill directory, described by a ``manifest.json`` carrying the format
  version, per-column byte counts and CRC32s, and the vertex labels.  The
  manifest is written last via tmp+rename, so a crashed build can never
  leave a directory that passes :meth:`ExternalCSR.open` validation.
* **mmap'd store seam**: :meth:`ExternalCSR.open` maps each column and
  rehydrates a :class:`~repro.fast.csr.CSRGraph` through
  :meth:`~repro.fast.csr.CSRGraph.from_arrays` with ``memoryview`` stores
  over the maps — the L1 pluggable-store contract, so the enumeration
  kernels run unchanged on disk-backed columns.
* **Enumeration to one triangle file**: the ``indices`` column's CRC is
  re-checked, then one pass over arc-bounded vertex chunks
  (:func:`_enum_chunks`, :data:`ENUM_CHUNK_ARCS`) runs the unchanged
  enumeration kernels and appends each chunk's triangles to one scratch
  file, in exactly the order the in-RAM kernels emit them.  With a memory
  budget the column pages are released after every chunk.
* **The shared peel**: :func:`~repro.fast.peelers.peel_by_gather` runs the
  same level-synchronous driver as ``csr`` (level selection, the Theorem 1
  guard, the clamp, the canonical order and the counters).  Only its
  triangle step differs: each sub-round scans the triangle file in
  :data:`PEEL_CHUNK_TRIS` blocks for not-yet-consumed triangles holding a
  frontier edge.  kappa, the processing order and the peel counters are
  therefore bit-identical to ``csr``; the conformance matrix asserts it.

Lifetime rules: the triangle file lives in a ``scratch-<pid>-<token>``
subdirectory removed in a ``finally`` on every exit path, and
:func:`cleanup_stale` — run on every build and open — removes scratch
directories whose recorded pid is dead, so a SIGKILL'd run cannot leak
spill files past the next open.

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
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from ..exceptions import SpillError
from . import csr as _csr_mod
from .csr import CSRGraph
from .kernels import _edge_index, _forward_wedges, supports_and_triangles
from .peelers import Gather, _total, peel_by_gather

__all__ = [
    "SPILL_FORMAT",
    "ExternalCSR",
    "ExternalInfo",
    "cleanup_stale",
    "decompose_spill",
    "external_decomposition",
    "spill_edges",
]

#: On-disk spill format version; bump on layout changes.  ``open`` refuses
#: manifests carrying any other value.  ``/1`` carried a partition table.
SPILL_FORMAT = "repro.spill-csr/2"

#: Manifest file name inside a spill directory.
MANIFEST_NAME = "manifest.json"

#: Arc-count ceiling per enumeration chunk: bounds the size of the numpy
#: temporaries `_forward_wedges` allocates (a few int64 arrays of this
#: order), independent of graph size.  The O(m) edge index every chunk
#: shares (`_edge_index`) is built once per run, not once per chunk.
ENUM_CHUNK_ARCS = 1 << 18

#: Triangles per peel-scan chunk: bounds the transient row block read from
#: the triangle file per step.
PEEL_CHUNK_TRIS = 1 << 17

#: Per-run telemetry: ``{"passes": int, "bytes_mapped": int}`` — the
#: triangle-file scans the peel made, and the column plus triangle bytes
#: mapped.
ExternalInfo = Dict[str, int]

#: Test hook (see tests/test_external_backend.py): SIGKILL-style crash
#: right after enumeration, while the scratch directory exists.
_CRASH_ENV = "_REPRO_EXTERNAL_CRASH_TEST"


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


def _crc_of_file(path: str) -> int:
    """Streaming CRC32 of the file at ``path`` (4 MiB chunks)."""
    crc = 0
    try:
        with open(path, "rb") as fh:
            for chunk in iter(lambda: fh.read(1 << 22), b""):
                crc = zlib.crc32(chunk, crc)
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
    store contract runs on it unchanged; :func:`decompose_spill` drives the
    out-of-core decomposition over it.
    """

    __slots__ = ("spill_dir", "csr", "_columns", "manifest")

    def __init__(
        self,
        spill_dir: str,
        csr: CSRGraph,
        columns: Dict[str, _MappedColumn],
        manifest: Dict[str, object],
    ) -> None:
        self.spill_dir = spill_dir
        self.csr = csr
        self._columns = columns
        self.manifest = manifest

    # -------------------------------------------------------------- #
    # construction
    # -------------------------------------------------------------- #

    @classmethod
    def build(cls, graph: "object", spill_dir: str) -> "ExternalCSR":
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
        columns_meta: Dict[str, Dict[str, object]] = {}
        for field in CSRGraph.ARRAY_FIELDS:
            fname = f"{field}.bin"
            nbytes, crc = _write_column(
                os.path.join(spill_dir, fname), getattr(snap, field)
            )
            columns_meta[field] = {"file": fname, "nbytes": nbytes,
                                   "crc32": crc}
        manifest = {
            "format": SPILL_FORMAT,
            "num_vertices": snap.num_vertices,
            "num_edges": snap.num_edges,
            "columns": columns_meta,
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
        through CRC32 — one sequential O(m/B) I/O pass.  The ``indices``
        checksum is *always* re-checked before enumeration by
        :func:`decompose_spill` (:meth:`verify_indices`), so corruption
        appearing after open still surfaces as a typed error.
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
                if verify:
                    _check_crc(path, meta)
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
        return cls(spill_dir, snap, columns, manifest)

    # -------------------------------------------------------------- #
    # introspection / lifetime
    # -------------------------------------------------------------- #

    def bytes_mapped(self) -> int:
        """Total bytes of column files currently mapped."""
        return sum(col.nbytes for col in self._columns.values())

    def verify_indices(self) -> None:
        """Re-check the ``indices`` column against its manifest CRC32.

        Raises :class:`SpillError` naming ``indices.bin`` on a mismatch —
        the lazy half of the validation story: corruption that appears
        *after* open (a flaky disk, an overwritten file) is caught before
        enumeration reads the column.
        """
        _check_crc(self._columns["indices"].path,
                   self.manifest["columns"]["indices"])

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
            f"|E|={self.csr.num_edges}, dir={self.spill_dir!r})"
        )


def _check_crc(path: str, meta: Dict[str, object]) -> None:
    """Raise :class:`SpillError` unless ``path``'s CRC32 matches ``meta``."""
    expected = int(meta.get("crc32", -1))
    found = _crc_of_file(path)
    if found != expected:
        raise SpillError(
            path,
            f"column checksum mismatch (expected {expected}, found {found})",
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
    try:
        with open(path, "wb") as fh:
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
# enumeration into one triangle file
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


def _enumerate_triangles(
    csr: CSRGraph,
    out_path: str,
    supports: "object",
    release: Optional[Callable[[], None]],
) -> int:
    """Enumerate every triangle of ``csr`` into the file ``out_path``.

    One pass over :func:`_enum_chunks` of the whole vertex range.  Each
    chunk's triangles accumulate into the full-length ``supports`` and are
    appended to ``out_path`` as three edge ids each, in exactly the order
    :func:`supports_and_triangles` emits them, so the file is the in-RAM
    triangle list bit for bit.  ``release`` (when given) runs after every
    chunk.  Returns the triangle count.
    """
    np = _csr_mod.np
    # The O(m) edge index every numpy chunk shares, built once.
    index = _edge_index(csr) if np is not None else None
    count = 0
    try:
        with open(out_path, "wb") as fh:
            for lo, hi in _enum_chunks(csr, 0, csr.num_vertices,
                                       ENUM_CHUNK_ARCS):
                if np is not None:
                    tri = np.stack(_forward_wedges(csr, lo, hi, index),
                                   axis=1).ravel()
                    np.add.at(supports, tri, 1)
                else:
                    _, tri = supports_and_triangles(csr, lo=lo, hi=hi)
                    for e in tri:
                        supports[e] += 1
                    tri = array("q", tri)
                tri.tofile(fh)
                count += len(tri) // 3
                if release is not None:
                    release()
    except OSError as exc:
        raise SpillError(out_path, f"cannot write triangle spill: {exc}") \
            from exc
    return count


# ---------------------------------------------------------------------- #
# the peel's triangle step: a scan of the triangle file
# ---------------------------------------------------------------------- #


@contextmanager
def _scan_numpy(
    path: str, count: int, m: int, info: ExternalInfo, release_each_pass: bool
) -> Iterator[Gather]:
    """The numpy :data:`~repro.fast.peelers.Gather` over a triangle file.

    Each call scans the mapped file in :data:`PEEL_CHUNK_TRIS` blocks and
    returns the rows of the unconsumed triangles holding a frontier edge
    (``in_frontier``), marking them ``consumed``; a scan once no triangle
    is left is skipped.  ``info["passes"]`` counts the scans.
    """
    np = _csr_mod.np
    tri3 = None
    if count:
        try:
            tri3 = np.memmap(path, dtype=np.int64, mode="r", shape=(count, 3))
        except (OSError, ValueError) as exc:
            raise SpillError(path, f"cannot map triangle spill: {exc}") \
                from exc
    consumed = np.zeros(count, dtype=bool)
    in_frontier = np.zeros(m, dtype=bool)
    empty = np.empty(0, dtype=np.int64)
    live = count

    def gather(frontier):
        nonlocal live
        if not live:
            return empty
        info["passes"] += 1
        in_frontier[frontier] = True
        found = []
        for start in range(0, count, PEEL_CHUNK_TRIS):
            cslice = consumed[start:start + PEEL_CHUNK_TRIS]
            if cslice.all():
                continue
            try:
                rows = np.asarray(tri3[start:start + PEEL_CHUNK_TRIS])
            except (OSError, ValueError) as exc:
                raise SpillError(
                    path, f"cannot read triangle spill: {exc}"
                ) from exc
            hit = ~cslice & (
                in_frontier[rows[:, 0]]
                | in_frontier[rows[:, 1]]
                | in_frontier[rows[:, 2]]
            )
            if hit.any():
                cslice |= hit
                found.append(rows[hit].ravel())
        in_frontier[frontier] = False
        if release_each_pass:
            _release_memmap(tri3)
        if not found:
            return empty
        partners = np.concatenate(found)
        live -= partners.size // 3
        return partners

    try:
        yield gather
    finally:
        if tri3 is not None:
            _release_memmap(tri3)


def _release_memmap(arr: "object") -> None:
    mm = getattr(arr, "_mmap", None)
    if mm is not None and hasattr(mm, "madvise"):
        try:
            mm.madvise(mmap.MADV_DONTNEED)
        except (OSError, ValueError):  # pragma: no cover - advisory only
            pass


@contextmanager
def _scan_pure(
    path: str, count: int, m: int, info: ExternalInfo
) -> Iterator[Gather]:
    """:func:`_scan_numpy` in plain loops, reading the file in blocks."""
    consumed = bytearray(count)
    in_frontier = bytearray(m)
    live = count
    try:
        fh = open(path, "rb")
    except OSError as exc:
        raise SpillError(path, f"cannot read triangle spill: {exc}") from exc

    def gather(frontier):
        nonlocal live
        if not live:
            return []
        info["passes"] += 1
        for e in frontier:
            in_frontier[e] = 1
        partners: List[int] = []
        fh.seek(0)
        tidx = 0
        while True:
            buf = array("q")
            try:
                buf.fromfile(fh, 3 * PEEL_CHUNK_TRIS)
            except EOFError:
                pass
            except OSError as exc:
                raise SpillError(
                    path, f"cannot read triangle spill: {exc}"
                ) from exc
            if not buf:
                break
            for base in range(0, len(buf), 3):
                if not consumed[tidx]:
                    e0, e1, e2 = buf[base], buf[base + 1], buf[base + 2]
                    if in_frontier[e0] or in_frontier[e1] or in_frontier[e2]:
                        consumed[tidx] = 1
                        partners += (e0, e1, e2)
                tidx += 1
        for e in frontier:
            in_frontier[e] = 0
        live -= len(partners) // 3
        return partners

    try:
        yield gather
    finally:
        fh.close()


# ---------------------------------------------------------------------- #
# decomposition drivers
# ---------------------------------------------------------------------- #


def decompose_spill(
    ext: ExternalCSR,
    *,
    memory_budget: Optional[int] = None,
    counters: Optional[Dict[str, int]] = None,
    peel_stats: Optional[Dict[str, object]] = None,
    info: Optional[ExternalInfo] = None,
    decode: bool = True,
):
    """Out-of-core Algorithm 1 over an opened spill directory.

    The result is bit-identical to ``csr``: the same kappa map, the
    canonical processing order and the same peel counters.
    ``memory_budget`` (bytes) turns on page release: the column maps after
    every enumeration chunk, and the triangle map after every peel scan
    once the triangle file exceeds half the budget.

    ``decode=False`` skips the label decode and returns the raw
    ``(kappa_by_eid, order_by_eid)`` sequences (int64 ``ndarray`` objects
    with numpy, lists without) — decoding builds O(m) Python tuples,
    which dwarfs the out-of-core working set on the graphs this backend
    exists for (the RSS-capped benchmark uses this).
    """
    csr = ext.csr
    np = _csr_mod.np
    m = csr.num_edges
    run_info: ExternalInfo = {"passes": 0, "bytes_mapped": ext.bytes_mapped()}
    supports = np.zeros(m, dtype=np.int64) if np is not None else [0] * m
    ext.verify_indices()
    scratch = _make_scratch(ext.spill_dir)
    try:
        path = os.path.join(scratch, "triangles.bin")
        count = _enumerate_triangles(
            csr, path, supports,
            ext.release_pages if memory_budget is not None else None,
        )
        if os.environ.get(_CRASH_ENV):
            os._exit(13)
        run_info["bytes_mapped"] += 24 * count
        if np is not None:
            scan = _scan_numpy(
                path, count, m, run_info,
                memory_budget is not None and 24 * count > memory_budget // 2,
            )
        else:
            scan = _scan_pure(path, count, m, run_info)
        with scan as gather:
            kappa_by_eid, order_by_eid = peel_by_gather(
                m, supports, gather, stats=peel_stats
            )
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    if info is not None:
        info.update(run_info)
    if counters is not None:
        support_sum = _total(supports)
        counters["triangles_enumerated"] = support_sum // 3
        counters["support_sum"] = support_sum
        counters["edges_peeled"] = m
        counters["bucket_decrements"] = support_sum - _total(kappa_by_eid)
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
    counters: Optional[Dict[str, int]] = None,
    peel_stats: Optional[Dict[str, object]] = None,
    info: Optional[ExternalInfo] = None,
) -> "object":
    """Algorithm 1 via the out-of-core backend, decoded to the result type.

    Spills ``graph`` into ``spill_dir`` (a private temporary directory
    when None, removed afterwards) and decomposes it with
    :func:`decompose_spill` — bit-identical to ``csr`` (kappa and
    canonical order).  ``memory_budget`` (bytes) turns on page release.
    """
    tmp: Optional[str] = None
    if spill_dir is None:
        tmp = tempfile.mkdtemp(prefix="repro-spill-")
        spill_dir = tmp
    try:
        ext = ExternalCSR.build(graph, spill_dir)
        try:
            return decompose_spill(
                ext,
                memory_budget=memory_budget,
                counters=counters,
                peel_stats=peel_stats,
                info=info,
            )
        finally:
            ext.close()
    finally:
        if tmp is not None:
            shutil.rmtree(tmp, ignore_errors=True)
