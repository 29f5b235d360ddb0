"""Immutable CSR (compressed sparse row) snapshot of a :class:`Graph`.

The dynamic adjacency-set :class:`~repro.graph.undirected.Graph` is the
right substrate for the incremental algorithms, but its hash-keyed layout
costs an order of magnitude in constant factors on the static hot paths
(triangle enumeration, Algorithm 1 peeling).  :class:`CSRGraph` freezes a
graph into flat integer arrays the kernels in :mod:`repro.fast.kernels`
can scan without any hashing or tuple allocation:

* vertices are relabeled to ``0..n-1`` in *degree order* (ties broken
  deterministically), so the forward-orientation rank used by the triangle
  enumeration algorithm is simply the integer id;
* ``indptr`` / ``indices`` is the usual CSR adjacency with each vertex's
  neighbor block sorted ascending, enabling merge intersection;
* every undirected edge gets a dense id ``0..m-1`` (lexicographic by
  relabeled endpoints); ``arc_eids`` maps each directed arc back to its
  undirected edge id so kernels can index per-edge arrays for free while
  merging;
* ``forward_start[u]`` marks where the neighbors with id greater than
  ``u`` begin inside ``u``'s block (they form a suffix because blocks are
  sorted).

Arrays are stored with the stdlib :mod:`array` module (typecode ``q``) so
the core package keeps zero runtime dependencies; when numpy is importable
the construction sort is delegated to it.  Both construction paths produce
bit-identical arrays — the test suite asserts it.

**Array store contract (kernel layer L1).**  The five kernel arrays
(:data:`CSRGraph.ARRAY_FIELDS`) are a *pluggable store*: any
buffer-protocol sequence of native int64 values works — stdlib
``array("q")`` (the default), ``bytes`` snapshots, or ``memoryview``
slices cast to ``"q"`` over an mmap'd spill column (see
:mod:`repro.fast.external`).  The kernels only ever index, slice, bisect,
``tolist()`` or ``np.frombuffer`` these fields, all of which every store
supports, so :meth:`CSRGraph.from_arrays` can rehydrate a snapshot from
any of them — including zero-copy views over mmap'd spill files, which is
how the ``external`` backend runs the unchanged kernels on disk.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from typing import Dict, List, Sequence

from ..graph.edge import Edge, Vertex, canonical_edge
from ..graph.undirected import Graph

try:  # optional accelerator; the pure-array path is always available
    import numpy as np  # type: ignore[import-not-found]
except ImportError:  # pragma: no cover - exercised via monkeypatching in tests
    np = None  # type: ignore[assignment]


def _degree_order(graph: Graph) -> List[Vertex]:
    """Vertices sorted by ascending degree, ties in insertion order.

    The sort is stable and the graph's vertex iteration order is
    deterministic, so the relabeling (and with it every kernel output) is
    reproducible without comparing arbitrary labels.
    """
    labels = list(graph.vertices())
    labels.sort(key=graph.degree)
    return labels


class CSRGraph:
    """Flat-array snapshot of an undirected graph (see module docstring).

    Instances are immutable by convention: every attribute is written once
    in :meth:`from_graph` and only read afterwards.

    Attributes
    ----------
    num_vertices, num_edges:
        ``n`` and ``m`` of the snapshot.
    labels:
        ``labels[i]`` is the original vertex label of integer id ``i``.
    index:
        ``{original label: integer id}`` — inverse of ``labels``.
    indptr, indices:
        CSR adjacency; ``indices[indptr[u]:indptr[u+1]]`` are ``u``'s
        neighbor ids, sorted ascending.
    arc_eids:
        Parallel to ``indices``: the undirected edge id of each arc.
    forward_start:
        ``forward_start[u]`` is the offset (into ``indices``) of the first
        neighbor of ``u`` with id ``> u``.
    edge_endpoints:
        Flat pairs ``(lo, hi) = edge_endpoints[2*e], edge_endpoints[2*e+1]``
        with ``lo < hi`` for every edge id ``e``; edge ids are assigned in
        lexicographic ``(lo, hi)`` order.

    Examples
    --------
    >>> g = Graph(edges=[("b", "a"), ("b", "c"), ("a", "c")])
    >>> csr = CSRGraph.from_graph(g)
    >>> csr.num_vertices, csr.num_edges
    (3, 3)
    >>> [csr.edge_label(e) for e in range(csr.num_edges)]
    [('a', 'b'), ('a', 'c'), ('b', 'c')]
    """

    __slots__ = (
        "num_vertices",
        "num_edges",
        "labels",
        "index",
        "indptr",
        "indices",
        "arc_eids",
        "forward_start",
        "edge_endpoints",
    )

    #: The kernel arrays forming the pluggable store (module docstring);
    #: declaration order is the serialization order every transport uses.
    ARRAY_FIELDS = (
        "indptr",
        "indices",
        "arc_eids",
        "forward_start",
        "edge_endpoints",
    )

    def __init__(self) -> None:
        self.num_vertices = 0
        self.num_edges = 0
        self.labels: List[Vertex] = []
        self.index: Dict[Vertex, int] = {}
        self.indptr = array("q", [0])
        self.indices = array("q")
        self.arc_eids = array("q")
        self.forward_start = array("q")
        self.edge_endpoints = array("q")

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #

    @classmethod
    def from_graph(cls, graph: Graph) -> "CSRGraph":
        """Freeze ``graph`` into a CSR snapshot (O(n + m log m))."""
        snap = cls()
        labels = _degree_order(graph)
        index = {label: i for i, label in enumerate(labels)}
        snap.labels = labels
        snap.index = index
        snap.num_vertices = len(labels)
        snap.num_edges = graph.num_edges
        if np is not None:
            snap._build_numpy(graph)
        else:
            snap._build_pure(graph)
        return snap

    @classmethod
    def from_arrays(
        cls,
        num_vertices: int,
        num_edges: int,
        arrays: Dict[str, object],
        *,
        labels: "List[Vertex] | None" = None,
    ) -> "CSRGraph":
        """Rehydrate a snapshot from a store mapping (zero-copy capable).

        ``arrays`` maps each :data:`ARRAY_FIELDS` name to an int64 store:
        ``bytes`` are copied into stdlib arrays, while ``array``/
        ``memoryview`` stores are adopted as-is — a ``memoryview`` over an
        mmap'd column makes the snapshot a zero-copy view whose lifetime
        is the map's (see :mod:`repro.fast.external`).  ``labels``
        is optional: kernels never touch original labels, so transports
        omit them; label-decoding methods then require id-space use only.
        """
        snap = cls()
        snap.num_vertices = num_vertices
        snap.num_edges = num_edges
        if labels is not None:
            snap.labels = labels
            snap.index = {label: i for i, label in enumerate(labels)}
        for field in cls.ARRAY_FIELDS:
            store = arrays[field]
            if isinstance(store, (bytes, bytearray)):
                store = array("q", store)
            setattr(snap, field, store)
        return snap

    # ------------------------------------------------------------------ #
    # array store introspection (kernel layer L1)
    # ------------------------------------------------------------------ #

    def arrays(self) -> Dict[str, object]:
        """The kernel-array store, keyed by :data:`ARRAY_FIELDS` name."""
        return {field: getattr(self, field) for field in self.ARRAY_FIELDS}

    def payload_nbytes(self) -> int:
        """Total bytes of the kernel arrays — what a copying transport ships."""
        total = 0
        for field in self.ARRAY_FIELDS:
            store = getattr(self, field)
            if isinstance(store, memoryview):
                total += store.nbytes
            else:
                total += len(store) * store.itemsize
        return total

    def _build_pure(self, graph: Graph) -> None:
        index = self.index
        n = self.num_vertices
        adj: List[List[int]] = [[] for _ in range(n)]
        for label, u in index.items():
            neighbors = adj[u]
            for w in graph.neighbors(label):
                neighbors.append(index[w])
            neighbors.sort()

        indptr = array("q", [0])
        indices = array("q")
        forward_start = array("q")
        offset = 0
        for u in range(n):
            neighbors = adj[u]
            indices.extend(neighbors)
            forward_start.append(offset + bisect_left(neighbors, u + 1))
            offset += len(neighbors)
            indptr.append(offset)

        # Edge ids in lexicographic (lo, hi) order == scanning each vertex's
        # forward suffix in id order.  eid_base[u] = ids consumed before u.
        eid_base = array("q")
        total = 0
        for u in range(n):
            eid_base.append(total)
            total += indptr[u + 1] - forward_start[u]

        arc_eids = array("q", bytes(8 * len(indices)))
        edge_endpoints = array("q", bytes(16 * self.num_edges))
        for u in range(n):
            start, fstart, end = indptr[u], forward_start[u], indptr[u + 1]
            base = eid_base[u]
            for pos in range(fstart, end):
                eid = base + (pos - fstart)
                arc_eids[pos] = eid
                edge_endpoints[2 * eid] = u
                edge_endpoints[2 * eid + 1] = indices[pos]
            for pos in range(start, fstart):
                v = indices[pos]  # v < u: look u up in v's forward suffix
                vf, vend = forward_start[v], indptr[v + 1]
                arc_eids[pos] = eid_base[v] + (
                    bisect_left(indices, u, vf, vend) - vf
                )

        self.indptr = indptr
        self.indices = indices
        self.arc_eids = arc_eids
        self.forward_start = forward_start
        self.edge_endpoints = edge_endpoints

    def _build_numpy(self, graph: Graph) -> None:
        assert np is not None
        index = self.index
        n = self.num_vertices
        m = self.num_edges
        # Iterating labels in id order makes the src column pre-sorted.
        degree_list: List[int] = []
        dst_list: List[int] = []
        extend = dst_list.extend
        get = index.__getitem__
        for label in self.labels:
            neighbors = graph.neighbors(label)
            degree_list.append(len(neighbors))
            extend(map(get, neighbors))
        degrees = np.array(degree_list, dtype=np.int64)
        src = np.repeat(np.arange(n, dtype=np.int64), degrees)
        dst = np.array(dst_list, dtype=np.int64) if dst_list else np.empty(
            0, dtype=np.int64
        )
        # Sorting the combined key src*n + dst orders arcs by (src, dst) in
        # ONE flat sort: each src block owns the disjoint key range
        # [src*n, src*n + n), so a global sort cannot interleave blocks —
        # much cheaper than a two-pass lexsort.
        keys = src * n + dst
        keys.sort()
        dst = keys - src * n

        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(degrees, out=indptr[1:])

        # Arcs are (src, dst)-sorted, so the forward subsequence (src < dst)
        # is already in lexicographic (lo, hi) order: a forward arc's rank in
        # that subsequence IS its edge id, and backward arcs find theirs by
        # one searchsorted over the (sorted) forward keys.
        forward = src < dst
        backward = ~forward
        arc_eids = np.empty(2 * m, dtype=np.int64)
        arc_eids[forward] = np.arange(m, dtype=np.int64)
        arc_eids[backward] = np.searchsorted(
            keys[forward], dst[backward] * n + src[backward]
        )
        edge_endpoints = np.empty(2 * m, dtype=np.int64)
        edge_endpoints[0::2] = src[forward]
        edge_endpoints[1::2] = dst[forward]

        # First forward neighbor per vertex: blocks are sorted, so the
        # backward neighbors (id < u) form each block's prefix — count them.
        backward_counts = np.bincount(src[backward], minlength=n)
        forward_start = indptr[:-1] + backward_counts

        # array(typecode, bytes) routes through frombytes — a straight
        # memcpy, an order of magnitude cheaper than tolist() round trips.
        self.indptr = array("q", indptr.tobytes())
        self.indices = array("q", dst.tobytes())
        self.arc_eids = array("q", arc_eids.astype(np.int64).tobytes())
        self.forward_start = array("q", forward_start.tobytes())
        self.edge_endpoints = array("q", edge_endpoints.tobytes())

    # ------------------------------------------------------------------ #
    # queries / decoding
    # ------------------------------------------------------------------ #

    def degree(self, u: int) -> int:
        """Degree of the vertex with integer id ``u``."""
        return self.indptr[u + 1] - self.indptr[u]

    def neighbors(self, u: int) -> Sequence[int]:
        """Sorted neighbor ids of ``u`` (a fresh array slice)."""
        return self.indices[self.indptr[u] : self.indptr[u + 1]]

    def edge_id(self, u: int, v: int) -> int:
        """Edge id of ``{u, v}`` given integer ids (ValueError if absent)."""
        lo, hi = (u, v) if u < v else (v, u)
        start, end = self.forward_start[lo], self.indptr[lo + 1]
        pos = bisect_left(self.indices, hi, start, end)
        if pos == end or self.indices[pos] != hi:
            raise ValueError(f"no edge between ids {u} and {v}")
        return self.arc_eids[pos]

    def edge_label(self, eid: int) -> Edge:
        """Canonical original-label edge for edge id ``eid``."""
        lo = self.edge_endpoints[2 * eid]
        hi = self.edge_endpoints[2 * eid + 1]
        return canonical_edge(self.labels[lo], self.labels[hi])

    def edge_labels(self) -> List[Edge]:
        """Canonical original-label edges indexed by edge id (length m)."""
        labels = self.labels
        if (
            np is not None
            and self.num_edges
            and set(map(type, labels)) == {int}
        ):
            # Homogeneous int labels (every generator and dataset loader):
            # canonicalize all pairs with two vectorized min/max passes and
            # build the tuples with one C-level zip.
            try:
                label_arr = np.array(labels, dtype=np.int64)
            except OverflowError:  # pragma: no cover - astronomically big ids
                pass
            else:
                endpoints = np.frombuffer(self.edge_endpoints, dtype=np.int64)
                a = label_arr[endpoints[0::2]]
                b = label_arr[endpoints[1::2]]
                lo = np.minimum(a, b).tolist()
                hi = np.maximum(a, b).tolist()
                return list(zip(lo, hi))
        pairs = iter(self.edge_endpoints.tolist())
        edges: List[Edge] = []
        append = edges.append
        for lo, hi in zip(pairs, pairs):
            a = labels[lo]
            b = labels[hi]
            try:  # inlined canonical_edge fast path (hot on decode)
                append((a, b) if a <= b else (b, a))  # type: ignore[operator]
            except TypeError:
                append(canonical_edge(a, b))
        return edges

    def __repr__(self) -> str:
        return f"CSRGraph(|V|={self.num_vertices}, |E|={self.num_edges})"
