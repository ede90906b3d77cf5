"""Compressed-sparse-row graph storage on NumPy arrays.

The paper stores graphs in HavoqGT's binary CSR format and reports the
per-dataset storage cost (Table III).  :class:`CSRGraph` is the Python
equivalent: an undirected, edge-weighted graph held as three flat arrays

* ``indptr``  -- ``int64[n_vertices + 1]``, adjacency offsets,
* ``indices`` -- ``int64[2 * n_edges]``, neighbour ids (both directions of
  every undirected edge are stored, matching the paper's "symmetric edges,
  2|E|" convention),
* ``weights`` -- ``int64[2 * n_edges]``, positive integer distances
  ``d : E -> Z+ \\ {0}`` exactly as in the paper's preliminaries.

Vertices are dense integers ``0 .. n_vertices - 1``.  Construction is fully
vectorised (sort-based) so million-edge graphs build in well under a second.
"""

from __future__ import annotations

import hashlib
from typing import Iterable, Iterator, Tuple

import numpy as np

from repro.errors import GraphError

__all__ = ["CSRGraph"]

_INT64_MAX = int(np.iinfo(np.int64).max)


class CSRGraph:
    """An immutable undirected edge-weighted graph in CSR form.

    Parameters
    ----------
    indptr, indices, weights:
        Pre-built CSR arrays.  Use :meth:`from_edges` unless you already
        have validated CSR data; the constructor only performs cheap shape
        checks.

    Notes
    -----
    ``n_edges`` counts *undirected* edges; ``indices`` has ``2 * n_edges``
    entries because both directions are materialised (required by the
    vertex-centric runtime, whose visitors scan out-neighbours).
    """

    __slots__ = (
        "indptr",
        "indices",
        "weights",
        "_n_vertices",
        "_content_hash",
        "_edge_array",
        "_distance_bound",
    )

    def __init__(
        self,
        indptr: np.ndarray,
        indices: np.ndarray,
        weights: np.ndarray,
    ) -> None:
        indptr = np.asarray(indptr, dtype=np.int64)
        indices = np.asarray(indices, dtype=np.int64)
        weights = np.asarray(weights, dtype=np.int64)
        if indptr.ndim != 1 or indices.ndim != 1 or weights.ndim != 1:
            raise GraphError("CSR arrays must be one-dimensional")
        if indptr.size == 0:
            raise GraphError("indptr must have at least one entry")
        if indptr[0] != 0 or indptr[-1] != indices.size:
            raise GraphError(
                "indptr must start at 0 and end at len(indices) "
                f"(got {indptr[0]}..{indptr[-1]} for {indices.size} entries)"
            )
        if indices.size != weights.size:
            raise GraphError("indices and weights must have equal length")
        if indices.size and (np.diff(indptr) < 0).any():
            raise GraphError("indptr must be non-decreasing")
        self.indptr = indptr
        self.indices = indices
        self.weights = weights
        self._n_vertices = indptr.size - 1
        self._content_hash: str | None = None
        self._edge_array: Tuple[np.ndarray, np.ndarray, np.ndarray] | None = None
        self._distance_bound: int | None = None

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #
    @classmethod
    def from_edges(
        cls,
        n_vertices: int,
        edges: Iterable[Tuple[int, int]] | np.ndarray,
        weights: Iterable[int] | np.ndarray,
        *,
        symmetrize: bool = True,
        drop_self_loops: bool = True,
        dedupe: str = "min",
    ) -> "CSRGraph":
        """Build a graph from an edge list.

        Parameters
        ----------
        n_vertices:
            Number of vertices; edge endpoints must lie in
            ``[0, n_vertices)``.
        edges:
            ``(m, 2)`` array-like of endpoints.  Treated as undirected.
        weights:
            ``m`` positive integer edge distances.
        symmetrize:
            Materialise both directions (the library default; all
            algorithms assume it).
        drop_self_loops:
            Silently discard ``(v, v)`` entries (they can never be part of
            a Steiner tree).
        dedupe:
            Policy for parallel edges: ``"min"`` keeps the smallest weight
            (the only one a shortest path or Steiner tree could use),
            ``"error"`` raises, ``"keep"`` keeps duplicates as-is.
        """
        edge_arr = np.asarray(list(edges) if not isinstance(edges, np.ndarray) else edges)
        if edge_arr.size == 0:
            edge_arr = edge_arr.reshape(0, 2)
        edge_arr = edge_arr.astype(np.int64, copy=False)
        if edge_arr.ndim != 2 or edge_arr.shape[1] != 2:
            raise GraphError("edges must be an (m, 2) array")
        w_arr = np.asarray(
            list(weights) if not isinstance(weights, np.ndarray) else weights,
            dtype=np.int64,
        )
        if w_arr.shape != (edge_arr.shape[0],):
            raise GraphError(
                f"weights length {w_arr.shape} does not match edge count "
                f"{edge_arr.shape[0]}"
            )
        if n_vertices < 0:
            raise GraphError("n_vertices must be non-negative")
        if edge_arr.size:
            if edge_arr.min() < 0 or edge_arr.max() >= n_vertices:
                raise GraphError("edge endpoint out of range")
            if (w_arr <= 0).any():
                raise GraphError(
                    "edge weights must be positive integers (paper: "
                    "d(u, v) in Z+ \\ {0})"
                )

        if drop_self_loops and edge_arr.size:
            keep = edge_arr[:, 0] != edge_arr[:, 1]
            edge_arr, w_arr = edge_arr[keep], w_arr[keep]

        # canonicalise as (min, max) so duplicates in either direction merge
        lo = np.minimum(edge_arr[:, 0], edge_arr[:, 1])
        hi = np.maximum(edge_arr[:, 0], edge_arr[:, 1])
        if edge_arr.size and dedupe != "keep":
            key = lo * np.int64(n_vertices) + hi
            order = np.lexsort((w_arr, key))
            key, lo, hi, w_arr = key[order], lo[order], hi[order], w_arr[order]
            first = np.ones(key.size, dtype=bool)
            first[1:] = key[1:] != key[:-1]
            if dedupe == "error" and not first.all():
                raise GraphError("duplicate (parallel) edges present")
            # lexsort put the min weight first within each duplicate group
            lo, hi, w_arr = lo[first], hi[first], w_arr[first]

        if symmetrize:
            src = np.concatenate([lo, hi])
            dst = np.concatenate([hi, lo])
            w2 = np.concatenate([w_arr, w_arr])
        else:
            src, dst, w2 = lo, hi, w_arr

        order = np.lexsort((dst, src))
        src, dst, w2 = src[order], dst[order], w2[order]
        indptr = np.zeros(n_vertices + 1, dtype=np.int64)
        if src.size:
            counts = np.bincount(src, minlength=n_vertices)
            np.cumsum(counts, out=indptr[1:])
        return cls(indptr, dst, w2)

    @classmethod
    def from_networkx(cls, nx_graph, weight: str = "weight") -> "CSRGraph":
        """Convert a :class:`networkx.Graph` with integer vertex labels
        ``0..n-1`` and a positive integer ``weight`` attribute."""
        n = nx_graph.number_of_nodes()
        edges = []
        weights = []
        for u, v, data in nx_graph.edges(data=True):
            edges.append((int(u), int(v)))
            weights.append(int(data.get(weight, 1)))
        return cls.from_edges(n, np.asarray(edges, dtype=np.int64).reshape(-1, 2), weights)

    # ------------------------------------------------------------------ #
    # basic queries
    # ------------------------------------------------------------------ #
    @property
    def n_vertices(self) -> int:
        """Number of vertices ``|V|``."""
        return self._n_vertices

    @property
    def n_edges(self) -> int:
        """Number of *undirected* edges ``|E|`` (half the stored arcs)."""
        return self.indices.size // 2

    @property
    def n_arcs(self) -> int:
        """Number of stored directed arcs, ``2|E|`` (Table III convention)."""
        return self.indices.size

    def degree(self, v: int | None = None):
        """Degree of vertex ``v``, or the full ``int64[n]`` degree vector."""
        if v is None:
            return np.diff(self.indptr)
        return int(self.indptr[v + 1] - self.indptr[v])

    @property
    def max_degree(self) -> int:
        """Largest vertex degree (Table III's "Max. degree" column)."""
        if self._n_vertices == 0:
            return 0
        return int(np.diff(self.indptr).max())

    @property
    def avg_degree(self) -> float:
        """Average degree ``2|E| / |V|`` (Table III convention)."""
        if self._n_vertices == 0:
            return 0.0
        return self.n_arcs / self._n_vertices

    def neighbors(self, v: int) -> np.ndarray:
        """Neighbour ids of ``v`` (a zero-copy CSR slice)."""
        return self.indices[self.indptr[v]: self.indptr[v + 1]]

    def neighbor_weights(self, v: int) -> np.ndarray:
        """Weights aligned with :meth:`neighbors`."""
        return self.weights[self.indptr[v]: self.indptr[v + 1]]

    def has_edge(self, u: int, v: int) -> bool:
        """True iff the undirected edge ``(u, v)`` exists."""
        return bool(np.isin(v, self.neighbors(u)).any())

    def edge_weight(self, u: int, v: int) -> int:
        """Weight of edge ``(u, v)``; raises :class:`GraphError` if absent."""
        nbrs = self.neighbors(u)
        hit = np.nonzero(nbrs == v)[0]
        if hit.size == 0:
            raise GraphError(f"no edge ({u}, {v})")
        return int(self.neighbor_weights(u)[hit[0]])

    def edge_array(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Unique undirected edges as ``(src, dst, weight)`` with
        ``src < dst`` — convenient for edge-centric vectorised scans.

        Memoised on the instance, like :meth:`content_hash`: the arrays
        are built once per graph object and returned read-only, so a
        caller that wants to modify them must copy.
        """
        if self._edge_array is None:
            src = np.repeat(
                np.arange(self._n_vertices, dtype=np.int64), self.degree()
            )
            keep = src < self.indices
            arrays = (src[keep], self.indices[keep], self.weights[keep])
            for arr in arrays:
                arr.flags.writeable = False
            self._edge_array = arrays
        return self._edge_array

    def iter_edges(self) -> Iterator[Tuple[int, int, int]]:
        """Iterate unique undirected ``(u, v, w)`` with ``u < v``."""
        src, dst, w = self.edge_array()
        for i in range(src.size):
            yield int(src[i]), int(dst[i]), int(w[i])

    # ------------------------------------------------------------------ #
    # derived graphs / export
    # ------------------------------------------------------------------ #
    def reweighted(self, new_weights: np.ndarray) -> "CSRGraph":
        """Same topology, new per-arc weights (``int64[2|E|]``, must assign
        the same weight to both directions of every edge)."""
        new_weights = np.asarray(new_weights, dtype=np.int64)
        if new_weights.shape != self.weights.shape:
            raise GraphError("weight array shape mismatch")
        if new_weights.size and (new_weights <= 0).any():
            raise GraphError("edge weights must be positive")
        return CSRGraph(self.indptr.copy(), self.indices.copy(), new_weights)

    def induced_subgraph(self, vertices: np.ndarray) -> Tuple["CSRGraph", np.ndarray]:
        """Subgraph induced on ``vertices``.

        Returns ``(subgraph, mapping)`` where ``mapping[i]`` is the original
        id of subgraph vertex ``i``.  Vertices are relabelled densely.
        """
        vertices = np.unique(np.asarray(vertices, dtype=np.int64))
        if vertices.size and (vertices[0] < 0 or vertices[-1] >= self._n_vertices):
            raise GraphError("vertex id out of range")
        new_id = np.full(self._n_vertices, -1, dtype=np.int64)
        new_id[vertices] = np.arange(vertices.size, dtype=np.int64)
        src, dst, w = self.edge_array()
        keep = (new_id[src] >= 0) & (new_id[dst] >= 0)
        edges = np.stack([new_id[src[keep]], new_id[dst[keep]]], axis=1)
        sub = CSRGraph.from_edges(vertices.size, edges, w[keep])
        return sub, vertices

    def to_networkx(self):
        """Export to :class:`networkx.Graph` (weights under ``"weight"``)."""
        import networkx as nx

        g = nx.Graph()
        g.add_nodes_from(range(self._n_vertices))
        src, dst, w = self.edge_array()
        g.add_weighted_edges_from(
            zip(src.tolist(), dst.tolist(), w.tolist()), weight="weight"
        )
        return g

    def nbytes(self) -> int:
        """In-memory footprint of the CSR arrays (the analogue of the
        "Size" column in the paper's Table III)."""
        return self.indptr.nbytes + self.indices.nbytes + self.weights.nbytes

    def total_weight(self) -> int:
        """Sum of all undirected edge weights, exact past int64."""
        w = self.weights
        if w.size and int(w.max()) * w.size > np.iinfo(np.int64).max:
            return sum(w.tolist()) // 2
        return int(w.sum()) // 2

    def distance_bound(self) -> int:
        """The undirected weight sum plus the largest weight, memoised:
        a bound on every distance (a simple path), candidate ``dist + w``
        and distance-graph weight ``d'`` (two shortest paths in disjoint
        cells joined by one edge) that a solve forms."""
        if self._distance_bound is None:
            top = int(self.weights.max()) if self.weights.size else 0
            self._distance_bound = self.total_weight() + top
        return self._distance_bound

    def check_distance_range(self) -> None:
        """Refuse (:class:`~repro.errors.GraphError`) a graph whose
        distances could overflow int64.

        :meth:`distance_bound` must stay below the int64 maximum, the
        unreached marker.  Every seed-set validation and every
        shortest-path kernel starts here, at O(1) once the bound is
        memoised.  The bound is conservative: a graph at the edge, such
        as a three-edge path of weight ``2**61`` each, may be refused
        although its distances fit.
        """
        if self.distance_bound() >= _INT64_MAX:
            raise GraphError(
                f"weight sum {self.total_weight()} could overflow int64 distances"
            )

    def content_hash(self) -> str:
        """SHA-256 over the CSR arrays, memoised on the instance.

        Two graphs share a content hash iff they are :meth:`__eq__`-equal;
        this is the ``graph_hash`` component of the serve/cache key
        ``(graph_hash, frozenset(seeds), config_fingerprint)``.  The
        O(|E|) hashing cost is paid once per graph object.
        """
        if self._content_hash is None:
            h = hashlib.sha256()
            for arr in (self.indptr, self.indices, self.weights):
                h.update(str(arr.size).encode())
                h.update(np.ascontiguousarray(arr).data)
            self._content_hash = h.hexdigest()[:16]
        return self._content_hash

    # ------------------------------------------------------------------ #
    # dunder
    # ------------------------------------------------------------------ #
    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"CSRGraph(n_vertices={self._n_vertices}, n_edges={self.n_edges}, "
            f"max_degree={self.max_degree})"
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CSRGraph):
            return NotImplemented
        return (
            np.array_equal(self.indptr, other.indptr)
            and np.array_equal(self.indices, other.indices)
            and np.array_equal(self.weights, other.weights)
        )

    def __hash__(self) -> int:  # pragma: no cover - identity hash is fine
        return id(self)
