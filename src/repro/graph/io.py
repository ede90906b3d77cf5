"""Graph persistence.

Two formats:

* **edge list** (text, ``u v w`` per line) — interchange with external
  tools and the examples;
* **binary .npz** — the analogue of the HavoqGT binary graph format the
  paper loads (Table III reports per-dataset binary sizes).  Saving via
  :func:`save_npz` and loading via :func:`load_npz` round-trips the CSR
  arrays losslessly and :func:`npz_nbytes` reports the on-disk footprint so
  the harness can reproduce Table III's "Size" column for the stand-ins.
"""

from __future__ import annotations

import io as _io
import os

import numpy as np

from repro.errors import GraphError
from repro.graph.csr import CSRGraph

__all__ = [
    "save_edge_list",
    "load_edge_list",
    "save_npz",
    "load_npz",
    "npz_nbytes",
]

_FORMAT_VERSION = 1


def save_edge_list(graph: CSRGraph, path: str | os.PathLike) -> None:
    """Write unique undirected edges as ``u v w`` lines (ascii)."""
    src, dst, w = graph.edge_array()
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"# n_vertices={graph.n_vertices}\n")
        for i in range(src.size):
            fh.write(f"{src[i]} {dst[i]} {w[i]}\n")


def load_edge_list(path: str | os.PathLike) -> CSRGraph:
    """Read a file produced by :func:`save_edge_list`.

    Lines starting with ``#`` are comments; the first comment may carry
    ``n_vertices=``, otherwise it is inferred as ``max id + 1``.
    """
    n_vertices = None
    rows: list[tuple[int, int, int]] = []
    with open(path, "r", encoding="ascii") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                if "n_vertices=" in line:
                    n_vertices = int(line.split("n_vertices=")[1])
                continue
            parts = line.split()
            if len(parts) == 2:
                u, v, w = int(parts[0]), int(parts[1]), 1
            elif len(parts) == 3:
                u, v, w = int(parts[0]), int(parts[1]), int(parts[2])
            else:
                raise GraphError(f"malformed edge line: {line!r}")
            rows.append((u, v, w))
    if not rows:
        return CSRGraph.from_edges(n_vertices or 0, np.zeros((0, 2), np.int64), [])
    arr = np.asarray(rows, dtype=np.int64)
    if n_vertices is None:
        n_vertices = int(arr[:, :2].max()) + 1
    return CSRGraph.from_edges(n_vertices, arr[:, :2], arr[:, 2])


def save_npz(graph: CSRGraph, path: str | os.PathLike) -> None:
    """Persist CSR arrays to a compressed ``.npz`` (binary format)."""
    np.savez_compressed(
        path,
        format_version=np.int64(_FORMAT_VERSION),
        indptr=graph.indptr,
        indices=graph.indices,
        weights=graph.weights,
    )


def load_npz(path: str | os.PathLike) -> CSRGraph:
    """Load a graph saved by :func:`save_npz`."""
    with np.load(path) as data:
        version = int(data["format_version"])
        if version != _FORMAT_VERSION:
            raise GraphError(f"unsupported graph format version {version}")
        return CSRGraph(data["indptr"], data["indices"], data["weights"])


def npz_nbytes(graph: CSRGraph) -> int:
    """Size in bytes of the (uncompressed) binary representation — the
    reproduction of Table III's per-dataset "Size" column."""
    buf = _io.BytesIO()
    np.savez(
        buf,
        format_version=np.int64(_FORMAT_VERSION),
        indptr=graph.indptr,
        indices=graph.indices,
        weights=graph.weights,
    )
    return buf.getbuffer().nbytes
