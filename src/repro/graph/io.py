"""Graph storage size.

The paper loads graphs from the HavoqGT binary format, and its
Table III reports each dataset's size in that format.
:func:`npz_nbytes` reproduces that "Size" column for the stand-ins: the
byte count of the CSR arrays written as an uncompressed ``.npz``.
"""

from __future__ import annotations

import io as _io

import numpy as np

from repro.graph.csr import CSRGraph

__all__ = ["npz_nbytes"]

_FORMAT_VERSION = 1


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
