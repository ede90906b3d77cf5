"""Result and diagram caching for the solver service.

Two LRU maps behind one lock:

* **solutions** — full :class:`~repro.core.result.SteinerTreeResult`
  objects keyed by ``(graph_hash, frozenset(seeds),
  config_fingerprint)``; a hit skips the solve entirely;
* **diagrams** — converged
  :class:`~repro.shortest_paths.voronoi.VoronoiDiagram` arrays keyed by
  ``(graph_hash, frozenset(seeds), "diagram:<backend>")``; a hit skips
  the multi-source sweep (the dominant cost) while phases 2-6 still
  run, so configurations differing only outside the sweep share work.

The key contract (documented in ``docs/serve.md``): ``graph_hash`` is
:meth:`CSRGraph.content_hash` (bytes of the CSR arrays), the seed set
is order-insensitive (``frozenset``), and ``config_fingerprint`` is
:meth:`SolverConfig.fingerprint` — a digest over every configuration
field, independent of field ordering.

With ``disk_dir`` set, solutions are additionally pickled to disk and
survive process restarts: an in-memory miss falls through to disk
before being counted as a miss.  Entries are content-addressed by a
digest of the key, so the directory can be shared by several servers
on one machine.

The disk tier is hardened against torn/corrupt pickles (a crash mid
``rename``, bit rot, a concurrent writer on a non-atomic filesystem):
any failure to load an entry quarantines the bad file under a
``.corrupt`` suffix — so it is inspectable but never re-read — counts
it in ``stats.corrupt``, and the lookup continues as a plain miss.

The cache is duck-typed from the solver's side (``get_solution`` /
``put_solution`` / ``get_diagram`` / ``put_diagram``) — tests can
substitute an instrumented implementation.
"""

from __future__ import annotations

import hashlib
import pickle
import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Hashable, Optional

from repro.core.result import SteinerTreeResult
from repro.shortest_paths.voronoi import VoronoiDiagram

__all__ = ["CacheStats", "SolveCache"]


def _key_digest(key: Hashable) -> str:
    """Stable filename-safe digest of a cache key (sorted seed set, so
    the digest is order-insensitive like the key itself)."""
    graph_hash, seeds, fingerprint = key
    blob = f"{graph_hash}|{sorted(seeds)}|{fingerprint}"
    return hashlib.sha256(blob.encode()).hexdigest()


@dataclass
class CacheStats:
    """Hit/miss counters, surfaced through serve's ``stats`` op and the
    benchmark records."""

    solution_hits: int = 0
    solution_misses: int = 0
    diagram_hits: int = 0
    diagram_misses: int = 0
    disk_hits: int = 0
    evictions: int = 0
    corrupt: int = 0

    def as_dict(self) -> dict[str, int]:
        return {
            "solution_hits": self.solution_hits,
            "solution_misses": self.solution_misses,
            "diagram_hits": self.diagram_hits,
            "diagram_misses": self.diagram_misses,
            "disk_hits": self.disk_hits,
            "evictions": self.evictions,
            "corrupt": self.corrupt,
        }


@dataclass
class _LRU:
    """Minimal LRU dict (move-to-end on hit, popitem(last=False) on
    overflow)."""

    capacity: int
    data: OrderedDict = field(default_factory=OrderedDict)

    def get(self, key: Hashable) -> Any | None:
        if key not in self.data:
            return None
        self.data.move_to_end(key)
        return self.data[key]

    def put(self, key: Hashable, value: Any) -> int:
        """Insert; returns the number of evictions (0 or 1)."""
        self.data[key] = value
        self.data.move_to_end(key)
        if len(self.data) > self.capacity:
            self.data.popitem(last=False)
            return 1
        return 0


class SolveCache:
    """Thread-safe LRU (+ optional disk) cache for solves.

    Parameters
    ----------
    max_solutions / max_diagrams:
        LRU capacities (entries, not bytes).  Diagrams are O(|V|)
        arrays, solutions are O(|tree|) — cap diagrams lower on large
        graphs.
    disk_dir:
        When set, solutions are pickled under this directory
        (created if missing) and reloaded on in-memory misses — warm
        state across server restarts.
    """

    def __init__(
        self,
        max_solutions: int = 128,
        max_diagrams: int = 32,
        disk_dir: str | Path | None = None,
    ) -> None:
        if max_solutions < 1 or max_diagrams < 1:
            raise ValueError("cache capacities must be >= 1")
        self._solutions = _LRU(max_solutions)
        self._diagrams = _LRU(max_diagrams)
        self._lock = threading.Lock()
        self.stats = CacheStats()
        self.disk_dir: Path | None = None
        if disk_dir is not None:
            self.disk_dir = Path(disk_dir)
            self.disk_dir.mkdir(parents=True, exist_ok=True)

    # ------------------------------------------------------------------ #
    # solutions
    # ------------------------------------------------------------------ #
    def get_solution(self, key: Hashable) -> Optional[SteinerTreeResult]:
        """Cached result for ``key``, or ``None`` (counted as a miss)."""
        with self._lock:
            hit = self._solutions.get(key)
            if hit is None and self.disk_dir is not None:
                hit = self._disk_load(key)
                if hit is not None:
                    self.stats.disk_hits += 1
                    self.stats.evictions += self._solutions.put(key, hit)
            if hit is None:
                self.stats.solution_misses += 1
            else:
                self.stats.solution_hits += 1
            return hit

    def peek_solution(self, key: Hashable) -> Optional[SteinerTreeResult]:
        """Like :meth:`get_solution` but without touching the counters
        or LRU order — the batcher uses this to plan fusion without
        double-counting the solver's own lookup."""
        with self._lock:
            hit = self._solutions.data.get(key)
            if hit is None and self.disk_dir is not None:
                hit = self._disk_load(key)
            return hit

    def put_solution(self, key: Hashable, result: SteinerTreeResult) -> None:
        with self._lock:
            self.stats.evictions += self._solutions.put(key, result)
            if self.disk_dir is not None:
                self._disk_store(key, result)

    # ------------------------------------------------------------------ #
    # diagrams
    # ------------------------------------------------------------------ #
    def get_diagram(self, key: Hashable) -> Optional[VoronoiDiagram]:
        with self._lock:
            hit = self._diagrams.get(key)
            if hit is None:
                self.stats.diagram_misses += 1
            else:
                self.stats.diagram_hits += 1
            return hit

    def put_diagram(self, key: Hashable, diagram: VoronoiDiagram) -> None:
        with self._lock:
            self.stats.evictions += self._diagrams.put(key, diagram)

    # ------------------------------------------------------------------ #
    def clear(self) -> None:
        """Drop every in-memory entry (disk entries are kept) and reset
        the counters."""
        with self._lock:
            self._solutions.data.clear()
            self._diagrams.data.clear()
            self.stats = CacheStats()

    def __len__(self) -> int:
        with self._lock:
            return len(self._solutions.data)

    # ------------------------------------------------------------------ #
    # disk tier
    # ------------------------------------------------------------------ #
    def _disk_path(self, key: Hashable) -> Path:
        assert self.disk_dir is not None
        return self.disk_dir / f"{_key_digest(key)}.pkl"

    def _disk_store(self, key: Hashable, result: SteinerTreeResult) -> None:
        path = self._disk_path(key)
        tmp = path.with_suffix(".tmp")
        try:
            with open(tmp, "wb") as fh:
                pickle.dump(result, fh, protocol=pickle.HIGHEST_PROTOCOL)
            tmp.replace(path)  # atomic within one filesystem
        except OSError:  # disk tier is best-effort, never fatal
            tmp.unlink(missing_ok=True)

    def _disk_load(self, key: Hashable) -> Optional[SteinerTreeResult]:
        """Load one disk entry; any failure quarantines the file and
        reads as a miss.

        The catch is deliberately broad: unpickling executes arbitrary
        reconstruction code, so torn writes surface not just as
        :class:`pickle.UnpicklingError` but as ``AttributeError``,
        ``ImportError``, ``MemoryError``... — none of which may take
        down the service over one bad cache file.
        """
        path = self._disk_path(key)
        try:
            with open(path, "rb") as fh:
                return pickle.load(fh)
        except OSError:
            return None  # absent or unreadable: a plain miss
        except Exception:
            self._quarantine(path)
            return None

    def _quarantine(self, path: Path) -> None:
        """Move a corrupt entry aside (``<name>.corrupt``) so it is
        never re-read but stays inspectable; count it."""
        self.stats.corrupt += 1
        try:
            path.replace(path.with_suffix(path.suffix + ".corrupt"))
        except OSError:  # pragma: no cover - the rename is best-effort
            try:
                path.unlink(missing_ok=True)
            except OSError:
                pass
