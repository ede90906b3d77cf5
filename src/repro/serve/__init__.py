"""``repro.serve`` — the persistent solver service.

The pieces behind ``repro-steiner serve``, layered so each is usable
on its own:

* :mod:`repro.serve.cache` — LRU (+ optional disk) caching of
  solutions and Voronoi diagrams, keyed by ``(graph_hash,
  frozenset(seeds), config_fingerprint)``;
* :mod:`repro.serve.batch` — request coalescing: N compatible solves
  fused into ONE multi-source sweep over a disjoint-union stacked
  graph, with bit-identical per-request slices;
* :mod:`repro.serve.service` — the transport-independent service:
  warm graphs/sessions, the batching worker, counters;
* :mod:`repro.serve.protocol` / :mod:`repro.serve.server` — the
  line-delimited JSON protocol (:mod:`repro.api.schema`) over stdio
  and TCP.

See ``docs/serve.md`` for the protocol and the cache-key contract.
"""

from repro.serve.batch import fused_multisource, stack_graphs
from repro.serve.cache import CacheStats, SolveCache
from repro.serve.protocol import MAX_LINE_BYTES, OversizedLineError, ProtocolHandler
from repro.serve.server import make_tcp_server, serve_stdio
from repro.serve.service import (
    QueueFull,
    RequestTimeout,
    ServeCounters,
    ServiceClosed,
    ServiceDraining,
    SolverService,
)

__all__ = [
    "MAX_LINE_BYTES",
    "CacheStats",
    "OversizedLineError",
    "ProtocolHandler",
    "QueueFull",
    "RequestTimeout",
    "ServeCounters",
    "ServiceClosed",
    "ServiceDraining",
    "SolveCache",
    "SolverService",
    "fused_multisource",
    "make_tcp_server",
    "serve_stdio",
    "stack_graphs",
]
