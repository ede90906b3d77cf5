"""The persistent solver service: warm graphs, batching, caching.

:class:`SolverService` is the transport-independent core behind
``repro-steiner serve``.  It owns

* a **graph store** — datasets loaded once per process and shared by
  every request;
* per-graph :class:`repro.api.Session` objects keeping partition and
  solver state warm across requests;
* a **batching worker**: concurrent requests arriving within
  ``batch_window_s`` of each other that share a graph and a
  configuration fingerprint are *coalesced* — duplicate seed sets are
  answered by one solve, distinct seed sets are fused into a single
  multi-source sweep (:mod:`repro.serve.batch`) with per-request
  extraction — with results bit-identical to independent solves;
* a shared :class:`repro.serve.cache.SolveCache` so repeated requests
  skip the sweep entirely (``provenance["cache_hit"] = true``).

Every response's ``provenance`` records how it was produced
(``cache_hit``, ``batch_size``, ``coalesced``, ``fused_sweep``,
``request_id``); service-wide counters are exposed through the
``stats`` op and drive ``benchmarks/bench_serve.py``.

Robustness (``docs/robustness.md``): requests may carry a
``deadline_ms`` budget — expiry in-queue or mid-batch answers with a
structured ``timeout`` error instead of hanging; ``max_queue_depth``
bounds admission, shedding excess load with a ``retry_after_ms`` hint;
:meth:`SolverService.drain` stops admissions and waits out
in-flight work for graceful shutdown, and :meth:`SolverService.health`
reports liveness for load balancers.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict, deque
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Any, Callable, Mapping, Sequence

from repro.api import Session
from repro.api.schema import SolveRequest, parse_request
from repro.core.config import SolverConfig
from repro.core.result import SteinerTreeResult
from repro.serve.batch import fused_multisource
from repro.serve.cache import SolveCache

if TYPE_CHECKING:
    from repro.graph.csr import CSRGraph

__all__ = [
    "QueueFull",
    "RequestTimeout",
    "ServeCounters",
    "ServiceClosed",
    "ServiceDraining",
    "SolverService",
]


class ServiceClosed(RuntimeError):
    """The service is shutting down and cannot accept requests."""


class ServiceDraining(RuntimeError):
    """The service is draining: in-flight work finishes, new solve
    requests are refused (``error.code == "draining"``)."""

    code = "draining"


class RequestTimeout(RuntimeError):
    """The request's ``deadline_ms`` budget expired before a result was
    delivered (``error.code == "timeout"``) — whether still queued or
    mid-batch, the client gets this instead of an indefinite wait."""

    code = "timeout"


class QueueFull(RuntimeError):
    """Admission refused: the queue is at ``max_queue_depth``
    (``error.code == "shed"``).  ``retry_after_ms`` is a backoff hint
    sized from the current backlog."""

    code = "shed"

    def __init__(self, message: str, *, retry_after_ms: int) -> None:
        self.retry_after_ms = int(retry_after_ms)
        super().__init__(message)


@dataclass
class ServeCounters:
    """Service-wide counters (the ``stats`` op payload)."""

    requests: int = 0
    responses: int = 0
    errors: int = 0
    batches: int = 0
    fused_sweeps: int = 0
    coalesced: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    shed: int = 0
    timeouts: int = 0

    def as_dict(self) -> dict[str, int]:
        return {
            "requests": self.requests,
            "responses": self.responses,
            "errors": self.errors,
            "batches": self.batches,
            "fused_sweeps": self.fused_sweeps,
            "coalesced": self.coalesced,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "shed": self.shed,
            "timeouts": self.timeouts,
        }


def _timeout_error(pending: "_Pending") -> RequestTimeout:
    return RequestTimeout(
        f"request {pending.request.id!r} exceeded its deadline of "
        f"{pending.request.deadline_ms} ms"
    )


class _Pending:
    """One in-flight request: a waitable slot the batching worker
    resolves with a result or an error."""

    __slots__ = ("request", "config", "graph_name", "on_done", "event",
                 "result", "error", "deadline")

    def __init__(
        self,
        request: SolveRequest,
        config: SolverConfig,
        graph_name: str,
        on_done: Callable[["_Pending"], None] | None,
    ) -> None:
        self.request = request
        self.config = config
        self.graph_name = graph_name
        self.on_done = on_done
        self.event = threading.Event()
        self.result: SteinerTreeResult | None = None
        self.error: BaseException | None = None
        # absolute monotonic expiry, stamped at admission; None = no
        # deadline (the pre-deadline_ms behaviour)
        self.deadline: float | None = (
            time.monotonic() + request.deadline_ms / 1000.0
            if request.deadline_ms is not None
            else None
        )

    def expired(self) -> bool:
        """Has the request's ``deadline_ms`` budget run out?"""
        return self.deadline is not None and time.monotonic() > self.deadline

    def resolve(
        self,
        result: SteinerTreeResult | None = None,
        error: BaseException | None = None,
    ) -> None:
        self.result = result
        self.error = error
        # on_done (the transport write) runs BEFORE the event flips, so
        # drain()/wait() returning guarantees the response left the
        # process; a dead transport must not kill the batching worker.
        try:
            if self.on_done is not None:
                self.on_done(self)
        except Exception:
            pass
        finally:
            self.event.set()

    def wait(self, timeout: float | None = None) -> SteinerTreeResult:
        """Block until resolved; re-raises solve errors in the caller."""
        if not self.event.wait(timeout):
            raise TimeoutError(
                f"request {self.request.id!r} not resolved within {timeout}s"
            )
        if self.error is not None:
            raise self.error
        assert self.result is not None
        return self.result


class SolverService:
    """Transport-independent persistent solver (see module docstring).

    Parameters
    ----------
    config / config_kwargs:
        Default :class:`SolverConfig` for requests that do not override
        fields; the service default switches the sweep to the
        vectorised ``delta-numpy`` backend (the fast, fusable path) —
        pass an explicit config to serve the simulated message-driven
        runtime instead.
    cache:
        ``None`` (default) builds a process-local
        :class:`~repro.serve.cache.SolveCache`; pass an instance to
        share/configure it (disk tier, capacities), or ``False`` to
        disable caching.
    batch_window_s / max_batch:
        How long the worker waits to collect a batch after the first
        pending request, and the cap on requests fused into one sweep
        (each fused request costs one graph copy of memory during the
        sweep).
    max_queue_depth:
        Admission bound: with more than this many requests already
        queued, :meth:`submit` sheds the newcomer with :class:`QueueFull`
        (``retry_after_ms`` sized from the backlog) instead of buffering
        unbounded work.  ``None`` (default) = unbounded.
    """

    def __init__(
        self,
        *,
        config: SolverConfig | None = None,
        cache: SolveCache | bool | None = None,
        batch_window_s: float = 0.005,
        max_batch: int = 8,
        max_queue_depth: int | None = None,
        **config_kwargs: Any,
    ) -> None:
        if config is not None and config_kwargs:
            raise TypeError(
                "pass either a SolverConfig or its fields as keyword "
                f"arguments, not both: {sorted(config_kwargs)}"
            )
        if config is None:
            config_kwargs.setdefault("voronoi_backend", "delta-numpy")
            config = SolverConfig(**config_kwargs)
        self.config = config
        if cache is None or cache is True:
            cache = SolveCache()
        self.cache: SolveCache | None = cache if cache is not False else None
        if batch_window_s < 0:
            raise ValueError("batch_window_s must be >= 0")
        if max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        self.batch_window_s = batch_window_s
        self.max_batch = max_batch
        if max_queue_depth is not None and max_queue_depth < 1:
            raise ValueError("max_queue_depth must be >= 1 (or None)")
        self.max_queue_depth = max_queue_depth

        self.counters = ServeCounters()
        self._sessions: dict[str, Session] = {}
        self._queue: deque[_Pending] = deque()
        self._cv = threading.Condition()
        self._worker: threading.Thread | None = None
        self._closed = False
        self._draining = False
        self._outstanding = 0  # admitted but not yet resolved
        self._started_at = time.monotonic()

    # ------------------------------------------------------------------ #
    # graph store
    # ------------------------------------------------------------------ #
    def add_graph(self, name: str, graph: "CSRGraph") -> None:
        """Register an in-memory graph under ``name`` (tests, benches,
        embedding applications)."""
        with self._cv:
            self._sessions[name] = Session(
                graph, config=self.config, cache=self.cache
            )

    def open_graph(self, name: str) -> "CSRGraph":
        """Load (once) and return the graph behind ``name``."""
        session = self._session_for(name)
        return session.graph

    def graphs(self) -> list[str]:
        """Names of the graphs currently warm in this process."""
        with self._cv:
            return sorted(self._sessions)

    def _session_for(self, name: str) -> Session:
        with self._cv:
            session = self._sessions.get(name)
        if session is not None:
            return session
        from repro.harness.datasets import load_dataset

        graph = load_dataset(name)  # raises KeyError on unknown names
        with self._cv:
            # double-checked: another thread may have won the load race
            session = self._sessions.get(name)
            if session is None:
                session = Session(graph, config=self.config, cache=self.cache)
                self._sessions[name] = session
            return session

    # ------------------------------------------------------------------ #
    # request intake
    # ------------------------------------------------------------------ #
    def submit(
        self,
        request: SolveRequest | Mapping[str, Any],
        on_done: Callable[[_Pending], None] | None = None,
    ) -> _Pending:
        """Enqueue a solve request; returns the pending slot.

        Config resolution and graph loading happen here (in the calling
        thread) so malformed requests fail fast; the batching worker
        only ever sees executable work.
        """
        if not isinstance(request, SolveRequest):
            request = parse_request(request)
        if request.op != "solve":
            raise ValueError(f"submit() only accepts solve requests, got {request.op!r}")
        self.counters.requests += 1
        assert request.graph is not None  # parse_request enforces this
        self._session_for(request.graph)  # load/validate before queueing
        config = (
            replace(self.config, **request.config) if request.config else self.config
        )
        pending = _Pending(request, config, request.graph, on_done)
        with self._cv:
            if self._closed:
                raise ServiceClosed("service is closed")
            if self._draining:
                raise ServiceDraining(
                    "service is draining and accepts no new solve requests"
                )
            if (
                self.max_queue_depth is not None
                and len(self._queue) >= self.max_queue_depth
            ):
                self.counters.shed += 1
                raise QueueFull(
                    f"admission queue is full "
                    f"({len(self._queue)}/{self.max_queue_depth}); retry later",
                    retry_after_ms=self._retry_after_ms(),
                )
            self._queue.append(pending)
            self._outstanding += 1
            self._ensure_worker()
            self._cv.notify_all()
        return pending

    def _retry_after_ms(self) -> int:
        """Backoff hint for shed requests: the time the current backlog
        needs to clear, estimated at one batch per batch window (>= 1 ms
        so clients always wait a nonzero interval)."""
        # caller holds self._cv
        backlog_batches = max(1, -(-len(self._queue) // self.max_batch))
        return max(1, int(1000 * self.batch_window_s * backlog_batches))

    def solve(
        self,
        graph: str,
        seeds: Sequence[int],
        *,
        request_id: str = "-",
        timeout: float | None = None,
        **config_overrides: Any,
    ) -> SteinerTreeResult:
        """Blocking convenience wrapper: submit one request and wait."""
        req = SolveRequest(
            id=request_id,
            graph=graph,
            seeds=tuple(int(s) for s in seeds),
            config=dict(config_overrides),
        )
        return self.submit(req).wait(timeout)

    # ------------------------------------------------------------------ #
    def stats(self) -> dict[str, Any]:
        """The ``stats`` op payload: counters, cache stats, graphs."""
        payload: dict[str, Any] = {
            "counters": self.counters.as_dict(),
            "graphs": self.graphs(),
            "uptime_s": round(time.monotonic() - self._started_at, 3),
            "batch_window_s": self.batch_window_s,
            "max_batch": self.max_batch,
            "max_queue_depth": self.max_queue_depth,
            "queue_depth": len(self._queue),
            "default_config_fingerprint": self.config.fingerprint(),
        }
        if self.cache is not None:
            payload["cache"] = self.cache.stats.as_dict()
        return payload

    def health(self) -> dict[str, Any]:
        """The ``health`` op payload: liveness for load balancers —
        cheap (no cache/session scans) and always answered, even while
        draining."""
        with self._cv:
            status = (
                "closed"
                if self._closed
                else "draining"
                if self._draining
                else "ok"
            )
            return {
                "status": status,
                "queue_depth": len(self._queue),
                "outstanding": self._outstanding,
                "max_queue_depth": self.max_queue_depth,
                "uptime_s": round(time.monotonic() - self._started_at, 3),
            }

    def drain(self, timeout: float | None = None) -> bool:
        """Graceful shutdown, phase one: stop admitting solve requests
        (submits raise :class:`ServiceDraining`) and wait until every
        already-admitted request has been answered.  Control ops
        (``ping``/``stats``/``health``) keep working; call
        :meth:`close` afterwards to release sessions.  Returns ``True``
        when fully drained, ``False`` on timeout (work still in
        flight).
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._cv:
            self._draining = True
            self._cv.notify_all()
            while self._outstanding > 0:
                remaining = (
                    None if deadline is None else deadline - time.monotonic()
                )
                if remaining is not None and remaining <= 0:
                    return False
                self._cv.wait(remaining)
            return True

    def close(self) -> None:
        """Stop accepting work, fail pending requests, join the worker."""
        with self._cv:
            if self._closed:
                return
            self._closed = True
            pending = list(self._queue)
            self._queue.clear()
            self._outstanding -= len(pending)
            self._cv.notify_all()
            worker = self._worker
        for p in pending:
            p.resolve(error=ServiceClosed("service closed before execution"))
        if worker is not None and worker is not threading.current_thread():
            worker.join(timeout=30)
        for session in self._sessions.values():
            session.close()

    @property
    def closed(self) -> bool:
        return self._closed

    @property
    def draining(self) -> bool:
        return self._draining

    def __enter__(self) -> "SolverService":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # batching worker
    # ------------------------------------------------------------------ #
    def _ensure_worker(self) -> None:
        # caller holds self._cv
        if self._worker is None or not self._worker.is_alive():
            self._worker = threading.Thread(
                target=self._worker_loop, name="repro-serve-batcher", daemon=True
            )
            self._worker.start()

    def _worker_loop(self) -> None:
        while True:
            with self._cv:
                while not self._queue and not self._closed:
                    self._cv.wait()
                if self._closed and not self._queue:
                    return
                batch = [self._queue.popleft()]
                deadline = time.monotonic() + self.batch_window_s
                while len(batch) < self.max_batch:
                    if self._queue:
                        batch.append(self._queue.popleft())
                        continue
                    remaining = deadline - time.monotonic()
                    if remaining <= 0 or self._closed:
                        break
                    self._cv.wait(remaining)
            # in-queue deadline expiry: a request that aged out while
            # waiting is answered (with a structured timeout) rather
            # than executed — late work would be wasted work
            live: list[_Pending] = []
            for p in batch:
                if p.expired():
                    self._finish(p, error=_timeout_error(p))
                else:
                    live.append(p)
            if not live:
                continue
            batch = live
            self.counters.batches += 1
            for group in self._group(batch):
                try:
                    self._execute_group(group)
                except Exception as exc:  # backstop: the worker never dies
                    for p in group:
                        if not p.event.is_set():
                            self._finish(p, error=exc)

    @staticmethod
    def _group(batch: list[_Pending]) -> list[list[_Pending]]:
        """Split a batch into coalescable groups: same graph, same
        configuration fingerprint."""
        groups: OrderedDict[tuple, list[_Pending]] = OrderedDict()
        for p in batch:
            key = (p.graph_name, p.config.fingerprint())
            groups.setdefault(key, []).append(p)
        return list(groups.values())

    def _execute_group(self, group: list[_Pending]) -> None:
        """Answer one coalescable group, fusing where profitable."""
        config = group[0].config
        try:
            session = self._session_for(group[0].graph_name)
            solver = session.solver_for(config)
        except Exception as exc:  # unknown graph raced away, bad config
            for p in group:
                self._finish(p, error=exc)
            return

        # dedupe identical seed sets: one solve answers all duplicates
        unique: OrderedDict[frozenset, list[_Pending]] = OrderedDict()
        for p in group:
            unique.setdefault(frozenset(p.request.seeds), []).append(p)

        # split cache-warm keys from the ones that need a sweep, so the
        # fusion plan only covers real work (peek leaves counters alone;
        # the solver's own get_solution does the counted lookup)
        to_compute: list[frozenset] = []
        for seeds_key in unique:
            if self.cache is not None and (
                self.cache.peek_solution(solver.solution_key(seeds_key))
                is not None
            ):
                continue
            to_compute.append(seeds_key)

        fused_diagrams: dict[frozenset, Any] = {}
        fused = (
            len(to_compute) >= 2 and config.voronoi_backend is not None
        )
        if fused:
            try:
                diagrams = fused_multisource(
                    session.graph,
                    [sorted(k) for k in to_compute],
                    backend=config.voronoi_backend,
                )
            except Exception:
                # fall back to independent solves; per-request errors
                # then surface with their own request ids
                fused = False
            else:
                self.counters.fused_sweeps += 1
                # N seed sets answered by one sweep: N-1 avoided sweeps
                self.counters.coalesced += len(to_compute) - 1
                fused_diagrams = dict(zip(to_compute, diagrams))

        batch_size = len(group)
        for seeds_key, pendings in unique.items():
            seeds = sorted(seeds_key)
            shared_sweep = fused and seeds_key in fused_diagrams
            try:
                result = solver.solve(
                    seeds, diagram=fused_diagrams.get(seeds_key)
                )
            except Exception as exc:
                for p in pendings:
                    self._finish(p, error=exc)
                continue
            # every request beyond the first answered by a shared sweep
            # (or by a duplicate's solve) counts as coalesced
            n_coalesced = len(pendings) - 1
            if shared_sweep:
                n_coalesced += len(fused_diagrams) - 1
            self.counters.coalesced += len(pendings) - 1
            for p in pendings:
                provenance = {
                    **result.provenance,
                    "request_id": p.request.id,
                    "batch_size": batch_size,
                    "fused_sweep": bool(shared_sweep),
                    "coalesced": int(n_coalesced),
                }
                self._finish(
                    p, result=replace(result, provenance=provenance)
                )

    def _finish(
        self,
        pending: _Pending,
        result: SteinerTreeResult | None = None,
        error: BaseException | None = None,
    ) -> None:
        # mid-batch deadline expiry: the budget ran out while the batch
        # executed — a late result is still a deadline miss, so the
        # client gets the structured timeout it was promised
        if error is None and pending.expired():
            result, error = None, _timeout_error(pending)
        if isinstance(error, RequestTimeout):
            self.counters.timeouts += 1
            self.counters.errors += 1
        elif error is not None:
            self.counters.errors += 1
        else:
            self.counters.responses += 1
            if result is not None and result.provenance.get("cache_hit"):
                self.counters.cache_hits += 1
            else:
                self.counters.cache_misses += 1
        pending.resolve(result=result, error=error)
        with self._cv:
            self._outstanding -= 1
            self._cv.notify_all()
