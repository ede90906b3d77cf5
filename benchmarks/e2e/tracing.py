"""Outside-in span tracing for the end-to-end benchmark.

The benchmark times layers from its own files: :func:`install` replaces
the public names in :data:`HOOKS` with wrappers that record one span
per call (name, start, end, parent span, thread, request keys) and
restores them with :meth:`Installed.uninstall`.  Nothing under ``src/``
knows it is being traced, and an untraced run installs no wrapper.

A hook whose target no longer exists is reported as ``absent``; every
metric built on it then reads ``absent``, never zero.

Request attribution.  A span names the requests it serves by *keys*: a
request id (``str``) or a seed set (``frozenset``).  Seed-set keys are
resolved to the id of the latest ``service.submit`` with that seed set,
so spans of the serve batcher's worker thread land on the request that
caused them.  A span without keys of its own inherits its parent's
requests.  A span shared by ``n`` requests (a fused sweep) gives each
of them ``1/n`` of its time.
"""

from __future__ import annotations

import bisect
import functools
import importlib
import json
import statistics
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Sequence

ABSENT = "absent"

#: engine phase name -> span name for the proxied ``run_phase``
_PHASE_SPANS = {
    "Voronoi Cell": "runtime.voronoi_phase",
    "Steiner Tree Edge": "runtime.tree_edge_phase",
}


def _seed_key(seeds: Any) -> frozenset:
    return frozenset(int(s) for s in seeds)


def _solve_keys(args: tuple, kwargs: dict) -> tuple:
    seeds = args[1] if len(args) > 1 else kwargs["seeds"]
    return (_seed_key(seeds),)


def _cache_keys(args: tuple, kwargs: dict) -> tuple:
    # cache keys are (graph_hash, frozenset(seeds), fingerprint)
    return (args[1][1],)


def _fused_keys(args: tuple, kwargs: dict) -> tuple:
    seed_sets = args[1] if len(args) > 1 else kwargs["seed_sets"]
    return tuple(_seed_key(s) for s in seed_sets)


def _submit_keys(args: tuple, kwargs: dict) -> tuple:
    # (request id, seed set): the binding every seed-set key resolves by
    request = args[1] if len(args) > 1 else kwargs["request"]
    if isinstance(request, dict):
        return (str(request.get("id")), _seed_key(request.get("seeds", ())))
    return (str(request.id), _seed_key(request.seeds))


def _payload_id_keys(args: tuple, kwargs: dict) -> tuple:
    payload = args[0]
    if isinstance(payload, dict) and payload.get("id") is not None:
        return (str(payload["id"]),)
    return ()


def _first_arg_id_keys(args: tuple, kwargs: dict) -> tuple:
    return (str(args[0]),) if args and args[0] is not None else ()


def _cross_pairs(dg: Any) -> dict:
    return {"cross_pairs": int(dg.n_edges)}


@dataclass(frozen=True)
class Hook:
    """One wrap target: ``module`` attribute path ``target`` -> span."""

    module: str
    target: str
    span: str
    keys: Callable[[tuple, dict], tuple] | None = None
    attrs: Callable[[Any], dict] | None = None
    engine: bool = False  # proxy the returned engine's run_phase


#: The single table of wrap targets.  Module globals are wrapped where
#: the caller looks them up (``repro.core.solver`` imports its helpers
#: by name, so those are the names to replace).
HOOKS: tuple[Hook, ...] = (
    Hook("repro.api", "Session.solve", "api.session_solve"),
    Hook("repro.core.solver", "DistributedSteinerSolver.solve", "solver.solve",
         keys=_solve_keys),
    Hook("repro.core.solver", "validate_seed_set", "seeds.validate"),
    Hook("repro.core.solver", "make_engine", "runtime.make_engine", engine=True),
    Hook("repro.core.solver", "canonicalize_predecessors", "voronoi.canonicalize"),
    Hook("repro.core.solver", "build_distance_graph", "distance_graph.build",
         attrs=_cross_pairs),
    Hook("repro.core.solver", "local_min_edge_costs", "distance_graph.cost_model"),
    Hook("repro.core.solver", "prim_mst", "mst.prim"),
    Hook("repro.core.distance_graph", "DistanceGraph.seed_indices",
         "distance_graph.seed_indices"),
    Hook("repro.graph.csr", "CSRGraph.edge_array", "csr.edge_array"),
    Hook("repro.runtime.partition", "PartitionedGraph.arc_arrays",
         "partition.arc_arrays"),
    Hook("repro.shortest_paths.backends", "compute_multisource",
         "shortest_paths.sweep"),
    Hook("repro.serve.service", "SolverService.submit", "service.submit",
         keys=_submit_keys),
    Hook("repro.serve.service", "fused_multisource", "batch.fused",
         keys=_fused_keys),
    Hook("repro.serve.batch", "stack_graphs", "batch.stack"),
    Hook("repro.serve.batch", "compute_multisource", "batch.fused_sweep"),
    Hook("repro.serve.cache", "SolveCache.get_solution", "cache.get_solution",
         keys=_cache_keys),
    Hook("repro.serve.cache", "SolveCache.peek_solution", "cache.peek_solution",
         keys=_cache_keys),
    Hook("repro.serve.cache", "SolveCache.put_solution", "cache.put_solution",
         keys=_cache_keys),
    Hook("repro.serve.cache", "SolveCache.get_diagram", "cache.get_diagram",
         keys=_cache_keys),
    Hook("repro.serve.cache", "SolveCache.put_diagram", "cache.put_diagram",
         keys=_cache_keys),
    Hook("repro.serve.protocol", "parse_request", "protocol.parse",
         keys=_payload_id_keys),
    Hook("repro.serve.protocol", "response_payload", "protocol.encode",
         keys=_first_arg_id_keys),
    Hook("repro.serve.protocol", "dumps", "protocol.dumps",
         keys=_payload_id_keys),
)


class Span:
    __slots__ = ("name", "start", "end", "parent", "tid", "keys", "attrs",
                 "rids", "self_s")

    def __init__(self, name: str, parent: "Span | None", tid: int,
                 keys: tuple) -> None:
        self.name = name
        self.parent = parent
        self.tid = tid
        self.keys = keys
        self.attrs: dict | None = None
        self.rids: tuple = ()
        self.self_s = 0.0
        self.end = 0.0
        self.start = time.perf_counter()

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    """Keeps spans in memory; one parent stack per thread."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._local = threading.local()

    def open(self, name: str, keys: tuple = ()) -> Span:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        span = Span(name, stack[-1] if stack else None,
                    threading.get_ident(), keys)
        stack.append(span)
        self.spans.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._local.stack.pop()


# --------------------------------------------------------------------- #
# installing hooks
# --------------------------------------------------------------------- #
class _EngineProxy:
    """Times ``run_phase`` per phase name; everything else delegates."""

    def __init__(self, engine: Any, recorder: Recorder) -> None:
        self._engine = engine
        self._recorder = recorder

    def run_phase(self, name: str, *args: Any, **kwargs: Any) -> Any:
        span = self._recorder.open(_PHASE_SPANS.get(name, f"runtime.{name}"))
        try:
            return self._engine.run_phase(name, *args, **kwargs)
        finally:
            self._recorder.close(span)

    def __getattr__(self, attr: str) -> Any:
        return getattr(self._engine, attr)


def _wrap(fn: Callable, hook: Hook, recorder: Recorder) -> Callable:
    if hook.engine:
        @functools.wraps(fn)
        def make(*args: Any, **kwargs: Any) -> Any:
            return _EngineProxy(fn(*args, **kwargs), recorder)

        return make

    @functools.wraps(fn)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        span = recorder.open(
            hook.span, hook.keys(args, kwargs) if hook.keys else ()
        )
        try:
            result = fn(*args, **kwargs)
            if hook.attrs is not None:
                span.attrs = hook.attrs(result)
            return result
        finally:
            recorder.close(span)

    return wrapper


def _resolve(hook: Hook) -> tuple[Any, str] | None:
    """``(owner, attribute)`` of a hook target, or ``None`` if gone."""
    try:
        owner: Any = importlib.import_module(hook.module)
    except ImportError:
        return None
    *path, attr = hook.target.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    if not callable(getattr(owner, attr, None)):
        return None
    return owner, attr


class Installed:
    """The hooks of one :func:`install` call, and how to undo them."""

    def __init__(self) -> None:
        self.status: dict[str, str] = {}  # span name -> "ok" | ABSENT
        self._saved: list[tuple[Any, str, Any]] = []

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()


def install(recorder: Recorder, hooks: Sequence[Hook] = HOOKS) -> Installed:
    installed = Installed()
    for hook in hooks:
        found = _resolve(hook)
        if found is None:
            installed.status[hook.span] = ABSENT
            continue
        owner, attr = found
        original = getattr(owner, attr)
        installed._saved.append((owner, attr, original))
        setattr(owner, attr, _wrap(original, hook, recorder))
        installed.status[hook.span] = "ok"
    return installed


# --------------------------------------------------------------------- #
# analysis
# --------------------------------------------------------------------- #
def finalize(spans: Sequence[Span]) -> None:
    """Compute self times and request attribution, in place.

    Raises ``RuntimeError`` when a span's children cover more time than
    the span itself: a tracer bug would otherwise pass as data.
    """
    child_total: dict[int, float] = {}
    for span in spans:
        if span.parent is not None:
            pid = id(span.parent)
            child_total[pid] = child_total.get(pid, 0.0) + span.duration
    for span in spans:
        covered = child_total.get(id(span), 0.0)
        if covered > span.duration + 1e-9:
            raise RuntimeError(
                f"children of span {span.name!r} cover {covered:.6f} s of "
                f"its {span.duration:.6f} s"
            )
        span.self_s = span.duration - covered

    bindings: dict[frozenset, tuple[list[float], list[str]]] = {}
    for span in spans:
        if span.name == "service.submit":
            starts, rids = bindings.setdefault(span.keys[1], ([], []))
            starts.append(span.start)
            rids.append(span.keys[0])
    for span in spans:  # recorded in start order: parents come first
        if span.name == "service.submit":
            own: list[str] = [span.keys[0]]
        else:
            own = []
            for key in span.keys:
                if isinstance(key, str):
                    own.append(key)
                elif key in bindings:
                    starts, rids = bindings[key]
                    i = bisect.bisect_right(starts, span.start) - 1
                    if i >= 0:
                        own.append(rids[i])
        if own:
            span.rids = tuple(own)
        elif span.parent is not None:
            span.rids = span.parent.rids


def per_request(spans: Sequence[Span]) -> dict[str, dict[str, float]]:
    """``rid -> span name -> attributed self seconds``."""
    table: dict[str, dict[str, float]] = {}
    for span in spans:
        share = span.self_s / len(span.rids) if span.rids else 0.0
        for rid in span.rids:
            row = table.setdefault(rid, {})
            row[span.name] = row.get(span.name, 0.0) + share
    return table


#: metric -> the spans whose attributed self time it sums, per request
SELF_TIME_METRICS: dict[str, tuple[str, ...]] = {
    "api.session_overhead_ms": ("api.session_solve",),
    "seeds.validate_ms": ("seeds.validate",),
    "phase1.sweep_ms": ("shortest_paths.sweep", "runtime.voronoi_phase",
                        "batch.fused_sweep"),
    "shortest_paths.sweep_ms": ("shortest_paths.sweep",),
    "runtime.voronoi_phase_ms": ("runtime.voronoi_phase",),
    "runtime.tree_edge_phase_ms": ("runtime.tree_edge_phase",),
    "voronoi.canonicalize_ms": ("voronoi.canonicalize",),
    "distance_graph.build_ms": ("distance_graph.build",),
    "distance_graph.cost_model_ms": ("distance_graph.cost_model",),
    "distance_graph.seed_indices_ms": ("distance_graph.seed_indices",),
    "csr.edge_array_ms": ("csr.edge_array",),
    "partition.arc_arrays_ms": ("partition.arc_arrays",),
    "mst.prim_ms": ("mst.prim",),
    "solver.self_ms": ("solver.solve",),
    "batch.stack_ms": ("batch.stack",),
    "batch.fused_sweep_ms": ("batch.fused_sweep",),
    "cache.lookup_ms": ("cache.get_solution", "cache.peek_solution",
                        "cache.put_solution", "cache.get_diagram",
                        "cache.put_diagram"),
    "protocol.parse_ms": ("protocol.parse",),
    "protocol.encode_ms": ("protocol.encode", "protocol.dumps"),
}

#: hook span names behind spans that are not themselves hooked
_HOOK_OF_SPAN = {
    "runtime.voronoi_phase": "runtime.make_engine",
    "runtime.tree_edge_phase": "runtime.make_engine",
}


def layer_metrics(
    spans: Sequence[Span],
    timed: Sequence[str],
    status: dict[str, str],
) -> dict[str, Any]:
    """Per-layer metrics over the timed requests.

    Each value is a number, :data:`ABSENT` (a hook target is gone), or
    ``None`` (the layer did not run for any timed request).
    """
    table = per_request(spans)
    rows = [table.get(rid, {}) for rid in timed]
    out: dict[str, Any] = {}
    for metric, names in SELF_TIME_METRICS.items():
        if any(status.get(_HOOK_OF_SPAN.get(n, n)) == ABSENT for n in names):
            out[metric] = ABSENT
        elif not any(n in row for row in rows for n in names):
            out[metric] = None
        else:
            out[metric] = 1e3 * statistics.median(
                sum(row.get(n, 0.0) for n in names) for row in rows
            )

    timed_set = frozenset(timed)
    sweeps = dict.fromkeys(timed, 0.0)
    pairs: list[int] = []
    for span in spans:
        if span.name in ("shortest_paths.sweep", "batch.fused_sweep"):
            for rid in span.rids:
                if rid in timed_set:
                    sweeps[rid] += 1.0 / len(span.rids)
        elif span.name == "distance_graph.build" and span.attrs:
            if any(rid in timed_set for rid in span.rids):
                pairs.append(span.attrs["cross_pairs"])
    out["shortest_paths.sweeps_per_solve"] = (
        ABSENT
        if ABSENT in (status.get("shortest_paths.sweep"),
                      status.get("batch.fused_sweep"))
        else statistics.fmean(sweeps.values())
    )
    out["distance_graph.cross_pairs"] = (
        ABSENT if status.get("distance_graph.build") == ABSENT
        else statistics.median(pairs) if pairs else None
    )
    return out


def serve_timings(
    spans: Sequence[Span],
    timed: Sequence[str],
    received: dict[str, float],
    status: dict[str, str],
) -> dict[str, Any]:
    """Where a served request's time goes, median over timed requests.

    ``received`` holds the client's receipt times; client and server
    read the same monotonic clock.
    """
    names = ("service.queue_wait_ms", "service.solve_ms",
             "service.response_ms", "batch.fused_ms_per_request")
    if ABSENT in (status.get("service.submit"), status.get("solver.solve")):
        return dict.fromkeys(names, ABSENT)
    timed_set = frozenset(timed)
    submit_end: dict[str, float] = {}
    for span in spans:
        if span.name == "service.submit" and span.rids[0] in timed_set:
            submit_end[span.rids[0]] = span.end
    first_touch: dict[str, float] = {}
    solve_end: dict[str, float] = {}
    fused: list[float] = []
    for span in spans:
        for rid in span.rids:
            if rid in submit_end and span.start >= submit_end[rid]:
                first_touch[rid] = min(first_touch.get(rid, span.start), span.start)
                if span.name == "solver.solve":
                    solve_end[rid] = span.end
        if span.name == "batch.fused" and any(r in timed_set for r in span.rids):
            fused.append(span.duration / len(span.rids))
    rids = [r for r in timed if r in solve_end and r in received]

    def ms(values: list[float]) -> float | None:
        return 1e3 * statistics.median(values) if values else None

    return dict(zip(names, (
        ms([first_touch[r] - submit_end[r] for r in rids]),
        ms([solve_end[r] - first_touch[r] for r in rids]),
        ms([received[r] - solve_end[r] for r in rids]),
        ABSENT if status.get("batch.fused") == ABSENT else ms(fused),
    )))


# --------------------------------------------------------------------- #
# export
# --------------------------------------------------------------------- #
def span_records(spans: Sequence[Span]) -> list[list]:
    """JSON-safe rows of finalized spans, for another process."""
    index = {id(s): i for i, s in enumerate(spans)}
    return [
        [s.name, s.start, s.end,
         index[id(s.parent)] if s.parent is not None else -1,
         s.tid, list(s.rids), s.attrs, s.self_s]
        for s in spans
    ]


def from_records(rows: Sequence[Sequence]) -> list[Span]:
    """Rebuild finalized spans from :func:`span_records` rows."""
    spans: list[Span] = []
    for name, start, end, parent, tid, rids, attrs, self_s in rows:
        span = Span(name, spans[parent] if parent >= 0 else None, tid, ())
        span.start, span.end, span.self_s = start, end, self_s
        span.rids, span.attrs = tuple(rids), attrs
        spans.append(span)
    return spans


def write_chrome_trace(
    path: Path,
    processes: Sequence[tuple[str, Sequence[Span]]],
) -> None:
    """Write Chrome trace-event JSON (opens in Perfetto)."""
    events: list[dict] = []
    t0 = min((s.start for _, spans in processes for s in spans), default=0.0)
    for pid, (label, spans) in enumerate(processes, start=1):
        events.append({"name": "process_name", "ph": "M", "pid": pid,
                       "tid": 0, "args": {"name": label}})
        tids: dict[int, int] = {}
        for span in spans:
            tid = tids.setdefault(span.tid, len(tids) + 1)
            args: dict[str, Any] = {"requests": list(span.rids)}
            if span.attrs:
                args.update(span.attrs)
            events.append({
                "name": span.name, "ph": "X", "pid": pid, "tid": tid,
                "ts": round((span.start - t0) * 1e6, 3),
                "dur": round(span.duration * 1e6, 3),
                "args": args,
            })
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps({"traceEvents": events}))
