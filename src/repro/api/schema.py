"""Versioned JSON schema for solve requests, responses and results.

This module is the *single* source of truth for every wire/dump shape
the library emits: the ``repro-steiner serve`` line-delimited protocol
(:mod:`repro.serve.protocol`), :meth:`SteinerTreeResult.to_json
<repro.core.result.SteinerTreeResult.to_json>`, and the experiment
reports' machine-readable form all build their payloads here, so a
field rename happens in exactly one place.

Request payload (``schema_version`` 1)
--------------------------------------

.. code-block:: json

    {"schema_version": 1, "id": "req-7", "op": "solve",
     "graph": "LVJ", "seeds": [3, 14, 159],
     "config": {"voronoi_backend": "delta-numpy", "n_ranks": 16},
     "deadline_ms": 5000}

``op`` defaults to ``"solve"``; the serve loop also accepts ``"ping"``,
``"stats"``, ``"graphs"``, ``"health"``, ``"drain"`` and
``"shutdown"``.  ``config`` holds
:class:`~repro.core.config.SolverConfig` field names.  A request with
any other top-level field is rejected with :class:`SchemaError`.
``deadline_ms`` (optional, solve only) bounds how long the request may
wait + run: past it the service answers with a structured ``timeout``
error instead of a result — it never hangs.

Response payload
----------------

.. code-block:: json

    {"schema_version": 1, "id": "req-7", "ok": true, "result": {...}}
    {"schema_version": 1, "id": "req-7", "ok": false,
     "error": {"type": "DisconnectedSeedsError", "message": "..."}}

Structured error envelopes may carry machine-actionable fields next to
``type``/``message``: ``code`` (a stable short string — ``"timeout"``
for expired deadlines, ``"shed"`` for load-shed admissions,
``"draining"`` while the service drains, ``"oversized"`` for frames
beyond the protocol's line bound) and ``retry_after_ms`` (attached to
``shed`` responses: a backoff hint derived from the current queue
depth).  Both are copied from same-named attributes on the raised
exception, so any layer can emit them.

The ``result`` object is exactly :func:`result_payload`: ``seeds``,
``edges`` (``[u, v, w]`` rows, ``u < v``), ``total_distance``,
``n_edges``, ``wall_time_s``, ``sim_time_s``, ``phases`` and
``provenance`` (cache/batching counters — see ``docs/serve.md``).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields
from typing import TYPE_CHECKING, Any, Mapping

if TYPE_CHECKING:
    from repro.core.result import SteinerTreeResult

__all__ = [
    "SCHEMA_VERSION",
    "SchemaError",
    "SolveRequest",
    "error_payload",
    "jsonable",
    "parse_request",
    "response_payload",
    "result_payload",
]

#: current wire-format version; bump on incompatible field changes
SCHEMA_VERSION = 1

#: request operations the serve loop understands
KNOWN_OPS = ("solve", "ping", "stats", "graphs", "health", "drain", "shutdown")


class SchemaError(ValueError):
    """A payload does not conform to the request/response schema."""


def jsonable(obj: Any) -> Any:
    """Best-effort conversion of payload data to JSON-safe values
    (NumPy scalars/arrays become Python ints/floats/lists)."""
    import numpy as np

    if isinstance(obj, dict):
        return {str(k): jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple, set, frozenset)):
        return [jsonable(v) for v in sorted(obj)] if isinstance(
            obj, (set, frozenset)
        ) else [jsonable(v) for v in obj]
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    return obj


# --------------------------------------------------------------------- #
# requests
# --------------------------------------------------------------------- #
@dataclass(frozen=True)
class SolveRequest:
    """One parsed protocol request.

    ``config`` holds raw :class:`~repro.core.config.SolverConfig`
    field overrides; the service applies them to its default
    configuration when the request is submitted.
    """

    id: str
    op: str = "solve"
    graph: str | None = None
    seeds: tuple[int, ...] = ()
    config: Mapping[str, Any] = field(default_factory=dict)
    deadline_ms: int | None = None
    schema_version: int = SCHEMA_VERSION

    def to_payload(self) -> dict[str, Any]:
        """Canonical JSON-safe dict form of this request."""
        payload: dict[str, Any] = {
            "schema_version": self.schema_version,
            "id": self.id,
            "op": self.op,
        }
        if self.graph is not None:
            payload["graph"] = self.graph
        if self.seeds:
            payload["seeds"] = list(self.seeds)
        if self.config:
            payload["config"] = dict(self.config)
        if self.deadline_ms is not None:
            payload["deadline_ms"] = self.deadline_ms
        return payload


#: the top-level fields a request may carry
_REQUEST_FIELDS = frozenset(f.name for f in fields(SolveRequest))


def parse_request(payload: Mapping[str, Any]) -> SolveRequest:
    """Validate and normalise a request dict into a :class:`SolveRequest`.

    Raises :class:`SchemaError` on malformed payloads, on a field that is
    not a :class:`SolveRequest` field, or on a ``schema_version`` newer
    than this library understands.
    """
    if not isinstance(payload, Mapping):
        raise SchemaError(f"request must be a JSON object, got {type(payload).__name__}")
    data = dict(payload)
    version = data.get("schema_version", SCHEMA_VERSION)
    if not isinstance(version, int) or version < 1:
        raise SchemaError(f"invalid schema_version {version!r}")
    if version > SCHEMA_VERSION:
        raise SchemaError(
            f"request schema_version {version} is newer than the supported "
            f"version {SCHEMA_VERSION}"
        )
    unknown = sorted(set(data) - _REQUEST_FIELDS)
    if unknown:
        raise SchemaError(
            f"unknown request field(s) {unknown}; known: {sorted(_REQUEST_FIELDS)}"
        )

    req_id = data.get("id")
    if req_id is None:
        raise SchemaError("request is missing required field 'id'")
    req_id = str(req_id)

    op = data.get("op", "solve")
    if op not in KNOWN_OPS:
        raise SchemaError(f"unknown op {op!r}; known ops: {list(KNOWN_OPS)}")

    graph = data.get("graph")
    if graph is not None and not isinstance(graph, str):
        raise SchemaError("'graph' must be a string dataset/graph name")

    raw_seeds = data.get("seeds", ())
    if raw_seeds is None:
        raw_seeds = ()
    if isinstance(raw_seeds, (str, bytes)) or not hasattr(raw_seeds, "__iter__"):
        raise SchemaError("'seeds' must be a list of vertex ids")
    try:
        seeds = tuple(int(s) for s in raw_seeds)
    except (TypeError, ValueError) as exc:
        raise SchemaError(f"'seeds' must be integers: {exc}") from None

    config = data.get("config", {})
    if config is None:
        config = {}
    if not isinstance(config, Mapping):
        raise SchemaError("'config' must be a JSON object of SolverConfig fields")

    deadline_ms = data.get("deadline_ms")
    if deadline_ms is not None:
        if isinstance(deadline_ms, bool) or not isinstance(
            deadline_ms, (int, float)
        ):
            raise SchemaError("'deadline_ms' must be a positive number")
        deadline_ms = int(deadline_ms)
        if deadline_ms <= 0:
            raise SchemaError("'deadline_ms' must be a positive number")

    if op == "solve":
        if graph is None:
            raise SchemaError("solve request is missing required field 'graph'")
        if not seeds:
            raise SchemaError("solve request needs a non-empty 'seeds' list")

    return SolveRequest(
        id=req_id,
        op=op,
        graph=graph,
        seeds=seeds,
        config=dict(config),
        deadline_ms=deadline_ms,
        schema_version=version,
    )


# --------------------------------------------------------------------- #
# results and responses
# --------------------------------------------------------------------- #
def result_payload(result: SteinerTreeResult) -> dict[str, Any]:
    """The canonical JSON-safe dict form of a
    :class:`~repro.core.result.SteinerTreeResult`."""
    payload: dict[str, Any] = {
        "schema_version": SCHEMA_VERSION,
        "seeds": jsonable(result.seeds),
        "edges": jsonable(result.edges),
        "n_edges": result.n_edges,
        "total_distance": int(result.total_distance),
        "wall_time_s": float(result.wall_time_s),
        "sim_time_s": float(result.sim_time()),
        "phases": [
            {
                "name": p.name,
                "sim_time_s": float(p.sim_time),
                "n_messages": int(p.n_messages),
            }
            for p in result.phases
        ],
        "provenance": jsonable(dict(result.provenance)),
    }
    if result.memory is not None:
        payload["memory"] = {
            "graph_bytes": int(result.memory.graph_bytes),
            "runtime_bytes": int(result.memory.runtime_bytes),
            "total_bytes": int(result.memory.total_bytes),
        }
    return payload


def response_payload(
    request_id: str, result: SteinerTreeResult | None = None, **extra: Any
) -> dict[str, Any]:
    """A success envelope; ``result`` may be a
    :class:`~repro.core.result.SteinerTreeResult` (serialised via
    :func:`result_payload`) or an already-JSON-safe object (``stats``,
    ``pong`` bodies) passed through ``extra``."""
    payload: dict[str, Any] = {
        "schema_version": SCHEMA_VERSION,
        "id": str(request_id),
        "ok": True,
    }
    if result is not None:
        payload["result"] = result_payload(result)
    payload.update(jsonable(extra))
    return payload


def error_payload(request_id: str | None, error: BaseException | str) -> dict[str, Any]:
    """The error envelope: ``ok: false`` plus a typed message.

    Exceptions carrying a ``code`` attribute (``"timeout"``, ``"shed"``,
    ``"draining"``, ``"oversized"``) surface it for machine dispatch;
    a ``retry_after_ms`` attribute (load-shed backoff hint) passes
    through the same way.
    """
    if isinstance(error, BaseException):
        err = {"type": type(error).__name__, "message": str(error)}
        code = getattr(error, "code", None)
        if code is not None:
            err["code"] = str(code)
        retry_after = getattr(error, "retry_after_ms", None)
        if retry_after is not None:
            err["retry_after_ms"] = int(retry_after)
    else:
        err = {"type": "Error", "message": str(error)}
    return {
        "schema_version": SCHEMA_VERSION,
        "id": str(request_id) if request_id is not None else None,
        "ok": False,
        "error": err,
    }


def dumps(payload: Mapping[str, Any]) -> str:
    """Compact single-line JSON — the line-delimited protocol framing."""
    return json.dumps(jsonable(dict(payload)), separators=(",", ":"))
