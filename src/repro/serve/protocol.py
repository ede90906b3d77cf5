"""Line-delimited JSON protocol over any byte-stream transport.

One request per line in, one response per line out — the shapes are
defined once in :mod:`repro.api.schema` (``schema_version`` 1).  The
handler is transport-agnostic: :mod:`repro.serve.server` wires it to
stdio and TCP, tests drive it with plain strings.

Robustness contract: a malformed line (bad JSON, unknown op, missing
fields) produces an ``ok: false`` error envelope on the output stream
and the connection stays up; only EOF or an explicit ``shutdown`` op
ends the conversation.  Line length is bounded
(:data:`MAX_LINE_BYTES`, overridable per handler): an oversized frame
is answered with a structured ``oversized`` error and the rest of the
line is discarded without ever being buffered — a misbehaving client
cannot balloon server memory.  A transport that dies mid-read
(``ConnectionResetError`` on a socket) must still let in-flight solves
resolve; the stream transports guarantee it by draining before
returning.  Solve responses are written as they complete — batched
requests resolve together, so responses may arrive out of request
order; clients correlate by ``id``.
"""

from __future__ import annotations

import json
import threading
from typing import TYPE_CHECKING, Callable

if TYPE_CHECKING:
    from repro.serve.service import _Pending

from repro.api.schema import (
    SchemaError,
    SolveRequest,
    dumps,
    error_payload,
    parse_request,
    response_payload,
)
from repro.serve.service import SolverService

__all__ = ["MAX_LINE_BYTES", "OversizedLineError", "ProtocolHandler"]

#: default request-line bound (bytes).  Generous — a 1 MiB line holds a
#: seed list ~100k entries long — while keeping a single bad client
#: from buffering unbounded garbage in server memory.
MAX_LINE_BYTES = 1 << 20


class OversizedLineError(ValueError):
    """A request line exceeded the protocol's byte bound
    (``error.code == "oversized"``)."""

    code = "oversized"

    def __init__(self, limit: int) -> None:
        self.limit = limit
        super().__init__(
            f"request line exceeds the protocol bound of {limit} bytes"
        )


class ProtocolHandler:
    """One protocol conversation: parses lines, dispatches ops, writes
    envelopes.

    Parameters
    ----------
    service:
        The shared :class:`~repro.serve.service.SolverService`; several
        handlers (TCP connections) may point at one service.
    write:
        ``write(line)`` sink for response lines (no trailing newline).
        Called from the caller's thread for control ops and from the
        service's batching worker for solve completions — an internal
        lock serialises the two.
    on_shutdown:
        Invoked once when this conversation sees a ``shutdown`` op
        (after the acknowledgement is written); the transport uses it
        to stop its accept loop.
    max_line_bytes:
        Request-line bound for :meth:`handle_line` (and advertised to
        transports that enforce it during the read itself).
    """

    def __init__(
        self,
        service: SolverService,
        write: Callable[[str], None],
        *,
        on_shutdown: Callable[[], None] | None = None,
        max_line_bytes: int = MAX_LINE_BYTES,
    ) -> None:
        if max_line_bytes < 1:
            raise ValueError("max_line_bytes must be >= 1")
        self.service = service
        self.max_line_bytes = max_line_bytes
        self._write = write
        self._on_shutdown = on_shutdown
        self._write_lock = threading.Lock()
        # solves submitted by this conversation and not yet answered;
        # counted, not listed, so an answered slot is never kept alive
        self._inflight = 0
        self._inflight_cv = threading.Condition()

    # ------------------------------------------------------------------ #
    def send(self, payload: dict) -> None:
        """Serialise and write one response line (thread-safe)."""
        line = dumps(payload)
        with self._write_lock:
            self._write(line)

    def reject_oversized(self) -> None:
        """Answer an oversized frame a transport refused to buffer (the
        structured ``oversized`` error; the conversation stays up)."""
        self.send(
            error_payload(None, OversizedLineError(self.max_line_bytes))
        )

    def handle_line(self, line: str) -> bool:
        """Process one request line; returns ``False`` when the
        conversation should end (``shutdown``), ``True`` otherwise."""
        if len(line) > self.max_line_bytes:
            # byte-counting transports never get here (they bound the
            # read itself); string callers get the same structured error
            self.reject_oversized()
            return True
        line = line.strip()
        if not line:
            return True
        try:
            payload = json.loads(line)
        except json.JSONDecodeError as exc:
            self.send(error_payload(None, SchemaError(f"invalid JSON: {exc}")))
            return True
        try:
            request = parse_request(payload)
        except SchemaError as exc:
            rid = payload.get("id") if isinstance(payload, dict) else None
            self.send(error_payload(rid, exc))
            return True
        return self.handle_request(request)

    def handle_request(self, request: SolveRequest) -> bool:
        """Dispatch one parsed request; same return contract as
        :meth:`handle_line`."""
        op = request.op
        if op == "ping":
            self.send(response_payload(request.id, pong=True))
            return True
        if op == "stats":
            self.send(response_payload(request.id, stats=self.service.stats()))
            return True
        if op == "graphs":
            self.send(response_payload(request.id, graphs=self.service.graphs()))
            return True
        if op == "health":
            self.send(response_payload(request.id, health=self.service.health()))
            return True
        if op == "drain":
            # blocks this conversation (not the service) until admitted
            # work is answered; the payload reports the outcome
            drained = self.service.drain()
            self.send(response_payload(request.id, drained=drained))
            return True
        if op == "shutdown":
            self.drain()
            self.send(response_payload(request.id, shutting_down=True))
            if self._on_shutdown is not None:
                self._on_shutdown()
            return False

        # solve: submit without blocking the read loop; the batching
        # worker resolves the slot and _completed writes the envelope.
        # Count the solve first: the worker may answer it before
        # submit() returns.
        with self._inflight_cv:
            self._inflight += 1
        try:
            self.service.submit(request, on_done=self._completed)
        except Exception as exc:
            self._answered()
            self.send(error_payload(request.id, exc))
        return True

    # ------------------------------------------------------------------ #
    def _completed(self, pending: "_Pending") -> None:
        try:
            if pending.error is not None:
                self.send(error_payload(pending.request.id, pending.error))
            else:
                self.send(response_payload(pending.request.id, result=pending.result))
        finally:
            self._answered()

    def _answered(self) -> None:
        with self._inflight_cv:
            self._inflight -= 1
            self._inflight_cv.notify_all()

    def drain(self, timeout: float | None = None) -> None:
        """Block until every in-flight solve of this conversation has
        been answered (EOF and ``shutdown`` call this so no accepted
        request is silently dropped)."""
        with self._inflight_cv:
            self._inflight_cv.wait_for(lambda: self._inflight == 0, timeout)
