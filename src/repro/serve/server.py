"""Transports for the solver service: stdio pipes and a TCP socket.

Both transports speak the same line-delimited protocol
(:mod:`repro.serve.protocol`) against one shared
:class:`~repro.serve.service.SolverService` — the TCP server handles
each connection on its own thread, so concurrent clients feed the
service's batching window exactly like concurrent stdio pipelines
would.

Robustness: the TCP transport bounds every read at the protocol's
line limit — an oversized frame is answered with the structured
``oversized`` error and the remainder of the line is discarded in
fixed-size chunks, never buffered whole — and a client that dies
mid-read or mid-write (reset, broken pipe) ends only its own
conversation, after the handler's in-flight solves have resolved (the
batching worker must never inherit a write into a dead socket as a
crash).

Neither entry point closes the service it is given: the caller (the
``repro-steiner serve`` CLI, a test fixture, a benchmark) owns the
service lifecycle and may run several transports against it.
"""

from __future__ import annotations

import socketserver
import sys
import threading
from typing import IO

from repro.serve.protocol import MAX_LINE_BYTES, ProtocolHandler
from repro.serve.service import SolverService

__all__ = ["make_tcp_server", "serve_stdio"]


def serve_stdio(
    service: SolverService,
    instream: IO[str] | None = None,
    outstream: IO[str] | None = None,
) -> int:
    """Serve one conversation over text streams (default stdin/stdout).

    Reads until EOF or a ``shutdown`` op, answering every accepted
    request before returning.  Returns the number of request lines
    consumed.  Responses are flushed per line so pipeline clients can
    interleave requests with responses.  Oversized lines are bounded by
    the handler itself (stdio is a trusted local pipe; the hard
    read-side bound lives in the TCP transport, where the peer is not).
    """
    instream = sys.stdin if instream is None else instream
    outstream = sys.stdout if outstream is None else outstream

    def write(line: str) -> None:
        outstream.write(line + "\n")
        outstream.flush()

    handler = ProtocolHandler(service, write)
    n_lines = 0
    for line in instream:
        n_lines += 1
        if not handler.handle_line(line):
            return n_lines
    handler.drain()
    return n_lines


class _Handler(socketserver.StreamRequestHandler):
    """One TCP connection: a stdio-shaped conversation over a socket."""

    def handle(self) -> None:
        server: "_Server" = self.server  # type: ignore[assignment]

        def write(line: str) -> None:
            try:
                self.wfile.write(line.encode() + b"\n")
                self.wfile.flush()
            except (BrokenPipeError, ConnectionResetError, OSError, ValueError):
                pass  # client went away mid-response; nothing to salvage

        handler = ProtocolHandler(
            server.service, write, on_shutdown=server.request_shutdown
        )
        limit = MAX_LINE_BYTES
        try:
            while True:
                # bounded read: at most limit+1 bytes are ever buffered
                # for one line, no matter what the client sends
                raw = self.rfile.readline(limit + 1)
                if not raw:
                    break  # EOF
                if len(raw) > limit and not raw.endswith(b"\n"):
                    self._discard_to_newline()
                    handler.reject_oversized()
                    continue
                line = raw.decode("utf-8", errors="replace")
                if not handler.handle_line(line):
                    return
        except (ConnectionResetError, BrokenPipeError, OSError, ValueError):
            # the socket died mid-read; treat like EOF — in-flight
            # solves still resolve below (their writes no-op harmlessly)
            pass
        handler.drain()

    def _discard_to_newline(self) -> None:
        """Skip the rest of an oversized line in fixed-size chunks —
        O(chunk) memory however long the line is."""
        while True:
            chunk = self.rfile.readline(65536)
            if not chunk or chunk.endswith(b"\n"):
                return


class _Server(socketserver.ThreadingTCPServer):
    allow_reuse_address = True
    daemon_threads = True

    def __init__(self, address: tuple[str, int], service: SolverService) -> None:
        super().__init__(address, _Handler)
        self.service = service

    def request_shutdown(self) -> None:
        """Stop the accept loop; safe to call from a handler thread
        (``shutdown`` blocks the calling thread until the loop exits,
        so hand it to a helper thread)."""
        threading.Thread(target=self.shutdown, daemon=True).start()


def make_tcp_server(
    service: SolverService,
    host: str = "127.0.0.1",
    port: int = 0,
) -> _Server:
    """Build (but do not run) the TCP server — ``port=0`` binds an
    ephemeral port, readable from ``server.server_address`` before
    calling ``serve_forever()``.  Tests and embedders run the returned
    server on their own thread."""
    return _Server((host, port), service)

