"""The serve tier's failure contracts (``docs/robustness.md``), end to end.

Each test causes its failure itself, with no hook in the code under
test, and checks the documented recovery:

* serve answers expired deadlines with a structured ``timeout`` error
  (never hangs), sheds over-queue load with ``retry_after_ms``, drains
  gracefully, and survives a client that closes its connection before
  its response is written;
* an oversized request line is answered with a structured
  ``oversized`` error and the conversation stays up;
* a torn disk-cache entry is quarantined (``.corrupt``), counted, and
  served as a plain miss.
"""

from __future__ import annotations

import json
import socket
import threading
import time

import numpy as np
import pytest

from repro.graph.generators import grid_graph
from repro.graph.weights import assign_uniform_weights
from repro.serve import (
    MAX_LINE_BYTES,
    ProtocolHandler,
    QueueFull,
    RequestTimeout,
    ServiceDraining,
    SolveCache,
    SolverService,
    make_tcp_server,
)
from repro.serve.cache import CacheStats


# --------------------------------------------------------------------- #
# serve: deadlines, shedding, drain, dropped clients
# --------------------------------------------------------------------- #
class _BlockingCache:
    """Duck-typed cache whose lookups block on a gate until released —
    pins the batching worker mid-batch so admission-control and
    mid-batch-deadline tests are deterministic, not timing-dependent."""

    def __init__(self):
        self.gate = threading.Event()
        self.stats = CacheStats()

    def peek_solution(self, key):
        self.gate.wait(30)
        return None

    def get_solution(self, key):
        return None

    def put_solution(self, key, result):
        pass

    def get_diagram(self, key):
        return None

    def put_diagram(self, key, diagram):
        pass


@pytest.fixture
def graph():
    return assign_uniform_weights(grid_graph(10, 10), (1, 9), seed=13)


def make_service(graph, **kwargs):
    kwargs.setdefault("batch_window_s", 0.01)
    svc = SolverService(**kwargs)
    svc.add_graph("g", graph)
    return svc


def tcp_fixture(svc):
    server = make_tcp_server(svc)
    port = server.server_address[1]
    thread = threading.Thread(
        target=server.serve_forever, kwargs={"poll_interval": 0.05}, daemon=True
    )
    thread.start()
    return server, port


def tcp_chat(port, lines, n_responses, timeout=30):
    """Send ``lines``, read ``n_responses`` JSON replies (bounded wait)."""
    with socket.create_connection(("127.0.0.1", port), timeout=timeout) as s:
        f = s.makefile("rw", encoding="utf-8", newline="\n")
        for line in lines:
            f.write(line + "\n")
        f.flush()
        return [json.loads(f.readline()) for _ in range(n_responses)]


class TestDeadlines:
    def test_in_queue_expiry_structured_timeout(self, graph):
        svc = make_service(graph, batch_window_s=0.3)
        pending = svc.submit(
            {"id": "d", "graph": "g", "seeds": [0, 9, 90], "deadline_ms": 1}
        )
        with pytest.raises(RequestTimeout, match="deadline"):
            pending.wait(30)
        svc.close()
        assert svc.counters.timeouts == 1
        assert svc.counters.responses == 0

    def test_mid_batch_expiry_converts_late_result(self, graph):
        """The budget runs out while the batch executes: the late result
        is still answered as a structured timeout."""
        cache = _BlockingCache()
        svc = make_service(graph, cache=cache, batch_window_s=0)
        pending = svc.submit(
            {"id": "m", "graph": "g", "seeds": [0, 9, 90], "deadline_ms": 30}
        )
        time.sleep(0.1)  # let the deadline lapse while the worker is pinned
        cache.gate.set()
        with pytest.raises(RequestTimeout):
            pending.wait(30)
        svc.close()
        assert svc.counters.timeouts == 1

    def test_deadline_expiry_over_tcp_never_hangs(self, graph):
        svc = make_service(graph, batch_window_s=0.3)
        server, port = tcp_fixture(svc)
        try:
            (reply,) = tcp_chat(
                port,
                [
                    json.dumps(
                        {
                            "id": "t",
                            "graph": "g",
                            "seeds": [0, 9, 90],
                            "deadline_ms": 1,
                        }
                    )
                ],
                1,
            )
        finally:
            server.shutdown()
            server.server_close()
            svc.close()
        assert reply["ok"] is False
        assert reply["error"]["code"] == "timeout"
        assert reply["error"]["type"] == "RequestTimeout"

    def test_no_deadline_is_unbounded(self, graph):
        svc = make_service(graph, batch_window_s=0)
        res = svc.solve("g", [0, 9, 90])
        svc.close()
        assert res.n_edges >= 2
        assert svc.counters.timeouts == 0


class TestShedding:
    def _pin_worker(self, svc):
        """Admit one request and wait until the batching worker holds it
        (queue empty, worker blocked in the cache gate)."""
        first = svc.submit({"id": "p0", "graph": "g", "seeds": [0, 9, 90]})
        deadline = time.monotonic() + 10
        while svc.stats()["queue_depth"] > 0:
            assert time.monotonic() < deadline, "worker never picked up p0"
            time.sleep(0.005)
        return first

    def test_queue_bound_sheds_with_retry_hint(self, graph):
        cache = _BlockingCache()
        svc = make_service(
            graph, cache=cache, batch_window_s=0.05, max_batch=1, max_queue_depth=2
        )
        first = self._pin_worker(svc)
        queued = [
            svc.submit({"id": f"q{i}", "graph": "g", "seeds": [0, 9, 90 + i]})
            for i in range(2)
        ]
        with pytest.raises(QueueFull, match="full") as excinfo:
            svc.submit({"id": "shed", "graph": "g", "seeds": [0, 9, 95]})
        assert excinfo.value.retry_after_ms >= 1
        assert svc.counters.shed == 1
        cache.gate.set()
        assert first.wait(30).n_edges >= 2
        for p in queued:
            p.wait(30)
        svc.close()

    def test_shed_over_tcp_structured_error(self, graph):
        cache = _BlockingCache()
        svc = make_service(
            graph, cache=cache, batch_window_s=0.05, max_batch=1, max_queue_depth=2
        )
        server, port = tcp_fixture(svc)
        try:
            first = self._pin_worker(svc)
            with socket.create_connection(("127.0.0.1", port), timeout=30) as s:
                f = s.makefile("rw", encoding="utf-8", newline="\n")
                for i in range(3):
                    f.write(
                        json.dumps(
                            {"id": f"c{i}", "graph": "g", "seeds": [0, 9, 90 + i]}
                        )
                        + "\n"
                    )
                f.flush()
                # the shed error is written synchronously, before the
                # pinned worker answers anything else
                shed = json.loads(f.readline())
                assert shed["ok"] is False
                assert shed["error"]["code"] == "shed"
                assert shed["error"]["retry_after_ms"] >= 1
                cache.gate.set()
                served = [json.loads(f.readline()) for _ in range(2)]
                assert all(r["ok"] for r in served)
            first.wait(30)
        finally:
            server.shutdown()
            server.server_close()
            svc.close()

    def test_unbounded_by_default(self, graph):
        svc = make_service(graph)
        assert svc.max_queue_depth is None
        pendings = [
            svc.submit({"id": f"u{i}", "graph": "g", "seeds": [0, 9, 90]})
            for i in range(32)
        ]
        for p in pendings:
            p.wait(60)
        svc.close()
        assert svc.counters.shed == 0


class TestDrainAndHealth:
    def test_drain_stops_admission_in_process(self, graph):
        svc = make_service(graph, batch_window_s=0)
        svc.solve("g", [0, 9, 90])
        assert svc.health()["status"] == "ok"
        assert svc.drain(timeout=30) is True
        assert svc.draining
        assert svc.health()["status"] == "draining"
        with pytest.raises(ServiceDraining, match="draining"):
            svc.submit({"id": "late", "graph": "g", "seeds": [0, 9]})
        svc.close()
        assert svc.health()["status"] == "closed"

    def test_drain_then_shutdown_over_tcp(self, graph):
        svc = make_service(graph, batch_window_s=0.01)
        server, port = tcp_fixture(svc)
        solve = json.dumps({"id": "s", "graph": "g", "seeds": [0, 9, 90]})
        replies = tcp_chat(
            port,
            [
                solve,
                json.dumps({"id": "h1", "op": "health"}),
                json.dumps({"id": "d", "op": "drain"}),
                solve.replace('"s"', '"late"'),
                json.dumps({"id": "h2", "op": "health"}),
                json.dumps({"id": "bye", "op": "shutdown"}),
            ],
            6,
        )
        server.server_close()
        svc.close()
        by_id = {r["id"]: r for r in replies}
        assert by_id["s"]["ok"] is True
        assert by_id["h1"]["health"]["status"] == "ok"
        assert by_id["d"]["drained"] is True
        assert by_id["late"]["ok"] is False
        assert by_id["late"]["error"]["code"] == "draining"
        assert by_id["h2"]["health"]["status"] == "draining"
        assert by_id["bye"]["shutting_down"] is True

    def test_drain_timeout_reports_inflight_work(self, graph):
        cache = _BlockingCache()
        svc = make_service(graph, cache=cache, batch_window_s=0)
        pending = svc.submit({"id": "w", "graph": "g", "seeds": [0, 9, 90]})
        assert svc.drain(timeout=0.05) is False  # worker still pinned
        cache.gate.set()
        pending.wait(30)
        assert svc.drain(timeout=30) is True
        svc.close()


class TestDroppedConnections:
    def test_client_drop_mid_response_leaves_service_alive(self, graph):
        svc = make_service(graph)
        server, port = tcp_fixture(svc)
        try:
            # the client dies before its response: it sends a solve and
            # closes, so the answer is written into a dead connection
            with socket.create_connection(("127.0.0.1", port), timeout=30) as s:
                s.sendall(
                    json.dumps({"id": "x", "graph": "g", "seeds": [0, 9, 90]}).encode()
                    + b"\n"
                )
            deadline = time.monotonic() + 30
            while svc.counters.responses < 1:
                assert time.monotonic() < deadline, "the dropped request was never solved"
                time.sleep(0.005)
            # the service and its batching worker survived: a fresh
            # client is served normally
            (pong,) = tcp_chat(port, [json.dumps({"id": "p", "op": "ping"})], 1)
            assert pong["pong"] is True
            (served,) = tcp_chat(
                port,
                [json.dumps({"id": "y", "graph": "g", "seeds": [0, 9, 90]})],
                1,
            )
            assert served["ok"] is True
        finally:
            server.shutdown()
            server.server_close()
            svc.close()
        # the dropped request WAS solved; only its reader was gone
        assert svc.counters.responses == 2


def padded_ping(rid, n_bytes):
    """A ``ping`` request exactly ``n_bytes`` long (newline excluded),
    padded with JSON whitespace inside the object."""
    head = json.dumps({"id": rid})[:-1] + ","
    tail = '"op": "ping"}'
    return head + " " * (n_bytes - len(head) - len(tail)) + tail


class TestBoundedReads:
    def test_oversized_string_line_answered_conversation_stays_up(self, graph):
        svc = make_service(graph)
        out: list[str] = []
        handler = ProtocolHandler(svc, out.append)
        assert handler.handle_line(padded_ping("big", MAX_LINE_BYTES + 1))
        assert handler.handle_line(json.dumps({"id": "p", "op": "ping"}))
        svc.close()
        oversized, pong = map(json.loads, out)
        assert oversized["ok"] is False
        assert oversized["id"] is None
        assert oversized["error"]["code"] == "oversized"
        assert pong["id"] == "p" and pong["pong"] is True

    @pytest.mark.parametrize(
        "n_bytes,answered",
        [
            pytest.param(MAX_LINE_BYTES - 1, True, id="bound-minus-one"),
            pytest.param(MAX_LINE_BYTES, False, id="bound"),
            pytest.param(3 * MAX_LINE_BYTES, False, id="three-bounds"),
        ],
    )
    def test_tcp_line_bound_counts_the_newline(self, graph, n_bytes, answered):
        """The bound counts the newline, so a line of ``MAX_LINE_BYTES``
        content bytes is the first refused; a longer one is discarded
        without being buffered.  Either way the next request on the same
        connection is answered."""
        svc = make_service(graph)
        server, port = tcp_fixture(svc)
        try:
            first, pong = tcp_chat(
                port,
                [padded_ping("big", n_bytes), json.dumps({"id": "p", "op": "ping"})],
                2,
            )
        finally:
            server.shutdown()
            server.server_close()
            svc.close()
        if answered:
            assert first["id"] == "big" and first["pong"] is True
        else:
            assert first["ok"] is False
            assert first["id"] is None
            assert first["error"]["code"] == "oversized"
        assert pong["id"] == "p" and pong["pong"] is True


# --------------------------------------------------------------------- #
# cache corruption: quarantine and recovery
# --------------------------------------------------------------------- #
class TestCorruptCacheRecovery:
    def test_corrupt_entry_quarantined_and_recomputed(self, graph, tmp_path):
        seeds = [0, 9, 90]
        first = SolverService(cache=SolveCache(disk_dir=tmp_path), batch_window_s=0)
        first.add_graph("g", graph)
        r1 = first.solve("g", seeds)
        first.close()
        # a torn write: the entry cut off mid-pickle, as a crash between
        # write and rename would leave it on a non-atomic filesystem
        (entry,) = tmp_path.glob("*.pkl")
        data = entry.read_bytes()
        entry.write_bytes(data[: len(data) // 2])

        # a restarted server must survive the corrupt entry: quarantine,
        # count, recompute — and still answer correctly
        fresh = SolveCache(disk_dir=tmp_path)
        second = SolverService(cache=fresh, batch_window_s=0)
        second.add_graph("g", graph)
        r2 = second.solve("g", seeds)
        second.close()
        assert r2.provenance["cache_hit"] is False
        assert fresh.stats.corrupt >= 1
        quarantined = list(tmp_path.glob("*.corrupt"))
        assert len(quarantined) == 1
        assert np.array_equal(r1.edges, r2.edges)
        assert r1.total_distance == r2.total_distance

        # the recompute rewrote a healthy entry: a third restart hits it
        third = SolverService(cache=SolveCache(disk_dir=tmp_path), batch_window_s=0)
        third.add_graph("g", graph)
        r3 = third.solve("g", seeds)
        third.close()
        assert r3.provenance["cache_hit"] is True
        assert np.array_equal(r2.edges, r3.edges)

    def test_direct_quarantine_of_garbage_file(self, tmp_path):
        cache = SolveCache(disk_dir=tmp_path)
        key = ("h", frozenset({1, 2}), "fp")
        path = cache._disk_path(key)
        path.write_bytes(b"\x80\x04 definitely not a pickle")
        assert cache.get_solution(key) is None
        assert cache.stats.corrupt == 1
        assert not path.exists()
        assert path.with_suffix(".pkl.corrupt").exists()
        # quarantined files are never re-read: next lookup is a plain miss
        assert cache.get_solution(key) is None
        assert cache.stats.corrupt == 1
