"""The solver service: fused-sweep batching, caching, protocol, and the
stdio/TCP transports.

The acceptance anchors:

* two requests sharing a graph are provably coalesced (service
  ``coalesced`` counter > 0 and per-result provenance) with trees
  **bit-identical** to independent solves;
* a repeated request hits the cache (``provenance["cache_hit"]``) and
  skips the sweep entirely.
"""

from __future__ import annotations

import gc
import io
import json
import queue
import socket
import sys
import threading
import time
import weakref

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.api import solve
from repro.core.config import SolverConfig
from repro.core.solver import DistributedSteinerSolver
from repro.graph.generators import grid_graph
from repro.graph.weights import assign_uniform_weights
from repro.runtime.engines import ENGINES
from repro.serve import (
    ProtocolHandler,
    ServiceClosed,
    SolveCache,
    SolverService,
    fused_multisource,
    make_tcp_server,
    serve_stdio,
    stack_graphs,
)
from repro.serve.service import _Pending
from repro.shortest_paths.backends import BACKENDS, compute_multisource

from tests.conftest import component_seeds, make_connected_graph, near_bound_graph

SLOW = settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


@pytest.fixture
def graph():
    return assign_uniform_weights(grid_graph(12, 12), (1, 9), seed=13)


def make_service(graph, **kwargs):
    kwargs.setdefault("batch_window_s", 0.05)
    svc = SolverService(**kwargs)
    svc.add_graph("g", graph)
    return svc


# --------------------------------------------------------------------- #
# graph stacking / fused sweeps
# --------------------------------------------------------------------- #
class TestStackGraphs:
    def test_disjoint_union_shape(self, graph):
        stacked = stack_graphs(graph, 3)
        assert stacked.n_vertices == 3 * graph.n_vertices
        assert stacked.n_arcs == 3 * graph.n_arcs
        # copy r's adjacency is copy 0's shifted by r*n
        n = graph.n_vertices
        for r in (1, 2):
            lo = r * n
            left = stacked.neighbors(lo + 5) - lo
            assert np.array_equal(left, graph.neighbors(5))

    def test_single_copy_is_identity(self, graph):
        assert stack_graphs(graph, 1) is graph

    def test_rejects_zero_copies(self, graph):
        with pytest.raises(ValueError):
            stack_graphs(graph, 0)

    def test_stacks_a_graph_near_the_int64_bound(self):
        # the copies' weight sums add past int64, but no distance crosses
        # copies: the fused sweep answers each request like a solo sweep
        g = near_bound_graph()
        seed_sets = [component_seeds(g, 3, seed=s) for s in range(4)]
        assert stack_graphs(g, 4).distance_bound() == g.distance_bound()
        fused = fused_multisource(g, seed_sets, backend="delta-numpy")
        for seeds, diagram in zip(seed_sets, fused):
            solo = compute_multisource(g, seeds, backend="dijkstra")
            assert np.array_equal(diagram.src, solo.src)
            assert np.array_equal(diagram.dist, solo.dist)
            assert np.array_equal(diagram.pred, solo.pred)


class TestFusedSweep:
    @pytest.mark.parametrize("backend", sorted(BACKENDS))
    def test_bit_identical_to_solo_all_backends(self, backend):
        g = make_connected_graph(40, 110, seed=7)
        seed_sets = [
            component_seeds(g, 4, seed=1),
            component_seeds(g, 3, seed=2),
            component_seeds(g, 5, seed=3),
        ]
        fused = fused_multisource(g, seed_sets, backend=backend)
        assert len(fused) == 3
        for seeds, diagram in zip(seed_sets, fused):
            solo = compute_multisource(g, seeds, backend=backend)
            assert np.array_equal(diagram.src, solo.src)
            assert np.array_equal(diagram.dist, solo.dist)
            assert np.array_equal(diagram.pred, solo.pred)

    @given(data=st.data())
    @SLOW
    def test_bit_identical_property(self, data):
        """Random request mixes stay bit-identical under fusion."""
        g = make_connected_graph(30, 80, seed=11)
        n_req = data.draw(st.integers(min_value=2, max_value=5))
        seed_sets = [
            component_seeds(
                g, data.draw(st.integers(min_value=2, max_value=6)),
                seed=data.draw(st.integers(min_value=0, max_value=50)),
            )
            for _ in range(n_req)
        ]
        fused = fused_multisource(g, seed_sets, backend="delta-numpy")
        for seeds, diagram in zip(seed_sets, fused):
            solo = compute_multisource(g, seeds, backend="delta-numpy")
            assert np.array_equal(diagram.src, solo.src)
            assert np.array_equal(diagram.dist, solo.dist)
            assert np.array_equal(diagram.pred, solo.pred)

    def test_rejects_empty(self, graph):
        with pytest.raises(ValueError):
            fused_multisource(graph, [])


class TestDiagramInjection:
    def test_injected_diagram_tree_identical(self, graph):
        """solver.solve(diagram=...) skips phase 1 and yields the
        identical tree — the mechanism behind serve's batching."""
        seeds = [0, 23, 77, 140]
        config = SolverConfig(voronoi_backend="delta-numpy", n_ranks=4)
        vd = compute_multisource(graph, seeds, backend="delta-numpy")
        solver = DistributedSteinerSolver(graph, config)
        injected = solver.solve(seeds, diagram=vd)
        independent = solver.solve(seeds)
        assert np.array_equal(injected.edges, independent.edges)
        assert injected.total_distance == independent.total_distance
        assert injected.provenance["sweep"] == "injected"

    def test_mismatched_seed_set_rejected(self, graph):
        vd = compute_multisource(graph, [0, 5], backend="delta-numpy")
        solver = DistributedSteinerSolver(
            graph, SolverConfig(voronoi_backend="delta-numpy")
        )
        with pytest.raises(ValueError, match="different seed set"):
            solver.solve([0, 7], diagram=vd)


# --------------------------------------------------------------------- #
# cache
# --------------------------------------------------------------------- #
class TestSolveCache:
    def test_lru_eviction(self):
        cache = SolveCache(max_solutions=2)
        cache.put_solution("a", 1)
        cache.put_solution("b", 2)
        assert cache.get_solution("a") == 1  # refresh a
        cache.put_solution("c", 3)  # evicts b
        assert cache.get_solution("b") is None
        assert cache.get_solution("a") == 1
        assert cache.stats.evictions == 1
        assert cache.stats.solution_misses == 1

    def test_peek_does_not_count(self):
        cache = SolveCache()
        assert cache.peek_solution("x") is None
        cache.put_solution("x", 42)
        assert cache.peek_solution("x") == 42
        assert cache.stats.solution_hits == 0
        assert cache.stats.solution_misses == 0

    def test_diagram_side(self):
        cache = SolveCache(max_diagrams=1)
        cache.put_diagram("d1", "D1")
        assert cache.get_diagram("d1") == "D1"
        cache.put_diagram("d2", "D2")
        assert cache.get_diagram("d1") is None
        assert cache.stats.diagram_hits == 1
        assert cache.stats.diagram_misses == 1

    def test_disk_tier_survives_restart(self, graph, tmp_path):
        seeds = [0, 23, 77]
        first = SolverService(cache=SolveCache(disk_dir=tmp_path), batch_window_s=0)
        first.add_graph("g", graph)
        r1 = first.solve("g", seeds)
        first.close()

        fresh = SolveCache(disk_dir=tmp_path)
        second = SolverService(cache=fresh, batch_window_s=0)
        second.add_graph("g", graph)
        r2 = second.solve("g", seeds)
        second.close()
        assert r1.provenance["cache_hit"] is False
        assert r2.provenance["cache_hit"] is True
        assert fresh.stats.disk_hits == 1
        assert np.array_equal(r1.edges, r2.edges)

    def test_clear(self):
        cache = SolveCache()
        cache.put_solution("a", 1)
        cache.clear()
        assert len(cache) == 0
        assert cache.stats.solution_hits == 0


# --------------------------------------------------------------------- #
# service semantics
# --------------------------------------------------------------------- #
class TestServiceBatching:
    def test_coalesced_requests_bit_identical(self, graph):
        """The acceptance anchor: concurrent compatible requests fuse
        (coalesce counter > 0) and every tree is bit-identical to an
        independent solve."""
        svc = make_service(graph)
        seed_sets = [[0, 23, 77, 140], [5, 60, 130], [9, 44, 100, 12]]
        pendings = [
            svc.submit({"id": f"r{i}", "graph": "g", "seeds": s})
            for i, s in enumerate(seed_sets)
        ]
        results = [p.wait(60) for p in pendings]
        svc.close()

        assert svc.counters.fused_sweeps >= 1
        assert svc.counters.coalesced > 0
        for seeds, res in zip(seed_sets, results):
            solo = solve(graph, seeds, voronoi_backend="delta-numpy")
            assert np.array_equal(res.edges, solo.edges)
            assert res.total_distance == solo.total_distance
            assert res.provenance["coalesced"] > 0
            assert res.provenance["fused_sweep"] is True
            assert res.provenance["batch_size"] == len(seed_sets)

    def test_duplicate_requests_share_one_solve(self, graph):
        svc = make_service(graph)
        seeds = [0, 23, 77]
        pendings = [
            svc.submit({"id": f"d{i}", "graph": "g", "seeds": seeds})
            for i in range(3)
        ]
        results = [p.wait(60) for p in pendings]
        svc.close()
        assert svc.counters.coalesced >= 2
        ids = {r.provenance["request_id"] for r in results}
        assert ids == {"d0", "d1", "d2"}  # per-request provenance
        for r in results[1:]:
            assert np.array_equal(r.edges, results[0].edges)

    def test_cache_hit_skips_sweep(self, graph):
        svc = make_service(graph, batch_window_s=0)
        seeds = [0, 23, 77, 140]
        first = svc.solve("g", seeds)
        second = svc.solve("g", seeds)
        svc.close()
        assert first.provenance["cache_hit"] is False
        assert second.provenance["cache_hit"] is True
        assert svc.counters.cache_hits == 1
        assert np.array_equal(first.edges, second.edges)

    def test_config_override_separates_groups(self, graph):
        """Requests with different fingerprints are not fused, but both
        still answer correctly."""
        svc = make_service(graph)
        p1 = svc.submit(
            {"id": "a", "graph": "g", "seeds": [0, 23, 77]}
        )
        p2 = svc.submit(
            {
                "id": "b",
                "graph": "g",
                "seeds": [5, 60, 130],
                "config": {"n_ranks": 4},
            }
        )
        r1, r2 = p1.wait(60), p2.wait(60)
        svc.close()
        assert r1.provenance["fused_sweep"] is False
        assert r2.provenance["fused_sweep"] is False
        assert r1.total_distance == solve(
            graph, [0, 23, 77], voronoi_backend="delta-numpy"
        ).total_distance

    def test_simulate_config_not_fused(self, graph):
        """voronoi_backend=None groups fall back to per-request solves
        (the message-driven path has no fusable sweep)."""
        svc = SolverService(
            config=SolverConfig(n_ranks=4), batch_window_s=0.05
        )
        svc.add_graph("g", graph)
        pendings = [
            svc.submit({"id": f"s{i}", "graph": "g", "seeds": s})
            for i, s in enumerate([[0, 23, 77], [5, 60, 130]])
        ]
        results = [p.wait(60) for p in pendings]
        svc.close()
        assert svc.counters.fused_sweeps == 0
        for res, seeds in zip(results, [[0, 23, 77], [5, 60, 130]]):
            solo = solve(graph, seeds, n_ranks=4)
            assert np.array_equal(res.edges, solo.edges)

    def test_solve_errors_reported_per_request(self):
        disconnected = grid_graph(2, 2)  # vertices 0-3
        svc = SolverService(batch_window_s=0)
        # two disjoint components: stack two grids without bridging
        from repro.serve.batch import stack_graphs as _stack

        svc.add_graph("g", _stack(disconnected, 2))
        with pytest.raises(Exception) as excinfo:
            svc.solve("g", [0, 5])  # seeds in different components
        svc.close()
        assert "unreachable" in str(excinfo.value)

    def test_unknown_graph_rejected_at_submit(self, graph):
        svc = make_service(graph)
        with pytest.raises(KeyError):
            svc.submit({"id": "x", "graph": "nope", "seeds": [1, 2]})
        svc.close()

    def test_closed_service_rejects_submits(self, graph):
        svc = make_service(graph)
        svc.close()
        with pytest.raises(ServiceClosed):
            svc.submit({"id": "x", "graph": "g", "seeds": [0, 1]})

    def test_stats_shape(self, graph):
        svc = make_service(graph, batch_window_s=0)
        svc.solve("g", [0, 23, 77])
        stats = svc.stats()
        svc.close()
        assert stats["graphs"] == ["g"]
        assert stats["counters"]["requests"] == 1
        assert "cache" in stats
        assert stats["default_config_fingerprint"]


# --------------------------------------------------------------------- #
# protocol + transports
# --------------------------------------------------------------------- #
class _Answer(Exception):
    """A stub service's answer: a Python-level exception subclass, so
    a test can hold a weak reference to it."""


def _answer(slot):
    slot.resolve(error=_Answer(f"answered {slot.request.id}"))


def _solve_line(rid):
    return json.dumps({"id": rid, "graph": "g", "seeds": [0, 1]})


class _QueuedService:
    """Stub service: ``submit`` queues each slot for the test to answer."""

    def __init__(self):
        self.slots: queue.Queue = queue.Queue()

    def submit(self, request, on_done=None):
        slot = _Pending(request, SolverConfig(), request.graph, on_done)
        self.slots.put(slot)
        return slot


class TestProtocol:
    def run_lines(self, svc, lines):
        out = io.StringIO()
        n = serve_stdio(svc, io.StringIO("\n".join(lines) + "\n"), out)
        return n, [json.loads(x) for x in out.getvalue().splitlines()]

    def test_stdio_end_to_end(self, graph):
        svc = make_service(graph, batch_window_s=0.01)
        _, responses = self.run_lines(
            svc,
            [
                json.dumps({"id": "p", "op": "ping"}),
                json.dumps({"id": "1", "graph": "g", "seeds": [0, 23, 77]}),
                json.dumps({"id": "s", "op": "stats"}),
                json.dumps({"id": "q", "op": "shutdown"}),
            ],
        )
        svc.close()
        by_id = {r["id"]: r for r in responses}
        assert by_id["p"]["pong"] is True
        assert by_id["1"]["ok"] is True
        solo = solve(graph, [0, 23, 77], voronoi_backend="delta-numpy")
        assert by_id["1"]["result"]["total_distance"] == solo.total_distance
        assert by_id["s"]["stats"]["counters"]["requests"] >= 1
        assert by_id["q"]["shutting_down"] is True

    def test_malformed_lines_keep_connection_up(self, graph):
        svc = make_service(graph, batch_window_s=0.01)
        _, responses = self.run_lines(
            svc,
            [
                "{not json",
                json.dumps({"op": "solve"}),  # missing id
                json.dumps({"id": "bad-op", "op": "teleport"}),
                "",
                json.dumps({"id": "ok", "graph": "g", "seeds": [0, 23]}),
            ],
        )
        svc.close()
        errors = [r for r in responses if not r["ok"]]
        assert len(errors) == 3
        ok = [r for r in responses if r["ok"]]
        assert len(ok) == 1 and ok[0]["id"] == "ok"

    def test_pre_schema_request_rejected(self, graph):
        svc = make_service(graph, batch_window_s=0.01)
        _, responses = self.run_lines(
            svc,
            [
                json.dumps(
                    {"request_id": "old", "dataset": "g", "terminals": [0, 23, 77]}
                ),
                json.dumps({"id": "new", "graph": "g", "seeds": [0, 23, 77]}),
            ],
        )
        svc.close()
        old, new = sorted(responses, key=lambda r: r["id"] is not None)
        assert old["ok"] is False and old["error"]["type"] == "SchemaError"
        assert "terminals" in old["error"]["message"]
        assert new["id"] == "new" and new["ok"] is True

    @pytest.mark.parametrize(
        "config,error,names",
        [
            pytest.param({"machine": {}}, "TypeError", ["machine"], id="machine"),
            pytest.param({"partition": "block"}, "TypeError", ["partition"], id="partition"),
            pytest.param({"max_events": 1000}, "TypeError", ["max_events"], id="max_events"),
            pytest.param({"fault_plan": "boom"}, "TypeError", None, id="fault_plan"),
            pytest.param(
                {"aggregate_remote_messages": "false"}, "TypeError", None,
                id="aggregate_remote_messages",
            ),
            pytest.param({"collect_diagram": "no"}, "TypeError", None, id="collect_diagram"),
            pytest.param({"engine": "mpi"}, "ValueError", ENGINES, id="engine"),
            pytest.param(
                {"voronoi_backend": "cuda"}, "ValueError", BACKENDS, id="voronoi_backend"
            ),
        ],
    )
    def test_bad_machine_config_answered_worker_survives(
        self, graph, config, error, names
    ):
        """A config override ``SolverConfig`` rejects — an unknown field,
        such as the deleted ``machine``, ``partition``, ``max_events``
        and ``fault_plan``, a string where a bool belongs, an unknown
        engine or backend name — is refused by ``submit`` in the
        caller's thread, so its answer is written before the handler
        returns; the batching worker never sees it, and a valid request
        batched right after it is still answered.  An unknown field is
        named in the answer, and an unknown engine or backend name is
        answered with every name the table offers."""
        svc = make_service(graph, batch_window_s=0.05)
        out: list[str] = []
        handler = ProtocolHandler(svc, out.append)
        bad = {"id": "bad", "graph": "g", "seeds": [0, 23], "config": config}
        handler.handle_line(json.dumps(bad))
        assert [json.loads(line)["id"] for line in out] == ["bad"]
        handler.handle_line(json.dumps({"id": "ok", "graph": "g", "seeds": [0, 23, 77]}))
        handler.drain(timeout=3)
        drained = svc.drain(timeout=2)
        svc.close()
        by_id = {r["id"]: r for r in map(json.loads, out)}
        assert by_id["bad"]["ok"] is False
        assert by_id["bad"]["error"]["type"] == error
        for name in names or ():
            assert repr(name) in by_id["bad"]["error"]["message"]
        assert by_id["ok"]["ok"] is True
        assert drained is True

    def test_handler_keeps_no_answered_slot(self):
        """A solve the worker answers before ``submit`` returns leaves
        nothing behind in the handler: its slot and result are freed."""
        answers = []

        class EagerService:
            def submit(self, request, on_done=None):
                slot = _Pending(request, SolverConfig(), request.graph, on_done)
                answer = _Answer(f"answered {request.id}")
                answers.append(weakref.ref(answer))
                slot.resolve(error=answer)
                return slot

        out: list[str] = []
        handler = ProtocolHandler(EagerService(), out.append)
        for i in range(3):
            handler.handle_line(_solve_line(f"s{i}"))
        handler.drain(timeout=3)
        gc.collect()
        assert [json.loads(line)["id"] for line in out] == ["s0", "s1", "s2"]
        assert all(ref() is None for ref in answers), "handler still holds resolved slots"

    def test_drain_waits_for_late_answers(self):
        """``drain`` returns only once every solve of the conversation
        has been written, however late the worker answers."""
        service = _QueuedService()
        out: list[str] = []
        handler = ProtocolHandler(service, out.append)
        for rid in ("a", "b"):
            handler.handle_line(_solve_line(rid))

        def answer_late():
            time.sleep(0.05)
            while not service.slots.empty():
                _answer(service.slots.get())

        worker = threading.Thread(target=answer_late)
        worker.start()
        handler.drain(timeout=30)
        written = sorted(json.loads(line)["id"] for line in out)
        worker.join(timeout=30)
        assert not worker.is_alive()
        assert written == ["a", "b"]

    def test_inflight_count_holds_under_concurrent_answers(self):
        """Four threads answer 400 solves while the reader submits more,
        with a short switch interval: after ``drain`` every response is
        written and the count is back at zero, which a lost update to
        the count would break."""
        n = 400
        service = _QueuedService()
        out: list[str] = []
        handler = ProtocolHandler(service, out.append)

        def answer_all():
            while (slot := service.slots.get()) is not None:
                _answer(slot)

        workers = [threading.Thread(target=answer_all) for _ in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for worker in workers:
                worker.start()
            for i in range(n):
                handler.handle_line(_solve_line(f"s{i}"))
            handler.drain(timeout=30)
            n_written = len(out)
        finally:
            for _ in workers:
                service.slots.put(None)
            for worker in workers:
                worker.join(timeout=30)
            sys.setswitchinterval(interval)
        assert not any(worker.is_alive() for worker in workers)
        assert n_written == n
        assert handler._inflight == 0

    def test_handler_graphs_op(self, graph):
        svc = make_service(graph)
        out: list[str] = []
        handler = ProtocolHandler(svc, out.append)
        assert handler.handle_line(json.dumps({"id": "g1", "op": "graphs"}))
        svc.close()
        assert json.loads(out[0])["graphs"] == ["g"]


class TestTCP:
    def test_concurrent_clients_coalesce(self, graph):
        svc = make_service(graph, batch_window_s=0.05)
        server = make_tcp_server(svc)
        port = server.server_address[1]
        thread = threading.Thread(
            target=server.serve_forever, kwargs={"poll_interval": 0.05},
            daemon=True,
        )
        thread.start()
        seed_sets = [[0, 23, 77, 140], [5, 60, 130], [9, 44, 100]]
        responses: dict[int, dict] = {}

        def client(i, seeds):
            with socket.create_connection(("127.0.0.1", port), timeout=60) as s:
                f = s.makefile("rw", encoding="utf-8", newline="\n")
                f.write(
                    json.dumps({"id": f"c{i}", "graph": "g", "seeds": seeds})
                    + "\n"
                )
                f.flush()
                responses[i] = json.loads(f.readline())

        threads = [
            threading.Thread(target=client, args=(i, s))
            for i, s in enumerate(seed_sets)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        server.shutdown()
        server.server_close()
        svc.close()

        assert len(responses) == 3
        for i, seeds in enumerate(seed_sets):
            solo = solve(graph, seeds, voronoi_backend="delta-numpy")
            assert responses[i]["ok"], responses[i]
            assert responses[i]["result"]["total_distance"] == solo.total_distance
        # at least one fused batch happened across the three sockets
        assert svc.counters.coalesced > 0

    def test_shutdown_op_stops_server(self, graph):
        svc = make_service(graph)
        server = make_tcp_server(svc)
        port = server.server_address[1]
        thread = threading.Thread(
            target=server.serve_forever, kwargs={"poll_interval": 0.05},
        )
        thread.start()
        with socket.create_connection(("127.0.0.1", port), timeout=30) as s:
            f = s.makefile("rw", encoding="utf-8", newline="\n")
            f.write(json.dumps({"id": "bye", "op": "shutdown"}) + "\n")
            f.flush()
            assert json.loads(f.readline())["shutting_down"] is True
        thread.join(timeout=30)
        assert not thread.is_alive()
        server.server_close()
        svc.close()


class TestCLIServe:
    def test_serve_subcommand_stdio(self, monkeypatch, capsys):
        """`repro-steiner serve` over substituted stdio streams."""
        import sys as _sys

        from repro.harness.cli import main

        lines = [
            json.dumps({"id": "p", "op": "ping"}),
            json.dumps({"id": "q", "op": "shutdown"}),
        ]
        monkeypatch.setattr(
            _sys, "stdin", io.StringIO("\n".join(lines) + "\n")
        )
        rc = main(["serve", "--batch-window-ms", "1"])
        out = capsys.readouterr().out
        assert rc == 0
        responses = [json.loads(x) for x in out.splitlines() if x]
        assert any(r.get("pong") for r in responses)
        assert any(r.get("shutting_down") for r in responses)
