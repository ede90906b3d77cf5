"""Versioned JSON schema: request parsing, result payloads and
envelopes."""

from __future__ import annotations

import dataclasses
import json

import numpy as np
import pytest

from repro.api import schema
from repro.api.schema import (
    SCHEMA_VERSION,
    SchemaError,
    SolveRequest,
    dumps,
    error_payload,
    parse_request,
    response_payload,
    result_payload,
)
from repro.core.sequential import sequential_steiner_tree

from tests.conftest import component_seeds


class TestParseRequest:
    def test_roundtrip(self):
        req = parse_request(
            {
                "schema_version": 1,
                "id": "r1",
                "op": "solve",
                "graph": "LVJ",
                "seeds": [3, 1, 2],
                "config": {"n_ranks": 8},
            }
        )
        assert req == SolveRequest(
            id="r1", op="solve", graph="LVJ", seeds=(3, 1, 2),
            config={"n_ranks": 8},
        )
        assert parse_request(dataclasses.asdict(req)) == req

    def test_defaults(self):
        req = parse_request({"id": "x", "graph": "g", "seeds": [1, 2]})
        assert req.op == "solve"
        assert req.schema_version == SCHEMA_VERSION
        assert req.config == {}

    @pytest.mark.parametrize(
        "legacy,canonical,value",
        [
            ("request_id", "id", "r9"),
            ("terminals", "seeds", [4, 5]),
            ("dataset", "graph", "MCO"),
            ("options", "config", {"n_ranks": 4}),
        ],
    )
    def test_pre_schema_fields_rejected(self, legacy, canonical, value):
        payload = {"id": "r9", "graph": "MCO", "seeds": [4, 5]}
        payload.pop(canonical, None)
        payload[legacy] = value
        with pytest.raises(SchemaError, match=legacy):
            parse_request(payload)

    def test_both_spellings_rejected(self):
        with pytest.raises(SchemaError, match="request_id"):
            parse_request(
                {"id": "a", "request_id": "b", "graph": "g", "seeds": [1]}
            )

    def test_newer_schema_version_rejected(self):
        with pytest.raises(SchemaError, match="newer"):
            parse_request(
                {
                    "schema_version": SCHEMA_VERSION + 1,
                    "id": "a",
                    "graph": "g",
                    "seeds": [1],
                }
            )

    @pytest.mark.parametrize(
        "payload,match",
        [
            ({"graph": "g", "seeds": [1]}, "id"),
            ({"id": "a", "op": "fly"}, "unknown op"),
            ({"id": "a", "graph": 7, "seeds": [1]}, "graph"),
            ({"id": "a", "graph": "g", "seeds": "abc"}, "seeds"),
            ({"id": "a", "graph": "g", "seeds": [1], "config": 3}, "config"),
            ({"id": "a", "seeds": [1]}, "graph"),
            ({"id": "a", "graph": "g"}, "non-empty"),
            ({"id": "a", "graph": "g", "seeds": [1], "schema_version": 0}, "invalid"),
        ],
    )
    def test_malformed_rejected(self, payload, match):
        with pytest.raises(SchemaError, match=match):
            parse_request(payload)

    def test_control_ops_need_no_graph(self):
        for op in ("ping", "stats", "graphs", "shutdown"):
            req = parse_request({"id": "c", "op": op})
            assert req.op == op


class TestResultPayload:
    def test_payload_fields_and_to_json(self, random_graph):
        seeds = component_seeds(random_graph, 4, seed=1)
        res = sequential_steiner_tree(random_graph, seeds)
        payload = result_payload(res)
        assert payload["schema_version"] == SCHEMA_VERSION
        assert payload["total_distance"] == res.total_distance
        assert payload["n_edges"] == res.n_edges
        assert payload["seeds"] == [int(s) for s in seeds]
        assert payload["provenance"]["backend"] == "delta-numpy"
        # to_json is the same payload through the same module
        assert json.loads(res.to_json()) == json.loads(
            json.dumps(schema.jsonable(payload))
        )


class TestEnvelopes:
    def test_response_payload(self, random_graph):
        seeds = component_seeds(random_graph, 3, seed=2)
        res = sequential_steiner_tree(random_graph, seeds)
        env = response_payload("r1", result=res)
        assert env["ok"] is True and env["id"] == "r1"
        assert env["result"]["total_distance"] == res.total_distance

    def test_error_payload(self):
        env = error_payload("r2", ValueError("boom"))
        assert env["ok"] is False
        assert env["error"] == {"type": "ValueError", "message": "boom"}
        assert error_payload(None, "bad line")["id"] is None

    def test_dumps_single_line_and_numpy_safe(self):
        line = dumps({"id": "x", "arr": np.asarray([1, 2]), "n": np.int64(3)})
        assert "\n" not in line
        assert json.loads(line) == {"id": "x", "arr": [1, 2], "n": 3}

    def test_dumps_bytes_equal_the_jsonable_encoding(self, random_graph):
        """``dumps`` encodes each envelope once; the line is the one the
        earlier encoder, ``json.dumps(jsonable(payload))``, wrote."""
        from repro.serve import QueueFull, SolverService

        svc = SolverService(batch_window_s=0)
        svc.add_graph("g", random_graph)
        try:
            result = svc.solve("g", component_seeds(random_graph, 6, seed=4))
            stats = svc.stats()
        finally:
            svc.close()
        envelopes = [
            response_payload("r1", result=result),
            response_payload("s1", stats=stats),
            error_payload("e1", QueueFull("queue full", retry_after_ms=np.int64(40))),
            {
                "id": "raw",
                "arr": np.arange(3),
                "f": np.float32(0.5),
                "d": np.float64(0.1),
                "s": {3, 1, np.int64(2)},
                "nested": [(np.int64(4), None, True)],
            },
        ]
        for env in envelopes:
            old = json.dumps(schema.jsonable(dict(env)), separators=(",", ":"))
            assert dumps(env) == old
