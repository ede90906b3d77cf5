"""The ``repro.api`` facade: solve(), Session and configuration
fingerprints.

The hypothesis blocks pin the ``SolverConfig.fingerprint`` contract the
serve cache keys depend on: invariant under field ordering, sensitive
to every field.
"""

from __future__ import annotations

import dataclasses
from functools import partial

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.api as api
from repro.api import Session, SolverConfig, solve
from repro.baselines.mehlhorn import mehlhorn_steiner_tree
from repro.core.sequential import sequential_steiner_tree
from repro.core.solver import distributed_steiner_tree
from repro.runtime.cost_model import MachineModel
from repro.shortest_paths.voronoi import compute_voronoi_cells

from tests.conftest import component_seeds

FAST = settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


class TestSolveFacade:
    def test_matches_core_entry_point(self, random_graph):
        seeds = component_seeds(random_graph, 5, seed=3)
        via_api = solve(random_graph, seeds, n_ranks=4)
        via_core = distributed_steiner_tree(random_graph, seeds, n_ranks=4)
        assert np.array_equal(via_api.edges, via_core.edges)
        assert via_api.total_distance == via_core.total_distance

    def test_dataset_name_accepted(self):
        res = solve(
            "CTS", [0, 1, 2, 3], voronoi_backend="delta-numpy", n_ranks=4
        )
        assert res.total_distance > 0
        assert res.provenance["backend"] == "delta-numpy"

    def test_config_and_kwargs_mutually_exclusive(self, random_graph):
        with pytest.raises(TypeError, match="not both"):
            solve(
                random_graph, [0, 1], config=SolverConfig(), n_ranks=4
            )

    def test_unknown_kwarg_rejected(self, random_graph):
        with pytest.raises(TypeError, match="nope"):
            solve(random_graph, [0, 1], nope=3)

    def test_exports(self):
        for name in api.__all__:
            assert hasattr(api, name)


class TestSession:
    def test_many_solves_reuse_state(self, random_graph):
        with Session(random_graph, n_ranks=4) as session:
            a = session.solve(component_seeds(random_graph, 4, seed=5))
            b = session.solve(component_seeds(random_graph, 3, seed=6))
            assert len(session._solvers) == 1  # one fingerprint, one solver
            c = session.solve(
                component_seeds(random_graph, 4, seed=5), n_ranks=8
            )
            assert len(session._solvers) == 2
        assert a.total_distance > 0 and b.total_distance > 0
        assert np.array_equal(a.edges, c.edges)  # ranks don't change the tree

    def test_solve_matches_oneshot(self, random_graph):
        seeds = component_seeds(random_graph, 5, seed=7)
        with Session(random_graph, voronoi_backend="delta-numpy") as s:
            warm = s.solve(seeds)
        solo = solve(random_graph, seeds, voronoi_backend="delta-numpy")
        assert np.array_equal(warm.edges, solo.edges)

    def test_closed_session_rejects_solves(self, random_graph):
        session = Session(random_graph)
        session.close()
        assert session.closed
        with pytest.raises(RuntimeError, match="closed"):
            session.solve([0, 1])
        session.close()  # idempotent

    def test_session_cache_hits(self, random_graph):
        from repro.serve import SolveCache

        cache = SolveCache()
        seeds = component_seeds(random_graph, 4, seed=9)
        with Session(
            random_graph, voronoi_backend="delta-numpy", cache=cache
        ) as session:
            first = session.solve(seeds)
            second = session.solve(seeds)
        assert first.provenance["cache_hit"] is False
        assert second.provenance["cache_hit"] is True
        assert np.array_equal(first.edges, second.edges)
        assert cache.stats.solution_hits == 1


#: a value differing from the SolverConfig default for every field the
#: fingerprint hashes — which is every field
_DISTINGUISHING = {
    "n_ranks": 5,
    "discipline": "fifo",
    "partition": "hash",
    "delegate_threshold": 7,
    "machine": MachineModel(t_visit=3.0e-7),
    "engine": "bsp",
    "collect_diagram": True,
    "max_events": 1000,
    "collective_chunk_elements": 500,
    "aggregate_remote_messages": True,
    "voronoi_backend": "delta-numpy",
}

_FIELD_NAMES = [f.name for f in dataclasses.fields(SolverConfig)]


class TestConfigFingerprint:
    @given(
        fields=st.permutations(sorted(_DISTINGUISHING)),
    )
    @FAST
    def test_invariant_under_field_ordering(self, fields):
        """Building the same configuration with kwargs in any order
        yields the same fingerprint (the cache-key contract)."""
        kwargs = {name: _DISTINGUISHING[name] for name in fields}
        fp = SolverConfig(**kwargs).fingerprint()
        ref = SolverConfig(
            **{k: _DISTINGUISHING[k] for k in sorted(_DISTINGUISHING)}
        ).fingerprint()
        assert fp == ref

    @pytest.mark.parametrize("field_name", _FIELD_NAMES)
    def test_distinguishes_each_field(self, field_name):
        assert field_name in _DISTINGUISHING, (
            f"give SolverConfig.{field_name} a distinguishing value"
        )
        base = SolverConfig()
        changed = SolverConfig(
            **{field_name: _DISTINGUISHING[field_name]}
        )
        assert base.fingerprint() != changed.fingerprint(), field_name

    def test_material_covers_every_field(self):
        assert sorted(SolverConfig().fingerprint_material()) == sorted(_FIELD_NAMES)

    def test_stable_within_process(self):
        assert SolverConfig().fingerprint() == SolverConfig().fingerprint()

    @given(
        n_ranks=st.integers(min_value=1, max_value=64),
        as_type=st.sampled_from([int, np.int64]),
        discipline=st.sampled_from(["fifo", "priority"]),
        backend=st.sampled_from([None, "dijkstra", "delta-numpy"]),
    )
    @FAST
    def test_equal_configs_equal_fingerprints(
        self, n_ranks, as_type, discipline, backend
    ):
        a = SolverConfig(
            n_ranks=n_ranks, discipline=discipline, voronoi_backend=backend
        )
        b = SolverConfig(
            n_ranks=as_type(n_ranks), discipline=discipline, voronoi_backend=backend
        )
        assert a.fingerprint() == b.fingerprint()


class TestConfigTypes:
    """Bool and int fields are checked and stored as Python values, so
    a truthy string cannot switch an option on and a NumPy integer
    cannot give one configuration a second cache key."""

    @pytest.mark.parametrize(
        ("field_name", "value"),
        [
            ("aggregate_remote_messages", "false"),
            ("collect_diagram", "no"),
            ("n_ranks", True),
            ("n_ranks", 4.0),
            ("max_events", "3"),
            ("delegate_threshold", np.bool_(True)),
        ],
        ids=str,
    )
    def test_wrong_type_is_type_error(self, field_name, value):
        with pytest.raises(TypeError, match=field_name):
            SolverConfig(**{field_name: value})

    def test_numpy_values_stored_as_python(self):
        config = SolverConfig(
            n_ranks=np.int64(4),
            max_events=np.int32(0),
            aggregate_remote_messages=np.bool_(True),
        )
        assert type(config.n_ranks) is int and config.n_ranks == 4
        assert type(config.max_events) is int and config.max_events == 0
        assert config.aggregate_remote_messages is True


class TestOneSpellingPerOption:
    """Each option has exactly one spelling: the old keyword aliases,
    the ``bsp`` flag and the ``backend=`` side doors are rejected, and
    ``fault_plan``, which names no option, is refused like any unknown
    field."""

    @pytest.mark.parametrize(
        "keyword", ["bsp", "ranks", "queue", "backend", "fault_plan"]
    )
    def test_old_config_keyword_is_type_error(self, random_graph, keyword):
        session = Session(random_graph)
        for build in (SolverConfig, partial(Session, random_graph),
                      partial(session.solve, [0, 1])):
            with pytest.raises(TypeError, match=keyword):
                build(**{keyword: 1})

    @pytest.mark.parametrize(
        "sweep", [sequential_steiner_tree, compute_voronoi_cells, mehlhorn_steiner_tree]
    )
    def test_backend_side_door_is_type_error(self, random_graph, sweep):
        with pytest.raises(TypeError, match="backend"):
            sweep(random_graph, [0, 1], backend="dijkstra")
