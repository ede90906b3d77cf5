"""The ``repro.api`` facade: solve(), Session and configuration
fingerprints.

The hypothesis blocks pin the ``SolverConfig.fingerprint`` contract the
serve cache keys depend on: invariant under field ordering, sensitive
to every behaviour-affecting field.
"""

from __future__ import annotations

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


#: every behaviour-affecting field the fingerprint must distinguish,
#: with a value differing from the SolverConfig default
_DISTINGUISHING = {
    "engine": "bsp",
    "voronoi_backend": "delta-numpy",
    "discipline": "fifo",
    "partition": "hash",
    "delegate_threshold": 7,
    "n_ranks": 5,
}


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

    @pytest.mark.parametrize("field_name", sorted(_DISTINGUISHING))
    def test_distinguishes_each_field(self, field_name):
        base = SolverConfig()
        changed = SolverConfig(
            **{field_name: _DISTINGUISHING[field_name]}
        )
        assert base.fingerprint() != changed.fingerprint(), field_name

    def test_stable_within_process(self):
        assert SolverConfig().fingerprint() == SolverConfig().fingerprint()

    @given(
        n_ranks=st.integers(min_value=1, max_value=64),
        discipline=st.sampled_from(["fifo", "priority"]),
        backend=st.sampled_from([None, "dijkstra", "delta-numpy"]),
    )
    @FAST
    def test_equal_configs_equal_fingerprints(self, n_ranks, discipline, backend):
        a = SolverConfig(
            n_ranks=n_ranks, discipline=discipline, voronoi_backend=backend
        )
        b = SolverConfig(
            n_ranks=n_ranks, discipline=discipline, voronoi_backend=backend
        )
        assert a.fingerprint() == b.fingerprint()

    def test_fault_knobs_excluded(self):
        """A fault plan only reaches the serve tier and never changes
        results — it must NOT change the fingerprint (cache entries stay
        shared across chaos and fault-free runs)."""
        from repro.faults import FaultAction, FaultPlan

        base = SolverConfig()
        chaotic = SolverConfig(fault_plan=FaultPlan([FaultAction("corrupt_cache")]))
        assert base.fingerprint() == chaotic.fingerprint()


class TestOneSpellingPerOption:
    """Each option has exactly one spelling: the old keyword aliases,
    the ``bsp`` flag and the ``backend=`` side doors are rejected."""

    @pytest.mark.parametrize("keyword", ["bsp", "ranks", "queue", "backend"])
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
