"""The native (numba-JIT) kernel tier: shim, parity and fallback.

Pinned contracts:

* ``repro.native`` — the one import guard: without numba,
  :func:`~repro.native.njit` is the identity decorator (both
  spellings), ``prange`` is ``range``, :func:`~repro.native.warmup` is
  a no-op and :func:`~repro.native.native_status` carries the
  import-failure reason.  The cache dir is pinned before numba is ever
  imported.
* ``delta-numba`` is bit-identical to ``delta-numpy`` — the identical
  ``(dist, src, pred)`` triple on every input, pinned here with
  ``force=True`` so the *kernel logic itself* (run as plain Python) is
  exercised even in no-numba environments, across weight regimes
  (unit/tie-heavy, small, astronomical), seed-set sizes, delta choices
  and the serve layer's fused stacked-CSR path.
* ``bsp-native`` is counter-identical to ``bsp-batched`` — the same
  converged ``(src, dist, pred)`` fixpoint AND the same ``n_visits``,
  ``n_messages_local``, ``n_messages_remote``, ``bytes_sent``,
  ``peak_queue_total``, per-rank busy time, simulated time and
  superstep count, pinned with ``force_native=True``; and it falls
  back to the batched path (still identical) whenever the native
  kernel cannot apply (FIFO discipline, delegates, non-native
  programs, numba absent without force).
* Both tiers stay registered without numba, reported as ``fallback``
  entries by the availability listings, and resolve to their NumPy
  twins' results.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.voronoi_visitor import VoronoiProgram
from repro.graph.csr import CSRGraph
from repro.native import NUMBA_AVAILABLE, native_status, njit, prange, warmup
from repro.runtime.engine_batched import BSPBatchedEngine
from repro.runtime.engine_native import BSPNativeEngine, supports_native
from repro.runtime.engines import engine_availability, make_engine
from repro.runtime.partition import block_partition, hash_partition
from repro.shortest_paths.backends import (
    backend_availability,
    compute_multisource,
    get_backend,
)
from repro.shortest_paths.native import compute_voronoi_cells_delta_numba
from repro.shortest_paths.vectorized import compute_voronoi_cells_delta_numpy
from tests.conftest import component_seeds, make_connected_graph

# the counter list is owned by the cross-engine conformance harness —
# one definition of "bit-for-bit across the BSP family" in the tree
from tests.test_engine_conformance import COUNTERS

PROPERTY = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


@st.composite
def graph_seeds_weights(draw, max_vertices=20, weight_regimes=(1, 8, 10**13)):
    """Random graph + seed set + a weight regime.

    ``max_weight=1`` degenerates to unit weights (the tie-heaviest case
    for the smaller-owner rule); ``10**13`` pushes path sums past
    float64's exact-integer range, so any kernel that rounds breaks the
    bit-for-bit assertion.
    """
    n = draw(st.integers(min_value=2, max_value=max_vertices))
    backbone = [(i, i + 1) for i in range(n - 1)]
    n_chords = draw(st.integers(min_value=0, max_value=2 * n))
    chords = draw(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=n - 1),
                st.integers(min_value=0, max_value=n - 1),
            ),
            min_size=n_chords,
            max_size=n_chords,
        )
    )
    edges = backbone + [e for e in chords if e[0] != e[1]]
    max_weight = draw(st.sampled_from(weight_regimes))
    weights = draw(
        st.lists(
            st.integers(min_value=1, max_value=max_weight),
            min_size=len(edges),
            max_size=len(edges),
        )
    )
    graph = CSRGraph.from_edges(n, np.asarray(edges, dtype=np.int64), weights)
    k = draw(st.integers(min_value=1, max_value=min(6, n)))
    seeds = sorted(
        draw(
            st.lists(
                st.integers(min_value=0, max_value=n - 1),
                min_size=k,
                max_size=k,
                unique=True,
            )
        )
    )
    return graph, seeds


def assert_diagrams_equal(a, b, label=""):
    assert np.array_equal(a.dist, b.dist), label
    assert np.array_equal(a.src, b.src), label
    assert np.array_equal(a.pred, b.pred), label


# --------------------------------------------------------------------- #
# the shim
# --------------------------------------------------------------------- #
class TestNativeShim:
    def test_status_shape(self):
        status = native_status()
        assert sorted(status) == ["available", "cache_dir", "reason", "version"]
        assert status["available"] is NUMBA_AVAILABLE
        assert (status["reason"] is None) == NUMBA_AVAILABLE
        assert status["cache_dir"]  # pinned before any numba import

    def test_warmup_counts_registered_modules(self):
        n = warmup()
        if NUMBA_AVAILABLE:
            assert n >= 2  # the sweep kernel module + the engine module
        else:
            assert n == 0

    @pytest.mark.skipif(NUMBA_AVAILABLE, reason="shim semantics without numba")
    def test_njit_is_identity_without_numba(self):
        @njit
        def f(x):
            return x + 1

        @njit(parallel=True, cache=False)
        def g(x):
            return x + 2

        assert f.__class__.__name__ == "function"
        assert f(1) == 2 and g(1) == 3
        assert prange is range

    @pytest.mark.skipif(not NUMBA_AVAILABLE, reason="needs numba")
    def test_njit_compiles_with_numba(self):  # pragma: no cover - numba leg
        @njit
        def f(x):
            return x + 1

        assert f(np.int64(1)) == 2
        assert hasattr(f, "py_func")


# --------------------------------------------------------------------- #
# delta-numba <-> delta-numpy
# --------------------------------------------------------------------- #
class TestDeltaNumbaParity:
    @PROPERTY
    @given(graph_seeds_weights())
    def test_bit_identity_forced_kernels(self, case):
        # force=True runs the kernel logic (plain Python without numba)
        # rather than the fallback delegation — the real parity pin
        graph, seeds = case
        ref = compute_voronoi_cells_delta_numpy(graph, seeds)
        vd = compute_voronoi_cells_delta_numba(graph, seeds, force=True)
        assert_diagrams_equal(ref, vd)

    @PROPERTY
    @given(graph_seeds_weights(weight_regimes=(1,)))
    def test_unit_weight_tie_heavy(self, case):
        graph, seeds = case
        ref = compute_voronoi_cells_delta_numpy(graph, seeds)
        vd = compute_voronoi_cells_delta_numba(graph, seeds, force=True)
        assert_diagrams_equal(ref, vd)

    @pytest.mark.parametrize("delta", [1, 3, 17, 10**6])
    def test_explicit_delta(self, random_graph, delta):
        seeds = component_seeds(random_graph, 4, seed=2)
        ref = compute_voronoi_cells_delta_numpy(random_graph, seeds, delta)
        vd = compute_voronoi_cells_delta_numba(
            random_graph, seeds, delta, force=True
        )
        assert_diagrams_equal(ref, vd)

    @pytest.mark.parametrize("k", [1, 2, 8, 24])
    def test_seed_set_sizes(self, k):
        g = make_connected_graph(60, 170, seed=31)
        seeds = component_seeds(g, k, seed=32)
        ref = compute_voronoi_cells_delta_numpy(g, seeds)
        vd = compute_voronoi_cells_delta_numba(g, seeds, force=True)
        assert_diagrams_equal(ref, vd)

    def test_fallback_delegates_to_numpy_twin(self, random_graph):
        # without force, the call must equal delta-numpy bit-for-bit
        # whether it JIT-ran (numba) or delegated (no numba)
        seeds = component_seeds(random_graph, 5, seed=4)
        ref = compute_voronoi_cells_delta_numpy(random_graph, seeds)
        vd = compute_voronoi_cells_delta_numba(random_graph, seeds)
        assert_diagrams_equal(ref, vd)

    def test_registered_backend_resolves(self, random_graph):
        seeds = component_seeds(random_graph, 4, seed=5)
        res = compute_multisource(random_graph, seeds, backend="delta-numba")
        ref = compute_multisource(random_graph, seeds, backend="delta-numpy")
        assert res.agrees_with(ref)
        assert get_backend("delta-numba") is not None

    def test_bad_delta_rejected(self, random_graph):
        from repro.errors import GraphError

        with pytest.raises(GraphError):
            compute_voronoi_cells_delta_numba(random_graph, [0], 0, force=True)

    def test_fused_stacked_csr_parity(self):
        # the serve layer's sweep fusion: several requests stacked into
        # one disjoint-union CSR, answered by one backend call
        from repro.serve.batch import fused_multisource

        g = make_connected_graph(45, 120, seed=41)
        seed_sets = [
            component_seeds(g, 3, seed=42).tolist(),
            component_seeds(g, 5, seed=43).tolist(),
            component_seeds(g, 1, seed=44).tolist(),
        ]
        ref = fused_multisource(g, seed_sets, backend="delta-numpy")
        fused = fused_multisource(g, seed_sets, backend="delta-numba")
        assert fused.batch_size == ref.batch_size == len(seed_sets)
        for got, want in zip(fused.diagrams, ref.diagrams):
            assert_diagrams_equal(got, want, "fused slice")


# --------------------------------------------------------------------- #
# bsp-native <-> bsp-batched
# --------------------------------------------------------------------- #
def run_voronoi(engine, partition, seeds):
    prog = VoronoiProgram(partition)
    stats = engine.run_phase(
        "Voronoi Cell", prog, list(prog.initial_messages(np.asarray(seeds)))
    )
    return prog, stats


def assert_engine_parity(partition, seeds):
    batched = BSPBatchedEngine(partition)
    native = BSPNativeEngine(partition, force_native=True)
    pb, sb = run_voronoi(batched, partition, seeds)
    pn, sn = run_voronoi(native, partition, seeds)
    assert np.array_equal(pb.src, pn.src)
    assert np.array_equal(pb.dist, pn.dist)
    assert np.array_equal(pb.pred, pn.pred)
    for field in COUNTERS:
        assert getattr(sb, field) == getattr(sn, field), field
    assert batched.n_supersteps == native.n_supersteps
    assert np.allclose(sb.busy_time, sn.busy_time)
    assert sb.sim_time == pytest.approx(sn.sim_time)


class TestBSPNativeParity:
    @PROPERTY
    @given(graph_seeds_weights(), st.integers(min_value=1, max_value=6))
    def test_counter_identity_forced_kernels(self, case, n_ranks):
        graph, seeds = case
        assert_engine_parity(block_partition(graph, n_ranks), seeds)

    @pytest.mark.parametrize("n_ranks", [1, 3, 16])
    def test_rank_counts(self, random_graph, n_ranks):
        seeds = component_seeds(random_graph, 5, seed=11)
        assert_engine_parity(block_partition(random_graph, n_ranks), seeds)

    def test_hash_partition(self, random_graph):
        seeds = component_seeds(random_graph, 4, seed=12)
        assert_engine_parity(hash_partition(random_graph, 4), seeds)

    @pytest.mark.parametrize("k", [1, 2, 10])
    def test_seed_set_sizes(self, k):
        g = make_connected_graph(50, 140, seed=21)
        assert_engine_parity(block_partition(g, 4), component_seeds(g, k, seed=22))

    def test_capability_gating(self, random_graph, skewed_graph):
        part = block_partition(random_graph, 4)
        prog = VoronoiProgram(part)
        # FIFO discipline stays on the batched path
        fifo = BSPNativeEngine(part, discipline="fifo", force_native=True)
        assert not fifo._native_capable(prog)
        # delegates fan out rank-addressed messages: batched path
        dpart = block_partition(skewed_graph, 4, delegate_threshold=8)
        if dpart.delegates.size:
            deleg = BSPNativeEngine(dpart, force_native=True)
            assert not deleg._native_capable(VoronoiProgram(dpart))
        # a program without the native hook stays on the batched path
        class NoHook:
            batch_payload_width = 3

            def batch_encode(self, target, payload):
                return payload

            def batch_visit(self, *a):  # pragma: no cover - never driven
                raise NotImplementedError

        assert not supports_native(NoHook())
        # without numba the default engine is not capable either
        plain = BSPNativeEngine(part)
        assert plain._native_capable(prog) == NUMBA_AVAILABLE

    def test_fallback_path_still_identical(self, random_graph):
        # FIFO forces the batched code path inside BSPNativeEngine;
        # results must equal a plain BSPBatchedEngine under FIFO
        seeds = component_seeds(random_graph, 4, seed=13)
        part = block_partition(random_graph, 4)
        ref_engine = BSPBatchedEngine(part, discipline="fifo")
        nat_engine = BSPNativeEngine(part, discipline="fifo", force_native=True)
        pb, sb = run_voronoi(ref_engine, part, seeds)
        pn, sn = run_voronoi(nat_engine, part, seeds)
        assert np.array_equal(pb.src, pn.src)
        assert np.array_equal(pb.dist, pn.dist)
        for field in COUNTERS:
            assert getattr(sb, field) == getattr(sn, field), field

    def test_registry_constructs_native_engine(self, random_graph):
        part = block_partition(random_graph, 4)
        engine = make_engine("bsp-native", part)
        assert isinstance(engine, BSPNativeEngine)
        assert isinstance(engine, BSPBatchedEngine)  # the fallback IS it

    def test_solver_tree_identical(self, random_graph):
        from repro.core.config import SolverConfig
        from repro.core.solver import distributed_steiner_tree

        seeds = component_seeds(random_graph, 5, seed=14)
        ref = distributed_steiner_tree(
            random_graph, seeds, config=SolverConfig(engine="bsp-batched")
        )
        nat = distributed_steiner_tree(
            random_graph, seeds, config=SolverConfig(engine="bsp-native")
        )
        assert np.array_equal(ref.edges, nat.edges)
        assert ref.total_distance == nat.total_distance
        assert ref.phases[0].n_messages == nat.phases[0].n_messages


# --------------------------------------------------------------------- #
# availability surfaces
# --------------------------------------------------------------------- #
class TestAvailability:
    def test_backend_records(self):
        records = backend_availability()
        assert "delta-numba" in records
        record = records["delta-numba"]
        assert record["help"]
        if NUMBA_AVAILABLE:  # pragma: no cover - numba leg
            assert record["status"] == "available"
            assert record["reason"] is None
        else:
            assert record["status"] == "fallback"
            assert record["fallback"] == "delta-numpy"
            assert "numba" in record["reason"]
        # every callable entry carries a record
        assert all(
            r["status"] in ("available", "fallback", "unavailable")
            for r in records.values()
        )

    def test_engine_records(self):
        records = engine_availability()
        assert "bsp-native" in records
        record = records["bsp-native"]
        if NUMBA_AVAILABLE:  # pragma: no cover - numba leg
            assert record["status"] == "available"
        else:
            assert record["status"] == "fallback"
            assert record["fallback"] == "bsp-batched"
            assert "numba" in record["reason"]

    def test_unavailable_entries_are_listing_only(self):
        from repro.shortest_paths import backends as mod

        mod.register_unavailable_backend(
            "_test-missing", "test-only missing tier", "ImportError: nope"
        )
        try:
            records = backend_availability()
            assert records["_test-missing"]["status"] == "unavailable"
            assert records["_test-missing"]["reason"] == "ImportError: nope"
            with pytest.raises(ValueError, match="backend"):
                get_backend("_test-missing")
        finally:
            mod._HELP.pop("_test-missing")
            mod._AVAILABILITY.pop("_test-missing")

    def test_cli_listings_show_reason(self, capsys):
        from repro.harness.cli import main

        assert main(["backends"]) == 0
        out = capsys.readouterr().out
        assert "delta-numba" in out
        if not NUMBA_AVAILABLE:
            assert "fallback" in out
            assert "runs as 'delta-numpy'" in out
            assert "numba" in out

        assert main(["engines"]) == 0
        out = capsys.readouterr().out
        assert "bsp-native" in out
        if not NUMBA_AVAILABLE:
            assert "runs as 'bsp-batched'" in out

    def test_solver_config_accepts_native_names(self):
        from repro.core.config import SolverConfig

        cfg = SolverConfig(engine="bsp-native", voronoi_backend="delta-numba")
        assert cfg.bsp is True
        assert cfg.voronoi_backend == "delta-numba"

    def test_api_reexports_native_status(self):
        from repro import api

        assert api.native_status() == native_status()
