"""Unit tests for the distributed-runtime simulation: partitioning,
queues, cost model, collectives, memory model."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import PartitionError
from repro.graph.generators import grid_graph, rmat_graph
from repro.runtime.collectives import chunked_allreduce_time
from repro.runtime.cost_model import MachineModel
from repro.runtime.memory import estimate_memory
from repro.runtime.partition import block_partition, hash_partition
from repro.runtime.queues import FIFOQueue, PriorityQueue, QueueDiscipline, make_queue


class TestPartitioning:
    def test_block_owner_balanced(self):
        g = grid_graph(8, 8)
        part = block_partition(g, 4)
        counts = part.local_vertex_count()
        assert counts.sum() == 64
        assert counts.max() - counts.min() <= 1

    def test_block_contiguous(self):
        g = grid_graph(8, 8)
        part = block_partition(g, 4)
        # block ownership is monotone in vertex id
        assert (np.diff(part.owner) >= 0).all()

    def test_hash_covers_all_ranks(self):
        g = grid_graph(10, 10)
        part = hash_partition(g, 8)
        assert set(np.unique(part.owner)) == set(range(8))

    def test_arc_rank_follows_owner_without_delegates(self):
        g = grid_graph(6, 6)
        part = block_partition(g, 3)
        u, v, w, arc_rank = part.arc_arrays()
        assert np.array_equal(arc_rank, part.owner[u])

    @pytest.mark.parametrize("delegates", [None, 50])
    def test_arc_count_is_counted_once_and_read_only(self, delegates):
        g = rmat_graph(8, 8, seed=0)
        part = block_partition(g, 4, delegate_threshold=delegates)
        counts = part.local_arc_count()
        assert counts is part.local_arc_count()
        assert counts.dtype == np.int64
        assert np.array_equal(counts, np.bincount(part.arc_rank, minlength=4))
        with pytest.raises(ValueError):
            counts[0] = 0

    def test_single_rank(self):
        g = grid_graph(4, 4)
        part = block_partition(g, 1)
        assert part.cut_arc_count() == 0
        assert part.load_imbalance() == pytest.approx(1.0)

    def test_delegates_selected_by_degree(self):
        g = rmat_graph(8, 8, seed=0)
        part = block_partition(g, 4, delegate_threshold=50)
        deg = g.degree()
        assert set(part.delegates.tolist()) == set(
            np.nonzero(deg > 50)[0].tolist()
        )
        for d in part.delegates:
            assert part.is_delegate(int(d))

    def test_delegate_arcs_striped(self):
        g = rmat_graph(8, 8, seed=0)
        part = block_partition(g, 4, delegate_threshold=50)
        for d in part.delegates[:3]:
            ranks = part.slice_ranks(int(d))
            assert ranks.size > 1  # hub adjacency spans multiple ranks

    def test_delegates_reduce_imbalance(self):
        g = rmat_graph(9, 8, seed=1)
        base = block_partition(g, 8)
        deleg = block_partition(g, 8, delegate_threshold=int(g.avg_degree * 4))
        assert deleg.load_imbalance() <= base.load_imbalance()

    def test_invalid_rank_count(self):
        g = grid_graph(3, 3)
        with pytest.raises(PartitionError):
            block_partition(g, 0)
        with pytest.raises(PartitionError):
            hash_partition(g, -1)

    def test_invalid_delegate_threshold(self):
        g = grid_graph(3, 3)
        with pytest.raises(PartitionError):
            block_partition(g, 2, delegate_threshold=0)

    def test_cut_arcs_grow_with_ranks(self):
        g = grid_graph(10, 10)
        cuts = [block_partition(g, p).cut_arc_count() for p in (1, 2, 4, 8)]
        assert cuts == sorted(cuts)


class TestQueues:
    def test_fifo_order(self):
        q = FIFOQueue()
        for i, prio in enumerate([5.0, 1.0, 3.0]):
            q.push(prio, f"m{i}")
        assert [q.pop() for _ in range(3)] == ["m0", "m1", "m2"]

    def test_priority_order(self):
        q = PriorityQueue()
        q.push(5.0, "late")
        q.push(1.0, "early")
        q.push(3.0, "mid")
        assert [q.pop() for _ in range(3)] == ["early", "mid", "late"]

    def test_priority_tie_breaks_by_arrival(self):
        q = PriorityQueue()
        q.push(2.0, "first")
        q.push(2.0, "second")
        assert q.pop() == "first"
        assert q.pop() == "second"

    def test_peak_tracking(self):
        for q in (FIFOQueue(), PriorityQueue()):
            q.push(1.0, "a")
            q.push(1.0, "b")
            q.pop()
            q.push(1.0, "c")
            assert q.peak == 2
            assert len(q) == 2

    def test_make_queue(self):
        assert isinstance(make_queue("fifo"), FIFOQueue)
        assert isinstance(make_queue(QueueDiscipline.PRIORITY), PriorityQueue)
        with pytest.raises(ValueError):
            make_queue("bogus")


class TestCostModel:
    def test_allreduce_monotone_in_ranks(self):
        m = MachineModel()
        times = [m.allreduce_time(p, 1024) for p in (1, 2, 4, 8, 16)]
        assert times[0] == 0.0
        assert all(a <= b for a, b in zip(times, times[1:]))

    def test_allreduce_monotone_in_bytes(self):
        m = MachineModel()
        assert m.allreduce_time(8, 10) < m.allreduce_time(8, 10_000_000)

    def test_remote_message_slower_than_local(self):
        m = MachineModel()
        assert m.message_delay(False) > m.message_delay(True)

    def test_mst_time_scales(self):
        m = MachineModel()
        assert m.mst_time(0, 5) == 0.0
        assert m.mst_time(10_000, 100) < m.mst_time(50_000_000, 10_000)

    def test_scan_time_linear(self):
        m = MachineModel()
        assert m.scan_time(2_000) == pytest.approx(2 * m.scan_time(1_000))


class TestCollectives:
    def test_chunked_tradeoff(self):
        m = MachineModel()
        single = chunked_allreduce_time(m, 16, 100_000, 100_000)
        chunked = chunked_allreduce_time(m, 16, 100_000, 1_000)
        assert chunked > single  # more latency terms

    def test_chunk_size_validation(self):
        with pytest.raises(ValueError):
            chunked_allreduce_time(MachineModel(), 4, 100, 0)


class TestMemoryModel:
    def test_breakdown_sums(self):
        g = grid_graph(10, 10)
        part = block_partition(g, 4)
        rep = estimate_memory(part, 10, peak_queue_total=500)
        assert rep.total_bytes == rep.graph_bytes + rep.runtime_bytes
        assert rep.graph_bytes == g.nbytes()
        assert rep.queue_bytes == 500 * MachineModel().bytes_per_message

    def test_runtime_grows_quadratically_with_seeds(self):
        g = grid_graph(10, 10)
        part = block_partition(g, 4)
        small = estimate_memory(part, 10, peak_queue_total=0)
        large = estimate_memory(part, 100, peak_queue_total=0)
        # C(100,2)/C(10,2) = 110x on the pairwise buffers
        assert large.en_buffer_bytes == small.en_buffer_bytes * 110

    def test_observed_distance_edges_override(self):
        g = grid_graph(5, 5)
        part = block_partition(g, 2)
        rep = estimate_memory(part, 50, peak_queue_total=0, n_distance_edges=7)
        assert rep.distance_graph_bytes == 7 * 24 * 2
