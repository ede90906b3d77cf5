"""Distributed-runtime simulation — the HavoqGT/MPI substitute.

The paper runs on an MPI cluster (up to 512 nodes / 8K ranks) with
HavoqGT's asynchronous vertex-centric engine.  Neither MPI nor multiple
cores are available in this environment, so this package provides a
**deterministic discrete-event simulation (DES)** of that runtime:

* :mod:`~repro.runtime.partition` — vertex block/hash partitioning with
  optional high-degree *delegates* (HavoqGT's vertex-cut);
* :mod:`~repro.runtime.queues` — per-rank FIFO and priority message
  queues (the paper's §IV message-prioritisation optimisation);
* :mod:`~repro.runtime.cost_model` — the analytic machine model mapping
  events to simulated seconds;
* :mod:`~repro.runtime.engine` — the asynchronous event engine (plus a
  bulk-synchronous variant for the BSP ablation);
* :mod:`~repro.runtime.engine_batched` — the vectorised BSP engine
  (array-at-a-time supersteps over the partitioned CSR);
* :mod:`~repro.runtime.engines` — the engine table
  (``async-heap`` / ``bsp`` / ``bsp-batched``, selected via
  ``SolverConfig(engine=...)``);
* :mod:`~repro.runtime.collectives` — simulated ``MPI_Allreduce``;
* :mod:`~repro.runtime.memory` — the cluster-wide memory accounting used
  to reproduce Fig. 8.

The simulation executes the *same message-driven algorithm* as a real
deployment (same state transitions, same output), and derives *simulated
parallel time* from per-rank clocks, so the scaling **shape** of every
experiment is preserved.
"""

from repro.runtime.cost_model import MachineModel
from repro.runtime.partition import PartitionedGraph, block_partition, hash_partition
from repro.runtime.queues import QueueDiscipline
from repro.runtime.engine import (
    AsyncEngine,
    BSPEngine,
    EngineBase,
    PhaseStats,
    VertexProgram,
)
from repro.runtime.engine_batched import BSPBatchedEngine
from repro.runtime.engines import ENGINES, get_engine, make_engine
from repro.runtime.collectives import allreduce_min_time, allreduce_elementwise_min
from repro.runtime.memory import MemoryReport, estimate_memory

__all__ = [
    "AsyncEngine",
    "BSPBatchedEngine",
    "BSPEngine",
    "ENGINES",
    "EngineBase",
    "MachineModel",
    "MemoryReport",
    "PartitionedGraph",
    "PhaseStats",
    "QueueDiscipline",
    "VertexProgram",
    "allreduce_elementwise_min",
    "allreduce_min_time",
    "block_partition",
    "estimate_memory",
    "get_engine",
    "hash_partition",
    "make_engine",
]
