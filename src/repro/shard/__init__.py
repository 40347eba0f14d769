"""``repro.shard`` — sharded, replicated serving of compiled query plans.

One process cannot serve millions of users.  This package partitions a
compiled :class:`~repro.core.plan.QueryPlan` by contiguous vertex range
across worker processes — each shard holding its label-row slice plus a
full replica of the small dense ``δ_H`` table — and fronts the fleet
with a fault-tolerant scatter-gather coordinator:

* :mod:`repro.shard.partition` — slicing the plan's canonical arrays
  (:class:`ShardSlice`, :func:`partition_plan`);
* :mod:`repro.shard.worker` — the worker process: a versioned-state RPC
  loop over packed-array requests whose ``combine`` op runs the plan's
  own ``QUERY`` kernels on its slice (the vector gather-reduce for
  batches, the flat kernel for single pairs and without numpy), so it
  is bitwise-equal to the unsharded plan;
* :mod:`repro.shard.replication` — per-replica process lifecycle,
  pipes, and circuit breakers;
* :mod:`repro.shard.coordinator` — :class:`ShardedService`: routing,
  deadline-aware retry with jittered backoff, replica failover, in-call
  restart from the pinned epoch, graceful degradation, fleet
  ``health()``, and atomic epoch cutover;
* :mod:`repro.shard.supervisor` — :class:`FleetSupervisor`: out-of-band
  heartbeats that catch dead *and hung* workers between queries,
  backoff-damped proactive restarts with epoch re-broadcast, and a
  hysteresis-filtered verdict rolled into fleet ``health()``.

``python -m repro.shard`` runs a seeded shard-fault sweep (the CI chaos
lane's fleet exercise, including supervisor convergence) and writes the
fleet-health JSON artifact.
"""

from .coordinator import ShardedService
from .partition import Partition, ShardSlice, partition_plan
from .supervisor import FleetSupervisor

__all__ = [
    "FleetSupervisor",
    "Partition",
    "ShardSlice",
    "ShardedService",
    "partition_plan",
]
