"""Deterministic fault injection and interleaving for concurrency testing.

This package is part of the *library*, not the test suite: downstream
users embedding :mod:`repro` behind a service are expected to drive the
same harness against their own deployment code, and every future change
to the update algorithms is expected to keep passing under it.
:mod:`repro.testing.faults` injects failures at exact points;
:mod:`repro.testing.interleave` scripts exact thread interleavings.
"""

from .faults import (
    FakeClock,
    HeartbeatFault,
    InjectedFault,
    ShardFault,
    WorkerFault,
    corrupt_byte,
    drop_heartbeats,
    fail_at_label_write,
    fail_at_phase,
    inject_shard_fault,
    inject_worker_fault,
    slow_search,
    truncate_tail,
)
from .interleave import InterleaveError, StepScheduler

__all__ = [
    "FakeClock",
    "HeartbeatFault",
    "InjectedFault",
    "InterleaveError",
    "ShardFault",
    "StepScheduler",
    "WorkerFault",
    "corrupt_byte",
    "drop_heartbeats",
    "fail_at_label_write",
    "fail_at_phase",
    "inject_shard_fault",
    "inject_worker_fault",
    "slow_search",
    "truncate_tail",
]
