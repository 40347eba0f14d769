"""Chaos-lane acceptance for the sharded serving tier.

The ISSUE contract: a 4-shard fleet with ``replication_factor=2``,
killing any single worker mid-``query_batch``, still returns answers
bitwise-equal to the unsharded plan (or budget-expired
:class:`~repro.budget.DegradedResult`\\ s), with zero coordinator hangs
across 5 seeded fault schedules — and the loss/recovery is visible in
fleet ``health()`` and the obs counters.

Run with ``pytest -m chaos``; excluded from the default (tier-1) lane.
"""

import random
import time

import pytest

from conftest import random_graph
from repro.budget import Budget, DegradedResult
from repro.core import build_hcl, select_landmarks
from repro.retry import BackoffPolicy
from repro.shard import FleetSupervisor, ShardedService
from repro.testing import (
    HeartbeatFault,
    ShardFault,
    drop_heartbeats,
    inject_shard_fault,
)

pytestmark = pytest.mark.chaos

NSHARDS = 4
RF = 2
RPC_TIMEOUT = 0.25
#: Wall-clock ceiling proving "the coordinator never hangs": generous
#: against the retry ladder, tiny against a 1 s worker hang gone wrong.
BATCH_DEADLINE = 30.0


@pytest.fixture(scope="module")
def fixture_plan():
    g = random_graph(99, n_lo=160, n_hi=200)
    lmks = select_landmarks(g, 8, policy="degree")
    plan = build_hcl(g, lmks).compile_plan()
    rng = random.Random(4321)
    pairs = [(rng.randrange(g.n), rng.randrange(g.n)) for _ in range(250)]
    oracle = [plan.query(s, t) for s, t in pairs]
    return plan, pairs, oracle


@pytest.mark.parametrize("seed", range(5))
def test_single_worker_kill_mid_batch_keeps_answers_bitwise(
    fixture_plan, seed
):
    plan, pairs, oracle = fixture_plan
    rng = random.Random(seed)
    # Each replica sees only a couple of data RPCs per batch (one batched
    # combine per shard plus row fetches), so the schedule varies *which*
    # worker dies and fires on that worker's first data RPC — a kill that
    # always actually lands mid-batch.
    fault = ShardFault(
        kind="kill",
        shard=rng.randrange(NSHARDS),
        replica=rng.randrange(RF),
        requests=(0,),
    )
    with inject_shard_fault(fault):
        with ShardedService(
            plan,
            nshards=NSHARDS,
            replication_factor=RF,
            rpc_timeout=RPC_TIMEOUT,
        ) as svc:
            start = time.monotonic()
            got = svc.query_batch(pairs, Budget(seconds=BATCH_DEADLINE / 2))
            elapsed = time.monotonic() - start
            assert elapsed < BATCH_DEADLINE  # the coordinator never hangs
            assert len(got) == len(pairs)
            for want, have in zip(oracle, got):
                if isinstance(have, DegradedResult):
                    assert have.is_upper_bound  # sound, never below truth
                else:
                    assert have == want  # bitwise-equal to the oracle
            # The kill and the heal are observable: the restart counters
            # ticked and post-batch auto-restart refilled the fleet.
            health = svc.health()
            assert health["fleet.restarts"] >= 1
            assert (
                svc.registry.counter(f"shard.{fault.shard}.restarts").value
                >= 1
            )
            assert health["replicas_alive"] == NSHARDS * RF
            assert health["status"] == "ok"


@pytest.mark.parametrize("kind", ["hang", "slow", "raise"])
def test_nonfatal_faults_fail_over_without_wrong_answers(fixture_plan, kind):
    plan, pairs, oracle = fixture_plan
    fault = ShardFault(
        kind=kind,
        shard=1,
        replica=0,
        requests=(0, 1),
        seconds=1.0 if kind == "hang" else 0.05,
    )
    with inject_shard_fault(fault):
        with ShardedService(
            plan,
            nshards=NSHARDS,
            replication_factor=RF,
            rpc_timeout=RPC_TIMEOUT,
        ) as svc:
            start = time.monotonic()
            got = svc.query_batch(pairs, Budget(seconds=BATCH_DEADLINE / 2))
            assert time.monotonic() - start < BATCH_DEADLINE
            wrong = sum(
                1
                for want, have in zip(oracle, got)
                if not isinstance(have, DegradedResult) and have != want
            )
            assert wrong == 0
            if kind == "hang":
                timeouts = svc.registry.counter(
                    f"shard.{fault.shard}.rpc.timeouts"
                ).value
                assert timeouts >= 1  # the hang was seen and survived


# ----------------------------------------------------------------------
# Supervisor convergence under seeded storms (ISSUE 9 acceptance)
# ----------------------------------------------------------------------
#: Bounded-convergence budget: the supervisor must report ``ok`` within
#: this many ticks of the storm ending, every seed, every schedule.
MAX_CONVERGENCE_TICKS = 40


def _assert_bitwise_or_degraded(oracle, got):
    assert len(got) == len(oracle)
    for want, have in zip(oracle, got):
        if isinstance(have, DegradedResult):
            assert have.is_upper_bound
        else:
            assert have == want


@pytest.mark.parametrize("seed", range(5))
def test_kill_and_hang_storm_converges_within_bounded_ticks(
    fixture_plan, seed
):
    """Kill several replicas and drop heartbeats to another: the
    supervisor (not a query) must find every casualty, restart it from
    the pinned slices, and return the fleet to ``ok`` within the tick
    budget — then the healed fleet answers bitwise."""
    plan, pairs, oracle = fixture_plan
    rng = random.Random(7000 + seed)
    with ShardedService(
        plan,
        nshards=NSHARDS,
        replication_factor=RF,
        rpc_timeout=RPC_TIMEOUT,
    ) as svc:
        everyone = [(s, r) for s in range(NSHARDS) for r in range(RF)]
        victims = rng.sample(everyone, rng.randint(1, 3))
        for s, r in victims:
            svc._sets[s].replicas[r].terminate()
        hang = HeartbeatFault(
            shard=rng.randrange(NSHARDS),
            replica=rng.randrange(RF),
            ticks=(0, 1),
        )
        sup = FleetSupervisor(
            svc,
            ping_timeout=2.0,
            hang_ticks=2,  # the 2-tick drop window trips a hang-restart
            hysteresis_ticks=2,
            restart_backoff=BackoffPolicy(
                base_delay=0.01, max_delay=0.05, jitter=0.0
            ),
        )
        start = time.monotonic()
        with drop_heartbeats(hang):
            spent = sup.run_until_ok(MAX_CONVERGENCE_TICKS)
        assert time.monotonic() - start < BATCH_DEADLINE  # never hangs
        assert spent <= MAX_CONVERGENCE_TICKS
        restarts = sup.registry.counter("supervisor.restarts").value
        assert restarts >= len(victims)
        health = svc.health()
        assert health["status"] == "ok"
        assert health["supervisor"]["status"] == "ok"
        assert health["replicas_alive"] == NSHARDS * RF
        # The revived workers serve the re-broadcast epoch bitwise.
        _assert_bitwise_or_degraded(oracle, svc.query_batch(pairs))
