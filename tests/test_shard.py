"""Tier-1 tests for the sharded serving tier: partitioning, the worker
combine kernel, and :class:`~repro.shard.ShardedService` scatter-gather
(bitwise equality, epoch cutover, admission, health, lifecycle).

Fault-schedule chaos coverage (kills mid-batch, hang/slow workers) lives
in ``test_sharded_chaos.py`` under the ``chaos`` marker.
"""

import math
import random
from array import array
from bisect import bisect_right

import pytest

from conftest import grid_graph, random_graph
from repro import DynamicHCL
from repro.budget import Budget, DegradedResult
from repro.core import build_hcl, planvec, select_landmarks
from repro.errors import Overloaded, RequestError
from repro.service import AddLandmarkRequest, HCLService
from repro.shard import Partition, ShardedService, partition_plan
from repro.shard.partition import _bounds, shard_of
from repro.shard.worker import _ShardState
from repro.testing.faults import ShardFault, inject_shard_fault


def make_plan(seed=11, n_lo=30, n_hi=60, k=4):
    g = random_graph(seed, n_lo=n_lo, n_hi=n_hi)
    lmks = select_landmarks(g, min(k, g.n), policy="degree")
    return g, build_hcl(g, lmks).compile_plan()


def sample_pairs(n, count, seed=5):
    rng = random.Random(seed)
    return [(rng.randrange(n), rng.randrange(n)) for _ in range(count)]


# ----------------------------------------------------------------------
# Partitioning arithmetic
# ----------------------------------------------------------------------
class TestPartition:
    def test_shard_of_closed_form_matches_bisect_exhaustively(self):
        for n in (1, 2, 3, 7, 20, 66, 100, 200, 333):
            for nshards in range(1, min(n, 9) + 1):
                bounds = _bounds(n, nshards)
                assert bounds[0] == 0 and bounds[-1] == n
                for v in range(n):
                    want = bisect_right(bounds, v) - 1
                    assert shard_of(v, bounds) == want, (n, nshards, v)

    def test_slices_reassemble_the_canonical_arrays(self):
        _, plan = make_plan()
        n, k, lmk_ids, offsets, slots, dists, hw = plan.canonical_arrays()
        part = partition_plan(plan, 3)
        assert isinstance(part, Partition)
        assert part.n == n and part.k == k
        # Ranges tile [0, n) contiguously and rebased offsets line up.
        got_slots, got_dists = [], []
        for sl, lo, hi in zip(part.slices, part.bounds, part.bounds[1:]):
            assert (sl.lo, sl.hi) == (lo, hi)
            assert sl.offsets[0] == 0
            assert len(sl.offsets) == sl.owned + 1
            assert sl.offsets[-1] == len(sl.slots) == len(sl.dists)
            assert sl.hw == hw  # full dense replica
            assert sl.landmark_ids == lmk_ids
            assert len(sl.row_lengths) == n  # full routing replica
            got_slots.extend(sl.slots)
            got_dists.extend(sl.dists)
        assert got_slots == list(slots)
        assert got_dists == list(dists)
        assert list(part.row_lengths) == [
            offsets[v + 1] - offsets[v] for v in range(n)
        ]

    def test_rejects_bad_shard_counts(self):
        _, plan = make_plan()
        with pytest.raises(RequestError):
            partition_plan(plan, 0)
        with pytest.raises(RequestError):
            partition_plan(plan, plan.n + 1)

    def test_holey_incremental_plan_is_densified_before_slicing(self):
        g = grid_graph(5, 6)
        dyn = DynamicHCL.build(g, [0, 5, 14, 22, 29])
        registry = dyn.enable_plan_epochs()
        dyn.query(0, 1)  # compile epoch 1
        dyn.remove_landmark(14)  # incremental patch: -1 hole in the ids
        plan = registry.head_plan()
        assert -1 in plan.landmark_ids  # precondition: actually holey
        part = partition_plan(plan, 2)
        assert part.k == 4  # densified: the hole is squeezed out
        for sl in part.slices:
            assert -1 not in sl.landmark_ids
            assert len(sl.hw) == part.k * part.k
            assert all(0 <= s < part.k for s in sl.slots)


# ----------------------------------------------------------------------
# Worker kernels over the packed wire format (in-process, no fleet)
# ----------------------------------------------------------------------
def disable_numpy(monkeypatch):
    """Serve as under ``REPRO_NO_NUMPY=1``, which is how the no-numpy CI
    lane runs; the variable reaches fleet workers whatever their start
    method."""
    monkeypatch.setenv("REPRO_NO_NUMPY", "1")
    monkeypatch.setattr(planvec, "_NUMPY", None)
    monkeypatch.setattr(planvec, "_NUMPY_CHECKED", False)


@pytest.fixture(params=["vector", "no_numpy"])
def numpy_mode(request, monkeypatch):
    """Run a fleet test on the numpy path and again without numpy."""
    if request.param == "vector":
        if not planvec.numpy_available():
            pytest.skip("numpy unavailable")
    else:
        disable_numpy(monkeypatch)
    return request.param


def packed_combine(part, states, home, pairs):
    """One home shard's ``combine`` over ``pairs``, fetching every remote
    inner row with one ``rows`` request per owner, as the coordinator
    does.  Returns the answers and how many pairs needed a remote row."""
    rl = part.row_lengths
    inners = [s if rl[s] > rl[t] else t for s, t in pairs]
    remote = sorted({v for v in inners if part.shard_of(v) != home})
    lens, slots, dists = array("q"), array("q"), array("d")
    for owner, state in enumerate(states):
        vs = array("q", [v for v in remote if part.shard_of(v) == owner])
        if vs:
            got = state.rows(vs)
            lens += got[0]
            slots += got[1]
            dists += got[2]
    ref = array("q", [remote.index(v) if v in remote else -1 for v in inners])
    values = states[home].combine(
        array("q", [s for s, _ in pairs]),
        array("q", [t for _, t in pairs]),
        ref,
        (lens, slots, dists),
    )
    assert isinstance(values, array) and values.typecode == "d"
    return list(values), sum(r >= 0 for r in ref)


def by_home(part, pairs):
    """Pairs with two non-empty rows, grouped by the shard owning the
    plan's outer endpoint."""
    rl = part.row_lengths
    groups = {}
    for s, t in pairs:
        if rl[s] and rl[t]:
            outer = t if rl[s] > rl[t] else s
            groups.setdefault(part.shard_of(outer), []).append((s, t))
    return groups


class TestWorkerCombine:
    def test_combine_is_bitwise_equal_to_the_plan(self):
        self._check_combine()

    def test_combine_without_numpy_is_bitwise_equal_to_the_plan(
        self, monkeypatch
    ):
        disable_numpy(monkeypatch)
        self._check_combine()

    @staticmethod
    def _check_combine():
        _, plan = make_plan(seed=13)
        part = partition_plan(plan, 2)
        states = [_ShardState(sl) for sl in part.slices]
        shipped = 0
        groups = by_home(part, sample_pairs(part.n, 200, seed=2))
        for home, pairs in groups.items():
            values, remote = packed_combine(part, states, home, pairs)
            assert values == [plan.query(s, t) for s, t in pairs]
            shipped += remote
            for s, t in pairs[:10]:  # single pairs: the flat kernel
                assert packed_combine(part, states, home, [(s, t)])[0] == [
                    plan.query(s, t)
                ]
        assert shipped  # cross-shard pairs were covered too

    def test_combine_repeated_pair_goes_hot_and_stays_bitwise(self):
        # Drive one pair past the plan's ROW_HOT_THRESHOLD so its g-row
        # memo kicks in; the worker's answers stay equal to it.
        _, plan = make_plan(seed=17)
        part = partition_plan(plan, 2)
        states = [_ShardState(sl) for sl in part.slices]
        groups = by_home(part, sample_pairs(part.n, 500, seed=3))
        home = next(iter(groups))
        s, t = groups[home][0]
        for _ in range(40):
            want = plan.query(s, t)
            assert packed_combine(part, states, home, [(s, t)])[0] == [want]
            assert packed_combine(part, states, home, [(s, t)] * 3)[0] == [
                want
            ] * 3
        assert plan._g_rows  # the plan's memo engaged


# ----------------------------------------------------------------------
# ShardedService scatter-gather
# ----------------------------------------------------------------------
class TestShardedService:
    @pytest.mark.parametrize("nshards,rf", [(1, 1), (2, 1), (3, 2)])
    def test_batch_is_bitwise_equal_to_the_unsharded_plan(self, nshards, rf):
        _, plan = make_plan(seed=19)
        pairs = sample_pairs(plan.n, 120, seed=7)
        oracle = [plan.query(s, t) for s, t in pairs]
        with ShardedService(
            plan, nshards=nshards, replication_factor=rf, rpc_timeout=5.0
        ) as svc:
            assert svc.query_batch(pairs) == oracle
            s, t = pairs[0]
            assert svc.query(s, t) == oracle[0]

    @pytest.mark.parametrize("nshards", [1, 2, 3])
    def test_packed_answers_match_the_plan(self, nshards, numpy_mode):
        # Plain rows plus isolated vertices (empty label rows, inf), and
        # an incremental plan whose landmark slots have a hole.
        g = random_graph(53, n_lo=40, n_hi=60)
        isolated = [g.add_vertex() for _ in range(3)]
        plain = build_hcl(
            g, select_landmarks(g, 4, policy="degree")
        ).compile_plan()
        dyn = DynamicHCL.build(grid_graph(6, 7), [0, 6, 17, 30, 41])
        registry = dyn.enable_plan_epochs()
        dyn.query(0, 1)
        dyn.remove_landmark(17)
        holey = registry.head_plan()
        assert -1 in holey.landmark_ids
        for plan in (plain, holey):
            pairs = sample_pairs(plan.n, 150, seed=nshards)
            if plan is plain:
                a, b, c = isolated
                pairs += [(a, 0), (1, b), (c, c)]
            oracle = [plan.query(s, t) for s, t in pairs]
            part = partition_plan(plan, nshards)
            homes = [part.shard_of(v) for v in range(plan.n)]
            cross = sum(homes[s] != homes[t] for s, t in pairs)
            assert (cross > 0) == (nshards > 1)
            with ShardedService(plan, nshards=nshards, rpc_timeout=5.0) as svc:
                assert svc.query_batch(pairs) == oracle
                singles = [svc.query(s, t) for s, t in pairs[-25:]]
                assert singles == oracle[-25:]
            if plan is plain:
                assert oracle[-3:] == [math.inf] * 3

    @pytest.mark.parametrize("max_settled", [0, 40, 10**9])
    def test_step_budget_charges_like_a_per_pair_loop(
        self, max_settled, numpy_mode
    ):
        # Routing charges each pair with two non-empty rows its label
        # scan, min(|L(s)|, |L(t)|), in batch order, before any RPC; a
        # step budget is sticky, so it stops counting once exceeded, and
        # an exceeded budget degrades every pair a shard would answer.
        g = random_graph(59, n_lo=40, n_hi=60)
        g.add_vertex()
        plan = build_hcl(
            g, select_landmarks(g, 4, policy="degree")
        ).compile_plan()
        pairs = sample_pairs(plan.n, 80, seed=23)
        offsets = plan.label_offsets
        lengths = [offsets[v + 1] - offsets[v] for v in range(plan.n)]
        want = Budget(max_settled=max_settled)
        live = []
        for i, (s, t) in enumerate(pairs):
            if lengths[s] and lengths[t]:
                want.charge(min(lengths[s], lengths[t]))
                live.append(i)
        assert len(live) < len(pairs)  # some pairs hit the empty row
        if max_settled == 40:
            assert want.exceeded and 40 < want.settled < sum(
                min(lengths[s], lengths[t]) for s, t in pairs
            )  # it stopped counting mid-batch
        with ShardedService(plan, nshards=2, rpc_timeout=5.0) as svc:
            budget = Budget(max_settled=max_settled)
            got = svc.query_batch(pairs, budget)
        assert (budget.settled, budget.exceeded) == (
            want.settled,
            want.exceeded,
        )
        degraded = [
            i for i, r in enumerate(got) if isinstance(r, DegradedResult)
        ]
        assert degraded == (live if want.exceeded else [])
        for i, (s, t) in enumerate(pairs):
            if i not in degraded:
                assert got[i] == plan.query(s, t)

    def test_lost_rows_degrade_only_the_pairs_that_needed_them(
        self, numpy_mode
    ):
        # Shard 1 answers no ``rows`` request.  With three shards, home
        # 0 ships rows from shard 1 (lost) next to rows from shard 2
        # (kept), so the kept ones must still line up with their pairs.
        _, plan = make_plan(seed=61, n_lo=60, n_hi=80)
        pairs = sample_pairs(plan.n, 300, seed=29)
        part = partition_plan(plan, 3)
        rl = part.row_lengths

        def homes(s, t):  # (outer's shard, inner's shard), None if inf
            if not rl[s] or not rl[t]:
                return None
            outer, inner = (t, s) if rl[s] > rl[t] else (s, t)
            return part.shard_of(outer), part.shard_of(inner)

        routes = [homes(s, t) for s, t in pairs]
        assert (0, 1) in routes and (0, 2) in routes
        lost = [i for i, r in enumerate(routes) if r and r[1] == 1 != r[0]]
        fault = ShardFault(
            kind="raise", shard=1, ops=("rows",), requests=tuple(range(8))
        )
        with inject_shard_fault(fault):
            with ShardedService(
                plan, nshards=3, rpc_timeout=5.0, max_attempts=1
            ) as svc:
                got = svc.query_batch(pairs)
        degraded = [
            i for i, r in enumerate(got) if isinstance(r, DegradedResult)
        ]
        assert degraded == lost
        for i, (s, t) in enumerate(pairs):
            if i not in lost:
                assert got[i] == plan.query(s, t)

    def test_killed_replica_fails_over_and_heals(self):
        _, plan = make_plan(seed=23)
        pairs = sample_pairs(plan.n, 60, seed=9)
        oracle = [plan.query(s, t) for s, t in pairs]
        with ShardedService(
            plan, nshards=2, replication_factor=2, rpc_timeout=5.0
        ) as svc:
            svc._sets[0].replicas[0].terminate()  # simulated worker death
            assert svc.query_batch(pairs) == oracle  # failover, no gaps
            health = svc.health()  # post-batch auto-restart healed it
            assert health["replicas_alive"] == health["replicas_total"] == 4
            assert health["fleet.restarts"] >= 1
            assert svc.registry.counter("shard.0.restarts").value >= 1

    def test_exhausted_budget_degrades_instead_of_hanging(self):
        _, plan = make_plan(seed=29)
        pairs = sample_pairs(plan.n, 40, seed=11)
        with ShardedService(plan, nshards=2, rpc_timeout=5.0) as svc:
            budget = Budget(max_settled=1)  # dries up almost immediately
            got = svc.query_batch(pairs, budget)
            assert len(got) == len(pairs)
            degraded = [r for r in got if isinstance(r, DegradedResult)]
            assert degraded  # budget ran dry mid-batch
            for r in degraded:
                assert r.is_upper_bound
            assert svc.health()["fleet.degraded"] >= len(degraded)

    def test_admission_sheds_with_overloaded(self):
        _, plan = make_plan(seed=31)
        with ShardedService(plan, nshards=1, max_inflight=1) as svc:
            svc._admit()  # occupy the only slot
            try:
                with pytest.raises(Overloaded):
                    svc.query(0, 1)
                assert svc.health()["fleet.shed"] == 1
            finally:
                svc._release()
            assert svc.query(0, 1) == plan.query(0, 1)

    def test_out_of_range_pair_rejected(self):
        _, plan = make_plan(seed=37)
        with ShardedService(plan, nshards=2) as svc:
            with pytest.raises(RequestError):
                svc.query(0, plan.n)
            with pytest.raises(RequestError):
                svc.query(-1, 0)
            with pytest.raises(RequestError, match=rf"\(2, {plan.n}\)"):
                svc.query_batch([(0, 1), (2, plan.n), (-1, 0)])
            with pytest.raises(RequestError):
                svc.query_batch([(0, 1), (1, 2.5)])
            # Ragged batches whose ids total 2n are not re-paired.
            with pytest.raises(RequestError):
                svc.query_batch([(1, 2, 3), (4,)])
            with pytest.raises(RequestError):
                svc.query_batch([(0, 1), (1, 2, 3), (4,), (2, 3)])
            with pytest.raises(RequestError):
                svc.query_batch([(0, 1, 2)])

    def test_epoch_publish_propagates_with_atomic_cutover(self):
        g = grid_graph(5, 6)
        dyn = DynamicHCL.build(g, [0, 29])
        registry = dyn.enable_plan_epochs()
        pairs = sample_pairs(g.n, 60, seed=13)
        with ShardedService.from_registry(registry, nshards=2) as svc:
            assert svc.health()["version"] == 1
            before = registry.head_plan()
            assert svc.query_batch(pairs) == [
                before.query(s, t) for s, t in pairs
            ]
            dyn.add_landmark(14)  # sync recompile publishes epoch 2
            assert svc._stale  # the publish listener fired
            after = registry.head_plan()
            assert svc.query_batch(pairs) == [
                after.query(s, t) for s, t in pairs
            ]
            health = svc.health()
            assert health["version"] == 2
            assert not health["stale"]
            assert health["fleet.publishes"] == 2

    def test_service_shard_helper_serves_the_live_index(self):
        g = grid_graph(4, 5)
        svc = HCLService.build(g, [0, 19])
        fleet = svc.shard(nshards=2)
        try:
            pairs = sample_pairs(g.n, 40, seed=17)
            assert fleet.query_batch(pairs) == [
                svc._dyn.query(s, t) for s, t in pairs
            ]
            svc.submit(AddLandmarkRequest(7))
            assert fleet.query_batch(pairs) == [
                svc._dyn.query(s, t) for s, t in pairs
            ]
            assert fleet.health()["version"] == 2
        finally:
            fleet.close()

    def test_health_shape(self):
        _, plan = make_plan(seed=41)
        with ShardedService(plan, nshards=2, replication_factor=2) as svc:
            svc.query_batch(sample_pairs(plan.n, 10, seed=19))
            health = svc.health()
            assert health["status"] == "ok"
            assert health["replicas_total"] == 4
            assert health["inflight"] == 0
            assert set(health["shards"]) == {"0", "1"}
            for snap in health["shards"].values():
                assert snap["alive"] == 2
                assert snap["breaker_open"] is False
                assert len(snap["replicas"]) == 2
                for rsnap in snap["replicas"]:
                    assert rsnap["alive"] and rsnap["pid"]
                    assert rsnap["stale_replies"] == 0
                    assert rsnap["breaker"] == "closed"
                    assert rsnap["breaker_retry_after"] == 0.0
            assert health["fleet.batches"] == 1
            assert health["fleet.queries"] == 10

    def test_close_is_idempotent_and_queries_after_close_are_rejected(self):
        _, plan = make_plan(seed=43)
        svc = ShardedService(plan, nshards=2)
        svc.close()
        svc.close()
        with pytest.raises(RequestError):
            svc.query(0, 1)

    def test_constructor_validation(self):
        _, plan = make_plan(seed=47)
        with pytest.raises(RequestError):
            ShardedService(plan, nshards=2, replication_factor=0)
        with pytest.raises(RequestError):
            ShardedService(plan, nshards=2, rpc_timeout=0.0)
        with pytest.raises(RequestError):
            ShardedService(plan, nshards=2, max_inflight=0)


# ----------------------------------------------------------------------
# Stale-reply drain bound (stubbed pipe, no processes)
# ----------------------------------------------------------------------
class _BabblingConn:
    """A pipe stand-in that answers with whatever req_ids it was fed."""

    def __init__(self, replies):
        self.replies = list(replies)
        self.sent = []

    def send(self, msg):
        self.sent.append(msg)

    def poll(self, timeout):
        return bool(self.replies)

    def recv(self):
        return self.replies.pop(0)


def _stub_replica(replies):
    from repro.breaker import CircuitBreaker
    from repro.shard.replication import Replica

    replica = Replica(0, 0, CircuitBreaker())
    replica.alive = True
    replica._conn = _BabblingConn(replies)
    return replica


class TestStaleReplyDrain:
    def test_stale_replies_are_drained_counted_and_skipped(self):
        from repro.shard.replication import Replica  # noqa: F401

        # req_id will be 1; two stale replies precede the real one.
        replica = _stub_replica(
            [(-7, True, "old"), (0, True, "older"), (1, True, "fresh")]
        )
        seen = []
        replica.on_stale = lambda n: seen.append(n)
        assert replica.call("rows", None, 1.0) == "fresh"
        assert replica.stale_replies == 2
        assert seen == [1, 1]

    def test_babbling_worker_cannot_pin_the_drain_loop(self):
        """A worker feeding stale replies faster than the deadline
        drains must hit the drain bound, not spin until the timeout."""
        from repro.shard.replication import _MAX_STALE_REPLIES, ReplicaTimeout

        # Infinite babble: every reply has a wrong req_id.
        class _Endless(_BabblingConn):
            def poll(self, timeout):
                return True

            def recv(self):
                return (999, True, "stale")

        replica = _stub_replica([])
        replica._conn = _Endless([])
        with pytest.raises(ReplicaTimeout, match="babbling"):
            replica.call("rows", None, 60.0)  # deadline alone won't save us
        assert replica.stale_replies == _MAX_STALE_REPLIES
