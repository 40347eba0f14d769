"""Differential acceptance for the vectorized zero-copy plan backend.

The :class:`~repro.core.planvec.VectorBackend` answers with the *same
bits* as the interpreted flat kernel (and hence the dict oracle) — the
factored ``(d_outer + δ) + d_inner`` association is the one the flat
g-row fast path already uses, and numpy float64 arithmetic performs the
identical IEEE-754 operations.  Everything here is a differential sweep
against those two oracles: constrained/exact answers, degraded-budget
parity, budget charge sequences, epoch-pin stability, and the graceful
pure-python fallback when numpy is absent.
"""

from __future__ import annotations

import math
import os
import pickle
import random
from array import array

import pytest

from conftest import grid_graph, path_graph, random_graph
from repro.budget import Budget, DegradedResult
from repro.core import DynamicHCL, build_hcl, query_batch
from repro.core import planvec
from repro.core.plan import QueryPlan
from repro.errors import DeadlineExceeded, RequestError
from repro.graphs import Graph
from repro.graphs.csr import CSRGraph
from repro.shard.partition import partition_plan
from repro.workloads import random_query_pairs, zipf_query_pairs

INF = math.inf

needs_numpy = pytest.mark.skipif(
    not planvec.numpy_available(), reason="numpy unavailable"
)


def float_graph(seed: int, n_lo: int = 15, n_hi: int = 40) -> Graph:
    """Connected-ish random graph with irregular float weights."""
    rng = random.Random(seed)
    n = rng.randint(n_lo, n_hi)
    g = Graph(n)
    for v in range(1, n):  # spanning tree keeps most pairs reachable
        g.add_edge(v, rng.randrange(v), rng.uniform(0.1, 3.7))
    extra = {(u, v) for u in range(n) for v in range(u + 1, n)}
    extra -= {tuple(sorted((u, v))) for u in range(n) for v, _ in g.neighbors(u)}
    for u, v in rng.sample(sorted(extra), min(len(extra), 2 * n)):
        g.add_edge(u, v, rng.uniform(0.1, 3.7))
    return g


def same_float(a: float, b: float) -> bool:
    """Bitwise equality with nan == nan (inf - inf label arithmetic)."""
    return a == b or (a != a and b != b)


def all_pairs(n: int, stride: int = 1):
    return [(s, t) for s in range(0, n, stride) for t in range(0, n, stride)]


def compiled(g: Graph, landmarks):
    index = build_hcl(g, landmarks)
    index.plan_mode = "off"  # the dict oracle stays a dict
    return index, QueryPlan.compile(index)


# ----------------------------------------------------------------------
# Differential sweeps: vec vs flat vs dict, bitwise
# ----------------------------------------------------------------------
@needs_numpy
class TestVectorDifferential:
    @pytest.mark.parametrize("seed", range(4))
    def test_query_bitwise_int_graphs(self, seed):
        g = random_graph(seed, n_lo=12, n_hi=30, weighted=True)
        rng = random.Random(seed + 500)
        landmarks = sorted(rng.sample(range(g.n), rng.randint(1, g.n // 3)))
        index, plan = compiled(g, landmarks)
        vec = plan.vector_backend()
        for s, t in all_pairs(g.n):
            flat = plan.query(s, t)
            assert same_float(vec.query(s, t), flat)
            assert same_float(flat, index.query(s, t))

    @pytest.mark.parametrize("seed", range(4))
    def test_query_bitwise_float_graphs(self, seed):
        g = float_graph(seed)
        rng = random.Random(seed + 500)
        landmarks = sorted(rng.sample(range(g.n), rng.randint(1, g.n // 3)))
        index, plan = compiled(g, landmarks)
        vec = plan.vector_backend()
        for s, t in all_pairs(g.n):
            flat = plan.query(s, t)
            assert same_float(vec.query(s, t), flat)
            assert same_float(flat, index.query(s, t))

    def test_query_many_native_floats(self):
        g = float_graph(7, n_lo=25, n_hi=35)
        _, plan = compiled(g, [1, 5, 9])
        vec = plan.vector_backend()
        pairs = zipf_query_pairs(g.n, 300, alpha=1.3, seed=7)
        got = vec.query_many(pairs)
        assert got == [plan.query(s, t) for s, t in pairs]
        assert all(type(v) is float for v in got)
        assert vec.query_many([]) == []

    def test_unreachable_pairs_stay_infinite(self):
        g = Graph(8, unweighted=True)
        for u, v in [(0, 1), (1, 2), (2, 3), (4, 5), (5, 6), (6, 7)]:
            g.add_edge(u, v, 1.0)
        _, plan = compiled(g, [1, 2])
        vec = plan.vector_backend()
        for s, t in all_pairs(8):
            assert same_float(vec.query(s, t), plan.query(s, t))
        assert vec.query(0, 5) == INF

    def test_empty_landmark_set(self):
        g = path_graph(6)
        index = build_hcl(g, [0])
        index.plan_mode = "off"
        index.highway.remove_landmark(0)
        for v in range(6):
            index.labeling.clear_vertex(v)
        plan = QueryPlan.compile(index)
        vec = plan.vector_backend()
        for s, t in all_pairs(6):
            assert same_float(vec.query(s, t), plan.query(s, t))
        assert vec.query_many([(0, 5), (1, 4)]) == [INF, INF]

    def test_distance_vector_backend_parity(self):
        g = float_graph(11, n_lo=25, n_hi=35)
        index, plan = compiled(g, [2, 7, 13])
        for s, t in all_pairs(g.n, stride=2):
            assert same_float(
                plan.distance(s, t, backend="vector"), index.distance(s, t)
            )


# ----------------------------------------------------------------------
# query_batch backends
# ----------------------------------------------------------------------
class TestBatchBackends:
    @needs_numpy
    def test_constrained_batch_parity(self):
        g = float_graph(3, n_lo=25, n_hi=35)
        index, plan = compiled(g, [1, 8, 17])
        pairs = zipf_query_pairs(g.n, 400, alpha=1.3, seed=3)
        want = query_batch(index, pairs, plan="off")
        assert query_batch(index, pairs, plan=plan, backend="flat") == want
        assert query_batch(index, pairs, plan=plan, backend="vector") == want

    @needs_numpy
    def test_exact_batch_parity(self):
        g = float_graph(4, n_lo=25, n_hi=35)
        index, plan = compiled(g, [1, 8, 17])
        pairs = random_query_pairs(g.n, 120, seed=4)
        want = query_batch(index, pairs, exact=True, plan="off")
        got = query_batch(
            index, pairs, exact=True, plan=plan, backend="vector"
        )
        assert got == want

    @needs_numpy
    def test_pool_vector_parity(self):
        g = float_graph(13, n_lo=30, n_hi=30)
        index, plan = compiled(g, [1, 11, 21])
        pairs = [(i % g.n, (3 * i + 1) % g.n) for i in range(600)]
        want = query_batch(index, pairs, exact=True, plan="off")
        got = query_batch(
            index,
            pairs,
            workers=2,
            exact=True,
            min_parallel=10,
            plan=plan,
            backend="vector",
        )
        assert want == got

    def test_invalid_backend_rejected(self):
        g = path_graph(5)
        index = build_hcl(g, [0])
        with pytest.raises(RequestError, match="backend"):
            query_batch(index, [(0, 4)], backend="bogus")


# ----------------------------------------------------------------------
# Budget parity: degraded results, strict raises, charge sequences
# ----------------------------------------------------------------------
@needs_numpy
class TestBudgetParity:
    @pytest.mark.parametrize("max_settled", [0, 1, 5, 10_000])
    def test_degraded_results_identical(self, max_settled):
        g = float_graph(3, n_lo=35, n_hi=35)
        rng = random.Random(42)
        landmarks = sorted(rng.sample(range(g.n), 4))
        index, plan = compiled(g, landmarks)
        for s, t in all_pairs(g.n, stride=4):
            ra = index.distance(s, t, budget=Budget(max_settled=max_settled))
            rb = plan.distance(
                s,
                t,
                budget=Budget(max_settled=max_settled),
                backend="vector",
            )
            assert type(ra) is type(rb)
            assert same_float(float(ra), float(rb))
            if isinstance(ra, DegradedResult):
                assert ra.is_upper_bound == rb.is_upper_bound
                assert ra.reason == rb.reason

    def test_strict_raises_identically(self):
        g = grid_graph(6, 6)
        index, plan = compiled(g, [0, 35])
        with pytest.raises(DeadlineExceeded):
            index.distance(1, 34, budget=Budget(max_settled=1), strict=True)
        with pytest.raises(DeadlineExceeded):
            plan.distance(
                1, 34, budget=Budget(max_settled=1), strict=True,
                backend="vector",
            )

    def test_budgeted_batch_parity(self):
        g = float_graph(5, n_lo=30, n_hi=30)
        index, plan = compiled(g, [1, 8, 17])
        pairs = random_query_pairs(g.n, 60, seed=5)
        want = query_batch(
            index, pairs, exact=True, budget=Budget(max_settled=25),
            plan="off",
        )
        got = query_batch(
            index, pairs, exact=True, budget=Budget(max_settled=25),
            plan=plan, backend="vector",
        )
        assert [float(v) for v in want] == [float(v) for v in got]
        assert [type(v) for v in want] == [type(v) for v in got]

    def test_constrained_batch_charges_identically(self):
        g = grid_graph(5, 5)
        index, plan = compiled(g, [0, 24])
        pairs = random_query_pairs(g.n, 40, seed=9)
        ba, bb = Budget(max_settled=10_000), Budget(max_settled=10_000)
        query_batch(index, pairs, budget=ba, plan=plan, backend="flat")
        query_batch(index, pairs, budget=bb, plan=plan, backend="vector")
        assert ba.settled == bb.settled


# ----------------------------------------------------------------------
# Epoch pins: vectorized serving from a retired snapshot stays stable
# ----------------------------------------------------------------------
@needs_numpy
class TestEpochStability:
    def test_pinned_vector_answers_survive_commits(self):
        g = random_graph(3, n_lo=12, n_hi=18)
        dyn = DynamicHCL.build(g, sorted({1, g.n // 2}))
        registry = dyn.enable_plan_epochs(recompile="sync")
        pairs = all_pairs(g.n, stride=2)
        epoch1 = registry.acquire()
        before = epoch1.plan.vector_backend().query_many(pairs)
        assert before == [epoch1.plan.query(s, t) for s, t in pairs]
        dyn.add_landmark(g.n - 2)
        dyn.remove_landmark(1)
        # The pinned snapshot still answers with its original bits...
        assert epoch1.plan.vector_backend().query_many(pairs) == before
        # ...while the new head tracks the mutated dict oracle.
        head = registry.acquire()
        after = head.plan.vector_backend().query_many(pairs)
        assert after == [dyn.query(s, t) for s, t in pairs]
        head.release()
        epoch1.release()


# ----------------------------------------------------------------------
# numpy-less operation: everything degrades to the flat kernel
# ----------------------------------------------------------------------
class TestNoNumpyFallback:
    @pytest.fixture()
    def no_numpy(self, monkeypatch):
        monkeypatch.setattr(planvec, "_NUMPY", None)
        monkeypatch.setattr(planvec, "_NUMPY_CHECKED", True)

    def test_backend_resolution(self, no_numpy):
        assert not planvec.numpy_available()
        assert planvec.default_backend() == "flat"

    def test_vector_backend_returns_none(self, no_numpy):
        g = path_graph(6)
        _, plan = compiled(g, [0, 5])
        assert plan.vector_backend() is None

    def test_query_batch_falls_back_to_flat(self, no_numpy):
        g = float_graph(6, n_lo=20, n_hi=25)
        index, plan = compiled(g, [1, 7])
        pairs = zipf_query_pairs(g.n, 150, alpha=1.2, seed=6)
        want = query_batch(index, pairs, plan="off")
        # An explicit "vector" request degrades silently — the flat
        # kernel is the answer-identical portable path, not an error.
        assert query_batch(index, pairs, plan=plan, backend="vector") == want
        assert query_batch(index, pairs, plan=plan, backend="auto") == want

    def test_env_kill_switch(self, monkeypatch):
        monkeypatch.setenv("REPRO_NO_NUMPY", "1")
        monkeypatch.setattr(planvec, "_NUMPY", None)
        monkeypatch.setattr(planvec, "_NUMPY_CHECKED", False)
        assert not planvec.numpy_available()
        assert planvec.default_backend() == "flat"

    def test_env_backend_pin(self, monkeypatch):
        monkeypatch.setenv("REPRO_PLAN_BACKEND", "flat")
        assert planvec.default_backend() == "flat"


# ----------------------------------------------------------------------
# Shared-memory lifecycle: plans are pickled, so a crash leaks no segment
# ----------------------------------------------------------------------
class TestSharedMemoryLifecycle:
    def test_worker_crash_mid_batch_still_unlinks_once(self):
        """A replica killed by its first data RPC fails over mid-batch
        with bitwise answers and heals.  The plan owns no shared-memory
        segment, so the crash leaves none behind for anyone to unlink."""
        from repro.shard import ShardedService
        from repro.testing import ShardFault, inject_shard_fault

        def segments():
            shm = "/dev/shm"
            if not os.path.isdir(shm):
                return set()
            return {name for name in os.listdir(shm) if name.startswith("psm_")}

        before = segments()
        g = random_graph(17, n_lo=100, n_hi=120)
        _, plan = compiled(g, sorted({1, g.n // 2, g.n - 2}))
        pairs = random_query_pairs(g.n, 120, seed=17)
        oracle = [plan.query(s, t) for s, t in pairs]
        fault = ShardFault(kind="kill", shard=0, replica=0, requests=(0,))
        with inject_shard_fault(fault):
            with ShardedService(
                plan, nshards=2, replication_factor=2, rpc_timeout=0.5
            ) as svc:
                got = svc.query_batch(pairs)
                assert got == oracle
                assert svc.health()["fleet.restarts"] >= 1
        assert segments() - before == set()


# ----------------------------------------------------------------------
# Typecode portability: every flat array is 8 bytes per cell everywhere
# ----------------------------------------------------------------------
class TestTypecodePortability:
    """The LLP64 sweep: ``array("l")`` is 4 bytes on 64-bit Windows, so
    every flat-layer array now pins ``"q"``/``"d"`` — 8-byte cells on
    every platform."""

    def test_csr_arrays_are_8_byte(self):
        g = float_graph(2, n_lo=20, n_hi=25)
        csr = CSRGraph(g)
        clone = pickle.loads(pickle.dumps(csr))
        for c in (csr, clone):
            assert c._offsets.typecode == "q"
            assert c._offsets.itemsize == 8
            assert c._targets.typecode == "q"
            assert c._targets.itemsize == 8

    def test_plan_canonical_arrays_are_8_byte(self):
        g = float_graph(2, n_lo=20, n_hi=25)
        _, plan = compiled(g, [3, 9])
        for p in (plan, pickle.loads(pickle.dumps(plan))):
            n, k, ids, offsets, slots, dists, hw = p.canonical_arrays()
            for arr, code in (
                (ids, "q"), (offsets, "q"), (slots, "q"),
                (dists, "d"), (hw, "d"),
            ):
                assert array(code, arr).itemsize == 8
                assert memoryview(arr).itemsize == 8

    def test_partition_slices_are_8_byte(self):
        g = float_graph(2, n_lo=20, n_hi=25)
        _, plan = compiled(g, [3, 9])
        part = partition_plan(plan, 2)
        for sl in part.slices:
            clone = pickle.loads(pickle.dumps(sl))
            for s in (sl, clone):
                assert s.landmark_ids.typecode == "q"
                assert s.offsets.typecode == "q"
                assert s.slots.typecode == "q"
                assert s.row_lengths.typecode == "q"
                assert s.dists.typecode == "d"
                assert s.hw.typecode == "d"
                for arr in (s.landmark_ids, s.offsets, s.slots,
                            s.row_lengths, s.dists, s.hw):
                    assert arr.itemsize == 8
