"""Instances, timed set-up and trace replay for the stack benchmark.

One load process per workload replays its trace through the public
serving API: ``HCLService.submit`` / ``query_batch`` /
``submit_batch_reconfigure``, and ``ShardedService`` on the fleet.
Every workload is a closed loop with one caller: the next op goes out
when the previous one returns, and each op is timed from its send.
"""

from __future__ import annotations

import gc
import os
import shutil
import time
from dataclasses import dataclass, field

from repro.budget import Budget, DegradedResult
from repro.core import select_landmarks
from repro.graphs import assign_uniform_integer_weights, barabasi_albert, road_grid
from repro.service import (
    AddLandmarkRequest,
    ConstrainedDistanceRequest,
    DistanceRequest,
    HCLService,
    RemoveLandmarkRequest,
)
from repro.workloads import random_query_pairs

from traffic import WRITES, batch_pairs
from spans import TRACER

NPROC = os.cpu_count() or 1


@dataclass
class Instance:
    workload: str
    graph: object
    k: int
    batch_range: tuple[int, int]
    budget_steps: int = 0
    exact_batch: int = 0
    landmarks: list = field(default_factory=list)
    edges: list = field(default_factory=list)

    @property
    def n(self) -> int:
        return self.graph.n

    @property
    def durable(self) -> bool:
        return self.workload in ("ba-reconfig", "road-traffic")


def make_instance(workload: str, small: bool = False) -> Instance:
    """The pinned instance of ``workload`` (``small``: smoke-test size)."""
    if workload == "road-traffic":
        side = 30 if small else 140
        graph = assign_uniform_integer_weights(road_grid(side, side, seed=7), 1, 10, seed=5)
        inst = Instance(workload, graph, 8 if small else 32, (0, 0),
                        budget_steps=200 if small else 4000,
                        exact_batch=600 if small else 512)
        inst.edges = list(graph.edges())
    else:
        graph = barabasi_albert(2000 if small else 20000, 3, seed=11)
        inst = Instance(workload, graph, 16 if small else 32,
                        (200, 2000) if small else (2000, 20000))
    inst.landmarks = select_landmarks(graph, inst.k, policy="auto", seed=1)
    return inst


class Stack:
    """One set-up serving stack: the service, its WAL and (fleet) shards."""

    def __init__(self, inst: Instance, workdir: str):
        self.inst = inst
        self.workdir = workdir
        self.svc = None
        self.fleet = None

    def build(self) -> None:
        """Graph in memory -> first answer served (the timed set-up)."""
        inst = self.inst
        landmarks = select_landmarks(inst.graph, inst.k, policy="auto", seed=1)
        wal = os.path.join(self.workdir, "index.wal") if inst.durable else None
        self.svc = HCLService.build(inst.graph, landmarks, wal=wal)
        self.svc.enable_plan_epochs()
        if inst.workload == "ba-fleet":
            self.fleet = self.svc.shard(nshards=2, replication_factor=1)
            self.fleet.query(0, 1)
        self.svc.submit(ConstrainedDistanceRequest(0, 1))
        self.svc.query_batch([(0, 1), (1, 2)])  # builds the g-matrix

    def close(self) -> None:
        if self.fleet is not None:
            self.fleet.close()
            self.fleet = None
        if self.svc is not None and self.svc.wal is not None:
            self.svc.wal.close()
        self.svc = None


def timed_setups(inst: Instance, root: str, count: int) -> tuple[list[float], Stack]:
    """Set up ``count`` times; keep the last stack, close the others."""
    times = []
    stack = None
    for i in range(count):
        if stack is not None:
            stack.close()
            stack = None
            gc.collect()
        workdir = os.path.join(root, f"setup{i}")
        shutil.rmtree(workdir, ignore_errors=True)
        os.makedirs(workdir)
        stack = Stack(inst, workdir)
        start = time.perf_counter()
        try:
            stack.build()
        except BaseException:
            stack.close()  # stops fleet workers a failed set-up started
            raise
        times.append(time.perf_counter() - start)
    return times, stack


def warm_up(stack: Stack, seed: int) -> None:
    """Finish lazy set-up (refinement adjacency, hot code) off the trace."""
    n = stack.inst.n
    for s, t in random_query_pairs(n, 200, seed=seed + 77):
        query(stack, s, t)
    for s, t in random_query_pairs(n, 5, seed=seed + 78):
        stack.svc.submit(DistanceRequest(s, t))


def query(stack: Stack, s: int, t: int):
    if stack.fleet is not None:
        return stack.fleet.query(s, t)
    return stack.svc.submit(ConstrainedDistanceRequest(s, t))


@dataclass
class Record:
    """What a replay observed: latencies per kind and sampled answers."""

    lat: dict = field(default_factory=dict)  # kind -> [ns]
    pairs: dict = field(default_factory=dict)  # batch kind -> pairs answered
    answers: list = field(default_factory=list)  # (writes before, op, pairs, values)
    writes: list = field(default_factory=list)  # committed write ops, in order
    attempted: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)
    degraded: int = 0
    exact_answers: int = 0
    timed_late: int = 0  # timed ops sent after the deadline
    window_s: float = 0.0


def prepare(trace, op):
    if op.kind in ("b", "xb"):
        return batch_pairs(trace, op.arg)
    return None


def execute(stack: Stack, op, pairs):
    svc = stack.svc
    kind = op.kind
    if kind == "c":
        return query(stack, op.arg[0], op.arg[1])
    if kind == "e":
        steps = op.arg[2] if len(op.arg) > 2 else None
        budget = Budget(max_settled=steps) if steps else None
        return svc.submit(DistanceRequest(op.arg[0], op.arg[1]), budget=budget)
    if kind == "b":
        if stack.fleet is not None:
            return stack.fleet.query_batch(pairs)
        return svc.query_batch(pairs)
    if kind == "xb":
        return svc.query_batch(pairs, exact=True, workers=NPROC)
    if kind == "add":
        return svc.submit(AddLandmarkRequest(op.arg[0]))
    if kind == "rm":
        return svc.submit(RemoveLandmarkRequest(op.arg[0]))
    if kind == "sigma":
        return svc.submit_batch_reconfigure(adds=op.arg[0], removes=op.arg[1])
    if kind == "edge":
        return svc.submit_batch_reconfigure(edge_updates=op.arg)
    if kind == "swap":
        result = svc.submit_batch_reconfigure(adds=[op.arg[0]], removes=[op.arg[1]])
        stack.fleet.refresh()
        return result
    raise ValueError(f"unknown op kind {kind!r}")


def replay(stack: Stack, trace, seconds: float, traced: bool) -> Record:
    """One closed-loop caller sends ``trace.ops`` back to back for
    ``seconds``, from the start again if it runs out; a timed op goes out
    before the first op reached after its due time, and one still waiting
    at the deadline goes out after it, so every run sends every timed op.
    Sampled answers carry the number of writes committed before them,
    the index state the oracle recomputes them at."""
    rec = Record()
    clock = time.perf_counter_ns
    tr = TRACER
    t0 = clock()
    deadline = t0 + int(seconds * 1e9)
    timed = list(trace.timed)
    committed = 0
    i = 0
    while True:
        now = clock()
        if now >= deadline:
            rec.timed_late = len(timed)
            todo = [(-1, op) for op in timed]
            timed = []
        elif timed and now >= t0 + int(timed[0].due * 1e9):
            todo = [(-1, timed.pop(0))]
        else:
            todo = [(i, trace.ops[i % len(trace.ops)])]
            i += 1
        if not todo:
            break
        for req, op in todo:
            pairs = prepare(trace, op)
            tr.req = req
            root = tr.open("loadgen." + op.kind) if traced else -1
            start = clock()
            try:
                result = execute(stack, op, pairs)
                ok = True
            except Exception as exc:  # every failure is counted, the run goes on
                ok = False
                result = None
                if len(rec.errors) < 5:
                    rec.errors.append(f"{op.kind}: {type(exc).__name__}: {exc}")
            end = clock()
            if traced:
                tr.close(root)
            rec.attempted += 1
            rec.lat.setdefault(op.kind, []).append(end - start)
            if not ok:
                rec.failed += 1
                continue
            if op.kind in WRITES:
                committed += 1
                rec.writes.append(op)
                continue
            if op.kind in ("b", "xb"):
                rec.pairs[op.kind] = rec.pairs.get(op.kind, 0) + len(pairs)
            if op.kind in ("e", "xb"):
                values = result if op.kind == "xb" else [result]
                rec.exact_answers += len(values)
                rec.degraded += sum(1 for v in values if isinstance(v, DegradedResult))
            if op.sample:
                single = op.kind in ("c", "e")
                values = [result] if single else [result[p] for p in op.sample]
                got = [op.arg[:2]] if single else [pairs[p] for p in op.sample]
                rec.answers.append((committed, op, got, values))
    rec.window_s = (clock() - t0) / 1e9
    return rec


# ----------------------------------------------------------------------
# End-to-end metrics
# ----------------------------------------------------------------------
def quantile(values, q: float) -> float:
    """Nearest-rank ``q`` quantile (0 < q <= 1)."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    rank = max(1, -(-int(round(q * 1e6)) * len(ordered) // 1_000_000))
    return float(ordered[min(rank, len(ordered)) - 1])


def batch_rate(rec: Record) -> float:
    pairs = sum(rec.pairs.values())
    ns = sum(sum(rec.lat.get(kind, ())) for kind in ("b", "xb"))
    return pairs / (ns / 1e9) if ns else 0.0
