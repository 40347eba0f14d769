"""Output checks for the stack benchmark: the oracle and the durability check.

The oracle replays a run, untimed, on an independently built index in
``plan_mode="off"`` (the dict path, the repository's reference): it
applies the committed writes in order and, between them, recomputes
every sampled answer of the run at the same index state.  Exact and
constrained answers must match bitwise; a flagged ``DegradedResult``
must be an upper bound of the exact distance.

The durability check recovers a service from the checkpoint taken before
the window plus only the bytes the WAL had flushed, and compares its
landmark set and sampled answers with the live service.
"""

from __future__ import annotations

import itertools
import os
import random
import time

from importlib import import_module
from repro.budget import DegradedResult
from repro.core import DynamicHCL, build_hcl
from repro.service import ConstrainedDistanceRequest, DistanceRequest, HCLService
from repro.workloads import random_query_pairs

service_mod = import_module("repro.service")


def _apply(dyn: DynamicHCL, op) -> None:
    kind = op.kind
    if kind == "add":
        dyn.add_landmark(op.arg[0])
    elif kind == "rm":
        dyn.remove_landmark(op.arg[0])
    elif kind == "sigma":
        dyn.apply_batch(adds=op.arg[0], removes=op.arg[1])
    elif kind == "swap":
        dyn.apply_batch(adds=[op.arg[0]], removes=[op.arg[1]])
    elif kind == "edge":
        dyn.apply_batch(edge_updates=op.arg)
    else:
        raise ValueError(f"not a write: {kind!r}")


def oracle(graph, landmarks, rec) -> tuple[int, int, int, list[str]]:
    """Recheck the run's sampled answers; returns (checked, degraded
    answers among them, wrong, notes)."""
    index = build_hcl(graph, landmarks)
    index.plan_mode = "off"
    dyn = DynamicHCL(index)
    applied = 0
    checked = degraded = wrong = 0
    notes: list[str] = []
    for state, op, pairs, values in rec.answers:
        while applied < state:
            _apply(dyn, rec.writes[applied])
            applied += 1
        exact = op.kind in ("e", "xb")
        for (s, t), got in zip(pairs, values):
            want = index.distance(s, t) if exact else index.query(s, t)
            checked += 1
            if isinstance(got, DegradedResult):
                degraded += 1
                ok = exact and got.is_upper_bound and float(got) >= want
            else:
                ok = float(got) == want
            if not ok:
                wrong += 1
                if len(notes) < 5:
                    notes.append(f"{op.kind}({s},{t}) after {state} writes: got {got!r}, oracle {want!r}")
    return checked, degraded, wrong, notes


def _bounded_sample_pairs(index, sample=50, seed=0, rng=None):
    """``sample_vertex_pairs`` without materialising all O(n^2) pairs.

    The program's sampler lists every non-landmark pair before sampling,
    which needs ~8 GB at n = 19,600, so ``HCLService.recover`` cannot run
    on the pinned instances.  The durability check substitutes this
    sampler (same contract: distinct non-landmark pairs, seeded) for the
    duration of the recover call only.
    """
    non = [v for v in index.graph.vertices() if not index.is_landmark(v)]
    if len(non) * (len(non) - 1) // 2 <= sample:
        return list(itertools.combinations(non, 2))
    rng = rng if rng is not None else random.Random(seed)
    out: set[tuple[int, int]] = set()
    while len(out) < sample:
        i, j = sorted(rng.sample(range(len(non)), 2))
        out.add((non[i], non[j]))
    return sorted(out)


class Durability:
    """Checkpoint before the window; recover and compare after it."""

    def __init__(self, stack, workdir: str):
        self.stack = stack
        self.dir = workdir
        self.ckpt = os.path.join(workdir, "before.ckpt")
        self.graph = stack.inst.graph.copy()  # the checkpoint-time graph
        stack.svc.checkpoint(self.ckpt)
        self.wal_bytes0 = os.path.getsize(stack.svc.wal.path)
        self.seq0 = stack.svc.wal.last_seq

    def check(self, seed: int) -> dict:
        svc = self.stack.svc
        wal_path = str(svc.wal.path)
        copy = os.path.join(self.dir, "flushed.wal")
        with open(wal_path, "rb") as fh:
            flushed = fh.read()
        with open(copy, "wb") as fh:
            fh.write(flushed)
        records = svc.wal.last_seq - self.seq0
        original = service_mod.sample_vertex_pairs
        service_mod.sample_vertex_pairs = _bounded_sample_pairs
        try:
            start = time.perf_counter()
            report = HCLService.recover(self.graph, self.ckpt, wal=copy)
            recover_s = time.perf_counter() - start
        finally:
            service_mod.sample_vertex_pairs = original
        recovered = report.service
        wrong = 0
        notes = []
        if report.landmarks != tuple(sorted(svc.landmarks)):
            wrong += 1
            notes.append("recovered landmark set differs from the live one")
        if not report.probe_ok:
            wrong += 1
            notes.append(f"recovered index fails its probe: {report.probe_error}")
        if report.wal_records_applied != records:
            wrong += 1
            notes.append(f"replayed {report.wal_records_applied} of {records} WAL records")
        n = self.graph.n
        for i, (s, t) in enumerate(random_query_pairs(n, 60, seed=seed + 91)):
            req = DistanceRequest(s, t) if i % 6 == 0 else ConstrainedDistanceRequest(s, t)
            if recovered.submit(req) != svc.submit(req):
                wrong += 1
                if len(notes) < 5:
                    notes.append(f"recovered answer differs for {req}")
        recovered.wal.close()
        size = len(flushed) - self.wal_bytes0
        return {
            "wrong": wrong,
            "notes": notes,
            "recover_s": recover_s,
            "bytes_per_op": size / records if records else 0.0,
            "records": records,
        }
