"""Seeded trace generator for the stack benchmark.

A trace is the complete, pre-computed input of one run: the list of
read :class:`Op` records one closed-loop caller sends back to back (and
sends again from the start if the window outlasts them), plus the ops
due at fixed times (every write, and the exact batches on
``road-traffic``), which the caller sends before the first op it reaches
after their due time.  The generator reads
only the instance (graph and initial landmark set) and the seed, never a
result of the program under test, so a parent commit and a change replay
byte-identical inputs; :func:`digest` hashes the trace for the output.

Query pairs come from :func:`repro.workloads.random_query_pairs` and a
bisect form of :func:`repro.workloads.zipf_query_pairs` that returns the
same pairs for the same seed (checked by the self-tests).  Large batches
are stored as a descriptor ``(law, size, seed)`` and materialised with
numpy at send time, so a trace of millions of pairs costs no memory.
Landmark operations come from :func:`repro.workloads.mixed_update_sequence`
replayed against the generator's own copy of the landmark set.
"""

from __future__ import annotations

import bisect
import hashlib
import random
from array import array
from dataclasses import dataclass, field
from itertools import accumulate

from repro.workloads import mixed_update_sequence, random_query_pairs

# Op kinds.  "c"/"e": constrained/exact single; "b"/"xb": constrained /
# exact batch; "add"/"rm": sigma=1 landmark op; "sigma": merged landmark
# batch; "edge": edge-weight batch; "swap": fleet landmark swap + refresh.
WRITES = ("add", "rm", "sigma", "edge", "swap")


@dataclass(frozen=True)
class Op:
    kind: str
    arg: tuple
    due: float | None = None  # seconds from window start (timed ops)
    sample: tuple = ()  # batch positions (or (0,) for a single) the oracle checks


# ----------------------------------------------------------------------
# Pair laws
# ----------------------------------------------------------------------
class ZipfLaw:
    """The endpoint law of ``zipf_query_pairs``: a seeded rank permutation
    of the vertices with popularity ``rank^-alpha``.

    :meth:`pairs` with the generator's own ``random.Random`` reproduces
    ``zipf_query_pairs(n, q, alpha, seed)`` exactly (one cumulative-weight
    table instead of one per draw); :meth:`batch` draws from the same law
    with numpy for large batches.
    """

    def __init__(self, n: int, alpha: float, seed: int):
        self.rng = random.Random(seed)
        pool = list(range(n))
        self.rng.shuffle(pool)
        self.pool = pool
        self.cum = list(accumulate(1.0 / (rank + 1) ** alpha for rank in range(n)))

    def _draw(self) -> int:
        cum = self.cum
        return self.pool[bisect.bisect(cum, self.rng.random() * cum[-1], 0, len(cum) - 1)]

    def pairs(self, q: int) -> list[tuple[int, int]]:
        out = []
        for _ in range(q):
            s, t = self._draw(), self._draw()
            while t == s:
                t = self._draw()
            out.append((s, t))
        return out

    def batch(self, size: int, seed: int):
        import numpy as np

        rng = np.random.default_rng(seed)
        pool = np.asarray(self.pool, dtype=np.int64)
        cum = np.asarray(self.cum)
        S = pool[np.searchsorted(cum, rng.random(size) * cum[-1], side="right")]
        T = pool[np.searchsorted(cum, rng.random(size) * cum[-1], side="right")]
        while True:
            same = np.nonzero(S == T)[0]
            if not len(same):
                return S, T
            T[same] = pool[
                np.searchsorted(cum, rng.random(len(same)) * cum[-1], side="right")
            ]


def uniform_batch(n: int, size: int, seed: int):
    import numpy as np

    rng = np.random.default_rng(seed)
    S = rng.integers(0, n, size)
    T = rng.integers(0, n, size)
    while True:
        same = np.nonzero(S == T)[0]
        if not len(same):
            return S, T
        T[same] = rng.integers(0, n, len(same))


def batch_pairs(trace: "Trace", arg) -> tuple:
    """Materialise a batch descriptor ``(law, size, seed)`` as pairs."""
    law, size, seed = arg
    if law == "zipf":
        S, T = trace.zipf.batch(size, seed)
    else:
        S, T = uniform_batch(trace.n, size, seed)
    return tuple(zip(S.tolist(), T.tolist()))


class Singles:
    """A compact stream of single-query pairs (two int arrays)."""

    def __init__(self, pairs):
        self.S = array("i", (s for s, _ in pairs))
        self.T = array("i", (t for _, t in pairs))
        self.i = 0

    def next(self) -> tuple[int, int]:
        i = self.i
        self.i = i + 1
        return self.S[i], self.T[i]


# ----------------------------------------------------------------------
# Traces
# ----------------------------------------------------------------------
@dataclass
class Trace:
    workload: str
    seed: int
    n: int
    ops: list
    zipf: ZipfLaw
    timed: list = field(default_factory=list)  # ops sent at their due time


def _batch_sample(rng: random.Random, size: int, k: int = 48) -> tuple:
    return tuple(sorted(rng.sample(range(size), min(k, size))))


def _landmark_ops(n, landmarks, count, rng):
    """``count`` feasible sigma=1 ops from the paper's mixed sequence."""
    current = set(landmarks)
    ops = []
    while len(ops) < count:
        seq = mixed_update_sequence(n, sorted(current), sigma=2, seed=rng.randrange(1 << 30))
        for upd in seq[: count - len(ops)]:
            if upd.kind == "add":
                current.add(upd.vertex)
            else:
                current.discard(upd.vertex)
            ops.append((upd.kind, upd.vertex))
    return ops, current


def _pinned_rng(workload: str) -> random.Random:
    """The landmark mutations are pinned like the instance: every seed
    replays the same writes, so the seed varies only the read stream and
    every run pays the same write cost."""
    return random.Random(f"{workload}/landmark-ops")


def _reconfig_writes(inst, horizon: float) -> list[Op]:
    """At 10%, 40% and 70% of the window: a removal, a sigma=8 batch and
    an insertion (1, 4 and 7 s of a 10 s run)."""
    rng = _pinned_rng("ba-reconfig")
    current = set(inst.landmarks)
    out = []
    for j in range(3):
        t = horizon * (0.1 + 0.3 * j)
        if j == 1:
            seq, final = _landmark_ops(inst.n, current, 8, rng)
            # A merged batch applies the sequence's net effect.
            adds = tuple(sorted(final - current))
            rems = tuple(sorted(current - final))
            out.append(Op("sigma", (adds, rems), t))
        else:
            want = "remove" if j == 0 else "add"
            seq = mixed_update_sequence(inst.n, sorted(current), sigma=2, seed=rng.randrange(1 << 30))
            v = next(upd.vertex for upd in seq if upd.kind == want)
            final = current - {v} if want == "remove" else current | {v}
            out.append(Op("rm" if want == "remove" else "add", (v,), t))
        current = final
    return out


def generate(workload: str, seed: int, seconds: float, inst) -> Trace:
    """The trace of ``workload`` for one run of ``seconds`` seconds.

    ``inst`` carries the instance: ``n``, ``landmarks`` (initial set),
    ``edges`` (``(u, v, w)`` list, road only).  ``ops`` holds a few
    times what the seed code serves in ``seconds`` on the full-size
    instances; it holds reads only, so replaying it more than once is
    well defined.
    """
    rng = random.Random(f"{workload}/{seed}")
    n = inst.n
    zipf = ZipfLaw(n, 1.0, rng.randrange(1 << 30))
    bmin, bmax = inst.batch_range
    ops: list[Op] = []
    sample_every = 25  # one single in 25 is checked by the oracle

    def single(kind, pair, extra=()):
        checked = rng.randrange(sample_every) == 0
        return Op(kind, pair + extra, None, (0,) if checked else ())

    def batch(kind, law, size, due=None):
        return Op(kind, (law, size, rng.randrange(1 << 30)), due, _batch_sample(rng, size))

    if workload in ("ba-read", "ba-reconfig", "ba-fleet"):
        cycles = int(seconds * (15 if workload == "ba-fleet" else 75)) + 20
        n_c = 600 if workload == "ba-fleet" else 300
        n_e = n_c // 10
        cz = Singles(zipf.pairs(cycles * n_c))
        ue = Singles(random_query_pairs(n, cycles * n_e, seed=rng.randrange(1 << 30)))
        for cyc in range(cycles):
            law = "zipf" if (cyc % 2 == 0 and workload != "ba-fleet") else "uniform"
            ops.append(batch("b", law, rng.randrange(bmin, bmax + 1)))
            for i in range(n_c):
                ops.append(single("c", cz.next()))
                if i % 10 == 9:
                    ops.append(single("e", ue.next()))
        timed = []
        if workload == "ba-reconfig":
            timed = _reconfig_writes(inst, seconds)
        elif workload == "ba-fleet":
            # Two pinned landmark swaps, at 30% and 70% of the window.
            current = set(inst.landmarks)
            wrng = _pinned_rng(workload)
            for frac in (0.3, 0.7):
                seq, current = _landmark_ops(n, current, 2, wrng)
                add = next(v for kind, v in seq if kind == "add")
                rem = next(v for kind, v in seq if kind == "remove")
                timed.append(Op("swap", (add, rem), seconds * frac))
        return Trace(workload, seed, n, ops, zipf, timed)

    if workload == "road-traffic":
        cycles = int(seconds * 5) + 10
        per = 40
        # Each exact single is followed by a run of constrained ones, so
        # that most of those are timed away from the exact search's
        # allocations and memory traffic.
        n_c = 100
        ue = Singles(random_query_pairs(n, cycles * per, seed=rng.randrange(1 << 30)))
        uc = Singles(random_query_pairs(n, n_c * cycles * per, seed=rng.randrange(1 << 30)))
        weights = {(u, v): w for u, v, w in inst.edges}
        edges = sorted(weights)
        # Timed, so every run holds the same two of each whatever its
        # speed: exact batches at 10% and 50% of the window, edge batches
        # at 30% and 70%.
        timed = []
        for j, frac in enumerate((0.1, 0.3, 0.5, 0.7)):
            if j % 2 == 0:
                timed.append(batch("xb", "uniform", inst.exact_batch, seconds * frac))
                continue
            upd = []
            for u, v in rng.sample(edges, 4):
                w = weights[(u, v)]
                new = w
                while new == w:
                    new = float(rng.randint(1, 10))
                weights[(u, v)] = new
                upd.append((u, v, new))
            timed.append(Op("edge", tuple(upd), seconds * frac))
        for cyc in range(cycles):
            for i in range(per):
                # A quarter of the exact singles carry a step budget.
                steps = (inst.budget_steps,) if i % 4 == 3 else (None,)
                ops.append(single("e", ue.next(), steps))
                for _ in range(n_c):
                    ops.append(single("c", uc.next()))
        return Trace(workload, seed, n, ops, zipf, timed)

    raise ValueError(f"unknown workload {workload!r}")


def digest(trace: Trace) -> str:
    """SHA-256 over every op (kind, arguments, due time, oracle sample)."""
    h = hashlib.sha256()
    h.update(f"{trace.workload}|{trace.seed}|{trace.n}".encode())
    for op in trace.timed + trace.ops:
        h.update(repr((op.kind, op.arg, op.due, op.sample)).encode())
    return h.hexdigest()
