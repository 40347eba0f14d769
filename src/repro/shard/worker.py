"""Shard worker process: serves one vertex range's label rows over a pipe.

A worker is a plain loop over a ``multiprocessing`` pipe speaking a tiny
framed RPC protocol: requests are ``(req_id, op, payload)`` tuples,
replies are ``(req_id, ok, payload)``.  The ``req_id`` echo lets the
coordinator discard stale replies after a timeout — a worker that was
merely slow does not poison the next request on the same pipe.

State is **versioned**: the worker holds ``{version: _ShardState}`` and
every data RPC names the version it wants, so an epoch broadcast can
stage version ``V+1`` on every shard while in-flight batches keep reading
``V`` — the coordinator flips its own version pointer only after every
shard confirmed the stage (atomic cutover), then garbage-collects ``V``
with ``drop`` RPCs.  A worker asked for a version it does not hold
answers an error, never a wrong-version result.

Ops::

    ping                               -> liveness + held versions + counters
    load    (version, slice)           -> stage a ShardSlice under that version
    drop    (version,)                 -> forget a staged version
    rows    (version, vs)              -> (lens, slots, dists)
    combine (version, S, T, ref, rows) -> landmark-constrained minima
    shutdown                           -> reply, then exit

``load`` carries the :class:`~repro.shard.partition.ShardSlice` itself,
pickled over the pipe like every other payload.

The data ops carry packed stdlib arrays, never tuples: vertex ids,
``ref``, ``lens`` and ``slots`` are ``array('q')``; distances and
answers are ``array('d')``.  A set of label rows travels as CSR: row
``i`` is the next ``lens[i]`` entries of ``slots``/``dists``.  ``rows``
returns the rows of the owned vertices ``vs``, in ``vs`` order.

``combine`` is the serving op.  It answers ``QUERY(S[p], T[p])`` for
every ``p``.  The worker re-derives the plan's outer/inner endpoint
choice from its full ``row_lengths`` replica; the **outer** endpoint is
always owned — the coordinator routed the pair here for that reason.
``ref[p]`` is ``-1`` when the inner endpoint is owned too, else the
index of its row in ``rows``, which the coordinator fetched from the
owning shard.  Every pair has non-empty label rows (the coordinator
answers the others itself).  The worker runs the plan's own kernels, so
every answer is bitwise-equal to :meth:`repro.core.plan.QueryPlan.query`:

* a batch runs :func:`repro.core.planvec.gather_min_plus`, the reduction
  behind :meth:`~repro.core.planvec.VectorBackend.query_pairs`, against
  the g-matrix of the slice.  numpy, the views and the g-matrix are set
  up on a version's first batch, so staging a slice stays cheap;
* a single pair, and every request when numpy is absent, runs
  :func:`repro.core.plan.min_plus`, the flat kernel behind
  ``QueryPlan.query`` — as the in-process service answers a single
  request with ``plan.query`` and a batch with the vector backend.

Fault injection: :data:`_SHARD_FAULT` is the seam
:func:`repro.testing.faults.inject_shard_fault` arms; the coordinator
ships it to each worker at spawn, and the worker consults it once per
RPC named in the fault's ``ops`` (the data RPCs by default; add
``"ping"`` to fault heartbeat probes) — kill / hang / slow / raise.
Always ``None`` in production.
"""

from __future__ import annotations

from array import array
from itertools import accumulate

from ..core.plan import min_plus
from ..core.planvec import VectorBackend, gather_min_plus, numpy_available
from .partition import ShardSlice

__all__ = ["shard_worker_main"]

#: Test seam (see repro.testing.faults.inject_shard_fault).  Read by the
#: *coordinator* process at spawn time and shipped to the worker as a
#: process argument, so it survives restarts and the spawn start method.
_SHARD_FAULT = None


class _ShardState:
    """One staged slice, served by the plan's kernels.

    Holds the :class:`ShardSlice` as shipped.  The numpy views over it
    (a :class:`~repro.core.planvec.VectorBackend` of the owned rows)
    and the dense ``δ_H`` rows the flat kernel reads are derived on the
    first request that needs them.
    """

    __slots__ = ("sl", "_vec", "_hwrows")

    def __init__(self, sl: ShardSlice):
        self.sl = sl
        self._vec = None
        self._hwrows = None

    def _vector(self, size: int):
        """The slice's vector backend for a request of ``size`` items;
        ``None`` for a single item or without numpy."""
        if size < 2 or not numpy_available():
            return None
        vec = self._vec
        if vec is None:
            sl = self.sl
            vec = self._vec = VectorBackend(
                (sl.owned, sl.k, sl.landmark_ids, sl.offsets, sl.slots,
                 sl.dists, sl.hw)
            )
        return vec

    def _row(self, v: int):
        """Owned vertex ``v``'s ``(distance, slot)`` label row."""
        sl = self.sl
        i = v - sl.lo
        a, b = sl.offsets[i], sl.offsets[i + 1]
        return tuple(zip(sl.dists[a:b], sl.slots[a:b]))

    def rows(self, vs):
        """The CSR label rows ``(lens, slots, dists)`` of owned ``vs``."""
        sl = self.sl
        lo, offsets = sl.lo, sl.offsets
        lens, slots, dists = array("q"), array("q"), array("d")
        for v in vs:
            a, b = offsets[v - lo], offsets[v - lo + 1]
            lens.append(b - a)
            slots += sl.slots[a:b]
            dists += sl.dists[a:b]
        return lens, slots, dists

    def combine(self, S, T, ref, rows):
        """``QUERY(S[p], T[p])`` for every pair, outer endpoints owned."""
        vec = self._vector(len(S))
        if vec is None:
            return self._combine_flat(S, T, ref, rows)
        np = vec.np
        lo = self.sl.lo
        S = np.frombuffer(S, dtype=np.int64)
        T = np.frombuffer(T, dtype=np.int64)
        ref = np.frombuffer(ref, dtype=np.int64)
        rl = np.frombuffer(self.sl.row_lengths, dtype=np.int64)
        # The plan's selection rule: the smaller row outer, ties keep s.
        swap = rl[S] > rl[T]
        outer = np.where(swap, T, S) - lo
        inner = np.where(swap, S, T)
        G = vec.g_matrix()
        out = np.empty(len(S))
        here = ref < 0
        if here.any():
            i_v = inner[here] - lo
            out[here] = gather_min_plus(
                G, outer[here], vec.offsets[i_v], vec.row_len[i_v],
                vec.slots, vec.dists,
            )
        if not here.all():
            lens = np.frombuffer(rows[0], dtype=np.int64)
            r = ref[~here]
            out[~here] = gather_min_plus(
                G, outer[~here], (np.cumsum(lens) - lens)[r], lens[r],
                np.frombuffer(rows[1], dtype=np.int64),
                np.frombuffer(rows[2], dtype=np.float64),
            )
        return array("d", out.tobytes())

    def _combine_flat(self, S, T, ref, rows):
        sl = self.sl
        rl = sl.row_lengths
        hwrows = self._hwrows
        if hwrows is None:
            k = sl.k
            hw = sl.hw.tolist()
            hwrows = self._hwrows = [hw[i * k : (i + 1) * k] for i in range(k)]
        lens, slots, dists = rows
        starts = [0, *accumulate(lens)]
        out = array("d")
        for s, t, r in zip(S, T, ref):
            if rl[s] > rl[t]:
                outer_v, inner_v = t, s
            else:
                outer_v, inner_v = s, t
            if r < 0:
                inner = self._row(inner_v)
            else:
                a, b = starts[r], starts[r + 1]
                inner = tuple(zip(dists[a:b], slots[a:b]))
            out.append(min_plus(self._row(outer_v), inner, hwrows))
        return out


def shard_worker_main(conn, shard_id: int, replica_id: int, fault=None) -> None:
    """Entry point of a shard worker process (top-level: spawn-picklable)."""
    states: dict[int, _ShardState] = {}
    served = 0
    data_ordinal = 0
    while True:
        try:
            req_id, op, payload = conn.recv()
        except (EOFError, OSError):
            return  # coordinator went away: nothing left to serve
        try:
            if fault is not None and op in getattr(
                fault, "ops", ("rows", "combine")
            ):
                ordinal = data_ordinal
                data_ordinal += 1
                fault.fire(shard_id, replica_id, ordinal)
            if op in ("rows", "combine"):
                version = payload[0]
                state = states.get(version)
                if state is None:
                    raise KeyError(
                        f"shard {shard_id} replica {replica_id} does not "
                        f"hold version {version}"
                    )
                if op == "rows":
                    result = state.rows(payload[1])
                else:
                    result = state.combine(*payload[1:])
                served += len(payload[1])
            elif op == "ping":
                result = {
                    "shard": shard_id,
                    "replica": replica_id,
                    "versions": sorted(states),
                    "served": served,
                }
            elif op == "load":
                version, sl = payload
                states[version] = _ShardState(sl)
                result = version
            elif op == "drop":
                states.pop(payload[0], None)
                result = payload[0]
            elif op == "shutdown":
                conn.send((req_id, True, None))
                return
            else:
                raise ValueError(f"unknown shard op {op!r}")
        except SystemExit:
            raise
        except BaseException as exc:  # noqa: BLE001 - reply, don't die
            try:
                conn.send((req_id, False, f"{type(exc).__name__}: {exc}"))
            except (OSError, BrokenPipeError):
                return
            continue
        try:
            conn.send((req_id, True, result))
        except (OSError, BrokenPipeError):
            return
