"""Slicing a compiled :class:`~repro.core.plan.QueryPlan` into shard state.

The serving data of a plan splits cleanly along the vertex axis: the CSR
label arrays are per-vertex (big — the only part worth sharding), while
the dense ``k × k`` highway table, the landmark id list and the landmark
exclusion mask are tiny and read by every query.  A :class:`ShardSlice`
therefore carries its **contiguous vertex range's** label rows plus a
**full replica** of the small shared structures — the same split
Dual-Hierarchy Labelling makes between its compact hierarchy and the bulk
labels.

Partitioning is pure arithmetic over :meth:`QueryPlan.canonical_arrays`:
ranges are the balanced contiguous split ``[i·n/N, (i+1)·n/N)``, and the
slice arrays are copies of the canonical arrays' subranges with offsets
rebased to the slice.  Because every float travels verbatim and the
per-row ``(distance, slot)`` order is preserved, a worker evaluating the
landmark-constrained minimum over slice rows is bitwise-identical to the
unsharded plan evaluating the same rows.

The slices travel to their workers by pickle over each worker's pipe, at
spawn, on restart and on every epoch broadcast; the coordinator's
:class:`Partition` keeps them, so a restarted replica is handed the same
slice objects the broadcast shipped.

:class:`Partition` additionally keeps what the *coordinator* needs to
route without consulting any worker: the range boundaries and the full
``row_lengths`` array (one small int per vertex) that replicates the
plan's outer/inner endpoint selection — ``QueryPlan.query`` scans the
smaller label row as the outer loop, and float addition is not
associative, so the coordinator must make the identical choice to stay
bitwise-equal to the oracle.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass

from ..errors import RequestError

__all__ = [
    "Partition",
    "ShardSlice",
    "partition_plan",
    "shard_of",
]


@dataclass(frozen=True)
class ShardSlice:
    """One shard's serving state: a vertex-range row slice + replicas.

    Picklable and immutable — this is the unit the coordinator ships to a
    worker over its pipe (at spawn, on restart, and on every epoch
    broadcast).  ``offsets`` is rebased so ``offsets[v - lo] ..
    offsets[v - lo + 1]`` indexes ``slots``/``dists`` for owned vertex
    ``v``; ``row_lengths`` covers **all** ``n`` vertices so the worker
    can re-derive the plan's outer/inner choice for any pair it is asked
    to combine.
    """

    shard_id: int
    nshards: int
    lo: int
    hi: int  # exclusive
    n: int
    k: int
    landmark_ids: array
    offsets: array  # len hi - lo + 1, rebased to 0
    slots: array
    dists: array
    hw: array  # full dense k*k replica
    row_lengths: array  # len n, full replica

    @property
    def owned(self) -> int:
        """Number of vertices this slice owns."""
        return self.hi - self.lo

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ShardSlice(shard={self.shard_id}/{self.nshards}, "
            f"range=[{self.lo}, {self.hi}), entries={len(self.slots)})"
        )


def _bounds(n: int, nshards: int) -> list[int]:
    """Balanced contiguous range boundaries: ``nshards + 1`` fenceposts."""
    return [i * n // nshards for i in range(nshards + 1)]


def shard_of(v: int, bounds: list[int]) -> int:
    """The shard owning vertex ``v`` under balanced contiguous ranges.

    Closed form instead of bisect: with fenceposts ``bounds[i] =
    ⌊i·n/N⌋``, vertex ``v`` belongs to the largest ``i`` with
    ``⌊i·n/N⌋ <= v``, which is ``⌈(v+1)·N/n⌉ - 1`` (verified
    exhaustively against bisect in the test suite).
    """
    n = bounds[-1]
    nshards = len(bounds) - 1
    return ((v + 1) * nshards + n - 1) // n - 1


class Partition:
    """A plan split into shippable slices plus the routing replica.

    ``bounds`` has ``nshards + 1`` fenceposts; ``row_lengths[v]`` is
    ``|L(v)|`` for every vertex — the coordinator's copy of the
    outer/inner selection key.  ``slices[i]`` is shard ``i``'s
    :class:`ShardSlice`, shipped on the epoch broadcast and again to any
    replica restarted while this partition is pinned.
    """

    __slots__ = ("nshards", "n", "k", "bounds", "row_lengths", "slices")

    def __init__(self, nshards, n, k, bounds, row_lengths, slices):
        self.nshards = nshards
        self.n = n
        self.k = k
        self.bounds = bounds
        self.row_lengths = row_lengths
        self.slices = slices

    def shard_of(self, v: int) -> int:
        return ((v + 1) * self.nshards + self.n - 1) // self.n - 1

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Partition(nshards={self.nshards}, n={self.n}, k={self.k})"


def _build_slice(i, nshards, bounds, canonical, row_lengths) -> ShardSlice:
    n, k, landmark_ids, offsets, slots, dists, hw = canonical
    lo, hi = bounds[i], bounds[i + 1]
    base = offsets[lo]
    # "q" (int64) everywhere — the C long would be 4 bytes on LLP64
    # platforms (64-bit Windows) and silently wrap past 2^31 entries.
    local_offsets = array("q", (offsets[v] - base for v in range(lo, hi + 1)))
    return ShardSlice(
        shard_id=i,
        nshards=nshards,
        lo=lo,
        hi=hi,
        n=n,
        k=k,
        landmark_ids=landmark_ids,
        offsets=local_offsets,
        slots=slots[base : offsets[hi]],
        dists=dists[base : offsets[hi]],
        hw=hw,
        row_lengths=row_lengths,
    )


def partition_plan(plan, nshards: int) -> Partition:
    """Split ``plan`` into ``nshards`` contiguous-range slices.

    Accepts any :class:`~repro.core.plan.QueryPlan` (incremental plans
    are densified by :meth:`~repro.core.plan.QueryPlan.canonical_arrays`
    first, so the slices always carry the canonical hole-free slot
    numbering — every shard of one partition agrees on slots and on the
    ``δ_H`` replica layout).
    """
    if nshards < 1:
        raise RequestError(f"nshards must be >= 1, got {nshards}")
    canonical = plan.canonical_arrays()
    n, k, landmark_ids, offsets, slots, dists, hw = canonical
    if nshards > max(1, n):
        raise RequestError(
            f"cannot split {n} vertices across {nshards} shards"
        )
    bounds = _bounds(n, nshards)
    row_lengths = array(
        "q", (offsets[v + 1] - offsets[v] for v in range(n))
    )
    slices = [
        _build_slice(i, nshards, bounds, canonical, row_lengths)
        for i in range(nshards)
    ]
    return Partition(nshards, n, k, bounds, row_lengths, slices)
