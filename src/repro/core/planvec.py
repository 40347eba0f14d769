"""Vectorized min-plus backend over a compiled plan's flat buffers.

The interpreted flat kernel in :mod:`repro.core.plan` walks the CSR
label rows and the dense ``δ_H`` table with Python loops — every cell
access boxes a float.  The landmark-constrained upper bound is exactly a
min-plus product of two label rows against ``δ_H``, so with numpy the
whole batch collapses into a handful of array reductions over *the same
buffers*, wrapped zero-copy with ``numpy.frombuffer`` (the buffer-backed
sparse-kernel idiom of APGL's ``SparseUtilsCython``).

Bitwise equality with the flat kernel (and hence the dict oracle) rests
on the same two facts the flat g-row fast path documents:

* every candidate is associated ``(d_outer + δ) + d_inner`` — here as
  ``g[outer, slot] = min_i (d_i + δ)`` followed by ``g[sj] + dj`` —
  and float addition is monotone, so the factored minimum equals the
  double-loop minimum *bitwise*, not just approximately;
* ``min`` over a fixed value set is order-independent, and numpy's
  float64 arithmetic performs the identical IEEE-754 operations CPython
  floats do, so vectorization changes neither the candidate values nor
  the reduction result.

The outer endpoint is chosen exactly as the flat kernel does — the
smaller label row, ties keeping ``s`` — which matters only for the
budget-charging contract (both sides charge ``min(|L(s)|, |L(t)|)``);
the minimum itself is symmetric.

numpy is an **optional** dependency: :func:`numpy_available` gates every
entry point, ``REPRO_NO_NUMPY=1`` forces the pure-python flat path (the
no-numpy CI job sets it), and :func:`default_backend` is the single
place the ``auto`` backend choice is made.
"""

from __future__ import annotations

import math
import os

INF = math.inf

__all__ = [
    "VectorBackend",
    "default_backend",
    "gather_min_plus",
    "numpy_available",
]

#: Target cell count per temporary chunk in the batched kernels; bounds
#: peak scratch memory at roughly 8–24 MB regardless of batch size.
_CHUNK_CELLS = 1 << 20

_NUMPY = None
_NUMPY_CHECKED = False


def _load_numpy():
    """Import numpy once; honor the ``REPRO_NO_NUMPY`` kill-switch."""
    global _NUMPY, _NUMPY_CHECKED
    if not _NUMPY_CHECKED:
        _NUMPY_CHECKED = True
        if os.environ.get("REPRO_NO_NUMPY", "").strip() not in ("", "0"):
            _NUMPY = None
        else:
            try:
                import numpy
            except ImportError:
                _NUMPY = None
            else:
                _NUMPY = numpy
    return _NUMPY


def numpy_available() -> bool:
    """Whether the vectorized backend can run in this process."""
    return _load_numpy() is not None


def gather_min_plus(G, outer, starts, lens, slots, dists):
    """The batched constrained ``QUERY`` reduction over CSR inner rows.

    Entry ``p`` of the result is ``min_i G[outer[p], slots[j]] +
    dists[j]`` over ``j = starts[p] + i`` for ``i < lens[p]``: the
    outer endpoint's g-row against its partner's label row.  Every
    ``lens[p]`` must be positive.  :meth:`VectorBackend.query_pairs`
    reads the inner rows from the plan; the shard worker reads them from
    its slice or from rows shipped by another shard.
    """
    np = _load_numpy()
    out = np.empty(len(outer))
    # Chunked padded gather: one ``min(g_outer[slots] + dists)``
    # reduction per chunk, entries past a row's length masked to +inf.
    chunk = max(1, _CHUNK_CELLS // max(1, int(lens.max())))
    for c_lo in range(0, len(outer), chunk):
        c_hi = c_lo + chunk
        c_lens = lens[c_lo:c_hi]
        pos = np.arange(int(c_lens.max()))
        valid = pos[None, :] < c_lens[:, None]
        idx = np.where(valid, starts[c_lo:c_hi, None] + pos[None, :], 0)
        vals = np.take_along_axis(G[outer[c_lo:c_hi]], slots[idx], axis=1)
        vals += dists[idx]
        vals[~valid] = INF
        out[c_lo:c_hi] = vals.min(axis=1)
    return out


def default_backend() -> str:
    """Resolve the ``auto`` backend: env override, else numpy presence.

    ``REPRO_PLAN_BACKEND=vector|flat`` pins the choice (the differential
    tests use it); otherwise ``vector`` whenever numpy imports.
    """
    forced = os.environ.get("REPRO_PLAN_BACKEND", "").strip().lower()
    if forced in ("vector", "flat"):
        return forced
    return "vector" if numpy_available() else "flat"


class VectorBackend:
    """numpy views over one plan's canonical arrays, plus the kernels.

    Construct from :meth:`QueryPlan.canonical_arrays` — the views are
    zero-copy (``frombuffer``), so the backend adds O(n) derived
    metadata (row lengths) and, lazily, the ``n × k`` matrix ``G`` with
    ``G[v, j] = min_i (d_i + δ_H(r_i, j))`` over ``L(v)`` — the batched
    generalization of the flat kernel's memoized hot g-rows (built for
    *every* vertex because one vectorized pass costs less than the
    per-row Python loop the flat path pays for hot rows alone).
    """

    __slots__ = (
        "np",
        "n",
        "k",
        "offsets",
        "slots",
        "dists",
        "hw",
        "row_len",
        "_G",
    )

    def __init__(self, canonical):
        np = _load_numpy()
        if np is None:  # pragma: no cover - callers gate on numpy_available
            raise RuntimeError("numpy is not available")
        n, k, _ids, offsets, slots, dists, hw = canonical
        self.np = np
        self.n = n
        self.k = k
        self.offsets = np.frombuffer(offsets, dtype=np.int64)
        self.slots = np.frombuffer(slots, dtype=np.int64)
        self.dists = np.frombuffer(dists, dtype=np.float64)
        self.hw = np.frombuffer(hw, dtype=np.float64).reshape(k, k)
        self.row_len = self.offsets[1:] - self.offsets[:-1]
        self._G = None

    # ------------------------------------------------------------------
    # The dense g-matrix
    # ------------------------------------------------------------------
    def g_matrix(self):
        """``G[v, j] = min_i (d_i + δ_H(r_i, j))``, built on first use."""
        G = self._G
        if G is None:
            G = self._G = self._build_g_matrix()
        return G

    def _build_g_matrix(self):
        np = self.np
        n, k = self.n, self.k
        G = np.full((n, k), INF)
        if k == 0 or n == 0 or len(self.slots) == 0:
            return G
        lmax = int(self.row_len.max())
        if lmax == 0:
            return G
        # Padded per-row gather, chunked over vertices: rows shorter than
        # the chunk's max length read entry 0 and are masked to +inf, so
        # they cannot disturb the minimum (and empty rows stay all-inf,
        # matching the flat kernel's "missing row" answer).
        chunk = max(1, _CHUNK_CELLS // max(1, lmax * k))
        pos = np.arange(lmax)
        for lo in range(0, n, chunk):
            hi = min(n, lo + chunk)
            lens = self.row_len[lo:hi]
            valid = pos[None, :] < lens[:, None]
            idx = np.where(valid, self.offsets[lo:hi, None] + pos[None, :], 0)
            # (C, lmax, k): d_i + δ row of each entry's landmark slot
            cand = self.dists[idx][:, :, None] + self.hw[self.slots[idx]]
            cand[~valid] = INF
            G[lo:hi] = cand.min(axis=1)
        return G

    # ------------------------------------------------------------------
    # Constrained QUERY kernels
    # ------------------------------------------------------------------
    def query(self, s: int, t: int) -> float:
        """Single-pair ``QUERY(s, t)`` — bitwise-equal to the flat kernel."""
        row_len = self.row_len
        ls, lt = int(row_len[s]), int(row_len[t])
        if ls == 0 or lt == 0:
            return INF
        # Outer endpoint: the smaller label row, ties keeping s — the
        # flat kernel's exact selection rule.
        outer, inner = (t, s) if ls > lt else (s, t)
        lo = int(self.offsets[inner])
        hi = int(self.offsets[inner + 1])
        g = self.g_matrix()[outer]
        vals = g[self.slots[lo:hi]] + self.dists[lo:hi]
        return float(vals.min())

    def query_pairs(self, sources, targets):
        """Vectorized ``QUERY`` over parallel endpoint arrays.

        Returns a float64 array; entry ``p`` is bitwise-equal to
        ``plan.query(sources[p], targets[p])``.  Pairs with an empty
        label row on either side answer ``inf``, exactly like the flat
        kernel's early return.
        """
        np = self.np
        S = np.asarray(sources, dtype=np.int64)
        T = np.asarray(targets, dtype=np.int64)
        out = np.full(len(S), INF)
        if self.k == 0 or len(S) == 0:
            return out
        row_len = self.row_len
        swap = row_len[S] > row_len[T]
        outer = np.where(swap, T, S)
        inner = np.where(swap, S, T)
        live = np.nonzero((row_len[outer] > 0) & (row_len[inner] > 0))[0]
        if len(live) == 0:
            return out
        i_v = inner[live]
        out[live] = gather_min_plus(
            self.g_matrix(), outer[live], self.offsets[i_v], row_len[i_v],
            self.slots, self.dists,
        )
        return out

    def query_many(self, keys) -> list[float]:
        """``QUERY`` over ``(s, t)`` key pairs, as native Python floats."""
        if not len(keys):
            return []
        np = self.np
        flat = np.asarray(keys, dtype=np.int64)
        return self.query_pairs(flat[:, 0], flat[:, 1]).tolist()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "dense-g" if self._G is not None else "lazy"
        return f"VectorBackend(n={self.n}, k={self.k}, {state})"
