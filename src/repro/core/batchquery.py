"""Batched query serving over a frozen HCL index.

The per-pair ``QUERY``/``distance`` routines of :class:`HCLIndex` are the
right shape for online single queries, but bulk traffic (the paper issues
``q = 10^7`` queries per scenario; BatchHL makes the same observation for
labeling indexes generally) leaves three kinds of shared work on the table:

* **Deduplication** — real workloads are skewed; the batch answers each
  distinct pair once and fans the value back out.  Reversed duplicates
  share the cached per-endpoint rows but keep their own orientation:
  ``QUERY``'s float association follows argument order when the endpoint
  labels tie in size, so collapsing ``(t, s)`` onto ``(s, t)`` could drift
  from the per-pair loop by one ulp on float-weighted graphs.
* **Per-endpoint landmark rows** — ``QUERY(s, t)`` is a double loop over
  ``L(s) × L(t)``.  For an endpoint ``v`` that recurs across the batch, the
  inner minimum ``g_v[r] = min_{(r_i, d_i) ∈ L(v)} d_i + δ_H(r_i, r)`` is
  computed once per landmark, turning every later pair with endpoint ``v``
  into a single scan of the *other* label.  This is the batch's shared
  upper-bound cache.
* **One snapshot, one mask** — exact queries refine the constrained bound
  with a bounded bidirectional search; the batch runs every search against
  one immutable :class:`~repro.graphs.csr.CSRGraph` snapshot and one
  prebuilt landmark-exclusion mask instead of rebuilding O(n) state per
  pair.

All three transformations are value-exact (not just approximately equal):
the float operations performed for any pair are associated exactly as in
the serial routines, so ``query_batch`` agrees bitwise with a per-pair
loop.  Large batches can additionally fan chunks of distinct pairs out over
a ``multiprocessing`` pool; small batches fall back to the serial path
because pool setup would dominate.  A plan-backed pool receives the plan
through the pool initializer's arguments: fork children inherit the
parent's object, spawn children unpickle its canonical arrays.
"""

from __future__ import annotations

import math
import multiprocessing
from typing import Iterable, Sequence

from ..budget import Budget
from ..errors import DeadlineExceeded, RequestError, VertexError
from ..graphs.csr import CSRGraph
from ..graphs.traversal import bounded_bidirectional_distance_masked
from .index import HCLIndex
from .plan import QueryPlan
from .planvec import default_backend

INF = math.inf

__all__ = ["query_batch"]

#: Build a landmark row for an endpoint once it recurs this often among the
#: batch's distinct pairs (the row costs ``|L(v)| · |R|`` operations and
#: saves roughly ``|L(s)| · |L(t)| - |L(t)|`` per reuse; measured on Zipf
#: workloads the break-even sits around 8 occurrences).
ROW_THRESHOLD = 8

#: Distinct-pair count below which the pool is never engaged.
MIN_PARALLEL = 512

#: Distinct-pair count from which ``plan="auto"`` compiles a
#: :class:`~repro.core.plan.QueryPlan` for the batch when the index does
#: not already hold a valid one (one compile amortizes over this many
#: answers comfortably; smaller batches only use a plan that exists).
PLAN_MIN_BATCH = 256


class _BatchSolver:
    """Shared-state evaluator for one batch over a frozen index snapshot.

    Operates on the index *components* (highway, labeling, CSR snapshot)
    rather than the index object so the same class runs unchanged inside
    pool workers, where the adjacency-list graph is never shipped.
    """

    def __init__(self, highway, labeling, csr, row_threshold=ROW_THRESHOLD):
        self._highway = highway
        self._labeling = labeling
        self._csr = csr
        self._row_threshold = row_threshold
        self._landmarks = sorted(highway.landmarks)
        self._rows: dict[int, dict[int, float]] = {}
        self._freq: dict[int, int] = {}
        self._mask: list[bool] | None = None

    # ------------------------------------------------------------------
    # Shared structures
    # ------------------------------------------------------------------
    def note_endpoints(self, keys: Iterable[tuple[int, int]]) -> None:
        """Record endpoint multiplicities to steer lazy row construction."""
        freq = self._freq
        for s, t in keys:
            freq[s] = freq.get(s, 0) + 1
            freq[t] = freq.get(t, 0) + 1

    def _row(self, v: int) -> dict[int, float]:
        """``g_v : r -> min_i d_i + δ_H(r_i, r)`` over ``L(v)``, memoized."""
        row = self._rows.get(v)
        if row is None:
            label = self._labeling.row_items(v)
            hrow = self._highway.row
            row = {}
            for r in self._landmarks:
                best = INF
                for ri, di in label:
                    d = di + hrow(ri).get(r, INF)
                    if d < best:
                        best = d
                row[r] = best
            self._rows[v] = row
        return row

    def _exclusion_mask(self) -> list[bool]:
        if self._mask is None:
            mask = [False] * self._csr.n
            for r in self._landmarks:
                mask[r] = True
            self._mask = mask
        return self._mask

    # ------------------------------------------------------------------
    # Per-pair evaluation (value-exact mirrors of HCLIndex)
    # ------------------------------------------------------------------
    def constrained(self, s: int, t: int) -> float:
        """``QUERY(s, t)`` — bitwise equal to :meth:`HCLIndex.query`.

        The serial routine scans the *smaller* label in its outer loop
        (ties keep the first argument), associating every candidate as
        ``(d_i + δ) + d_j`` with ``d_i`` drawn from that outer label.  The
        memoized row collapses the outer loop, so it is only valid for the
        endpoint the serial path would scan first; it is built and used
        exclusively for that endpoint (falling back to the double loop
        otherwise), keeping the association identical whichever endpoint
        is hot.  Within that constraint the row path is exact: float
        addition is monotone, so ``min_j (min_i (d_i + δ)) + d_j`` equals
        the double-loop minimum ``min_{i,j} (d_i + δ) + d_j`` bitwise.
        """
        ls = self._labeling.row_items(s)
        lt = self._labeling.row_items(t)
        if not ls or not lt:
            return INF
        if len(ls) > len(lt):
            outer_v, outer, inner = t, lt, ls
        else:
            outer_v, outer, inner = s, ls, lt
        if outer_v in self._rows or self._freq.get(outer_v, 0) >= self._row_threshold:
            g = self._row(outer_v)
            best = INF
            for rj, dj in inner:
                d = g.get(rj, INF) + dj
                if d < best:
                    best = d
            return best
        row = self._highway.row
        best = INF
        for ri, di in outer:
            hrow = row(ri)
            for rj, dj in inner:
                d = di + hrow.get(rj, INF) + dj
                if d < best:
                    best = d
        return best

    def _from_landmark(self, r: int, u: int) -> float:
        """Mirror of :meth:`HCLIndex.query_from_landmark`."""
        hrow = self._highway.row(r)
        best = INF
        for rj, dj in self._labeling.row_items(u):
            d = hrow.get(rj, INF) + dj
            if d < best:
                best = d
        return best

    def exact(
        self,
        s: int,
        t: int,
        budget: Budget | None = None,
        strict: bool = False,
    ) -> float:
        """Exact distance — value-equal to :meth:`HCLIndex.distance`.

        Same branch structure; the refinement search runs on the shared CSR
        snapshot with the shared exclusion mask.  Budget semantics mirror
        :meth:`HCLIndex.distance`: the constrained bound is always
        computed, and only the refinement degrades.
        """
        if s == t:
            return 0.0
        highway = self._highway
        s_is_lmk = s in highway
        t_is_lmk = t in highway
        if s_is_lmk and t_is_lmk:
            return highway.distance(s, t)
        if s_is_lmk:
            return self._from_landmark(s, t)
        if t_is_lmk:
            return self._from_landmark(t, s)
        ub = self.constrained(s, t)
        if budget is None:
            return bounded_bidirectional_distance_masked(
                self._csr, s, t, ub, self._exclusion_mask()
            )
        if budget.check():
            if strict:
                raise DeadlineExceeded(
                    f"batch distance({s}, {t}) exceeded its budget before "
                    f"refinement ({budget.reason})"
                )
            return budget.degrade(ub)
        best = bounded_bidirectional_distance_masked(
            self._csr, s, t, ub, self._exclusion_mask(), budget
        )
        if budget.exceeded:
            if strict:
                raise DeadlineExceeded(
                    f"batch distance({s}, {t}) exceeded its budget "
                    f"mid-refinement ({budget.reason})"
                )
            return budget.degrade(best)
        return best

    def solve(
        self,
        keys: Sequence[tuple[int, int]],
        exact: bool,
        budget: Budget | None = None,
        strict: bool = False,
    ) -> list[float]:
        """Answer the given distinct pairs in order."""
        self.note_endpoints(keys)
        if budget is None:
            evaluate = self.exact if exact else self.constrained
            return [evaluate(s, t) for s, t in keys]
        if exact:
            return [self.exact(s, t, budget, strict) for s, t in keys]
        # Constrained answers are the anytime floor themselves: each one is
        # still computed exactly, but the label work is charged so a shared
        # step budget spanning mixed traffic stays meaningful.
        out = []
        for s, t in keys:
            ls = self._labeling.row_items(s)
            lt = self._labeling.row_items(t)
            if ls and lt:
                budget.charge(min(len(ls), len(lt)))
            out.append(self.constrained(s, t))
        return out


class _PlanBatchSolver:
    """Plan-backed twin of :class:`_BatchSolver` (bitwise-equal answers).

    Serves every pair from a compiled
    :class:`~repro.core.plan.QueryPlan`: the constrained double loop runs
    over flat slot-interned rows with dense ``δ_H`` loads, the memoized
    per-endpoint rows live on the plan (seeded with the batch's endpoint
    multiplicities), and exact refinements run in the plan's reusable
    :class:`~repro.core.plan.SearchWorkspace` over its landmark-free
    compiled adjacency.  In-process the adjacency derives from the live
    graph; in pool workers from the shipped CSR snapshot — identical
    neighbor content and order either way, so identical answers.

    Budget semantics mirror :class:`_BatchSolver` exactly: exact pairs
    charge refinement steps only (not label work), constrained batches
    charge the outer-loop label scan per pair.

    ``backend="vector"`` routes the constrained bounds through the
    plan's :class:`~repro.core.planvec.VectorBackend` — one min-plus
    reduction over the whole batch instead of a per-pair double loop.
    The bounds are bitwise-equal to the flat kernel's, so the answers
    (and, for budgeted batches, the charge sequence) are unchanged; when
    numpy is absent the solver silently serves the flat path.
    """

    def __init__(self, plan: QueryPlan, graph=None, backend: str = "flat"):
        self._plan = plan
        if graph is not None:
            plan.attach_graph(graph)
        self._vec = plan.vector_backend() if backend == "vector" else None

    def constrained(self, s: int, t: int) -> float:
        return self._plan.query(s, t)

    def exact(
        self,
        s: int,
        t: int,
        budget: Budget | None = None,
        strict: bool = False,
        ub: float | None = None,
    ) -> float:
        plan = self._plan
        if budget is None:
            return plan.distance(s, t, ub=ub)
        if s == t:
            return 0.0
        mask = plan.mask
        s_is_lmk = mask[s]
        t_is_lmk = mask[t]
        if s_is_lmk and t_is_lmk:
            slot_of = plan.slot_of
            return plan._hwrows[slot_of[s]][slot_of[t]]
        if s_is_lmk:
            return plan.query_from_landmark(s, t)
        if t_is_lmk:
            return plan.query_from_landmark(t, s)
        # Like _BatchSolver.exact, the batch twin does not charge label
        # work against the budget — only refinement steps.
        if ub is None:
            ub = plan.query(s, t)
        if budget.check():
            if strict:
                raise DeadlineExceeded(
                    f"batch distance({s}, {t}) exceeded its budget before "
                    f"refinement ({budget.reason})"
                )
            return budget.degrade(ub)
        best = bounded_bidirectional_distance_masked(
            plan._graph, s, t, ub, mask, budget
        )
        if budget.exceeded:
            if strict:
                raise DeadlineExceeded(
                    f"batch distance({s}, {t}) exceeded its budget "
                    f"mid-refinement ({budget.reason})"
                )
            return budget.degrade(best)
        return best

    def solve(
        self,
        keys: Sequence[tuple[int, int]],
        exact: bool,
        budget: Budget | None = None,
        strict: bool = False,
    ) -> list[float]:
        """Answer the given distinct pairs in order."""
        plan = self._plan
        vec = self._vec
        if vec is not None:
            return self._solve_vectorized(keys, exact, budget, strict)
        plan.note_endpoints(keys)
        if budget is None:
            evaluate = self.exact if exact else self.constrained
            return [evaluate(s, t) for s, t in keys]
        if exact:
            return [self.exact(s, t, budget, strict) for s, t in keys]
        rows = plan._rows
        out = []
        for s, t in keys:
            rs = rows[s]
            rt = rows[t]
            if rs and rt:
                budget.charge(min(len(rs), len(rt)))
            out.append(plan.query(s, t))
        return out

    def _solve_vectorized(
        self,
        keys: Sequence[tuple[int, int]],
        exact: bool,
        budget: Budget | None,
        strict: bool,
    ) -> list[float]:
        """The vectorized twin of :meth:`solve` (bitwise-equal answers).

        Constrained bounds come from one batched min-plus reduction; the
        budget charge sequence replays the flat loop's exactly (same
        pairs, same order, same amounts), and exact pairs hand their
        precomputed bound to :meth:`exact` so refinement control flow —
        including ``DegradedResult`` semantics — is untouched.
        """
        plan = self._plan
        vec = self._vec
        bounds = vec.query_many(list(keys))
        if exact:
            if budget is None:
                return [
                    self.exact(s, t, ub=ub)
                    for (s, t), ub in zip(keys, bounds)
                ]
            return [
                self.exact(s, t, budget, strict, ub=ub)
                for (s, t), ub in zip(keys, bounds)
            ]
        if budget is None:
            return bounds
        rows = plan._rows
        for s, t in keys:
            rs = rows[s]
            rt = rows[t]
            if rs and rt:
                budget.charge(min(len(rs), len(rt)))
        return bounds


# ----------------------------------------------------------------------
# Pool plumbing
# ----------------------------------------------------------------------
_POOL_SOLVER: _BatchSolver | _PlanBatchSolver | None = None
_POOL_EXACT = False


def _init_query_pool(
    highway, labeling, csr, row_threshold, exact, plan=None, backend="flat"
) -> None:
    global _POOL_SOLVER, _POOL_EXACT
    if plan is not None:
        # The plan replaces the dict structures wholesale: fork children
        # inherit the parent's object, spawn children unpickle it from
        # its canonical arrays (``QueryPlan.__reduce__``).  The CSR
        # snapshot (when present) backs its refinement adjacency.
        _POOL_SOLVER = _PlanBatchSolver(plan, csr, backend)
    else:
        _POOL_SOLVER = _BatchSolver(highway, labeling, csr, row_threshold)
    _POOL_EXACT = exact


def _pool_solve_chunk(keys: list[tuple[int, int]]) -> list[float]:
    return _POOL_SOLVER.solve(keys, _POOL_EXACT)


def _pool_context():
    if "fork" in multiprocessing.get_all_start_methods():
        return multiprocessing.get_context("fork")
    return multiprocessing.get_context()


def query_batch(
    index: HCLIndex,
    pairs: Iterable[tuple[int, int]],
    workers: int | None = None,
    exact: bool = False,
    min_parallel: int = MIN_PARALLEL,
    row_threshold: int = ROW_THRESHOLD,
    budget: Budget | None = None,
    strict: bool = False,
    plan: QueryPlan | str = "auto",
    backend: str = "auto",
) -> list[float]:
    """Answer many ``(s, t)`` queries against a frozen index at once.

    Parameters
    ----------
    index:
        The index to serve from.  It must not be mutated during the call.
    pairs:
        The query pairs; duplicate pairs are answered once.  Reversed
        duplicates share the batch's per-endpoint row cache but are
        evaluated per orientation — ``QUERY``'s float association follows
        argument order when the endpoint labels tie in size, so a merged
        answer could differ from the per-pair loop by one ulp.
    workers:
        Pool size for fanning distinct pairs out over processes.  ``None``
        or ``<= 1`` keeps everything in-process; the pool is also skipped
        below ``min_parallel`` distinct pairs, where setup would dominate.
    exact:
        ``False`` (default) answers the paper's landmark-constrained
        ``QUERY``; ``True`` answers exact distances (constrained bound +
        bounded bidirectional refinement).
    budget:
        Optional :class:`~repro.budget.Budget` shared by the whole batch.
        Once it expires, every remaining exact pair skips (or aborts) its
        refinement search and returns its constrained bound as a flagged
        :class:`~repro.budget.DegradedResult` — the batch always returns
        one sound answer per pair instead of stalling.  Budgeted batches
        stay in-process (a live budget cannot span pool workers), so
        ``workers`` is ignored when ``budget`` is given.
    strict:
        With ``budget``: raise :class:`~repro.errors.DeadlineExceeded` at
        the first degradation instead of returning flagged bounds.
    plan:
        Compiled serving plan policy.  ``"auto"`` (default) serves from
        the index's valid :class:`~repro.core.plan.QueryPlan` when one
        exists, compiling one for batches of at least
        :data:`PLAN_MIN_BATCH` distinct pairs (``plan_mode="off"`` on the
        index disables this); ``"off"`` forces the dict path;
        ``"epoch"`` pins the head epoch of the index's MVCC
        :class:`~repro.core.epoch.PlanRegistry` for the whole batch — the
        answers form one consistent snapshot even if mutations commit
        mid-batch, and the pin is released when the batch returns
        (``"auto"`` routes here on its own when ``plan_mode="epoch"``);
        passing a :class:`~repro.core.plan.QueryPlan` serves from exactly
        that plan (the caller vouches it reflects ``index``).  Every mode
        returns bitwise-identical answers.
    backend:
        Constrained-kernel implementation for plan-backed batches.
        ``"auto"`` (default) picks ``"vector"`` — the numpy min-plus
        backend of :mod:`repro.core.planvec` — whenever numpy is
        importable and ``"flat"`` (the interpreted kernel) otherwise;
        either may be forced by name, and ``REPRO_PLAN_BACKEND``
        overrides ``"auto"`` process-wide.  The choice never changes an
        answer (bitwise-equal kernels); dict-path batches ignore it.

    Returns
    -------
    list[float]
        One value per input pair, in input order, bitwise equal to calling
        ``index.query`` / ``index.distance`` per pair.  Unreachable pairs
        yield ``inf`` exactly as in the serial routines.
    """
    if backend == "auto":
        backend = default_backend()
    elif backend not in ("vector", "flat"):
        raise RequestError(
            f"backend must be 'auto', 'vector' or 'flat', got {backend!r}"
        )
    pair_list = list(pairs)
    if not pair_list:
        return []
    n = index.graph.n
    for s, t in pair_list:
        if not 0 <= s < n or not 0 <= t < n:
            raise VertexError(f"query pair ({s}, {t}) out of range [0, {n})")

    # Shared upper-bound cache, part one: collapse to distinct *ordered*
    # pairs so every answer is computed exactly once.  Orientation is kept
    # (not normalized to ``s <= t``) so each answer reproduces the serial
    # routine's float association for its own argument order; reversed
    # duplicates still share the memoized per-endpoint rows.
    keys = [(s, t) for s, t in pair_list]
    order: dict[tuple[int, int], int] = {}
    for key in keys:
        if key not in order:
            order[key] = len(order)
    distinct = list(order)

    epoch = None
    if isinstance(plan, QueryPlan):
        plan_obj: QueryPlan | None = plan
    elif plan == "epoch" or (plan == "auto" and index.plan_mode == "epoch"):
        # Pin the head epoch for the whole batch; released in the finally
        # below, at which point a superseded epoch can retire.
        epoch = index.epoch_registry().acquire()
        plan_obj = epoch.plan
    elif plan == "auto":
        mode = index.plan_mode
        plan_obj = index.plan() if mode != "off" else None
        if plan_obj is None and mode != "off" and (
            mode == "eager" or len(distinct) >= PLAN_MIN_BATCH
        ):
            plan_obj = index.compile_plan()
    elif plan == "off":
        plan_obj = None
    else:
        raise RequestError(
            f"plan must be 'auto', 'off', 'epoch' or a QueryPlan, got {plan!r}"
        )

    try:
        use_pool = (
            budget is None
            and workers is not None
            and workers > 1
            and len(distinct) >= min_parallel
        )
        # The CSR snapshot only backs the exact-distance refinement
        # searches; constrained batches never touch the graph, and an
        # in-process plan refines on its own compiled adjacency, so the
        # O(n + m) walk (and its per-worker pickle) is skipped whenever
        # nothing needs it.
        need_csr = exact and (use_pool or plan_obj is None)
        csr = CSRGraph(index.graph) if need_csr else None
        if not use_pool:
            if plan_obj is not None:
                solver: _BatchSolver | _PlanBatchSolver = _PlanBatchSolver(
                    plan_obj, index.graph, backend
                )
            else:
                solver = _BatchSolver(
                    index.highway, index.labeling, csr, row_threshold
                )
            values = solver.solve(distinct, exact, budget, strict)
        else:
            pool_size = min(workers, len(distinct))
            chunksize = max(1, len(distinct) // (pool_size * 4))
            chunks = [
                distinct[i : i + chunksize]
                for i in range(0, len(distinct), chunksize)
            ]
            if plan_obj is not None:
                initargs = (
                    None, None, csr, row_threshold, exact, plan_obj, backend
                )
            else:
                initargs = (
                    index.highway, index.labeling, csr, row_threshold, exact
                )
            with _pool_context().Pool(
                pool_size,
                initializer=_init_query_pool,
                initargs=initargs,
            ) as pool:
                values = [
                    v for chunk in pool.map(_pool_solve_chunk, chunks)
                    for v in chunk
                ]

        return [values[order[key]] for key in keys]
    finally:
        if epoch is not None:
            epoch.release()
