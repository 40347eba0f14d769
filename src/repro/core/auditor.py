"""Self-healing background auditor for a live HCL index.

Bit rot, torn recoveries and plain bugs all surface the same way: some
label row or highway cell silently disagrees with the graph, and every
query routed through it is wrong *without any exception ever firing*.
The :class:`IndexAuditor` is the counterpart of crash safety for this
silent failure mode — an incremental checker/repairer a deployment ticks
from a background loop:

* Each :meth:`~IndexAuditor.tick` draws a fresh batch of vertex pairs
  from the shared sampling stream
  (:func:`repro.core.invariants.sample_vertex_pairs` — the same path the
  crash-recovery probe grades with, so the two verdicts are comparable)
  and checks the cover property and ``δ_H`` consistency against
  ground-truth Dijkstra/BFS, restricted to a rotating window of landmark
  rows so a tick's cost stays bounded; the window cycles through the
  whole landmark set every ``⌈|R| / landmarks_per_tick⌉`` ticks.
* A violation *quarantines* the suspect landmark rows — the named
  constrained landmark plus every landmark whose label entries
  participated in the failing decode — and triggers repair: the row's
  ground truth is recomputed with the ``BUILDHCL`` kernel
  (:func:`repro.graphs.traversal.flagged_single_source` via the shared
  per-landmark pass), which reads only the graph, *never* the
  possibly-corrupt index, and the row is rewritten inside an
  :class:`~repro.core.transaction.IndexTransaction` so a fault mid-repair
  rolls back cleanly.
* Repaired rows leave quarantine; rows whose repair failed stay
  quarantined (reported through ``HCLService.health()``), feed the
  service's :class:`~repro.breaker.CircuitBreaker`, and are retried on
  the next tick.

The auditor never raises from :meth:`~IndexAuditor.tick` — it is designed
to run unattended; outcomes land in :class:`AuditFinding` records, the
metrics registry, and the :meth:`~IndexAuditor.summary` health report.

:class:`PlanAuditor` is the same check-and-repair shape one layer up:
where :class:`IndexAuditor` grades the *dict labeling* against the
graph, :class:`PlanAuditor` grades the **compiled plan** against the
dict labeling — the authoritative store the plan was compiled from.
Each tick decodes a sample of plan rows back to ``{landmark: distance}``
and compares them bitwise with ``labeling.label(v)`` and spot-checks
``δ_H`` cells; any mismatch *republishes* — a fresh epoch via
:meth:`~repro.core.epoch.PlanRegistry.republish` in epoch mode, a
dropped cached plan plus a version bump otherwise — because the plan is
derived state: the repair is recompilation, never patching.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from ..errors import ReproError
from .build import _landmark_pass
from .dynhcl import DynamicHCL
from .invariants import (
    find_cover_violations,
    find_highway_violations,
    sample_vertex_pairs,
)
from .transaction import IndexTransaction

__all__ = [
    "AuditFinding",
    "AuditTickReport",
    "IndexAuditor",
    "PlanAuditReport",
    "PlanAuditor",
]


@dataclass(frozen=True)
class AuditFinding:
    """One corrupted landmark row the auditor detected.

    ``repaired`` tells whether the in-transaction rewrite committed;
    ``detail`` carries the first violation (or repair failure) observed.
    """

    tick: int
    kind: str  # "cover" | "highway" | "row"
    landmark: int
    detail: str
    repaired: bool


@dataclass(frozen=True)
class AuditTickReport:
    """Outcome of one :meth:`IndexAuditor.tick`."""

    tick: int
    pairs_checked: int
    landmarks_checked: tuple[int, ...]
    violations: int
    repaired: tuple[int, ...]
    quarantined: tuple[int, ...]

    @property
    def clean(self) -> bool:
        """No violation found and nothing left quarantined."""
        return self.violations == 0 and not self.quarantined


class IndexAuditor:
    """Incremental checker/repairer ticking over a :class:`DynamicHCL`.

    Parameters
    ----------
    dyn:
        The live index to audit.  Repairs commit through an
        :class:`~repro.core.transaction.IndexTransaction` and bump the
        facade's version counter, so query caches invalidate.
    pairs_per_tick:
        Vertex pairs sampled (from a persistent deterministic stream)
        per tick.
    landmarks_per_tick:
        Width of the rotating landmark-row window checked per tick.
        Quarantined rows are always re-checked on top of the window.
    seed:
        Seed of the pair-sampling stream.
    breaker:
        Optional :class:`~repro.breaker.CircuitBreaker`: an unrepairable
        row counts as an infrastructure failure (the write path is
        provably unhealthy), so repeated repair failures trip it.
    registry:
        Optional :class:`~repro.obs.MetricsRegistry` receiving
        ``audit.*`` counters.
    """

    def __init__(
        self,
        dyn: DynamicHCL,
        pairs_per_tick: int = 8,
        landmarks_per_tick: int = 2,
        seed: int = 0,
        breaker=None,
        registry=None,
    ):
        self._dyn = dyn
        self.pairs_per_tick = pairs_per_tick
        self.landmarks_per_tick = landmarks_per_tick
        self._rng = random.Random(seed)
        self._breaker = breaker
        self._registry = registry
        self._cursor = 0
        self.ticks = 0
        self.pairs_checked = 0
        self.violations_found = 0
        self.repairs = 0
        self.repair_failures = 0
        self.quarantined: set[int] = set()
        self.findings: list[AuditFinding] = []

    # ------------------------------------------------------------------
    # Tick
    # ------------------------------------------------------------------
    def _window(self, rows: list[int]) -> list[int]:
        """Next rotating slice of landmark rows, plus any quarantined ones."""
        k = min(self.landmarks_per_tick, len(rows))
        start = self._cursor % len(rows)
        window = {rows[(start + i) % len(rows)] for i in range(k)}
        self._cursor += k
        return sorted(window | (self.quarantined & set(rows)))

    def tick(self) -> AuditTickReport:
        """Run one audit increment; never raises.

        Samples pairs, grades the current landmark window, repairs every
        corrupt row it can attribute, and re-grades the failing pairs to
        confirm the fix.  If the restricted window cannot explain a
        violation the check escalates to a full row sweep — self-healing
        beats incrementality once corruption is in hand.
        """
        self.ticks += 1
        index = self._dyn.index
        rows = sorted(index.landmarks)
        if not rows:
            return self._report((), 0, 0, (), ())
        window = self._window(rows)
        pairs = sample_vertex_pairs(
            index, sample=self.pairs_per_tick, rng=self._rng
        )
        self.pairs_checked += len(pairs)

        cover = find_cover_violations(index, pairs=pairs, landmarks=window)
        highway = find_highway_violations(index, landmarks=window)
        nviol = len(cover) + len(highway)
        self.violations_found += nviol
        if self._registry is not None:
            self._registry.counter("audit.ticks").inc()
            self._registry.counter("audit.pairs_checked").inc(len(pairs))
            if nviol:
                self._registry.counter("audit.violations").inc(nviol)
        repaired: list[int] = []
        if nviol or self.quarantined:
            suspects = self._suspects(index, cover, highway)
            repaired = self._repair_suspects(suspects, cover, highway)
            if cover:
                # Confirm on the very pairs that failed; a survivor means
                # the corruption lives outside the suspect set — escalate
                # to every landmark row.
                failing = [(v.s, v.t) for v in cover]
                still = find_cover_violations(index, pairs=failing)
                if still:
                    repaired += self._repair_suspects(
                        set(rows) - set(repaired), cover=still, highway=()
                    )
        return self._report(
            tuple(window), len(pairs), nviol, tuple(sorted(set(repaired))),
            tuple(sorted(self.quarantined)),
        )

    def _report(
        self, window, pairs_checked, nviol, repaired, quarantined
    ) -> AuditTickReport:
        return AuditTickReport(
            tick=self.ticks,
            pairs_checked=pairs_checked,
            landmarks_checked=window,
            violations=nviol,
            repaired=repaired,
            quarantined=quarantined,
        )

    # ------------------------------------------------------------------
    # Attribution and repair
    # ------------------------------------------------------------------
    def _suspects(self, index, cover, highway) -> set[int]:
        """Landmark rows that could explain the observed violations.

        A failing decode for constrained landmark ``r`` reads ``L(s)``,
        ``L(t)`` and ``δ_H(·, r)``; any landmark appearing there may own
        the corrupt value, so all of them are verified against ground
        truth (cheap rows verify clean and are skipped by the repair).
        """
        label = index.labeling.label
        suspects = set(self.quarantined & index.landmarks)
        for v in cover:
            suspects.add(v.landmark)
            suspects.update(label(v.s))
            suspects.update(label(v.t))
        for h in highway:
            suspects.add(h.r1)
            suspects.add(h.r2)
        return suspects & index.landmarks

    def _repair_suspects(self, suspects, cover, highway) -> list[int]:
        """Verify each suspect row; rewrite the corrupt ones. Never raises."""
        detail_of: dict[int, str] = {}
        for v in cover:
            detail_of.setdefault(v.landmark, str(v))
        for h in highway:
            detail_of.setdefault(h.r1, str(h))
        repaired: list[int] = []
        for r in sorted(suspects):
            outcome = self._verify_and_repair(r, detail_of.get(r, ""))
            if outcome == "repaired":
                repaired.append(r)
        return repaired

    def _verify_and_repair(self, r: int, detail: str) -> str:
        """Compare row ``r`` against ground truth; rewrite on mismatch.

        Returns ``"clean"``, ``"repaired"`` or ``"failed"``.  Ground truth
        comes from the ``BUILDHCL`` per-landmark pass — one flagged SSSP
        reading only the graph — so a corrupt index cannot poison its own
        repair the way the label-pruned dynamic searches could.
        """
        index = self._dyn.index
        graph = index.graph
        lmk_list = sorted(index.landmarks)
        lmk_set = set(lmk_list)
        hrow, entries = _landmark_pass(graph, r, lmk_list, lmk_set)
        expected = dict(entries)
        expected[r] = 0.0

        highway = index.highway
        labeling = index.labeling
        dirty = any(
            highway.distance(r, r2) != hrow[j]
            for j, r2 in enumerate(lmk_list)
        )
        if not dirty:
            for v in range(graph.n):
                if labeling.label(v).get(r) != expected.get(v):
                    dirty = True
                    break
        if not dirty:
            self.quarantined.discard(r)
            return "clean"

        self.quarantined.add(r)
        try:
            with IndexTransaction(index):
                for j, r2 in enumerate(lmk_list):
                    highway.set_distance(r, r2, hrow[j])
                for v in range(graph.n):
                    want = expected.get(v)
                    cur = labeling.label(v).get(r)
                    if want is None:
                        if cur is not None:
                            labeling.remove_entry(v, r)
                    elif cur != want:
                        labeling.add_entry(v, r, want)
        except ReproError as exc:
            self.repair_failures += 1
            self.findings.append(
                AuditFinding(self.ticks, "row", r, f"repair failed: {exc}", False)
            )
            if self._registry is not None:
                self._registry.counter("audit.repair_failures").inc()
            if self._breaker is not None:
                self._breaker.record_failure()
            return "failed"
        self._dyn.bump_version()
        self.quarantined.discard(r)
        self.repairs += 1
        self.findings.append(
            AuditFinding(self.ticks, "row", r, detail or "row mismatch", True)
        )
        if self._registry is not None:
            self._registry.counter("audit.repairs").inc()
        return "repaired"

    # ------------------------------------------------------------------
    # Health
    # ------------------------------------------------------------------
    def summary(self) -> dict:
        """Aggregate state for ``HCLService.health()``."""
        return {
            "ticks": self.ticks,
            "pairs_checked": self.pairs_checked,
            "violations_found": self.violations_found,
            "repairs": self.repairs,
            "repair_failures": self.repair_failures,
            "quarantined": tuple(sorted(self.quarantined)),
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"IndexAuditor(ticks={self.ticks}, repairs={self.repairs}, "
            f"quarantined={sorted(self.quarantined)})"
        )


# ----------------------------------------------------------------------
# Plan-vs-labeling cross-check
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class PlanAuditReport:
    """Outcome of one :meth:`PlanAuditor.tick`."""

    tick: int
    rows_checked: int
    hw_cells_checked: int
    mismatches: int
    republished: bool

    @property
    def clean(self) -> bool:
        return self.mismatches == 0


class PlanAuditor:
    """Cross-checks the compiled plan against the authoritative labeling.

    The compiled :class:`~repro.core.plan.QueryPlan` is *derived*
    state: every cell has a ground truth in the dict labeling / highway
    it was compiled from.  Each :meth:`tick` therefore

    * decodes ``rows_per_tick`` sampled vertices' plan rows back to
      ``{landmark: distance}`` and compares **bitwise** with
      ``labeling.label(v)`` — a flipped bit in ``dists``/``slots``/
      ``offsets`` cannot hide behind a tolerance;
    * spot-checks ``hw_cells_per_tick`` dense ``δ_H`` cells against
      ``highway.distance``;
    * on any row/cell mismatch, **republishes**: a forced fresh epoch
      (:meth:`~repro.core.epoch.PlanRegistry.republish`) in epoch mode,
      or dropping the cached plan + a version bump otherwise — repair by
      recompilation, mirroring :class:`IndexAuditor`'s
      quarantine-and-repair shape one layer down.

    A plan that is merely *stale* (a mutation already invalidated it) is
    skipped, not flagged: staleness is the recompile machinery's job;
    the auditor hunts silent corruption in plans still being served.
    ``tick()`` never raises.
    """

    def __init__(
        self,
        dyn: DynamicHCL,
        rows_per_tick: int = 8,
        hw_cells_per_tick: int = 8,
        seed: int = 0,
        registry=None,
    ):
        self._dyn = dyn
        self.rows_per_tick = rows_per_tick
        self.hw_cells_per_tick = hw_cells_per_tick
        self._rng = random.Random(seed)
        self._registry = registry
        self.ticks = 0
        self.rows_checked = 0
        self.mismatches_found = 0
        self.republishes = 0

    def _current_plan(self):
        """The plan now being served, or ``None`` (nothing to audit).

        Never compiles: an index that has not paid for a plan yet has no
        derived state to corrupt.
        """
        index = self._dyn.index
        if index.plan_mode == "epoch" and index._plan_registry is not None:
            plan = index._plan_registry.head_plan()
        else:
            plan = index.plan()
        if plan is None or not plan.matches(index):
            return None
        return plan

    def tick(self) -> PlanAuditReport:
        """One audit increment over the served plan; never raises."""
        self.ticks += 1
        if self._registry is not None:
            self._registry.counter("plan_audit.ticks").inc()
        index = self._dyn.index
        plan = self._current_plan()
        if plan is None:
            return PlanAuditReport(self.ticks, 0, 0, 0, False)

        n, k, ids, offsets, slots, dists, hw = plan.canonical_arrays()
        label = index.labeling.label
        rng = self._rng
        mismatches = 0

        rows = min(self.rows_per_tick, n)
        for _ in range(rows):
            v = rng.randrange(n)
            decoded = {
                ids[slots[i]]: dists[i]
                for i in range(offsets[v], offsets[v + 1])
            }
            if decoded != dict(label(v)):
                mismatches += 1
        self.rows_checked += rows

        cells = min(self.hw_cells_per_tick, k * k)
        distance = index.highway.distance
        for _ in range(cells):
            i = rng.randrange(k)
            j = rng.randrange(k)
            if hw[i * k + j] != distance(ids[i], ids[j]):
                mismatches += 1

        republished = False
        if mismatches:
            self.mismatches_found += mismatches
            if self._registry is not None:
                self._registry.counter("plan_audit.mismatches").inc(
                    mismatches
                )
            republished = self._republish(index)
            if republished:
                self.republishes += 1
                if self._registry is not None:
                    self._registry.counter("plan_audit.republishes").inc()
        if self._registry is not None:
            self._registry.counter("plan_audit.rows_checked").inc(rows)
        return PlanAuditReport(self.ticks, rows, cells, mismatches, republished)

    def _republish(self, index) -> bool:
        """Recompile-and-replace the corrupt plan; never raises."""
        try:
            if index.plan_mode == "epoch" and index._plan_registry is not None:
                index._plan_registry.republish()
            else:
                # Drop the cached plan and bump the revision stamp: the
                # next query recompiles from the authoritative dicts,
                # and every pinned consumer revalidates.
                index._plan = None
                self._dyn.bump_version()
            return True
        except ReproError:
            return False

    def summary(self) -> dict:
        """Aggregate state for ``HCLService.health()``."""
        return {
            "ticks": self.ticks,
            "rows_checked": self.rows_checked,
            "mismatches_found": self.mismatches_found,
            "republishes": self.republishes,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"PlanAuditor(ticks={self.ticks}, "
            f"mismatches={self.mismatches_found}, "
            f"republishes={self.republishes})"
        )
