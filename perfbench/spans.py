"""In-memory span tracer installed from outside the program.

:func:`install` wraps the public entry points of each layer of the
serving stack: class methods are replaced on their class, and functions
imported by name are replaced in the module that looks them up.  A span
records ``name, start, end, parent, request id`` and stays in memory;
:func:`layer_metrics` turns the spans into per-layer self times and
counts when the run ends.  Self time is a span's duration minus the time
covered by its direct child spans.

Only the load process's main thread records: shard RPC threads call the
originals untouched.  ``repro.obs`` tracing stays disabled, because
enabling it switches the query plan to its observed kernels.
"""

from __future__ import annotations

import functools
import threading
import time
from multiprocessing import pool as mp_pool
from importlib import import_module

service_mod = import_module("repro.service")
batchquery = import_module("repro.core.batchquery")
cache = import_module("repro.core.cache")
dynhcl = import_module("repro.core.dynhcl")
epoch = import_module("repro.core.epoch")
index = import_module("repro.core.index")
plan = import_module("repro.core.plan")
planvec = import_module("repro.core.planvec")
transaction = import_module("repro.core.transaction")
wal = import_module("repro.core.wal")
batch_mod = import_module("repro.core.batch")
coordinator = import_module("repro.shard.coordinator")

_now = time.perf_counter_ns


class Tracer:
    """Span store.  ``spans[i] = [name, start, end, parent, req, info]``."""

    def __init__(self):
        self.on = False
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.req = -1
        self.main = threading.get_ident()

    def reset(self) -> None:
        self.spans = []
        self.stack = []

    def open(self, name: str, info=None) -> int:
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, _now(), 0, parent, self.req, info])
        self.stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = _now()
        # Pop through idx: an exception may have skipped inner closes.
        while self.stack and self.stack.pop() != idx:
            pass

    def active(self) -> bool:
        return self.on and threading.get_ident() == self.main


TRACER = Tracer()
_ORIGINALS: list[tuple[object, str, object]] = []


def _replace(owner, attr, make):
    raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
    _ORIGINALS.append((owner, attr, raw))
    if isinstance(raw, classmethod):
        setattr(owner, attr, classmethod(make(raw.__func__)))
    else:
        setattr(owner, attr, make(raw))


def _span(name, info=None, post=None):
    """Wrapper factory: one span per call; ``info(args)`` / ``post(result)``
    attach a dict of counts to the span."""

    def make(fn):
        tr = TRACER

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tr.active():
                return fn(*args, **kwargs)
            idx = tr.open(name, info(args, kwargs) if info else None)
            try:
                result = fn(*args, **kwargs)
            finally:
                tr.close(idx)
            if post is not None:
                extra = post(result)
                span = tr.spans[idx]
                span[5] = {**(span[5] or {}), **extra}
            return result

        return wrapper

    return make


def _submit_info(args, kwargs):
    return {"kind": type(args[1]).__name__}


def _batch_info(args, kwargs):
    pairs = args[1]
    return {"pairs": len(pairs), "distinct": len(set(pairs))}


def _g_matrix(fn):
    tr = TRACER

    @functools.wraps(fn)
    def wrapper(self):
        if self._G is not None or not tr.active():
            return fn(self)
        idx = tr.open("planvec.g_matrix")
        try:
            return fn(self)
        finally:
            tr.close(idx)

    return wrapper


def _counts(*fields):
    return lambda r: {f: getattr(r, f, 0) for f in fields}


# (owner, attribute, wrapper factory): every layer named in BENCHMARK.json.
TARGETS = [
    (service_mod.HCLService, "submit", _span("service.submit", info=_submit_info)),
    (service_mod.HCLService, "shard", _span("shard.up")),
    (cache.CachedQueryEngine, "query", _span("cache.query")),
    (cache.CachedQueryEngine, "distance", _span("cache.distance")),
    (cache.CachedQueryEngine, "batch", _span("cache.batch")),
    (cache.CachedQueryEngine, "add_landmark", _span("cache.write")),
    (cache.CachedQueryEngine, "remove_landmark", _span("cache.write")),
    (cache.CachedQueryEngine, "apply_batch", _span("cache.write")),
    (dynhcl.DynamicHCL, "query", _span("index.query")),
    (dynhcl.DynamicHCL, "distance", _span("index.distance")),
    (index.HCLIndex, "query", _span("index.inner")),
    (index.HCLIndex, "distance", _span("index.inner")),
    (epoch.PlanRegistry, "acquire", _span("epoch.pin")),
    (epoch.PlanRegistry, "head_plan", _span("epoch.pin")),
    (epoch.PlanEpoch, "release", _span("epoch.pin")),
    (epoch.PlanRegistry, "on_commit", _span("epoch.publish")),
    (epoch.PlanRegistry, "refresh", _span("epoch.publish")),
    (plan.QueryPlan, "query", _span("plan.query")),
    (plan.QueryPlan, "distance", _span("plan.distance")),
    (plan.QueryPlan, "compile", _span("plan.compile")),
    (plan.QueryPlan, "compile_incremental", _span("plan.compile")),
    (planvec.VectorBackend, "query_pairs", _span("planvec.query", info=lambda a, k: {"pairs": len(a[1])})),
    (planvec.VectorBackend, "query", _span("planvec.query", info=lambda a, k: {"pairs": 1})),
    (planvec.VectorBackend, "g_matrix", _g_matrix),
    (batchquery, "query_batch", _span("batchquery.query_batch", info=_batch_info)),
    (mp_pool.Pool, "map", _span("batchquery.pool")),
    (dynhcl, "upgrade_landmark", _span("upgrade", post=_counts("settled"))),
    (batch_mod, "upgrade_landmark", _span("upgrade", post=_counts("settled"))),
    (dynhcl, "downgrade_landmark", _span("downgrade", post=_counts("swept"))),
    (dynhcl, "_apply_batch", _span("batch", post=_counts("settled", "swept", "edge_affected"))),
    (transaction.IndexTransaction, "__exit__", _span("transaction")),
    (wal.WriteAheadLog, "append", _span("wal.append")),
    (wal.WriteAheadLog, "append_batch", _span("wal.append")),
    (dynhcl, "build_hcl", _span("build")),
    (coordinator.ShardedService, "query", _span("shard.query")),
    (coordinator.ShardedService, "query_batch", _span("shard.batch")),
    (coordinator.ShardedService, "publish", _span("shard.publish")),
]


def install() -> None:
    if _ORIGINALS:
        return
    for owner, attr, make in TARGETS:
        _replace(owner, attr, make)


def uninstall() -> None:
    while _ORIGINALS:
        owner, attr, raw = _ORIGINALS.pop()
        setattr(owner, attr, raw)


# ----------------------------------------------------------------------
# Per-layer metrics
# ----------------------------------------------------------------------
def self_times(spans) -> list[int]:
    own = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            own[s[3]] -= s[2] - s[1]
    return own


def summarize(spans):
    """``{name: [calls, total_ns, self_ns]}`` plus the self-time list."""
    own = self_times(spans)
    agg: dict[str, list] = {}
    for s, o in zip(spans, own):
        a = agg.setdefault(s[0], [0, 0, 0])
        a[0] += 1
        a[1] += s[2] - s[1]
        a[2] += o
    return agg, own


def span_cost_ns(calls: int = 200_000) -> float:
    """Extra cost of one wrapped call with tracing on over tracing off."""
    wrapped = _span("overhead.probe")(lambda: None)
    clock = time.perf_counter_ns
    TRACER.reset()  # probe spans go to a fresh list
    cost = {}
    for on in (False, True, False, True):
        TRACER.on = on
        start = clock()
        for _ in range(calls):
            wrapped()
        cost[on] = min(cost.get(on, float("inf")), clock() - start)
    TRACER.on = False
    TRACER.reset()
    return (cost[True] - cost[False]) / calls


def span_counts(spans) -> dict[str, int]:
    out: dict[str, int] = {}
    for s in spans:
        out[s[0]] = out.get(s[0], 0) + 1
    return out
