"""Stack benchmark of the DYN-HCL serving stack.

Usage (from the repository root)::

    python3 perfbench/run.py --workload ba-read --seed 1 --seconds 10 --trace 0

Workloads and metrics are defined in ``BENCHMARK.json``.  One run sets the
stack up three times, replays the seeded trace for ``--seconds``, checks
the answers against the dict-path oracle and, on the durable workloads,
recovers from checkpoint + WAL, then sets the stack up twice more
(``setup_s`` is the median of the five).  ``--trace 0`` prints the
end-to-end metrics; ``--trace 1`` installs the layer wrappers of
``spans.py`` and prints the per-layer metrics instead.  The last line of
standard output is the JSON result; the line before it carries run
details (trace digest, sample counts, span counts, errors).
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("ba-read", "road-traffic", "ba-reconfig", "ba-fleet")


def _load_program():
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        print(f"perfbench: no repro package under {src}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, src)
    sys.path.insert(0, HERE)


def _m(value, unit):
    return {"value": float(value), "unit": unit}


def _mean(total, count):
    return total / count if count else 0.0


def end_to_end(rec, setups, rss_mb):
    from loadgen import batch_rate, quantile

    c = rec.lat.get("c", [])
    e = rec.lat.get("e", [])
    out = {
        "setup_s": statistics.median(setups),
        "constrained_p50_us": quantile(c, 0.50) / 1e3,
        "constrained_p90_us": quantile(c, 0.90) / 1e3,
        "exact_p50_us": quantile(e, 0.50) / 1e3,
        "exact_p95_us": quantile(e, 0.95) / 1e3,
        "batch_pairs_per_s": batch_rate(rec),
        "setup_rss_mb": rss_mb,
    }
    units = _units()
    return {name: _m(value, units[name]) for name, value in out.items()}


def per_layer(rec, spans, setup_spans, ctx):
    """Per-layer self times and counts from the traced run."""
    from loadgen import quantile
    from spans import summarize

    agg, own = summarize(spans)
    setup_agg, _ = summarize(setup_spans)

    def calls(*names):
        return sum(agg.get(n, (0, 0, 0))[0] for n in names)

    def total(*names, table=agg):
        return sum(table.get(n, (0, 0, 0))[1] for n in names)

    def self_ns(*names):
        return sum(agg.get(n, (0, 0, 0))[2] for n in names)

    def info_sum(name, key):
        return sum((s[5] or {}).get(key, 0) for s in spans if s[0] == name)

    def mean_info(name, key):
        return _mean(info_sum(name, key), calls(name))

    # Refinement share: plan.distance self time under exact single requests.
    root_of = []
    for s in spans:
        root_of.append(root_of[s[3]] if s[3] >= 0 else s[0])
    refine = sum(o for s, o, r in zip(spans, own, root_of) if s[0] == "plan.distance" and r == "loadgen.e")
    exact_total = total("loadgen.e")
    shard_batches = [s for s in spans if s[0] == "shard.batch" and (s[3] < 0 or spans[s[3]][0] != "shard.query")]
    vec_pairs = info_sum("planvec.query", "pairs")
    q_pairs = info_sum("batchquery.query_batch", "pairs")
    writes = [x for k in ("add", "rm", "sigma", "swap") for x in rec.lat.get(k, [])]
    cache_q = ("cache.query", "cache.distance")
    hits, misses, inval, pubs, incr = ctx["cache_delta"]
    g_builds = calls("planvec.g_matrix")
    g_ms = _mean(total("planvec.g_matrix"), g_builds) or _mean(
        total("planvec.g_matrix", table=setup_agg), setup_agg.get("planvec.g_matrix", (0,))[0]
    )
    out = {
        "service.self_us": _mean(self_ns("service.submit"), calls("service.submit")) / 1e3,
        "service.audit_len": ctx["audit_len"],
        "service.degraded_rate": _mean(rec.degraded, rec.exact_answers),
        "cache.hit_rate": _mean(hits, hits + misses),
        "cache.self_us": _mean(self_ns(*cache_q), calls(*cache_q)) / 1e3,
        "cache.invalidations": inval,
        "index.dispatch_us": _mean(
            self_ns("index.query", "index.distance", "index.inner"), calls("index.query", "index.distance")
        ) / 1e3,
        "epoch.pin_us": _mean(self_ns("epoch.pin"), calls("epoch.pin")) / 1e3,
        "epoch.publish_ms": _mean(total("epoch.publish"), calls("epoch.publish")) / 1e6,
        "epoch.incremental_share": _mean(incr, pubs),
        "epoch.publishes": pubs,
        "plan.query_us": _mean(total("plan.query"), calls("plan.query")) / 1e3,
        "plan.query_calls": calls("plan.query"),
        "plan.refine_us": _mean(self_ns("plan.distance"), calls("plan.distance")) / 1e3,
        "plan.refine_share": _mean(refine, exact_total),
        "plan.compile_s": _mean(total("plan.compile", table=setup_agg), setup_agg.get("plan.compile", (0,))[0]) / 1e9,
        "planvec.pairs_per_s": _mean(vec_pairs, total("planvec.query") / 1e9),
        "planvec.g_matrix_ms": g_ms / 1e6,
        "planvec.g_matrix_builds": g_builds,
        "batchquery.self_ms": _mean(self_ns("batchquery.query_batch"), calls("batchquery.query_batch")) / 1e6,
        "batchquery.distinct_share": _mean(info_sum("batchquery.query_batch", "distinct"), q_pairs),
        "batchquery.pool_ms": _mean(total("batchquery.pool"), calls("batchquery.pool")) / 1e6,
        "upgrade.ms": _mean(total("upgrade"), calls("upgrade")) / 1e6,
        "upgrade.settled": mean_info("upgrade", "settled"),
        "downgrade.ms": _mean(total("downgrade"), calls("downgrade")) / 1e6,
        "downgrade.swept": mean_info("downgrade", "swept"),
        "batch.ms": _mean(total("batch"), calls("batch")) / 1e6,
        "batch.settled": mean_info("batch", "settled"),
        "batch.swept": mean_info("batch", "swept"),
        "batch.edge_affected": mean_info("batch", "edge_affected"),
        "transaction.ms": _mean(self_ns("transaction"), calls("transaction")) / 1e6,
        "wal.append_ms": _mean(total("wal.append"), calls("wal.append")) / 1e6,
        "wal.bytes_per_op": ctx["wal"].get("bytes_per_op", 0.0),
        "wal.recover_s": ctx["wal"].get("recover_s", 0.0),
        "build.s": total("build", table=setup_agg) / 1e9,
        "shard.query_us": _mean(total("shard.query"), calls("shard.query")) / 1e3,
        "shard.batch_ms": _mean(sum(s[2] - s[1] for s in shard_batches), len(shard_batches)) / 1e6,
        "shard.cutover_ms": _mean(total("shard.publish"), calls("shard.publish")) / 1e6,
        "shard.up_s": total("shard.up", table=setup_agg) / 1e9,
        "shard.retries": ctx["shard_retries"],
        "loadgen.reconfig_p50_ms": quantile(writes, 0.50) / 1e6,
        "loadgen.reconfig_p90_ms": quantile(writes, 0.90) / 1e6,
        "loadgen.edge_update_p50_ms": quantile(rec.lat.get("edge", []), 0.50) / 1e6,
        "loadgen.error_rate": _mean(rec.failed + ctx["wrong"], rec.attempted),
        "trace.overhead_pct": ctx["overhead_pct"],
    }
    units = _units()
    return {name: _m(value, units[name]) for name, value in out.items()}


def _units() -> dict[str, str]:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for section in ("end_to_end", "per_layer") for m in spec[section]}


def _host_loop_ms() -> float:
    """Median time of a fixed pure-Python loop: how fast the host ran
    this process around the window (reported, never used to scale)."""
    import time

    times = []
    for _ in range(5):
        start = time.perf_counter()
        total = 0
        for i in range(200_000):
            total += i * i
        times.append((time.perf_counter() - start) * 1e3)
    return statistics.median(times)


def _stop_helper_processes() -> None:
    """Unlink the shared-memory segments the program still owns, then stop
    multiprocessing's resource tracker and wait for it to end, so no
    process of the run outlives it.  Unlinking first matters: an unlink
    after the stop would start a fresh tracker."""
    import signal
    import time

    shm = sys.modules.get("repro.core.shm")
    if shm is not None:
        shm._unlink_owned()
    rt = sys.modules.get("multiprocessing.resource_tracker")
    if rt is None:
        return
    tracker = rt._resource_tracker
    with tracker._lock:
        fd, pid = tracker._fd, tracker._pid
        if fd is None:
            return
        os.close(fd)  # the tracker ends once it reads EOF
        tracker._fd = tracker._pid = None
    deadline = time.monotonic() + 10.0
    while os.waitpid(pid, os.WNOHANG)[0] == 0:
        if time.monotonic() > deadline:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            return
        time.sleep(0.01)


def _registry_counts(svc):
    m = svc.metrics()["counters"]
    return (
        m.get("cache.hits", 0),
        m.get("cache.misses", 0),
        m.get("cache.invalidations", 0),
        m.get("plan.epoch.publishes", 0),
        m.get("plan.epoch.incremental", 0),
    )


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--small", action="store_true", help="smoke-test instance sizes (one set-up)")
    args = ap.parse_args(argv)
    _load_program()

    import gc

    import checks
    import loadgen
    import spans
    import traffic

    traced = bool(args.trace)
    workdir = os.path.join(ROOT, ".perfbench_work", f"{args.workload}-{os.getpid()}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    stack = None
    try:
        inst = loadgen.make_instance(args.workload, small=args.small)
        trace = traffic.generate(args.workload, args.seed, args.seconds, inst)
        digest = traffic.digest(trace)
        oracle_graph = inst.graph.copy() if args.workload == "road-traffic" else inst.graph
        if traced:
            spans.install()
            spans.TRACER.on = True
            setups, stack = loadgen.timed_setups(inst, workdir, 1)
            spans.TRACER.on = False
        else:
            setups, stack = loadgen.timed_setups(inst, workdir, 1 if args.small else 3)
        setup_spans = spans.TRACER.spans
        spans.TRACER.reset()
        loadgen.warm_up(stack, args.seed)
        # Peak RSS of set-up and warm-up.  Taken before the window so a
        # faster closed loop (more requests, more audit records) is not
        # read as a memory regression; serving growth is service.audit_len.
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        durability = checks.Durability(stack, workdir) if inst.durable else None
        before = _registry_counts(stack.svc)
        host_before = _host_loop_ms()
        gc.collect()
        spans.TRACER.on = traced
        rec = loadgen.replay(stack, trace, args.seconds, traced)
        spans.TRACER.on = False
        window_spans = spans.TRACER.spans
        host_after = _host_loop_ms()
        after = _registry_counts(stack.svc)
        audit_len = len(stack.svc.audit)
        retries = 0
        if stack.fleet is not None:
            retries = sum(v for k, v in stack.fleet.metrics()["counters"].items() if k.endswith("rpc.retries"))
        # Tracing overhead: spans recorded times the measured extra cost
        # of one traced call, over the window.
        overhead = 0.0
        if traced:
            overhead = len(window_spans) * spans.span_cost_ns() / (rec.window_s * 1e9) * 100.0

        checked, degraded_checked, wrong, notes = checks.oracle(oracle_graph, inst.landmarks, rec)
        wal = {}
        if durability is not None:
            wal = durability.check(args.seed)
            wrong += wal["wrong"]
            notes += wal["notes"]
        failed = rec.failed + wrong
        stack.close()
        stack = None
        if not (traced or args.small):
            # Two set-ups after the window: the host's speed holds for
            # tens of seconds, so spreading the set-ups over the run makes
            # their median steadier than five back to back.
            later, last = loadgen.timed_setups(inst, os.path.join(workdir, "later"), 2)
            last.close()
            setups += later
        if traced:
            ctx = {
                "cache_delta": tuple(a - b for a, b in zip(after, before)),
                "audit_len": audit_len,
                "wal": wal,
                "shard_retries": retries,
                "overhead_pct": overhead,
                "wrong": wrong,
            }
            metrics = per_layer(rec, window_spans, setup_spans, ctx)
        else:
            metrics = end_to_end(rec, setups, rss_mb)
        details = {
            "workload": args.workload,
            "seed": args.seed,
            "trace_digest": digest,
            "window_s": round(rec.window_s, 3),
            "ops_executed": rec.attempted,
            "ops_in_trace": len(trace.ops),
            "timed_ops": len(trace.timed),
            "timed_late": rec.timed_late,
            "samples": {k: len(v) for k, v in sorted(rec.lat.items())},
            "constrained_us": {q: loadgen.quantile(rec.lat.get("c", []), q) / 1e3 for q in (0.95, 0.99)},
            "setups_s": [round(x, 4) for x in setups],
            "host_loop_ms": [round(host_before, 3), round(host_after, 3)],
            "oracle_checked": checked,
            "oracle_degraded_checked": degraded_checked,
            "wrong_answers": wrong,
            "errors": rec.errors + notes,
            "wal_records": wal.get("records", 0),
            "span_counts": spans.span_counts(window_spans + setup_spans) if traced else {},
        }
        print(json.dumps({"details": details}, sort_keys=True))
        result = {
            "correct": failed == 0 and checked > 0,
            "attempted": rec.attempted,
            "failed": failed,
            "metrics": metrics,
        }
        print(json.dumps(result))
        return 0
    finally:
        if stack is not None:
            stack.close()
        _stop_helper_processes()
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())
