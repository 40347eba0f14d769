"""Self-tests of the stack benchmark.

Run from the repository root::

    python3 perfbench/selftest.py

Checks that the same seed gives the same trace digest, that the Zipf
sampler reproduces ``repro.workloads.zipf_query_pairs``, that the layer
wrappers leave every answer unchanged, that a small-size smoke run of
every workload prints every metric named in ``BENCHMARK.json`` with its
unit and leaves no process behind, that every wrapper fires on the
workloads its layer serves, and that the benchmark fails without the
program's sources.
"""

from __future__ import annotations

import ctypes
import json
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import loadgen  # noqa: E402
import spans  # noqa: E402
import traffic  # noqa: E402
from repro.workloads import zipf_query_pairs  # noqa: E402

SPEC = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
WORK = os.path.join(ROOT, ".perfbench_work", "selftest")

# Spans each workload must produce in a traced smoke run.
COMMON = {"loadgen.c", "loadgen.e", "service.submit", "cache.distance", "index.distance",
          "index.inner", "epoch.pin", "plan.query", "plan.distance", "plan.compile",
          "planvec.g_matrix", "build"}
EXPECTED = {
    "ba-read": COMMON | {"cache.query", "cache.batch", "batchquery.query_batch", "planvec.query"},
    "road-traffic": COMMON | {"cache.query", "cache.batch", "batchquery.query_batch", "batchquery.pool",
                              "batch", "transaction", "wal.append", "epoch.publish", "cache.write"},
    "ba-reconfig": COMMON | {"cache.query", "cache.batch", "batchquery.query_batch", "planvec.query",
                             "upgrade", "downgrade", "batch", "transaction", "wal.append",
                             "epoch.publish", "cache.write"},
    "ba-fleet": COMMON | {"shard.up", "shard.query", "shard.batch", "shard.publish", "batch",
                          "upgrade", "transaction", "epoch.publish", "cache.write"},
}
SMOKE_SECONDS = {"ba-read": 1, "road-traffic": 2, "ba-reconfig": 2, "ba-fleet": 2}


def check(cond, message):
    if not cond:
        raise AssertionError(message)


def test_digest_is_seeded():
    for workload in SMOKE_SECONDS:
        inst = loadgen.make_instance(workload, small=True)
        a = traffic.digest(traffic.generate(workload, 3, 5, inst))
        b = traffic.digest(traffic.generate(workload, 3, 5, inst))
        c = traffic.digest(traffic.generate(workload, 4, 5, inst))
        check(a == b, f"{workload}: same seed, different digest")
        check(a != c, f"{workload}: different seeds, same digest")


def test_zipf_matches_library():
    law = traffic.ZipfLaw(500, 1.0, 17)
    check(law.pairs(300) == zipf_query_pairs(500, 300, alpha=1.0, seed=17),
          "ZipfLaw.pairs differs from zipf_query_pairs")
    inst = loadgen.make_instance("ba-read", small=True)
    trace = traffic.generate("ba-read", 1, 1, inst)
    op = next(op for op in trace.ops if op.kind == "b")
    check(traffic.batch_pairs(trace, op.arg) == traffic.batch_pairs(trace, op.arg),
          "batch descriptor is not deterministic")


def _answers(traced: bool):
    inst = loadgen.make_instance("road-traffic", small=True)
    trace = traffic.generate("road-traffic", 5, 1, inst)
    shutil.rmtree(WORK, ignore_errors=True)
    os.makedirs(WORK)
    stack = loadgen.Stack(inst, WORK)
    if traced:
        spans.install()
        spans.TRACER.on = True
    try:
        stack.build()
        out = []
        kinds = {"c": 40, "e": 40, "edge": 1, "xb": 1}
        for op in trace.timed + trace.ops:
            if kinds.get(op.kind, 0) > 0:
                kinds[op.kind] -= 1
                result = loadgen.execute(stack, op, loadgen.prepare(trace, op))
                out.append(repr(result) if op.kind == "edge" else result)
        return out, len(spans.TRACER.spans)
    finally:
        spans.TRACER.on = False
        spans.uninstall()
        spans.TRACER.reset()
        stack.close()


def test_wrappers_keep_answers():
    os.makedirs(WORK, exist_ok=True)
    plain, n_plain = _answers(False)
    wrapped, n_wrapped = _answers(True)
    check(n_plain == 0 and n_wrapped > 0, "tracer recorded spans while off, or none while on")
    check(plain == wrapped, "wrapped calls returned different results")


def _run(workload, seed, trace, cwd=ROOT):
    cmd = [sys.executable, os.path.join(cwd, "perfbench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(SMOKE_SECONDS[workload]), "--trace", str(trace),
           "--small"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


def _adopt_orphans() -> bool:
    """Make this process the reaper of its orphaned descendants (Linux
    ``PR_SET_CHILD_SUBREAPER``), so a process a run leaves behind, alive
    or exited, stays visible here as a child."""
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        return libc.prctl(36, 1, 0, 0, 0) == 0
    except (OSError, AttributeError):
        return False


def _children() -> set[int]:
    """Pids whose parent is this process, zombies included."""
    me, pids = os.getpid(), set()
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            try:
                with open(f"/proc/{entry}/stat") as fh:
                    if int(fh.read().rsplit(")", 1)[1].split()[1]) == me:
                        pids.add(int(entry))
            except (OSError, IndexError, ValueError):
                continue
    return pids


def _reap(pids) -> None:
    for pid in pids:
        try:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        except (ChildProcessError, ProcessLookupError):
            pass


def test_smoke_runs():
    wanted = {0: {m["name"]: m["unit"] for m in SPEC["end_to_end"]},
              1: {m["name"]: m["unit"] for m in SPEC["per_layer"]}}
    check({w["name"] for w in SPEC["workloads"]} == set(SMOKE_SECONDS), "workload list differs")
    adopting = _adopt_orphans()
    for workload in SMOKE_SECONDS:
        for trace in (0, 1):
            before = _children() if adopting else set()
            proc = _run(workload, 1, trace)
            left = _children() - before if adopting else set()
            _reap(left)
            check(not left, f"{workload} trace={trace}: {len(left)} process(es) outlived the run")
            check(proc.returncode == 0, f"{workload} trace={trace} exited {proc.returncode}: {proc.stderr[-500:]}")
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            details = json.loads(lines[-2])["details"]
            check(set(result) == {"correct", "attempted", "failed", "metrics"}, "result keys")
            check(result["correct"] and result["failed"] == 0, f"{workload}: {details['errors']}")
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            check(got == wanted[trace], f"{workload} trace={trace}: metrics {sorted(set(got) ^ set(wanted[trace]))}")
            check(details["timed_late"] == 0, f"{workload}: timed ops sent after the window")
            if workload == "road-traffic":
                check(details["oracle_degraded_checked"] > 0,
                      "road-traffic: the oracle checked no flagged DegradedResult")
            if trace:
                missing = EXPECTED[workload] - set(details["span_counts"])
                check(not missing, f"{workload}: wrappers never fired: {sorted(missing)}")


def test_fails_without_program():
    bare = os.path.join(WORK, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"), ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("ba-read", 1, 0, cwd=bare)
    check(proc.returncode != 0, "benchmark succeeded without the program")
    check(not proc.stdout.strip(), "benchmark printed a result without the program")


def main() -> int:
    tests = [test_digest_is_seeded, test_zipf_matches_library, test_wrappers_keep_answers,
             test_fails_without_program, test_smoke_runs]
    failures = 0
    try:
        for test in tests:
            try:
                test()
                print(f"ok   {test.__name__}")
            except AssertionError as exc:
                failures += 1
                print(f"FAIL {test.__name__}: {exc}")
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
