"""Plans reach pool and shard workers one way: pickled.

Pool workers get the plan through the pool initializer's arguments (fork
children inherit the parent's object, spawn children unpickle it through
``QueryPlan.__reduce__``); shard workers get concrete ``ShardSlice``s
over their pipe.  These tests run both under the ``spawn`` start method,
where every plan really is pickled (the default on macOS and Windows),
and pin that serving a fleet and a pool leaves no shared-memory segment
and no resource-tracker process behind.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import subprocess
import sys
import textwrap
from pathlib import Path

from conftest import random_graph
from repro.core import DynamicHCL, batchquery, query_batch, select_landmarks
from repro.shard import ShardedService, replication
from repro.workloads import random_query_pairs

SRC = Path(__file__).resolve().parents[1] / "src"


def test_pool_and_fleet_answer_bitwise_under_spawn(monkeypatch):
    spawn = multiprocessing.get_context("spawn")
    monkeypatch.setattr(batchquery, "_pool_context", lambda: spawn)
    monkeypatch.setattr(replication, "_mp_context", lambda: spawn)
    g = random_graph(31, n_lo=60, n_hi=60, weighted=True)
    landmarks = select_landmarks(g, 4, policy="degree")
    dyn = DynamicHCL.build(g, landmarks)
    registry = dyn.enable_plan_epochs(recompile="sync")
    pairs = random_query_pairs(g.n, 200, seed=31)
    newcomer = next(v for v in range(g.n) if v not in dyn.landmarks)
    with ShardedService.from_registry(registry, nshards=2) as fleet:
        plan = registry.head_plan()
        assert fleet.query_batch(pairs) == [plan.query(s, t) for s, t in pairs]
        dyn.apply_batch(adds=[newcomer], removes=[landmarks[0]])
        assert fleet.refresh()
        plan = registry.head_plan()  # incremental: densified to pickle
        assert fleet.query_batch(pairs) == [plan.query(s, t) for s, t in pairs]
    got = query_batch(
        dyn.index, pairs, workers=2, exact=True, min_parallel=10, plan=plan
    )
    assert got == [plan.distance(s, t) for s, t in pairs]


_NO_SHARED_STATE = textwrap.dedent(
    """
    import json, os
    from multiprocessing import resource_tracker

    from repro.core import DynamicHCL, query_batch, select_landmarks
    from repro.graphs import barabasi_albert
    from repro.shard import ShardedService
    from repro.workloads import random_query_pairs

    shm = "/dev/shm"
    before = set(os.listdir(shm)) if os.path.isdir(shm) else None
    g = barabasi_albert(300, 3, seed=5)
    landmarks = select_landmarks(g, 6, policy="degree")
    dyn = DynamicHCL.build(g, landmarks)
    registry = dyn.enable_plan_epochs(recompile="sync")
    pairs = random_query_pairs(g.n, 600, seed=5)
    newcomer = next(v for v in range(g.n) if v not in dyn.landmarks)
    with ShardedService.from_registry(registry, nshards=2) as fleet:
        fleet.query_batch(pairs)
        dyn.apply_batch(adds=[newcomer], removes=[landmarks[0]])
        assert fleet.refresh()
        fleet.query_batch(pairs)
    query_batch(dyn.index, pairs, workers=2, exact=True, min_parallel=10)
    segments = None
    if before is not None:
        segments = sorted(
            name for name in set(os.listdir(shm)) - before
            if name.startswith("psm_")
        )
    print(json.dumps({
        "segments": segments,
        "tracker_pid": resource_tracker._resource_tracker._pid,
    }))
    """
)


def test_serving_leaves_no_segment_and_no_resource_tracker():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run(
        [sys.executable, "-c", _NO_SHARED_STATE],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr
    report = json.loads(done.stdout.strip().splitlines()[-1])
    if report["segments"] is not None:  # None: no /dev/shm on this platform
        assert report["segments"] == []
    assert report["tracker_pid"] is None
