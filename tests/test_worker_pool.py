"""Warm linkage runs fit Ray's warm worker pool.

Every helper task in the linkage plan takes a whole CPU, so a warm run
queues on the workers the first run started instead of making the raylet
start new ones, and it cannot deadlock at two CPUs: a task that blocks in
``ray.get`` gives up its CPU.  The check runs in a subprocess with its
own two-CPU Ray instance, under a timeout, and counts the raylet's child
processes by reading ``/proc/<pid>/stat``, over warm streaming,
incremental and checkpointed calls.  From the task events Ray records in
its GCS it also counts the feature tasks (read, ingest and featurize)
each warm call ran, and it reads the CPUs that every mel_ray helper task
of the warm calls requested.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT_S = 600
# Ray's own exchange scheduling now and then starts a worker that never
# runs a task (about 1 warm call in 10 at two CPUs, seen with and without
# the push-based shuffle), so each warm call is measured up to this many
# times.  A fractional helper task need not start a worker: it may find
# one that an earlier call started still idle in the pool.  So the process
# count alone does not catch it, and the CPUs each helper task requested
# are checked from its task events too.
ATTEMPTS = 3

SCRIPT = r'''
import gc, importlib, inspect, json, os, sys, threading, time

import ray

ray.init(num_cpus=2, include_dashboard=False, logging_level="ERROR",
         object_store_memory=300 * 1024 * 1024)
import ray.data

ray.data.DataContext.get_current().enable_progress_bars = False
from mel_ray.config import LinkageConfig
from mel_ray.pipelines.linkage import (
    load_result_from_checkpoint, run_linkage, run_linkage_incremental,
    save_result_checkpoint,
)
from mel_ray.state.accounting import new_stats_sink


def stats():
    out = {}
    for name in os.listdir("/proc"):
        if name.isdigit():
            try:
                with open(f"/proc/{name}/stat") as f:
                    raw = f.read()
            except OSError:
                continue
            fields = raw[raw.rindex(")") + 2:].split()
            out[(int(name), fields[19])] = (raw[raw.index("(") + 1:raw.rindex(")")], int(fields[1]))
    return out


def raylet_children():
    st = stats()
    mine = {k[0] for k, (comm, ppid) in st.items() if comm == "raylet" and ppid == os.getpid()}
    assert len(mine) == 1, mine
    return {k for k, (_, ppid) in st.items() if ppid in mine}


def new_processes(fn):
    """(result of fn(), raylet children seen while fn ran that did not exist before)"""
    before, seen, stop = raylet_children(), set(), threading.Event()

    def sample():
        while not stop.wait(0.05):
            seen.update(raylet_children())

    t = threading.Thread(target=sample)
    t.start()
    try:
        out = fn()
    finally:
        stop.set()
        t.join()
    return out, len(seen - before)


# the functions of the modules behind the linkage plan; a task event
# names its function without the module
HELPERS = {
    name
    for mod in ("pipelines.linkage", "stages.blocking", "stages.scoring",
                "stages.clustering", "state.manifest", "util")
    for name, f in vars(importlib.import_module(f"mel_ray.{mod}")).items()
    if inspect.isfunction(f) and f.__module__ == f"mel_ray.{mod}"
}


def helper_tasks():
    """task id -> (function name, resources requested) of every plain
    mel_ray task run so far (the GCS keeps task events; they reach it
    about once a second)"""
    from ray._private.state import state
    from ray.core.generated import common_pb2, gcs_pb2

    time.sleep(2)
    out = {}
    for raw in state.global_state_accessor.get_task_events():
        ev = gcs_pb2.TaskEvents.FromString(raw)
        info = ev.task_info
        if (
            ev.HasField("task_info")
            and info.type == common_pb2.TaskType.NORMAL_TASK
            and info.func_or_class_name in HELPERS
        ):
            out[ev.task_id] = (info.func_or_class_name, dict(info.required_resources))
    return out


def feature_tasks(tasks):
    return sum(name == "_featurize_share" for name, _ in tasks.values())


def warm(fn):
    """(last result, fewest new processes over up to ATTEMPTS warm calls)"""
    fewest = None
    for _ in range(ATTEMPTS):
        out, n = new_processes(fn)
        fewest = n if fewest is None else min(fewest, n)
        if not fewest:
            break
    return out, fewest


base_files, delta_files, ck, ATTEMPTS = json.loads(sys.argv[1])
# the session's StatsSink outlives the handles of the run that started it
new_stats_sink()
gc.collect()
time.sleep(1)
ray.get_actor(f"mel_ray_stats_sink_{ray.get_runtime_context().get_job_id()}")
first_rows = run_linkage(base_files).clusters.count()
before = helper_tasks()
second, second_new = warm(lambda: run_linkage(base_files))
save_result_checkpoint(second, ck)
base = load_result_from_checkpoint(ck)
middle = helper_tasks()
inc, inc_new = warm(lambda: run_linkage_incremental(base, delta_files).clusters.materialize())
after = helper_tasks()
# checkpointed builds, each into a new dir: the first one is cold for the
# write tasks, the warm ones must queue them on the pool's workers too
builds = iter(range(1 + ATTEMPTS))
build = lambda: run_linkage(base_files, LinkageConfig(checkpoint_dir=f"{ck}-build{next(builds)}"))
build()
built, built_new = warm(build)
warm_tasks = [t for k, t in helper_tasks().items() if k not in before]
print(json.dumps({
    "second_run_new_processes": second_new,
    "incremental_new_processes": inc_new,
    "checkpointed_build_new_processes": built_new,
    "checkpointed_build_restored": [v["restored"] for v in built.stats.values() if "restored" in v],
    "rows": [first_rows, second.clusters.count(), inc.count()],
    "feature_blocks": second.features.num_blocks(),
    "feature_tasks": [
        feature_tasks(middle) - feature_tasks(before), feature_tasks(after) - feature_tasks(middle)
    ],
    "helper_tasks": sorted({name for name, _ in warm_tasks}),
    "helper_task_resources": {
        name: sorted({json.dumps(r, sort_keys=True) for n, r in warm_tasks if n == name})
        for name in sorted({n for n, _ in warm_tasks})
    },
}))
ray.shutdown()
'''


def test_warm_runs_start_no_new_processes_at_two_cpus(tiny_corpus, tmp_path):
    files = sorted(str(f) for f in (Path(tiny_corpus) / "files").rglob("*.parquet"))
    assert len(files) >= 2
    arg = json.dumps([files[:-1], files[-1:], str(tmp_path / "ck"), ATTEMPTS])
    env = dict(os.environ, PYTHONPATH=str(ROOT))
    proc = subprocess.Popen(
        [sys.executable, "-c", SCRIPT, arg],
        cwd=ROOT,
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        pytest.fail(f"linkage at num_cpus=2 did not finish in {TIMEOUT_S} s (deadlock)")
    assert proc.returncode == 0, err[-4000:]
    got = json.loads(out.strip().splitlines()[-1])
    assert got["rows"][0] == got["rows"][1] > 0
    assert got["rows"][2] > got["rows"][1]
    assert got["second_run_new_processes"] == 0, got
    assert got["incremental_new_processes"] == 0, got
    # a warm checkpointed build's write tasks (one per block of each
    # committed part) start no new processes either
    assert got["checkpointed_build_new_processes"] == 0, got
    assert got["checkpointed_build_restored"] == [False] * 4, got
    # P feature tasks per warm call (P = shuffle_partitions() = 8 at two
    # CPUs; a warm call measured again runs them again)
    p = got["feature_blocks"]
    assert p == 8, got
    assert all(n >= p and n % p == 0 for n in got["feature_tasks"]), got
    # every helper task of the warm calls asks for one whole CPU: the
    # feature, band-major index, emit and unique tasks, the incremental
    # delta ids, the tail and the checkpoint writes among them
    for name in ("_featurize_share", "record_index", "_band_range_pairs", "_unique_range",
                 "_delta_ids", "_accepted_edges", "_write_block"):
        assert name in got["helper_tasks"], got
    assert all(r == ['{"CPU": 1.0}'] for r in got["helper_task_resources"].values()), got
