"""Linkage benchmark for mel_ray.

    python3 perfbench/run.py --workload full_link --seed 1 --seconds 20 --trace 0

Run from the root of a mel_ray checkout.  Workloads: ``full_link``,
``vendored_dups``, ``delta_link`` (see perfbench/README.md).  With
``--trace 0`` the last line of standard output is a JSON object holding
the end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics
of a traced run.  Lines before it are a readable report.

This supervisor stops any Ray left over from an earlier run, starts the
measuring process (perfbench/bench.py) in its own session and waits for
it; the measuring process shuts Ray down in a ``finally``.  If it outlives
the time limit, or exits without a result, the supervisor kills its
session, stops Ray and reports the run as one failed operation.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TIME_LIMIT_S = 170  # the whole run, Ray start-up and set-up included
FAILED_RUN = {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}


def ray_stop() -> None:
    subprocess.run(
        [sys.executable, "-m", "ray.scripts.scripts", "stop", "--force"],
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
        timeout=60,
        check=False,
    )


def kill_session(proc: subprocess.Popen) -> None:
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()


def print_report(result: dict) -> None:
    rep = result.get("report", {})
    print(f"workload {rep.get('workload')} seed {rep.get('seed')} trace {rep.get('trace')}")
    for key in ("host", "inputs", "phases_s"):
        if key in rep:
            print(f"{key}: {json.dumps(rep[key], sort_keys=True)}")
    for key in ("samples", "link_walls_s", "scored_pairs", "setup_walls_s"):
        if key in rep:
            print(f"{key}: {rep[key]}")
    for key in ("end_to_end", "quality", "comparisons"):
        for name, value in rep.get(key, {}).items():
            print(f"{key} {name}: {value}")
    for name, m in result.get("metrics", {}).items():
        print(f"metric {name}: {m['value']} {m['unit']}")
    for p in rep.get("problems", []):
        print(f"PROBLEM: {p}")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="mel_ray linkage benchmark")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not (Path.cwd() / "mel_ray" / "__init__.py").is_file():
        print("perfbench: run from the root of a mel_ray checkout", file=sys.stderr)
        return 2

    started = time.monotonic()
    out_dir = Path.cwd() / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    out = out_dir / f"result-{args.workload}-{args.seed}-{os.getpid()}.json"
    out.unlink(missing_ok=True)
    cmd = [
        sys.executable, str(ROOT / "perfbench" / "bench.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace), "--out", str(out),
    ]

    ray_stop()
    proc = subprocess.Popen(cmd, start_new_session=True, stdout=sys.stderr)
    try:
        proc.wait(timeout=max(10.0, TIME_LIMIT_S - (time.monotonic() - started)))
    except subprocess.TimeoutExpired:
        kill_session(proc)
        ray_stop()
        print(json.dumps(FAILED_RUN))
        return 1
    finally:
        if proc.poll() is None:
            kill_session(proc)

    if proc.returncode != 0 or not out.exists():
        print(f"perfbench: measuring process exited with {proc.returncode}", file=sys.stderr)
        ray_stop()
        print(json.dumps(FAILED_RUN))
        return 1
    result = json.loads(out.read_text())
    print_report(result)
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
