#!/usr/bin/env python3
"""ilscond benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload ratio-ex2 --seed 1 --seconds 25 --trace 0

Run from the root of a checkout.  The workload runs in a child process
(perfbench/worker.py) with ``ilscond`` imported from the checkout's ``src``
and every BLAS/OpenMP thread count pinned to 1 through the child's
environment.  ``setup_s`` is the median, over SETUP_SAMPLES fresh child
processes, of the time from process start to the child's READY line.
A run that has not ended 3 * seconds + 90 s after it started is killed and
fails.

The second-to-last line of standard output is ``{"environment": ...}``; the
last line is ``{"correct", "attempted", "failed", "metrics"}``.  With
``--trace 0`` the metrics are the end-to-end metrics, with ``--trace 1`` the
per-layer ones (see BENCHMARK.json).  Exits non-zero, printing no result,
when the checkout has no ``src/ilscond`` or a run fails.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("ratio-ex1", "ratio-ex2", "ratio-ex3", "report-400")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
SETUP_SAMPLES = 5


class RunFailed(RuntimeError):
    pass


def child_env():
    env = dict(os.environ)
    for var in THREAD_VARS:
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"  # same dict and set layout in every run
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_child(args, deadline, setup_only):
    """Start worker.py; returns (seconds from start to READY, last stdout line)."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    if setup_only:
        cmd.append("--setup-only")
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise RunFailed("out of time before starting a child")
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, text=True)
    watchdog = threading.Timer(remaining, proc.kill)
    watchdog.start()
    try:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - t0
        rest = proc.stdout.read().splitlines()
        rc = proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if ready.strip() != "READY" or rc != 0:
        raise RunFailed(f"worker exited with code {rc}")
    return setup_s, (rest[-1] if rest else "")


def git_commit():
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


def main(argv=None):
    ap = argparse.ArgumentParser(description="Run one ilscond benchmark workload.")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0 or args.seed < 0:
        ap.error("--seconds must be positive and --seed non-negative")
    if not (ROOT / "src" / "ilscond" / "__init__.py").is_file():
        print(f"no ilscond sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2

    deadline = time.monotonic() + 3 * args.seconds + 90
    try:
        setups = []
        if not args.trace:
            for _ in range(SETUP_SAMPLES - 1):
                setups.append(run_child(args, deadline, setup_only=True)[0])
        setup_s, line = run_child(args, deadline, setup_only=False)
        setups.append(setup_s)
        res = json.loads(line)
    except (RunFailed, json.JSONDecodeError) as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 1

    metrics = {name: {"value": value, "unit": unit}
               for name, (value, unit) in res["metrics"].items()}
    if not args.trace:
        metrics["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
    env = res["environment"]
    env["git_commit"] = git_commit()
    env["setup_samples_s"] = setups
    env["trace"] = args.trace
    for problem in res["problems"]:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps({"environment": env}))
    print(json.dumps({"correct": res["correct"], "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
