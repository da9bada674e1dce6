#!/usr/bin/env python3
"""Wall time of ``ilscond table1|table2|table3``, desk and --full, at --jobs 1 and 2.

Usage: OPENBLAS_NUM_THREADS=1 python3 scripts/bench_tables.py [--repeats R]
                                                             [--out BENCH_full_tables.json]

Run from the root of a checkout.  Every run is a fresh ``python -m ilscond.cli``
process with ``src`` on its PYTHONPATH and otherwise the caller's environment,
timed from start to exit, so the BLAS thread variables recorded are the ones
the runs saw; ``total_time_s`` is the sweep alone, as the table prints it, and
``minor_faults`` the minor page faults of the process and its workers (the
RUSAGE_CHILDREN delta across the run), imports included.  Each (table, size,
jobs) runs R times (default 3), alternating the job counts, at seed 42; a row
keeps every time and their median.  Every run writes its CSV, and the script
exits 1 when a CSV differs from the first run of its table and size, whatever
the job count.
"""

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import asdict
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from ilscond import bench  # noqa: E402

SEED = 42
JOBS = (1, 2)
TARGET = 1.6  # --jobs 2 against --jobs 1 on the --full tables
FACTORIES = {"table1": bench.table1_config, "table2": bench.table2_config,
             "table3": bench.table3_config}


def environment():
    blas = np.show_config(mode="dicts")["Build Dependencies"]
    cpu = next((line.split(":", 1)[1].strip() for line in
                Path("/proc/cpuinfo").read_text().splitlines()
                if line.startswith("model name")), platform.processor())
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {key: {k: blas[key].get(k) for k in ("name", "version", "openblas configuration")}
                 for key in ("blas", "lapack")},
        "thread_variables": {k: v for k, v in sorted(os.environ.items())
                             if k.endswith("_NUM_THREADS")},
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "cpu": cpu,
    }


def run_table(table, full, jobs, out):
    argv = [sys.executable, "-m", "ilscond.cli", table, "--seed", str(SEED),
            "--jobs", str(jobs), "--out", str(out)] + (["--full"] if full else [])
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src") + (os.pathsep + env["PYTHONPATH"]
                                             if env.get("PYTHONPATH") else "")
    faults = resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt
    t0 = time.perf_counter()
    proc = subprocess.run(argv, env=env, check=True, capture_output=True, text=True)
    wall = time.perf_counter() - t0
    faults = resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt - faults
    # the table's last line: "total time: 1.2 s (2 processes)"
    last = proc.stdout.split("total time: ")[-1]
    return wall, float(last.split()[0]), faults


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--repeats", type=int, default=3)
    ap.add_argument("--out", default="BENCH_full_tables.json")
    args = ap.parse_args()
    rows, speedups, identical = [], [], True
    with tempfile.TemporaryDirectory() as tmp:
        for full in (False, True):
            for table, factory in FACTORIES.items():
                config = asdict(factory(full=full, seed=SEED))
                size = {k: config[k] for k in ("m", "n", "p", "trials", "kappa_grid", "rho_grid")}
                times = {jobs: [] for jobs in JOBS}
                sweeps = {jobs: [] for jobs in JOBS}
                faults = {jobs: [] for jobs in JOBS}
                reference, same = None, True
                for rep in range(args.repeats):
                    order = JOBS if rep % 2 == 0 else JOBS[::-1]
                    for jobs in order:
                        out = Path(tmp) / f"{table}-{jobs}.csv"
                        wall, sweep, minflt = run_table(table, full, jobs, out)
                        times[jobs].append(wall)
                        sweeps[jobs].append(sweep)
                        faults[jobs].append(minflt)
                        data = out.read_bytes()
                        reference = reference or data
                        same &= data == reference
                        print(f"{table} {'full' if full else 'desk'} --jobs {jobs}: "
                              f"{times[jobs][-1]:.2f} s", file=sys.stderr)
                median = {jobs: statistics.median(times[jobs]) for jobs in JOBS}
                for jobs in JOBS:
                    rows.append({"table": table, "size": "full" if full else "desk",
                                 "jobs": jobs, "wall_s": [round(t, 3) for t in times[jobs]],
                                 "median_s": round(median[jobs], 3),
                                 "total_time_s": sweeps[jobs],
                                 "minor_faults": faults[jobs], **size})
                speedups.append({"table": table, "size": "full" if full else "desk",
                                 "speedup_jobs2": round(median[1] / median[2], 3),
                                 "csv_identical": same})
                identical &= same
    full = [s for s in speedups if s["size"] == "full"]
    record = {
        "command": f"python3 scripts/bench_tables.py --repeats {args.repeats}",
        "seed": SEED,
        "repeats": args.repeats,
        "environment": environment(),
        "rows": rows,
        "speedups": speedups,
        "target": f"--jobs 2 at least {TARGET}x faster than --jobs 1 on every --full table",
        "target_met": all(s["speedup_jobs2"] >= TARGET for s in full),
        "csv_identical": identical,
    }
    Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    print(f"wrote {args.out}")
    return 0 if identical else 1


if __name__ == "__main__":
    sys.exit(main())
