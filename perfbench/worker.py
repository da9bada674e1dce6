"""Child process of the ilscond benchmark.

Sets up one workload, prints ``READY`` when set-up is done, runs the workload
for the given time and prints one JSON line.  run.py starts it with
``ilscond`` from the checkout's ``src`` on PYTHONPATH and one BLAS thread.
"""

import argparse
import json
import os
import platform
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def environment(workload):
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = {k: v for k, v in sorted(os.environ.items())
               if k.endswith("_NUM_THREADS") or k == "VECLIB_MAXIMUM_THREADS"}
    return {
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "thread_env": threads,
        "PYTHONHASHSEED": os.environ.get("PYTHONHASHSEED"),
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "workload": workload.describe(),
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    import ilscond

    if Path(ilscond.__file__).resolve().parent != ROOT / "src" / "ilscond":
        print(f"ilscond was imported from {ilscond.__file__}, not from {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    import workloads

    workdir = Path(__file__).resolve().parent / "_work"
    workdir.mkdir(exist_ok=True)
    workload = workloads.make_workload(args.workload, args.seed, workdir)
    workload.setup()
    print("READY", flush=True)
    if args.setup_only:
        return 0
    env = environment(workload)
    try:
        if args.trace:
            res = workload.run_traced(args.seconds, env)
        else:
            res = workload.run(args.seconds, env)
    except workloads.ReplayMismatch as exc:
        print(exc, file=sys.stderr)
        return 3
    print(json.dumps(res), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
