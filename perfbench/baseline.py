#!/usr/bin/env python3
"""Run every workload over several seeds and write medians and quartiles.

    python3 perfbench/baseline.py --seeds 1-10 --out perfbench/baseline/NAME.json

Each end-to-end metric is summarised by its median and quartiles
(statistics.quantiles(values, n=4)) and its spread (q3 - q1) / median, which
is compared with the metric's bound in BENCHMARK.json.  One traced run per
workload, on the first seed, records the per-layer metrics.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_list(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run(workload, seed, seconds, trace):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=3 * seconds + 120)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} trace {trace} failed:\n{proc.stderr}")
    env_line, result_line = proc.stdout.strip().splitlines()[-2:]
    res = json.loads(result_line)
    if not res["correct"]:
        raise SystemExit(f"{workload} seed {seed} trace {trace} incorrect:\n{proc.stderr}")
    return json.loads(env_line)["environment"], res


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seconds = spec["run_seconds"]

    report = {"run_seconds": seconds, "seeds": args.seeds, "workloads": {}}
    for workload in (w["name"] for w in spec["workloads"]):
        values = {}
        envs = []
        for seed in args.seeds:
            env, res = run(workload, seed, seconds, 0)
            envs.append(env)
            for name, m in res["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        summary = {}
        for name, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            summary[name] = {"median": med, "q1": q1, "q3": q3,
                             "spread": (q3 - q1) / med, "bound": bounds[name]}
            print(f"{workload:10s} {name:12s} median {med:12.5g}  spread "
                  f"{summary[name]['spread']:.3f}  bound {bounds[name]}", flush=True)
        _, traced = run(workload, args.seeds[0], seconds, 1)
        report["workloads"][workload] = {
            "environment": envs[0], "values": values, "summary": summary,
            "traced": {name: m["value"] for name, m in traced["metrics"].items()},
        }
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
