#!/usr/bin/env python3
"""Smoke test of the benchmark: every workload at minimal length, both modes.

    python3 perfbench/smoke.py

Asserts that each run is correct and emits exactly the metrics BENCHMARK.json
declares, each with its declared unit, and that run.py fails without printing
a result in a directory holding only BENCHMARK.json and perfbench/.  Not part
of the test suite; takes about a minute.
"""

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# The names the benchmark was specified with; BENCHMARK.json must declare them.
REQUIRED = {
    "end_to_end": {"ops_per_s": "1/s", "op_p50_ms": "ms", "op_p90_ms": "ms",
                   "setup_s": "s", "peak_rss_mb": "MB"},
    "per_layer": {"ils.ill_conditioned": "count", "bench.excluded": "count",
                  "estimate.pce_iterations": "count", "estimate.pce_ratio_not_met": "count",
                  "estimate.ssce_clamps": "count", "exact.dense_map_mb": "MB",
                  "tls.dense_map_mb": "MB", "cli.self_share": "1",
                  "trace.overhead_share": "1", "failed_share": "1"},
}
WORKLOADS = ("ratio-ex1", "ratio-ex2", "ratio-ex3", "report-400")


def run(cwd, workload, trace):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
           "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180)


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(HERE))
    from tracing import COUNTS, SPANS

    for kind, names in REQUIRED.items():
        declared = {m["name"]: m["unit"] for m in spec[kind]}
        for name, unit in names.items():
            assert declared.get(name) == unit, f"{kind} {name} [{unit}] not declared"
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    for span in SPANS:
        for suffix, unit in ((".calls", "count"), (".p50_ms", "ms"), (".share", "1")):
            assert per_layer.get(span + suffix) == unit, f"{span + suffix} not declared"
    assert set(per_layer) == {s + x for s in SPANS for x in (".calls", ".p50_ms", ".share")} \
        | set(COUNTS), "per_layer declares metrics the trace does not record"
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)

    for workload in WORKLOADS:
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            proc = run(ROOT, workload, trace)
            assert proc.returncode == 0, f"{workload} trace={trace}: {proc.stderr}"
            lines = proc.stdout.strip().splitlines()
            assert "environment" in json.loads(lines[-2])
            res = json.loads(lines[-1])
            assert set(res) == {"correct", "attempted", "failed", "metrics"}
            assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1, res
            want = {m["name"]: m["unit"] for m in spec[kind]}
            got = {name: m["unit"] for name, m in res["metrics"].items()}
            assert got == want, f"{workload} trace={trace}: {set(got) ^ set(want)}"
            print(f"ok  {workload:10s} trace={trace} attempted={res['attempted']}")

    workdir = HERE / "_work"
    workdir.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=workdir) as bare:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, Path(bare) / "perfbench",
                        ignore=shutil.ignore_patterns("_work", "__pycache__"))
        proc = run(bare, WORKLOADS[0], 0)
        assert proc.returncode != 0 and not proc.stdout.strip(), proc.stdout
    print("ok  bare directory: exit", proc.returncode, "and no result")
    return 0


if __name__ == "__main__":
    sys.exit(main())
