"""The benchmark's four workloads, their output checks and their traced replays.

ratio-ex1, ratio-ex2 and ratio-ex3 drive ``ilscond table1|table2|table3``
through ``cli.main`` in batches; an op is one trial.  report-400 is a library
caller with no CLI; an op is one condition report on a 400 x 200 instance.

Each workload has an untraced ``run`` (end-to-end metrics) and a
``run_traced`` that follows each untraced op (or cli.main batch) at once
with a replay of it, one span per library call, and fails if the replay's
values differ from the untraced outputs.
"""

import contextlib
import io
import json
import math
import os
import resource
import time
import traceback
import warnings
from dataclasses import dataclass
from unittest import mock

import numpy as np
import scipy.linalg

from ilscond import bench, cli
from ilscond.estimate import (
    SsceConfig,
    estimate_kappa2_pce,
    estimate_kappa2_ssce,
    estimate_kappa_inf_ssce,
)
from ilscond.exact import CondParams, kappa_2ils, kappa_componentwise, kappa_mixed, kappa_unified
from ilscond.ils import IllConditionedWarning, IlsProblem, NotPositiveDefinite
from ilscond.structured import (
    kappa_2ils_structured,
    kappa_componentwise_structured,
    kappa_mixed_structured,
)
from ilscond.tls import TlsProblem, kappa_2tls, kappa_mixed_tls

from tracing import SPANS, NullTracer, Tracer, overhead_share, span_metrics

# ratio column -> (numerator, denominator), as the three tables define them
RATIOS = {
    "ex1": {"r_p": ("kappa2_pce", "kappa2_exact"), "r_s": ("kappa2_ssce", "kappa2_exact")},
    "ex2": {"r_m": ("kappa_m_ssce", "kappa_m_exact"), "r_c": ("kappa_c_ssce", "kappa_c_exact")},
    "ex3": {"r_N": ("kappa2", "kappa2_struct"), "r_M": ("kappa_m", "kappa_m_struct"),
            "r_C": ("kappa_c", "kappa_c_struct")},
}

# output value -> the span whose call produced it, to name a stale replay
SPAN_OF = {
    "kappa2_exact": "exact.kappa_2ils",
    "kappa2_pce": "estimate.estimate_kappa2_pce",
    "kappa2_ssce": "estimate.estimate_kappa2_ssce",
    "kappa_m_exact": "exact.kappa_mixed",
    "kappa_c_exact": "exact.kappa_componentwise",
    "kappa_m_ssce": "estimate.estimate_kappa_inf_ssce",
    "kappa_c_ssce": "estimate.estimate_kappa_inf_ssce",
    "kappa2": "exact.kappa_2ils",
    "kappa2_struct": "structured.kappa_2ils_structured",
    "kappa_m": "exact.kappa_mixed",
    "kappa_m_struct": "structured.kappa_mixed_structured",
    "kappa_c": "exact.kappa_componentwise",
    "kappa_c_struct": "structured.kappa_componentwise_structured",
    "kappa_2ils": "exact.kappa_2ils",
    "kappa_mixed": "exact.kappa_mixed",
    "kappa_componentwise": "exact.kappa_componentwise",
    "kappa_unified_22": "exact.kappa_unified_22",
    "kappa_unified_inf": "exact.kappa_unified_inf",
    "pce": "estimate.estimate_kappa2_pce",
    "ssce_mixed": "estimate.estimate_kappa_inf_ssce",
    "ssce_comp": "estimate.estimate_kappa_inf_ssce",
    "kappa_2tls": "tls.kappa_2tls",
    "kappa_mixed_tls": "tls.kappa_mixed_tls",
}

STRUCTURED_FLOOR = 1.0 - 1e-12  # structured <= unstructured, up to rounding
REPORT_TOL = 1e-9


class ReplayMismatch(RuntimeError):
    """The traced replay computed a value the untraced run did not."""

    def __init__(self, span, detail):
        super().__init__(f"replay differs from the untraced run in span {span}: {detail}")


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def percentile(values, q):
    return float(np.percentile(values, q))


def new_counts():
    return {"ils.ill_conditioned": 0, "bench.excluded": 0, "pce_iterations": [],
            "estimate.pce_ratio_not_met": 0, "estimate.ssce_clamps": 0}


def count_metrics(counts, overhead, self_share, failed_share, exact_mb=0.0, tls_mb=0.0):
    """The traced run's counts; the dense-map sizes are computed, not measured."""
    iters = counts["pce_iterations"]
    return {
        "ils.ill_conditioned": (counts["ils.ill_conditioned"], "count"),
        "bench.excluded": (counts["bench.excluded"], "count"),
        "estimate.pce_iterations": (float(np.mean(iters)) if iters else 0.0, "count"),
        "estimate.pce_ratio_not_met": (counts["estimate.pce_ratio_not_met"], "count"),
        "estimate.ssce_clamps": (counts["estimate.ssce_clamps"], "count"),
        "exact.dense_map_mb": (exact_mb, "MB"),
        "tls.dense_map_mb": (tls_mb, "MB"),
        "cli.self_share": (self_share, "1"),
        "trace.overhead_share": (overhead, "1"),
        "failed_share": (failed_share, "1"),
    }


@contextlib.contextmanager
def recorded_warnings():
    """Record warnings instead of printing them; clamps are counted from the log."""
    with warnings.catch_warnings(record=True) as log:
        warnings.simplefilter("always")
        warnings.simplefilter("ignore", IllConditionedWarning)
        yield log


def count_clamps(log, start):
    return sum(issubclass(w.category, RuntimeWarning) for w in log[start:])


def result(attempted, failed, metrics, problems, environment):
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics, "problems": problems[:10], "environment": environment}


# ----------------------------------------------------------------------------
# ratio workloads


def replay_trial(config, kappa_label, rho, rng, tr, log, counts):
    """The calls ``bench._run_trial`` makes, in its order, with one span each.

    Returns (values, pce_interval_or_None).  The extra ``IlsProblem`` rebuild
    is traced-run-only work: the generator already factored the instance.
    Raises NotPositiveDefinite when the generator gives up, as run_experiment sees it.
    """
    params = CondParams()
    ex = config.example
    sparams = None
    if ex == "ex1":
        with tr.span("bench.gen_example1"):
            problem, _, _ = bench.gen_example1(config.m, config.n, config.p,
                                               kappa_label, rho, rng)
    elif ex == "ex2":
        with tr.span("bench.gen_example2"):
            problem, _, _ = bench.gen_example2(config.m, config.n, config.p,
                                               kappa_label, rho, rng)
    else:
        with tr.span("bench.gen_example3"):
            problem, sparams, _, _ = bench.gen_example3(config.n, rho, rng)
    with tr.span("ils.IlsProblem"):
        IlsProblem(problem.A, problem.b, problem.split)
    counts["ils.ill_conditioned"] += bool(problem.ill_conditioned)
    with tr.span("ils.solution"):
        _ = problem.solution

    if ex == "ex1":
        with tr.span("exact.kappa_2ils"):
            exact = kappa_2ils(problem, params)
        with tr.span("estimate.estimate_kappa2_pce"):
            pce, interval = estimate_kappa2_pce(
                problem, params, delta=config.delta, epsilon=config.epsilon,
                seed=rng, return_interval=True)
        counts["pce_iterations"].append(interval.iterations)
        counts["estimate.pce_ratio_not_met"] += bool(interval.ratio_not_met)
        start = len(log)
        with tr.span("estimate.estimate_kappa2_ssce"):
            ssce = estimate_kappa2_ssce(problem, params, SsceConfig(k=config.k, rng=rng))
        counts["estimate.ssce_clamps"] += count_clamps(log, start)
        return {"kappa2_exact": exact, "kappa2_pce": pce, "kappa2_ssce": ssce,
                "r_p": pce / exact, "r_s": ssce / exact}, interval
    if ex == "ex2":
        with tr.span("exact.kappa_mixed"):
            km = kappa_mixed(problem, params)
        with tr.span("exact.kappa_componentwise"):
            kc = kappa_componentwise(problem, params)
        start = len(log)
        with tr.span("estimate.estimate_kappa_inf_ssce"):
            sm, sc = estimate_kappa_inf_ssce(problem, params, SsceConfig(k=config.k, rng=rng))
        counts["estimate.ssce_clamps"] += count_clamps(log, start)
        return {"kappa_m_exact": km, "kappa_c_exact": kc, "kappa_m_ssce": sm,
                "kappa_c_ssce": sc, "r_m": sm / km, "r_c": sc / kc}, None
    with tr.span("exact.kappa_2ils"):
        k2 = kappa_2ils(problem, params)
    with tr.span("structured.kappa_2ils_structured"):
        k2s = kappa_2ils_structured(problem, params, sparams)
    with tr.span("exact.kappa_mixed"):
        km = kappa_mixed(problem, params)
    with tr.span("structured.kappa_mixed_structured"):
        kms = kappa_mixed_structured(problem, params, sparams)
    with tr.span("exact.kappa_componentwise"):
        kc = kappa_componentwise(problem, params)
    with tr.span("structured.kappa_componentwise_structured"):
        kcs = kappa_componentwise_structured(problem, params, sparams)
    return {"kappa2": k2, "kappa2_struct": k2s, "r_N": k2 / k2s,
            "kappa_m": km, "kappa_m_struct": kms, "r_M": km / kms,
            "kappa_c": kc, "kappa_c_struct": kcs, "r_C": kc / kcs}, None


def config_of(payload):
    """The ExperimentConfig cli.main ran, rebuilt from its JSON output."""
    c = payload["config"]
    return bench.ExperimentConfig(
        example=c["example"], n=c["n"], m=c["m"], p=c["p"],
        kappa_grid=tuple(c["kappa_grid"]), rho_grid=tuple(c["rho_grid"]),
        trials=c["trials"], seed=c["seed"], delta=c["delta"],
        epsilon=c["epsilon"], k=c["k"])


def trial_generators(config):
    """One generator per (cell, trial), spawned as ``run_experiment`` does."""
    cells = config.cells()
    children = iter(np.random.SeedSequence(config.seed).spawn(len(cells) * config.trials))
    for kappa_label, rho in cells:
        for trial in range(config.trials):
            yield kappa_label, rho, trial, np.random.default_rng(next(children))


@dataclass
class Batch:
    """One cli.main call: ``trials`` per grid cell, all cells."""

    seed: int
    attempted: int
    seconds: float
    payload: dict | None
    error: str | None = None


class RatioWorkload:
    def __init__(self, name, table, example, argv, trials, seed, workdir):
        self.name = name
        self.table = table
        self.example = example
        self.argv = argv
        self.trials = trials
        self.seed = seed
        self.out = workdir / f"{name}-{os.getpid()}.json"
        factory = {"table1": bench.table1_config, "table2": bench.table2_config,
                   "table3": bench.table3_config}[table]
        self.cells = len(factory().cells())

    def describe(self):
        return {"workload": self.name, "argv": ["ilscond", self.table, *self.argv,
                                                "--trials", str(self.trials)],
                "cells": self.cells, "seed": self.seed,
                "cli_seeds": f"{self.seed} * 100000 + batch index (0 is the warm-up)"}

    def call_cli(self, index, trials, tr):
        seed = self.seed * 100_000 + index
        argv = [self.table, *self.argv, "--trials", str(trials), "--seed", str(seed),
                "--format", "json", "--out", str(self.out)]
        attempted = self.cells * trials
        error = None
        t0 = time.perf_counter()
        try:
            with tr.span("cli.main"), contextlib.redirect_stdout(io.StringIO()):
                rc = cli.main(argv)
            if rc != 0:
                error = f"cli.main returned {rc}"
        except Exception:
            error = traceback.format_exc(limit=3)
        seconds = time.perf_counter() - t0
        payload = None
        if error is None:
            with open(self.out) as fh:
                payload = json.load(fh)
            os.unlink(self.out)
        return Batch(seed, attempted, seconds, payload, error)

    def setup(self):
        self.call_cli(0, 1, NullTracer())

    def cli_pass(self, seconds, tr):
        batches = []
        start = time.perf_counter()
        while not batches or time.perf_counter() - start < seconds:
            batches.append(self.call_cli(len(batches) + 1, self.trials, tr))
        return batches

    def check(self, batches):
        """Output checks; returns (failed ops, excluded trials, problems)."""
        failed = excluded = 0
        problems = []
        ratios = RATIOS[self.example]
        for b in batches:
            if b.payload is None:
                failed += b.attempted
                problems.append(f"seed {b.seed}: {b.error}")
                continue
            records = b.payload["records"]
            n_excluded = sum(b.payload["failures"].values())
            if len(records) + n_excluded != b.attempted:
                failed += b.attempted
                problems.append(f"seed {b.seed}: {len(records)} records + {n_excluded} "
                                f"excluded != {b.attempted} attempted")
                continue
            excluded += n_excluded
            suspects = []
            for rec in records:
                bad = self.check_record(rec, ratios, b.payload["config"]["delta"])
                if bad == "r_p":
                    suspects.append(rec)
                elif bad:
                    failed += 1
                    problems.append(f"seed {b.seed} trial {rec['kappa']},{rec['rho']},"
                                    f"{rec['trial']}: {bad}")
            for rec in self.unexcused(b.payload, suspects):
                failed += 1
                problems.append(f"seed {b.seed} trial {rec['kappa']},{rec['rho']},"
                                f"{rec['trial']}: |r_p - 1| > delta with the width target met")
        return failed, excluded, problems

    def check_record(self, rec, ratios, delta):
        """None when the record passes, 'r_p' when only the PCE width test fails."""
        for ratio, (num, den) in ratios.items():
            r, a, c = rec[ratio], rec[num], rec[den]
            if not (math.isfinite(r) and r > 0 and r == a / c):
                return f"{ratio}={r!r} is not {num}/{den} or not finite and positive"
            if self.example == "ex3" and r < STRUCTURED_FLOOR:
                return f"{ratio}={r!r}: structured value exceeds the unstructured one"
        if self.example == "ex1" and abs(rec["r_p"] - 1.0) > delta:
            return "r_p"
        return None

    def unexcused(self, payload, suspects):
        """Suspect ex1 records whose PCE run met its width target on replay."""
        if not suspects:
            return []
        config = config_of(payload)
        wanted = {(rec["kappa"], rec["rho"], rec["trial"]): rec for rec in suspects}
        out = []
        counts = new_counts()
        with recorded_warnings() as log:
            for kappa_label, rho, trial, rng in trial_generators(config):
                rec = wanted.get((kappa_label, rho, trial))
                if rec is None:
                    continue
                _, interval = replay_trial(config, kappa_label, rho, rng, NullTracer(),
                                           log, counts)
                if not interval.ratio_not_met:
                    out.append(rec)
        return out

    def run(self, seconds, environment):
        batches = self.cli_pass(seconds, NullTracer())
        rss = peak_rss_mb()
        failed, excluded, problems = self.check(batches)
        attempted = sum(b.attempted for b in batches)
        busy = sum(b.seconds for b in batches)
        latency = [b.seconds / b.attempted * 1e3 for b in batches]
        metrics = {
            "ops_per_s": ((attempted - excluded - failed) / busy, "1/s"),
            "op_p50_ms": (percentile(latency, 50), "ms"),
            "op_p90_ms": (percentile(latency, 90), "ms"),
            "peak_rss_mb": (rss, "MB"),
        }
        return result(attempted, failed, metrics, problems, environment)

    def replay_batch(self, batch, tr, log, counts):
        """Replay one cli.main call and compare with the records it wrote."""
        config = config_of(batch.payload)
        written = {(r["kappa"], r["rho"], r["trial"]): r for r in batch.payload["records"]}
        excluded = {}
        for kappa_label, rho, trial, rng in trial_generators(config):
            tr.op += 1
            try:
                values, _ = replay_trial(config, kappa_label, rho, rng, tr, log, counts)
            except NotPositiveDefinite:
                key = str((kappa_label, rho))
                excluded[key] = excluded.get(key, 0) + 1
                counts["bench.excluded"] += 1
                continue
            finally:
                log.clear()
            rec = written.get((kappa_label, rho, trial))
            if rec is None:
                raise ReplayMismatch(f"bench.gen_example{self.example[-1]}",
                                     f"trial {kappa_label},{rho},{trial} has no record")
            for col, val in values.items():
                if rec[col] != val:
                    span = SPAN_OF.get(col) or SPAN_OF[RATIOS[self.example][col][0]]
                    raise ReplayMismatch(span, f"{col} {rec[col]!r} != {val!r} at trial "
                                               f"{kappa_label},{rho},{trial} "
                                               f"(cli seed {batch.seed})")
        if excluded != batch.payload["failures"]:
            raise ReplayMismatch(f"bench.gen_example{self.example[-1]}",
                                 f"excluded {excluded} != {batch.payload['failures']}")

    def run_traced(self, seconds, environment):
        """Each cli.main batch is replayed with spans right after it ran, so
        both timings of a batch see the same host speed.  Inside cli.main a
        span around ``bench.run_experiment`` separates the CLI's own work."""
        cli_tr, tr = Tracer(), Tracer()
        run_experiment = bench.run_experiment

        def traced_run_experiment(config):
            with cli_tr.span("bench.run_experiment"):
                return run_experiment(config)

        counts = new_counts()
        batches = []
        cli_pass_wall = traced_wall = 0.0
        start = time.perf_counter()
        with recorded_warnings() as log, \
                mock.patch.object(bench, "run_experiment", traced_run_experiment):
            while not batches or time.perf_counter() - start < seconds:
                t0 = time.perf_counter()
                b = self.call_cli(len(batches) + 1, self.trials, cli_tr)
                cli_pass_wall += time.perf_counter() - t0
                batches.append(b)
                if b.payload is None:
                    continue
                t0 = time.perf_counter()
                self.replay_batch(b, tr, log, counts)
                traced_wall += time.perf_counter() - t0
        failed, excluded, problems = self.check(batches)
        attempted = sum(b.attempted for b in batches)
        self_share = 1.0 - (sum(cli_tr.durations("bench.run_experiment"))
                            / sum(cli_tr.durations("cli.main")))
        metrics = span_metrics(tr, traced_wall, [s for s in SPANS if s != "cli.main"])
        metrics.update(span_metrics(cli_tr, cli_pass_wall, ["cli.main"]))
        metrics.update(count_metrics(counts, overhead_share(tr, traced_wall), self_share,
                                     (excluded + failed) / attempted))
        return result(attempted, failed, metrics, problems, environment)


# ----------------------------------------------------------------------------
# report-400


def dense_reference_kappa2(A, b, p, L):
    """(||Mg||_2 for unit weights, cond(M)), with Mg built entry by entry with numpy.

    From d(L^T x) = L^T M^{-1} (dA^T J r - A^T J dA x + A^T J db),
    M = A^T J A: row i multiplies dA[row, j] by U[j, i] (J r)[row] -
    V[row, i] x[j] and db[row] by V[row, i], with U = M^{-1} L and
    V = J A U; vec(dA) is column-major.
    """
    m, n = A.shape
    s = np.ones(m)
    s[p:] = -1.0
    M = A[:p].T @ A[:p] - A[p:].T @ A[p:]
    M = 0.5 * (M + M.T)
    eig = np.linalg.eigvalsh(M)
    factor = scipy.linalg.cho_factor(M, lower=True)
    x = scipy.linalg.cho_solve(factor, A.T @ (s * b))
    U = scipy.linalg.cho_solve(factor, L)
    V = s[:, None] * (A @ U)
    jr = s * (b - A @ x)
    k = L.shape[1]
    K = np.empty((k, m * n + m))
    block = K[:, : m * n].reshape(k, n, m)
    np.multiply(U.T[:, :, None], jr[None, None, :], out=block)
    block -= x[None, :, None] * V.T[:, None, :]
    K[:, m * n:] = V.T
    return math.sqrt(np.linalg.eigvalsh(K @ K.T)[-1]), eig[-1] / eig[0]


def tls_reference(A, b):
    """TLS x from the smallest right singular vector of [A, b], and a tolerance.

    The library solves with A^T A - sigma^2 I, so agreement is limited to
    eps * cond(A^T A - sigma^2 I) (about 3.6e-7 at this size); 1e-9 is the floor.
    """
    n = A.shape[1]
    _, s_ab, vt = np.linalg.svd(np.column_stack([A, b]), full_matrices=False)
    s_a = np.linalg.svd(A, compute_uv=False)
    sig2 = s_ab[-1] ** 2
    cond = (s_a[0] ** 2 - sig2) / (s_a[-1] ** 2 - sig2)
    return -vt[-1, :n] / vt[-1, n], max(REPORT_TOL, np.finfo(float).eps * cond)


@dataclass
class Instance:
    A: np.ndarray
    b: np.ndarray
    split: object
    L: np.ndarray
    pce_seed: np.random.SeedSequence
    ssce_seed: np.random.SeedSequence


class ReportWorkload:
    """Partial (k = 20) condition report on ex1-family data at 400 x 200."""

    m, n, p, l, rho, k = 400, 200, 260, 2, 1.0, 20

    def __init__(self, seed):
        self.name = "report-400"
        self.seed = seed

    def describe(self):
        return {"workload": self.name, "m": self.m, "n": self.n, "p": self.p,
                "l": self.l, "rho": self.rho, "k": self.k, "seed": self.seed,
                "instances": f"SeedSequence([{self.seed}, i]) for op i (0 is the warm-up)"}

    def instance(self, i, tr):
        gen, pce, ssce = np.random.SeedSequence([self.seed, i]).spawn(3)
        rng = np.random.default_rng(gen)
        with tr.span("bench.gen_example1"):
            problem, _, _ = bench.gen_example1(self.m, self.n, self.p, self.l, self.rho, rng)
        Q, R = np.linalg.qr(rng.standard_normal((self.n, self.k)))
        return Instance(problem.A, problem.b, problem.split, Q * np.sign(np.diag(R)), pce, ssce)

    def op(self, inst, tr, log, counts):
        """One report; returns its values and the TLS solution."""
        params = CondParams(L=inst.L)
        with tr.span("ils.IlsProblem"):
            problem = IlsProblem(inst.A, inst.b, inst.split)
        counts["ils.ill_conditioned"] += bool(problem.ill_conditioned)
        with tr.span("tls.TlsProblem"):
            tls = TlsProblem(inst.A, inst.b)
        with tr.span("ils.solution"):
            _ = problem.solution
        v = {}
        with tr.span("exact.kappa_2ils"):
            v["kappa_2ils"] = kappa_2ils(problem, params)
        with tr.span("exact.kappa_mixed"):
            v["kappa_mixed"] = kappa_mixed(problem, params)
        with tr.span("exact.kappa_componentwise"):
            v["kappa_componentwise"] = kappa_componentwise(problem, params)
        with tr.span("exact.kappa_unified_22"):
            v["kappa_unified_22"] = kappa_unified(problem, params, 2, 2)
        with tr.span("exact.kappa_unified_inf"):
            v["kappa_unified_inf"] = kappa_unified(problem, params, np.inf, np.inf)
        with tr.span("estimate.estimate_kappa2_pce"):
            v["pce"], interval = estimate_kappa2_pce(problem, params, seed=inst.pce_seed,
                                                     return_interval=True)
        start = len(log)
        with tr.span("estimate.estimate_kappa_inf_ssce"):
            v["ssce_mixed"], v["ssce_comp"] = estimate_kappa_inf_ssce(
                problem, params, SsceConfig(k=3, seed=inst.ssce_seed))
        counts["estimate.ssce_clamps"] += count_clamps(log, start)
        with tr.span("tls.kappa_2tls"):
            v["kappa_2tls"] = kappa_2tls(tls, params)
        with tr.span("tls.kappa_mixed_tls"):
            v["kappa_mixed_tls"] = kappa_mixed_tls(tls, params)
        counts["pce_iterations"].append(interval.iterations)
        counts["estimate.pce_ratio_not_met"] += bool(interval.ratio_not_met)
        return v, tls.x

    def setup(self):
        with recorded_warnings() as log:
            self.op(self.instance(0, NullTracer()), NullTracer(), log, new_counts())

    def timed_op(self, i, tr, log, counts):
        """Op ``i`` on a fresh instance: (output, error, seconds in the op,
        seconds with the instance generation)."""
        t0 = time.perf_counter()
        inst = self.instance(i, tr)
        t1 = time.perf_counter()
        try:
            out, error = self.op(inst, tr, log, counts), None
        except Exception:
            out, error = None, traceback.format_exc(limit=3)
        t2 = time.perf_counter()
        log.clear()
        return out, error, t2 - t1, t2 - t0

    def op_pass(self, seconds):
        """Ops 1, 2, ... until ``seconds`` of wall time; instance generation untimed."""
        ops = []
        counts = new_counts()
        start = time.perf_counter()
        with recorded_warnings() as log:
            while not ops or time.perf_counter() - start < seconds:
                i = len(ops) + 1
                out, error, op_s, _ = self.timed_op(i, NullTracer(), log, counts)
                ops.append((i, op_s, out, error))
        return ops

    def check(self, ops):
        """Regenerate each instance and check its report; returns (failed, problems)."""
        failed = 0
        problems = []
        for i, _, out, error in ops:
            bad = error or self.check_report(self.instance(i, NullTracer()), *out)
            if bad:
                failed += 1
                problems.append(f"op {i}: {bad}")
        return failed, problems

    def check_report(self, inst, v, x_tls):
        for name, val in v.items():
            if not (math.isfinite(val) and val > 0):
                return f"{name}={val!r} is not finite and positive"
        k2, k22 = v["kappa_2ils"], v["kappa_unified_22"]
        if abs(k2 - k22) > REPORT_TOL * k22:
            return f"kappa_2ils {k2!r} and kappa_unified(2,2) {k22!r} disagree"
        # The reference factors M on its own, and two backward-stable solves
        # with M agree only to about eps * cond(M), which is 3.6e-7 at this size.
        ref, cond = dense_reference_kappa2(inst.A, inst.b, inst.split.p, inst.L)
        tol = max(REPORT_TOL, np.finfo(float).eps * cond)
        for name in ("kappa_2ils", "kappa_unified_22"):
            if abs(v[name] - ref) > tol * ref:
                return (f"{name} {v[name]!r} differs from the dense reference {ref!r} "
                        f"(tolerance {tol:.2e})")
        x_ref, tol = tls_reference(inst.A, inst.b)
        err = np.linalg.norm(x_tls - x_ref) / np.linalg.norm(x_ref)
        if err > tol:
            return f"TLS x differs from the SVD solution by {err:.3e} (tolerance {tol:.3e})"
        return None

    def run(self, seconds, environment):
        ops = self.op_pass(seconds)
        rss = peak_rss_mb()
        failed, problems = self.check(ops)
        busy = sum(dt for _, dt, _, _ in ops)
        latency = [dt * 1e3 for _, dt, _, _ in ops]
        metrics = {
            "ops_per_s": ((len(ops) - failed) / busy, "1/s"),
            "op_p50_ms": (percentile(latency, 50), "ms"),
            "op_p90_ms": (percentile(latency, 90), "ms"),
            "peak_rss_mb": (rss, "MB"),
        }
        return result(len(ops), failed, metrics, problems, environment)

    def run_traced(self, seconds, environment):
        """Each report is run untraced, then with spans on the same regenerated
        instance; the traced values must equal the untraced ones."""
        tr = Tracer()
        counts = new_counts()
        ops = []
        traced_wall = 0.0
        with recorded_warnings() as log:
            start = time.perf_counter()
            while not ops or time.perf_counter() - start < seconds:
                i = len(ops) + 1
                out, error, op_s, _ = self.timed_op(i, NullTracer(), log, new_counts())
                ops.append((i, op_s, out, error))
                if error:
                    continue
                tr.op = i
                traced, t_error, _, t_wall = self.timed_op(i, tr, log, counts)
                traced_wall += t_wall
                if t_error:
                    raise ReplayMismatch(tr.spans[-1][0], f"raised at op {i}: {t_error}")
                v, x_tls = traced
                for name, val in v.items():
                    if out[0][name] != val:
                        raise ReplayMismatch(SPAN_OF[name],
                                             f"{name} {out[0][name]!r} != {val!r} at op {i}")
                if not np.array_equal(out[1], x_tls):
                    raise ReplayMismatch("tls.TlsProblem", f"x differs at op {i}")
        failed, problems = self.check(ops)
        metrics = span_metrics(tr, traced_wall)
        # bytes of one k x (mn + m) dense first-order map, per dense-path call
        dense_mb = 8 * self.k * (self.m * self.n + self.m) / 1e6
        metrics.update(count_metrics(counts, overhead_share(tr, traced_wall), 0.0,
                                     failed / len(ops), dense_mb, dense_mb))
        return result(len(ops), failed, metrics, problems, environment)


def make_workload(name, seed, workdir):
    if name == "ratio-ex1":
        return RatioWorkload(name, "table1", "ex1", ["--m", "200", "--n", "120", "--p", "140"],
                             4, seed, workdir)
    if name == "ratio-ex2":
        return RatioWorkload(name, "table2", "ex2", [], 4, seed, workdir)
    if name == "ratio-ex3":
        return RatioWorkload(name, "table3", "ex3", [], 8, seed, workdir)
    if name == "report-400":
        return ReportWorkload(seed)
    raise ValueError(f"unknown workload {name!r}")
