"""Problem generators and ratio experiments.

Three instance families exercise the estimators and the structured
comparisons: Householder-rotated graded spectra (tunable condition number),
stacked orthogonal factors with exponentially graded diagonals, and stacked
random Toeplitz blocks.  run_experiment sweeps a grid of condition numbers
and residual norms, collects estimate/exact ratios per trial, and emits
deterministic CSV/JSON plus a printed summary table.
"""

import csv
import ctypes
import io
import json
import os
import pickle
import signal
import sys
import time
import warnings
from dataclasses import asdict, dataclass, field
from functools import lru_cache

import numpy as np

from .estimate import SsceConfig, _orthonormal, estimate_kappa2_pce, estimate_kappa2_ssce, \
    estimate_kappa_inf_ssce
from .exact import CondParams, ConditionReport, kappa_2ils
from .ils import (EPS, IllConditionedWarning, IlsProblem, NotPositiveDefinite,
                  NumericallySingular, SignatureSplit, _singular_message)
from .structured import StructuredParams, make_basis


def _planted_xr(m, n, rho, rng):
    x = np.arange(1, n + 1, dtype=float) ** 2
    r = rng.standard_normal(m)
    r *= rho / np.linalg.norm(r)
    return x, r


def gen_example1(m, n, p, l, rho, seed):
    """Graded-spectrum instance: kappa(A) = n**l by construction.

    A applies Householder reflectors on both sides of [D; 0] with
    D = n^{-l} diag(n^l, (n-1)^l, ..., 1); the solution is planted as
    x = (1, 4, ..., n^2) and b = A x + r with ||r|| = rho.  Both reflectors
    keep the trailing q rows of [D; 0] zero, so A_q = 0: A^T J A = R_p^T R_p
    and the indefiniteness lives in b alone.  cond(R_p) = cond(A) = n**l, so
    an instance with n**l at or beyond 1/(max(m, n) eps) raises
    NumericallySingular before anything is drawn.

    Returns (problem, planted_x, planted_r).
    """
    if p < n or p >= m:
        raise ValueError("need n <= p < m")
    bound = 1.0 / (max(m, n) * EPS)
    if float(n) ** l >= bound:
        raise NumericallySingular(_singular_message(float(n) ** l, bound))
    q = m - p
    rng = np.random.default_rng(seed)
    up = rng.standard_normal(p)
    up /= np.linalg.norm(up)
    uq = rng.standard_normal(q)
    uq /= np.linalg.norm(uq)
    v = rng.standard_normal(n)
    v /= np.linalg.norm(v)
    T = np.zeros((m, n))
    T[:n, :n] = np.diag(np.arange(n, 0, -1.0) ** l / float(n) ** l)
    T[:p] -= 2.0 * np.outer(up, up @ T[:p])
    T[p:] -= 2.0 * np.outer(uq, uq @ T[p:])
    A = T - 2.0 * np.outer(T @ v, v)
    x, r = _planted_xr(m, n, rho, rng)
    b = A @ x + r
    return IlsProblem(A, b, SignatureSplit(p, q)), x, r


def gen_example2(m, n, p, kappa, rho, seed):
    """Stacked orthogonal instance [Q1 D U; Q2 D U / 2] with graded D.

    The diagonal of D runs geometrically from 1/kappa up to 1, so
    kappa(A) = kappa.  A = [Q1; Q2 / 2] D U, so the certificate
    I - W W^T = R_p^{-T} (A^T J A) R_p^{-1} is orthogonally similar to
    I - P/4 with P = Q2^T Q2 a projector: its eigenvalues are 1 and 0.75 for
    any shape, and every draw is definite.  Returns
    (problem, planted_x, planted_r).
    """
    if p < n or p >= m:
        raise ValueError("need n <= p < m")
    if n < 2:
        raise ValueError("need n >= 2")
    q = m - p
    rng = np.random.default_rng(seed)
    # each factor in the memory order numpy's linalg.qr gave it, the opposite
    # of LAPACK's: the order decides how BLAS sums the products that form A
    Q1, Q2, Uo = (np.copy(Q, order="F" if Q.flags.c_contiguous else "C")
                  for Q in [_orthonormal(rng, rows, n) for rows in (p, q, n)])
    d = kappa ** (-(n - 1.0 - np.arange(n)) / (n - 1.0))
    DU = d[:, None] * Uo
    A = np.vstack([Q1 @ DU, 0.5 * (Q2 @ DU)])
    x, r = _planted_xr(m, n, rho, rng)
    b = A @ x + r
    return IlsProblem(A, b, SignatureSplit(p, q)), x, r


@lru_cache(maxsize=4)
def _example3_basis(n):
    """The read-only basis of every 2n x n ex3 instance, built once per n."""
    return make_basis("stacked_scaled", 2 * n, n, base_kind="toeplitz", scale=0.5)


def gen_example3(n, rho, seed):
    """Stacked Toeplitz instance A = [B; B/2] with Gaussian generators.

    B is a nonsymmetric random Toeplitz n x n block; p = q = n, so the
    normal matrix is (3/4) B^T B against A_p^T A_p = B^T B: the certificate
    I - W W^T is (3/4) I, and the instance is definite whenever B is
    nonsingular.  Only A is structured, and its basis is shared by every
    instance of size n.  Returns (problem, structured_params, planted_x,
    planted_r).
    """
    if n < 2:
        raise ValueError("need n >= 2")
    rng = np.random.default_rng(seed)
    m = 2 * n
    basis = _example3_basis(n)
    c = rng.standard_normal(n)
    row = rng.standard_normal(n)
    # B's first column c, then its first row's tail; the layout fixes how A @ x rounds
    A = np.ascontiguousarray(basis.embed(np.concatenate([c, row[1:]])))
    x, r = _planted_xr(m, n, rho, rng)
    b = A @ x + r
    return IlsProblem(A, b, SignatureSplit(n, n)), StructuredParams(basis), x, r


@dataclass
class ExperimentConfig:
    """Grid, sizes and estimator settings for one ratio experiment."""

    example: str
    n: int
    m: int = 0
    p: int = 0
    kappa_grid: tuple = ()
    rho_grid: tuple = (1e-4, 1e-2, 1.0, 1e2, 1e4)
    trials: int = 100
    seed: int = 0
    delta: float = 1e-2
    epsilon: float = 1e-3
    k: int = 3

    def __post_init__(self):
        if self.example not in ("ex1", "ex2", "ex3"):
            raise ValueError("example must be 'ex1', 'ex2' or 'ex3'")
        if self.example == "ex3":
            self.m = 2 * self.n
            self.p = self.n
        else:
            if not (self.n <= self.p < self.m):
                raise ValueError("need n <= p < m")
        for name in ("trials", "k"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1")
        # the small-sample estimators draw k directions in R^n (ex1) and in
        # R^(m(n+1)) (ex2)
        if self.example == "ex1" and self.k > self.n:
            raise ValueError("k must not exceed n")
        if self.example == "ex2" and self.k > self.m * (self.n + 1):
            raise ValueError("k must not exceed m(n+1)")

    def cells(self):
        if self.example == "ex3":
            return [(None, rho) for rho in self.rho_grid]
        return [(kap, rho) for kap in self.kappa_grid for rho in self.rho_grid]


def table1_config(full=False, **overrides):
    """Ratio experiment for the 2-norm estimators (probabilistic + small-sample)."""
    base = dict(
        example="ex1", m=60, n=36, p=42, kappa_grid=(0, 3, 6),
        rho_grid=(1e-4, 1.0, 1e4), trials=100,
    )
    if full:
        base.update(m=200, n=120, p=140, kappa_grid=(0, 3, 6, 9),
                    rho_grid=(1e-4, 1e-2, 1.0, 1e2, 1e4), trials=500)
    base.update(overrides)
    return ExperimentConfig(**base)


def table2_config(full=False, **overrides):
    """Ratio experiment for the mixed/componentwise small-sample estimator.

    The desk grid stops at 1e8; the full grid keeps the published ladder up
    to 1e12.  Definiteness is certified from the QR factor of A_p, never
    from A^T J A, so it holds while cond(A) stays below 1/(max(m, n) eps) and
    every cell of both grids has records.
    """
    base = dict(
        example="ex2", m=60, n=25, p=35, kappa_grid=(1e2, 1e4, 1e6, 1e8),
        rho_grid=(1e-4, 1e-2, 1.0, 1e2, 1e4), trials=100,
    )
    if full:
        base.update(m=120, n=50, p=70, trials=200,
                    kappa_grid=(1e2, 1e6, 1e10, 1e12))
    base.update(overrides)
    return ExperimentConfig(**base)


def table3_config(full=False, **overrides):
    """Structured versus unstructured condition number comparison."""
    base = dict(example="ex3", n=24, rho_grid=(1e-4, 1e-2, 1.0, 1e2, 1e4),
                trials=100)
    if full:
        base.update(n=60, trials=200)
    base.update(overrides)
    return ExperimentConfig(**base)


@dataclass
class TrialRecord:
    """One generated instance: exact values, estimates, and their ratios."""

    example: str
    kappa_label: float | None
    rho: float
    trial: int
    values: dict


_CSV_COLUMNS = {
    "ex1": ["kappa2_exact", "kappa2_pce", "kappa2_ssce", "r_p", "r_s"],
    "ex2": ["kappa_m_exact", "kappa_c_exact", "kappa_m_ssce", "kappa_c_ssce",
            "r_m", "r_c"],
    "ex3": ["kappa2", "kappa2_struct", "r_N", "kappa_m", "kappa_m_struct", "r_M",
            "kappa_c", "kappa_c_struct", "r_C"],
}

RATIO_NAMES = {"ex1": ("r_p", "r_s"), "ex2": ("r_m", "r_c"),
               "ex3": ("r_N", "r_M", "r_C")}


def _run_trial(config, kappa_label, rho, rng):
    params = CondParams()
    if config.example == "ex1":
        problem, _, _ = gen_example1(config.m, config.n, config.p,
                                     kappa_label, rho, rng)
        exact = kappa_2ils(problem, params)
        pce = estimate_kappa2_pce(problem, params, delta=config.delta,
                                  epsilon=config.epsilon, seed=rng)
        ssce = estimate_kappa2_ssce(problem, params,
                                    SsceConfig(k=config.k, rng=rng))
        return {
            "kappa2_exact": exact, "kappa2_pce": pce, "kappa2_ssce": ssce,
            "r_p": pce / exact, "r_s": ssce / exact,
        }
    if config.example == "ex2":
        problem, _, _ = gen_example2(config.m, config.n, config.p,
                                     kappa_label, rho, rng)
        report = ConditionReport(problem, params)
        km, kc = report.mixed, report.componentwise
        sm, sc = estimate_kappa_inf_ssce(problem, params,
                                         SsceConfig(k=config.k, rng=rng))
        return {
            "kappa_m_exact": km, "kappa_c_exact": kc,
            "kappa_m_ssce": sm, "kappa_c_ssce": sc,
            "r_m": sm / km, "r_c": sc / kc,
        }
    problem, sparams, _, _ = gen_example3(config.n, rho, rng)
    k2 = kappa_2ils(problem, params)
    report = ConditionReport(problem, params, sparams)
    k2s, kms, kcs = (report.structured_2, report.structured_mixed,
                     report.structured_componentwise)
    km, kc = report.mixed, report.componentwise
    return {
        "kappa2": k2, "kappa2_struct": k2s, "r_N": k2 / k2s,
        "kappa_m": km, "kappa_m_struct": kms, "r_M": km / kms,
        "kappa_c": kc, "kappa_c_struct": kcs, "r_C": kc / kcs,
    }


@dataclass
class ExperimentResult:
    config: ExperimentConfig
    records: list = field(default_factory=list)
    failures: dict = field(default_factory=dict)
    elapsed: float = 0.0
    processes: int = 1

    def _stats(self, recs):
        stats = {}
        for name in RATIO_NAMES[self.config.example]:
            vals = np.array([rec.values[name] for rec in recs])
            if vals.size == 0:
                stats[name] = {"mean": np.nan, "var": np.nan, "max": np.nan,
                               "count": 0}
            else:
                stats[name] = {
                    "mean": float(vals.mean()),
                    "var": float(vals.var(ddof=1)) if vals.size > 1 else 0.0,
                    "max": float(vals.max()),
                    "count": int(vals.size),
                }
        return stats

    def to_csv(self, path):
        """One row per trial, fixed column order, round-trip float formatting."""
        cols = _CSV_COLUMNS[self.config.example]
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["example", "m", "n", "p", "kappa", "rho", "trial"] + cols)
            for rec in self.records:
                row = [
                    rec.example, self.config.m, self.config.n, self.config.p,
                    "" if rec.kappa_label is None else repr(float(rec.kappa_label)),
                    repr(float(rec.rho)), rec.trial,
                ]
                row += [repr(float(rec.values[c])) for c in cols]
                writer.writerow(row)

    def to_json(self, path):
        cols = _CSV_COLUMNS[self.config.example]
        payload = {
            "config": asdict(self.config),
            "records": [
                {
                    "kappa": rec.kappa_label, "rho": rec.rho, "trial": rec.trial,
                    **{c: rec.values[c] for c in cols},
                }
                for rec in self.records
            ],
            "failures": {str(k): v for k, v in self.failures.items()},
        }
        with open(path, "w") as fh:
            json.dump(payload, fh, indent=1)
            fh.write("\n")

    def format_table(self):
        """Mean/variance (mean/max for the structured comparison) per cell."""
        cfg = self.config
        out = io.StringIO()
        ratios = RATIO_NAMES[cfg.example]
        by_cell = {}
        for rec in self.records:
            by_cell.setdefault((rec.kappa_label, rec.rho), []).append(rec)
        stats = {cell: self._stats(by_cell.get(cell, [])) for cell in cfg.cells()}
        if cfg.example == "ex3":
            header = ["ratio", "stat"] + [f"rho={rho:g}" for rho in cfg.rho_grid]
            rows = []
            for name in ratios:
                for stat in ("mean", "max"):
                    cells = [stats[None, rho][name][stat] for rho in cfg.rho_grid]
                    rows.append([name, stat] + [f"{v:.4f}" for v in cells])
            _write_aligned(out, header, rows)
        else:
            kap_fmt = (lambda k: f"n^{k:g}") if cfg.example == "ex1" else \
                (lambda k: f"{k:.0e}")
            header = ["rho", "ratio"] + [
                f"{kap_fmt(k)} mean|var" for k in cfg.kappa_grid
            ]
            rows = []
            for rho in cfg.rho_grid:
                for name in ratios:
                    cells = []
                    for kap in cfg.kappa_grid:
                        st = stats[kap, rho][name]
                        cells.append(f"{st['mean']:.3e} {st['var']:.3e}")
                    rows.append([f"{rho:g}", name] + cells)
            _write_aligned(out, header, rows)
        total_failed = sum(self.failures.values())
        if total_failed:
            out.write("excluded trials (not definite or numerically singular): "
                      f"{total_failed} {dict(self.failures)}\n")
        plural = "es" if self.processes > 1 else ""
        out.write(f"total time: {self.elapsed:.1f} s ({self.processes} process{plural})\n")
        return out.getvalue()


def _write_aligned(out, header, rows):
    widths = [max(len(str(header[i])), *(len(str(r[i])) for r in rows))
              for i in range(len(header))]
    line = "  ".join(str(h).ljust(w) for h, w in zip(header, widths))
    out.write(line + "\n")
    out.write("-" * len(line) + "\n")
    for r in rows:
        out.write("  ".join(str(c).ljust(w) for c, w in zip(r, widths)) + "\n")


def _job_count(jobs, ntasks):
    if jobs is not None and jobs < 1:
        raise ValueError("jobs must be at least 1")
    # workers are forked, on Linux only
    cpus = len(os.sched_getaffinity(0)) if sys.platform == "linux" else 1
    if jobs is None:
        env = (os.environ.get(v, "") for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"))
        jobs = cpus // next((int(t) for t in env if t.isdecimal() and int(t) > 0), cpus)
    return max(1, min(jobs, cpus, ntasks))


def _run_trials(config, tasks):
    """Values (None if excluded) and ((module, qualname) of the category, text,
    filename, lineno) warnings of each ((kappa_label, rho, trial), seed) task."""
    out = []
    for (kappa_label, rho, _), seed in tasks:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("ignore", IllConditionedWarning)
            try:
                vals = _run_trial(config, kappa_label, rho, np.random.default_rng(seed))
            except NotPositiveDefinite:
                vals = None
        out.append((vals, [((w.category.__module__, w.category.__qualname__),
                            str(w.message), w.filename, w.lineno) for w in caught]))
    return out


def _warning_category(name, cls=Warning):
    # the newest live subclass of cls, or cls, named (module, qualname): also one made before a fork
    if (cls.__module__, cls.__qualname__) == name:
        return cls
    return next(filter(None, (_warning_category(name, sub)
                              for sub in reversed(cls.__subclasses__()))), None)


# glibc's mallopt parameters (malloc.h) and the values run_experiment sets.
# At glibc's dynamic thresholds an ex1 trial at 200 x 120 frees ~1.1 MB of
# live arrays, past the ~1 MB trim threshold, so the heap went back to the
# kernel after every trial and the next trial faulted it in again: 460-487
# minor faults, 0.7-0.9 ms of a 3.4 ms trial (2-core Xeon VM, one BLAS
# thread).  Any mallopt call turns the dynamic mmap threshold off, so both
# are set.  32 MiB is the ceiling of the dynamic mmap threshold on 64-bit,
# so trial arrays stay on the heap; up to 64 MiB of free heap top stays
# mapped before glibc trims it.
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3
MMAP_THRESHOLD = 32 << 20
TRIM_THRESHOLD = 64 << 20


def _retain_heap():
    """On glibc, keep freed heap in this process between trials; elsewhere nothing."""
    try:
        libc = os.confstr("CS_GNU_LIBC_VERSION") or ""
    except (AttributeError, ValueError, OSError):  # no confstr, or not a GNU libc
        return
    if not libc.startswith("glibc"):
        return
    mallopt = ctypes.CDLL(None).mallopt
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    for name, param, value in (("M_MMAP_THRESHOLD", _M_MMAP_THRESHOLD, MMAP_THRESHOLD),
                               ("M_TRIM_THRESHOLD", _M_TRIM_THRESHOLD, TRIM_THRESHOLD)):
        if mallopt(param, value) != 1:
            warnings.warn(f"mallopt({name}, {value}) failed; freed heap may go back "
                          "to the kernel between trials", RuntimeWarning, stacklevel=3)


def run_experiment(config, jobs=None):
    """Sweep the grid; returns an ExperimentResult with per-trial records.

    Deterministic for a fixed config and seed: every trial draws from its own
    spawned generator, so trials may run in any order and process.  They run
    in ``jobs`` processes, this one and jobs - 1 forked children, dealt
    round-robin and put back in trial order, so no output depends on ``jobs``.
    Each trial's warnings come back with its values and are re-issued here
    in trial order, once per location per call under a "default" filter.
    None means usable CPUs // BLAS threads (the first positive
    OPENBLAS_NUM_THREADS or OMP_NUM_THREADS, else every CPU).  The count is
    capped at the usable CPUs and the trials, and is 1 off Linux.  Trials
    whose instance raises NotPositiveDefinite (in practice NumericallySingular:
    every generator is definite by construction) are counted in ``failures``.
    On glibc it first sets this process's mmap and trim thresholds
    (MMAP_THRESHOLD, TRIM_THRESHOLD), which the workers inherit and which
    stay set after it returns, so that freed trial arrays stay on the heap.
    """
    t0 = time.perf_counter()
    grid = [(kappa_label, rho, trial) for kappa_label, rho in config.cells()
            for trial in range(config.trials)]
    tasks = list(zip(grid, np.random.SeedSequence(config.seed).spawn(len(grid))))
    jobs = _job_count(jobs, len(tasks))
    _retain_heap()
    results = [None] * len(tasks)
    readers = {}
    try:
        for j in range(1, jobs):
            read_fd, write_fd = os.pipe()
            pid = os.fork()
            if pid == 0:
                # the child pickles before it writes, so a failed dump sends nothing,
                # and leaves through os._exit: no atexit handler, no buffer flushed
                try:
                    try:
                        payload = pickle.dumps(_run_trials(config, tasks[j::jobs]))
                    except BaseException as exc:
                        try:
                            payload = pickle.dumps(exc)
                            pickle.loads(payload)
                        except Exception:  # pickle cannot send it: send its class's name
                            payload = pickle.dumps(RuntimeError(
                                f"{type(exc).__module__}.{type(exc).__qualname__}: {exc}"))
                    with open(write_fd, "wb") as fh:
                        fh.write(payload)
                finally:
                    os._exit(0)
            os.close(write_fd)
            readers[pid] = open(read_fd, "rb")
        results[0::jobs] = _run_trials(config, tasks[0::jobs])
        for j, fh in enumerate(readers.values(), 1):
            payload = pickle.load(fh)
            if isinstance(payload, BaseException):
                raise payload
            results[j::jobs] = payload
    finally:
        for pid, fh in readers.items():
            fh.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    result = ExperimentResult(config=config, processes=jobs)
    registry = {}
    for (kappa_label, rho, trial), (vals, caught) in zip(grid, results):
        for qualified, text, filename, lineno in caught:
            # by name, since pickle cannot send a class defined in a function
            category = _warning_category(qualified)
            if category is None:
                category, text = UserWarning, f"{'.'.join(qualified)}: {text}"
            # a filter may name the module, which warn() took from the frame;
            # warn_explicit drops a warning whose module is None
            module = next((name for name, mod in list(sys.modules.items())
                           if getattr(mod, "__file__", None) == filename),
                          os.path.splitext(filename)[0])
            warnings.warn_explicit(text, category, filename, lineno, module, registry)
        if vals is None:
            key = (kappa_label, rho)
            result.failures[key] = result.failures.get(key, 0) + 1
        else:
            result.records.append(TrialRecord(config.example, kappa_label, rho, trial, vals))
    result.elapsed = time.perf_counter() - t0
    return result
