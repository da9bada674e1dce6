"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.
"""

import time

import numpy as np
import pytest

from ilscond import (
    CondParams,
    ConditionReport,
    IlsProblem,
    SignatureSplit,
    StructuredParams,
    TlsNotGeneric,
    TlsProblem,
    estimate_kappa2_pce,
    kappa_2ils,
    kappa_2ils_cross,
    kappa_2tls,
    kappa_componentwise,
    kappa_componentwise_tls,
    kappa_composed_ils,
    kappa_mixed,
    kappa_mixed_tls,
    kappa_unified,
    make_basis,
    spectral_interval,
    tls_blocks,
)
from ilscond.bench import run_experiment, table1_config, table2_config, table3_config
from ilscond.cli import main as cli_main
from ilscond.kron import entrywise_div, vec

from conftest import directional_derivative, random_ils

pytestmark = pytest.mark.filterwarnings(
    "ignore::ilscond.ils.IllConditionedWarning", "ignore::UserWarning"
)


def _report(num, desc, ok, extra=""):
    status = "PASS" if ok else "FAIL"
    print(f"{status} criterion {num}: {desc}{' [' + extra + ']' if extra else ''}")
    assert ok, f"criterion {num} failed: {desc}"


def _rel(a, b):
    return abs(a - b) / max(abs(a), abs(b), 1e-300)


def test_criterion_1_formula_equivalence():
    rng = np.random.default_rng(101)
    t0 = time.perf_counter()
    worst_two = 0.0
    worst_inf = 0.0
    for _ in range(100):
        prob = random_ils(rng)
        params = CondParams()
        k_fact = kappa_2ils(prob, params)
        k_cross = kappa_2ils_cross(prob, params)
        k_uni = kappa_unified(prob, params, 2, 2)
        worst_two = max(worst_two, _rel(k_fact, k_cross), _rel(k_fact, k_uni))
        jac = prob.jacobian()
        num_rows = jac.abs_weighted_rowsums(np.abs(prob.A), np.abs(prob.b))
        num_dense = np.abs(jac.dense()) @ np.abs(
            np.concatenate([vec(prob.A), prob.b])
        )
        denom = np.abs(num_dense).max()
        worst_inf = max(worst_inf, np.abs(num_rows - num_dense).max() / denom)
    elapsed = time.perf_counter() - t0
    ok = worst_two <= 1e-9 and worst_inf <= 1e-12 and elapsed < 10.0
    _report(
        1,
        "2-norm formulas agree to 1e-9 and infinity-norm row/dense products to 1e-12 "
        "on 100 random instances",
        ok,
        f"max rel two-norm {worst_two:.2e}, inf {worst_inf:.2e}, {elapsed:.1f}s",
    )


def test_criterion_2_frechet_derivative():
    rng = np.random.default_rng(202)
    checked = 0
    ratios = []
    while checked < 20:
        prob = random_ils(rng, m=16, n=6)
        if kappa_2ils(prob, CondParams()) > 1e3:
            continue
        checked += 1
        L = np.eye(prob.n)
        dA = rng.standard_normal(prob.A.shape)
        db = rng.standard_normal(prob.m)
        analytic = directional_derivative(prob, L, dA, db)
        errs = []
        for t in (1e-3, 5e-4, 2.5e-4):
            pert = IlsProblem(prob.A + t * dA, prob.b + t * db, prob.split)
            errs.append(
                np.linalg.norm((pert.solution.x - prob.solution.x) / t - analytic)
            )
        ratios += [errs[0] / errs[1], errs[1] / errs[2]]
    ok = all(abs(r - 2.0) <= 0.2 for r in ratios)
    worst = max(ratios, key=lambda r: abs(r - 2.0))
    _report(2, "finite differences converge at first order (ratio 2.0 +/- 0.2) "
               "on 20 instances", ok, f"worst ratio {worst:.3f}")


def _perturb_two_norm(prob, kappa, rng, samples):
    h = 1e-7
    dense = prob.jacobian().dense()
    _, _, vt = np.linalg.svd(dense, full_matrices=False)
    dirs = [vt[0]] + [rng.standard_normal(dense.shape[1]) for _ in range(samples - 1)]
    for z in dirs:
        z = z / np.linalg.norm(z)
        dA = h * z[: prob.m * prob.n].reshape((prob.m, prob.n), order="F")
        db = h * z[prob.m * prob.n :]
        pert = IlsProblem(prob.A + dA, prob.b + db, prob.split)
        resp = np.linalg.norm(pert.solution.x - prob.solution.x) / h
        if resp > kappa * (1.0 + 1e-3):
            return False
    return True


def _perturb_componentwise(prob, km, kc, rng, samples):
    h = 1e-7
    x = prob.solution.x
    for _ in range(samples):
        dA = h * prob.A * rng.uniform(-1.0, 1.0, size=prob.A.shape)
        db = h * prob.b * rng.uniform(-1.0, 1.0, size=prob.m)
        pert = IlsProblem(prob.A + dA, prob.b + db, prob.split)
        dx = pert.solution.x - x
        if np.abs(dx).max() / (h * np.abs(x).max()) > km * (1.0 + 1e-3):
            return False
        comp_resp = np.max(np.abs(entrywise_div(np.abs(dx), np.abs(x)))) / h
        if comp_resp > kc * (1.0 + 1e-3):
            return False
    return True


def test_criterion_3_perturbation_consistency():
    rng = np.random.default_rng(303)
    ok = True
    checked = 0
    while checked < 20:
        prob = random_ils(rng)
        k2 = kappa_2ils(prob, CondParams())
        if k2 > 5e3:
            continue
        checked += 1
        km = kappa_mixed(prob)
        kc = kappa_componentwise(prob)
        ok = ok and _perturb_two_norm(prob, k2, rng, 200)
        ok = ok and _perturb_componentwise(prob, km, kc, rng, 200)
    _report(3, "sampled perturbation responses never exceed the exact condition "
               "numbers by more than 0.1% (200 samples x 20 instances)", ok)


def test_criterion_4_table1():
    t0 = time.perf_counter()
    res = run_experiment(table1_config(seed=1))
    elapsed = time.perf_counter() - t0
    cfg = res.config
    ok = elapsed < 300.0
    flat_ratio = None
    for kap in cfg.kappa_grid:
        for rho in cfg.rho_grid:
            st = res.cell_stats(kap, rho)
            ok = ok and st["r_p"]["count"] > 0
            ok = ok and 0.995 <= st["r_p"]["mean"] <= 1.005
            ok = ok and (1.0 / 15.0) <= st["r_s"]["mean"] <= 15.0
            if kap == 0:
                flat_ratio = st["r_s"]["mean"]
                ok = ok and st["r_s"]["mean"] > 5.0
            else:
                ok = ok and 0.9 <= st["r_s"]["mean"] <= 1.6
    _report(4, "scaled table 1: probabilistic means in [0.995, 1.005], "
               "small-sample means in band, flat-spectrum overestimate > 5",
            ok, f"{elapsed:.0f}s, flat-spectrum ratio {flat_ratio:.2f}")


def test_criterion_5_table2():
    t0 = time.perf_counter()
    res = run_experiment(table2_config(seed=2))
    elapsed = time.perf_counter() - t0
    cfg = res.config
    ok = elapsed < 180.0
    lo, hi = np.inf, 0.0
    for kap in cfg.kappa_grid:
        for rho in cfg.rho_grid:
            st = res.cell_stats(kap, rho)
            ok = ok and st["r_m"]["count"] > 0
            for name in ("r_m", "r_c"):
                ok = ok and 0.3 <= st[name]["mean"] <= 3.0
                lo = min(lo, st[name]["mean"])
                hi = max(hi, st[name]["mean"])
    _report(5, "scaled table 2: mixed/componentwise estimate ratios in [0.3, 3.0] "
               "in every cell", ok, f"{elapsed:.0f}s, means in [{lo:.2f}, {hi:.2f}]")


def test_criterion_6_table3():
    t0 = time.perf_counter()
    res = run_experiment(table3_config(seed=3))
    elapsed = time.perf_counter() - t0
    cfg = res.config
    ok = elapsed < 120.0
    best_rn = 0.0
    for rho in cfg.rho_grid:
        st = res.cell_stats(None, rho)
        ok = ok and st["r_N"]["count"] > 0
        for name in ("r_N", "r_M", "r_C"):
            ok = ok and st[name]["mean"] >= 1.0
        best_rn = max(best_rn, st["r_N"]["mean"])
    ok = ok and best_rn > 2.0
    _report(6, "table 3: structured values never exceed unstructured on average "
               "and the normwise gap tops 2", ok,
            f"{elapsed:.0f}s, best mean ratio {best_rn:.2f}")


def test_criterion_7_tls_suite():
    rng = np.random.default_rng(707)
    ok = True
    for _ in range(100):
        m = int(rng.integers(6, 16))
        n = int(rng.integers(2, min(m - 2, 7)))
        A = rng.standard_normal((m, n))
        b = A @ rng.standard_normal(n) + 0.4 * rng.standard_normal(m)
        try:
            tls = TlsProblem(A, b)
        except TlsNotGeneric:
            continue
        full = np.column_stack([A, b])
        _, _, Vt = np.linalg.svd(full)
        x_ref = -Vt[-1][:-1] / Vt[-1][-1]
        ok = ok and np.linalg.norm(tls.x - x_ref) <= 1e-9 * np.linalg.norm(x_ref)
        stacked = IlsProblem(np.vstack([A, tls.sigma_tilde * np.eye(n)]),
                             np.concatenate([b, np.zeros(n)]), SignatureSplit(m, n))
        a = kappa_2tls(tls)
        c = kappa_composed_ils(stacked, tls_blocks(tls))
        ok = ok and _rel(a, c) <= 1e-9
    structured_checked = 0
    while structured_checked < 50:
        m, n = 12, 5
        basis = make_basis("toeplitz", m, n)
        A = basis.embed(rng.standard_normal(basis.k))
        b = A @ rng.standard_normal(n) + 0.4 * rng.standard_normal(m)
        try:
            tls = TlsProblem(A, b)
        except TlsNotGeneric:
            continue
        structured_checked += 1
        sparams = StructuredParams(basis, make_basis("full", m))
        report = ConditionReport(tls, CondParams(), sparams)
        tol = 1 + 1e-12
        ok = ok and report.structured_2 <= kappa_2tls(tls) * tol
        ok = ok and report.structured_mixed <= kappa_mixed_tls(tls) * tol
        ok = ok and report.structured_componentwise <= kappa_componentwise_tls(tls) * tol
    _report(7, "TLS: solution matches the SVD oracle, both condition paths agree, "
               "structured never exceeds unstructured", ok)


def test_criterion_8_estimator_contracts():
    rng = np.random.default_rng(808)
    contained = 0
    for _ in range(500):
        m = int(rng.integers(1, 61))
        n = int(rng.integers(1, 201))
        A = rng.standard_normal((m, n))
        itv = spectral_interval(A, delta=0.01, epsilon=1e-3, seed=rng)
        truth = np.linalg.norm(A, 2)
        if (itv.alpha1 <= truth * (1 + 1e-10)
                and truth <= itv.alpha2 * (1 + 1e-10)
                and not itv.ratio_not_met):
            contained += 1
    ok = contained == 500

    pce_ok = 0
    trials = 0
    while trials < 500:
        prob = random_ils(rng)
        trials += 1
        exact = kappa_2ils(prob, CondParams())
        est, itv = estimate_kappa2_pce(
            prob, CondParams(), delta=0.01, seed=rng, return_interval=True
        )
        if itv.ratio_not_met:
            continue
        if abs(est - exact) / exact <= 0.01:
            pce_ok += 1
    ok = ok and pce_ok == trials
    _report(8, "spectral intervals contain the dense-SVD norm 500/500 and the "
               "probabilistic estimate is within delta on clean runs", ok,
            f"containment {contained}/500, pce {pce_ok}/{trials}")


def test_criterion_9_determinism(tmp_path, capsys):
    paths = [str(tmp_path / f"t1_{i}.csv") for i in range(2)]
    for path in paths:
        rc = cli_main(["table1", "--seed", "42", "--out", path])
        assert rc == 0
    capsys.readouterr()  # swallow the two printed tables
    a = open(paths[0], "rb").read()
    b = open(paths[1], "rb").read()
    _report(9, "table1 --seed 42 twice produces byte-identical CSV", a == b,
            f"{len(a)} bytes")
