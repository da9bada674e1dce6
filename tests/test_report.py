"""ConditionReport: one set of shared pieces behind every mixed, componentwise
and structured flavour, and the one factor type behind every M^{-1} product."""

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
    kappa_2ils_structured,
    kappa_componentwise,
    kappa_componentwise_structured,
    kappa_componentwise_tls,
    kappa_mixed,
    kappa_mixed_structured,
    kappa_mixed_tls,
    make_basis,
)
from ilscond.bench import _run_trial, gen_example2, gen_example3, table2_config
from ilscond.exact import JacobianMg
from ilscond.structured import StructureBasis


def _with_weights(sparams, rng):
    """The same bases with explicit (varphi, theta), for structured_general."""
    return StructuredParams(
        sparams.basisA, sparams.basisB,
        varphi=rng.standard_normal(sparams.basisA.k),
        theta=rng.standard_normal(sparams.basisB.k),
    )


def _ex2(rng):
    prob, _, _ = gen_example2(30, 10, 18, 1e4, 1.0, rng)
    full = StructuredParams(make_basis("full", prob.m, prob.n), make_basis("full", prob.m))
    return prob, _with_weights(full, rng)


def _ex3(rng):
    prob, sparams, _, _ = gen_example3(8, 1.0, rng)
    return prob, _with_weights(sparams, rng)


def _toeplitz_tls(rng, m=12, n=5):
    basis = make_basis("toeplitz", m, n)
    for _ in range(50):
        A = basis.embed(rng.standard_normal(basis.k))
        b = A @ rng.standard_normal(n) + 0.3 * rng.standard_normal(m)
        try:
            tls = TlsProblem(A, b)
        except TlsNotGeneric:
            continue
        return tls, _with_weights(StructuredParams(basis, make_basis("full", m)), rng)
    raise RuntimeError("no generic structured instance found")


INSTANCES = {"ex2": _ex2, "ex3": _ex3, "tls": _toeplitz_tls}


def _standalone(problem, params, sparams):
    """Every flavour through its standalone function, in a fixed order."""
    is_tls = isinstance(problem, TlsProblem)
    return {
        "mixed": (kappa_mixed_tls if is_tls else kappa_mixed)(problem, params),
        "componentwise": (kappa_componentwise_tls if is_tls else kappa_componentwise)(
            problem, params),
        "structured_2": kappa_2ils_structured(problem, params, sparams),
        "structured_mixed": kappa_mixed_structured(problem, params, sparams),
        "structured_componentwise": kappa_componentwise_structured(
            problem, params, sparams),
        "structured_general": ConditionReport(problem, params, sparams).structured_general,
    }


@pytest.mark.parametrize("kind", sorted(INSTANCES))
def test_fields_equal_standalone_functions(kind, rng):
    problem, sparams = INSTANCES[kind](rng)
    for params in (CondParams(), CondParams(psi=1.3, beta=0.6, xi=2.0,
                                            L=rng.standard_normal((problem.n, 2)))):
        expected = _standalone(problem, params, sparams)
        report = ConditionReport(problem, params, sparams)
        # read in reverse so the shared pieces are built in another order
        for name in reversed(list(expected)):
            assert getattr(report, name) == expected[name], name


@pytest.mark.parametrize("kind", sorted(INSTANCES))
def test_every_shared_piece_is_built_once(kind, rng, monkeypatch):
    problem, sparams = INSTANCES[kind](rng)
    calls = {"jacobian": 0, "abs_weighted_rowsums": 0, "structured_cols": 0, "extract": 0}

    def counted(cls, name):
        original = getattr(cls, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(cls, name, wrapper)

    counted(type(problem), "jacobian")
    counted(JacobianMg, "abs_weighted_rowsums")
    counted(JacobianMg, "structured_cols")
    counted(StructureBasis, "extract")
    report = ConditionReport(problem, CondParams(), sparams)
    for name in ("mixed", "componentwise", "structured_2", "structured_mixed",
                 "structured_componentwise", "structured_general"):
        assert np.isfinite(getattr(report, name))
    assert calls == {"jacobian": 1, "abs_weighted_rowsums": 1, "structured_cols": 1,
                     "extract": 2}


def test_ex2_trial_builds_one_jacobian(rng, monkeypatch):
    # the exact values and the small-sample estimates share one identity-L map
    calls = []
    original = IlsProblem._build_jacobian

    def counted(problem, L):
        calls.append(L)
        return original(problem, L)

    monkeypatch.setattr(IlsProblem, "_build_jacobian", counted)
    values = _run_trial(table2_config(trials=1), 1e4, 1.0, rng)
    assert np.isfinite(values["r_m"]) and np.isfinite(values["r_c"])
    assert len(calls) == 1


@pytest.mark.parametrize("with_l", [False, True])
def test_mixed_and_componentwise_share_one_numerator(with_l, rng, monkeypatch):
    # two fresh reports on one (problem, L) read the numerator their Jacobian keeps
    problem = _ex2(rng)[0]
    params = CondParams(L=rng.standard_normal((problem.n, 3)) if with_l else None)
    jac = problem.jacobian(params.L)
    expected = jac.abs_weighted_rowsums(np.abs(problem.A), np.abs(problem.b))
    calls = []
    original = JacobianMg.abs_weighted_rowsums

    def counted(self, Wa, wb):
        calls.append(self)
        return original(self, Wa, wb)

    monkeypatch.setattr(JacobianMg, "abs_weighted_rowsums", counted)
    km = kappa_mixed(problem, params)
    kc = kappa_componentwise(problem, params)
    assert calls == [jac]
    np.testing.assert_array_equal(jac.data_numerator, expected)
    assert km == ConditionReport(problem, params).mixed
    assert kc == ConditionReport(problem, params).componentwise


def test_structured_fields_need_structure(rng):
    problem, _ = _ex3(rng)
    report = ConditionReport(problem)
    assert np.isfinite(report.mixed)
    with pytest.raises(ValueError, match="structure parameters"):
        report.structured_mixed


def test_factor_solve_row_count_checked_alike(rng):
    A = rng.standard_normal((9, 3))
    b = A @ np.ones(3) + 0.3 * rng.standard_normal(9)
    problems = [
        IlsProblem(A, b, SignatureSplit(9, 0)),
        TlsProblem(A, b),
        IlsProblem(np.vstack([A, 0.1 * np.eye(3)]), np.concatenate([b, np.zeros(3)]),
                   SignatureSplit(9, 3)),
    ]
    messages = []
    for problem in problems:
        with pytest.raises(ValueError) as info:
            problem.factor.solve(np.ones(4))
        messages.append(str(info.value))
    assert messages == ["operand has 4 rows, expected 3"] * 3
