"""The SVD-free bounds that decide the conditioning checks, and their fallback.

SpdFactor.cond_upper bounds cond(F) from above and sigma_min_lower bounds
sigma_min(F) from below; IlsProblem and TlsProblem take the SVD of F only
when a bound cannot decide a check.
"""

import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ilscond import IllConditionedWarning, IlsProblem, NumericallySingular, SignatureSplit
from ilscond import bench
from ilscond.ils import EPS, SpdFactor
from ilscond.tls import TlsProblem

SEEDS = st.integers(0, 2**32 - 1)


@st.composite
def triangular_factors(draw):
    """Upper-triangular F: random, row- or column-graded, or with one tiny pivot."""
    n = draw(st.integers(1, 12))
    rng = np.random.default_rng(draw(SEEDS))
    F = np.triu(rng.standard_normal((n, n)))
    kind = draw(st.sampled_from(("random", "graded_rows", "graded_cols", "tiny_pivot")))
    if kind == "graded_rows":
        F *= np.logspace(0, -draw(st.floats(0, 18)), n)[:, None]
    elif kind == "graded_cols":
        F *= np.logspace(0, -draw(st.floats(0, 18)), n)[None, :]
    elif kind == "tiny_pivot":
        i = draw(st.integers(0, n - 1))
        F[i, i] *= 10.0 ** -draw(st.floats(0, 20))
    # the bound is scale-free; extreme scales would overflow an unscaled (F^T F)^2
    return F * 10.0 ** draw(st.floats(-150, 150))


@given(triangular_factors())
def test_bounds_enclose_the_svd_values(F):
    # beyond 1/eps the SVD's cond is rounding noise (it may read inf); every
    # threshold the checks use lies below 1/eps, so there the bound need only
    # reach 1/eps for the fallback to run
    factor = SpdFactor(F)
    if factor.cond_upper < 1.0 / EPS:
        assert factor.cond <= factor.cond_upper
        assert factor.sigma_min_lower <= factor.singular_values[-1]


def test_cond_is_finite_where_the_svd_reads_a_zero_sigma_min():
    # the values-only SVD returns sigma_min = 0 for this nonsingular F
    F = np.array([[-1.6468013060558881e-21, 0.8298382510528441], [0.0, 2.451281517803502]])
    factor = SpdFactor(F)
    assert factor.singular_values[-1] == 0.0
    assert np.isfinite(factor.cond_upper) and factor.cond == factor.cond_upper
    # A = F has A_q = 0 and an upper-triangular QR, so its factor is F itself
    with pytest.raises(NumericallySingular, match=r"cond\(F\) = 1\.22e\+27"):
        IlsProblem(F, np.ones(2), SignatureSplit(2, 0))


def test_cond_is_inf_only_with_an_infinite_bound():
    factor = SpdFactor(np.array([[1.0, 2.0], [0.0, 0.0]]))
    assert factor.cond_upper == np.inf and factor.cond == np.inf


@pytest.fixture
def svd_calls(monkeypatch):
    """Count every read of SpdFactor.singular_values (the SVD of F)."""
    calls = []
    svd = SpdFactor.__dict__["singular_values"].func

    def counted(self):
        calls.append(self.n)
        return svd(self)

    monkeypatch.setattr(SpdFactor, "singular_values", property(counted))
    return calls


@pytest.mark.parametrize("l", [0, 3, 6])
def test_ex1_trial_takes_no_svd(l, svd_calls):
    config = bench.table1_config(trials=1)
    bench._run_trial(config, l, 1.0, np.random.default_rng(l))
    assert svd_calls == []


@pytest.mark.parametrize("make_config, label", [(bench.table2_config, 1e8),
                                                (bench.table3_config, None)])
def test_ex2_and_ex3_trials_take_no_svd(make_config, label, svd_calls):
    bench._run_trial(make_config(trials=1), label, 1.0, np.random.default_rng(0))
    assert svd_calls == []


def test_report_400_tls_build_takes_no_svd(svd_calls):
    # the report-400 instance shape: 400 x 200 ex1, p = 260, l = 2, rho = 1
    prob, _, _ = bench.gen_example1(400, 200, 260, 2, 1.0, 0)
    tls = TlsProblem(prob.A, prob.b)
    assert svd_calls == []
    s_a = np.linalg.svd(prob.A, compute_uv=False)
    assert tls.sigma_n == pytest.approx(s_a[-1], rel=1e-12)
    assert svd_calls == [200]


def _diagonal_instance(cond):
    # A = [D; 0] with A_q = 0: Householder QR leaves D as it is and
    # C = I, so F = D exactly.  The three equal smallest entries make
    # ||F^{-1}||_F = sqrt(3) ||F^{-1}||_2, so the bound overshoots cond(F) by
    # more than 1/0.8 and cannot decide at 0.8 times a threshold.
    d = np.array([1.0, 0.5, 0.1, 1.0 / cond, 1.0 / cond, 1.0 / cond])
    A = np.vstack([np.diag(d), np.zeros((2, d.size))])
    return A, np.ones(A.shape[0]), SignatureSplit(d.size, 2)


WARN_AT = 1e-3 / EPS
SINGULAR_AT = 1.0 / (8 * EPS)  # 1/(max(m, n) eps) for the 8 x 6 instance


@pytest.mark.parametrize("cond", [0.8 * WARN_AT, 1.2 * WARN_AT,
                                  0.8 * SINGULAR_AT, 1.2 * SINGULAR_AT])
def test_fallback_decides_as_the_svd(cond, svd_calls):
    A, b, split = _diagonal_instance(cond)
    svd_cond = np.linalg.cond(A)
    with warnings.catch_warnings(record=True) as log:
        warnings.simplefilter("always")
        try:
            prob = IlsProblem(A, b, split)
        except NumericallySingular:
            prob = None
    assert svd_calls, "the bound alone decided a check it cannot decide"
    assert (prob is None) == (svd_cond >= SINGULAR_AT)
    assert (prob is None) == (cond > SINGULAR_AT)
    if prob is not None:
        ill = EPS * svd_cond > 1e-3
        assert prob.ill_conditioned == ill == (cond > WARN_AT)
        flagged = [w for w in log if issubclass(w.category, IllConditionedWarning)]
        assert len(flagged) == int(ill)


def test_tls_gap_falls_back_to_the_svd(monkeypatch, svd_calls):
    # a lower bound of 0 cannot show the gap, so the exact sigma_n decides
    monkeypatch.setattr(SpdFactor, "sigma_min_lower", property(lambda self: 0.0))
    rng = np.random.default_rng(3)
    A = rng.standard_normal((12, 4))
    tls = TlsProblem(A, A @ rng.standard_normal(4) + 0.3 * rng.standard_normal(12))
    assert svd_calls == [4]
    assert tls.sigma_n == pytest.approx(np.linalg.svd(A, compute_uv=False)[-1], rel=1e-12)
