import numpy as np
import pytest

from ilscond.kron import entrywise_div, unvec, vec


class TestEntrywiseDiv:
    def test_uniform_divisor(self):
        np.testing.assert_array_equal(entrywise_div([2, 4], [2, 2]), [1, 2])

    def test_zero_divisor_passes_numerator_through(self):
        # 0^ddagger = 1, so 3/0 -> 3; 0/2 -> 0
        np.testing.assert_array_equal(entrywise_div([3, 0], [0, 2]), [3, 0])

    def test_zero_numerator(self):
        np.testing.assert_array_equal(entrywise_div([0, 0, 0], [5, 0, -2]), [0, 0, 0])

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            entrywise_div([1, 2], [1, 2, 3])

    def test_multiply_back_recovers(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            a = rng.standard_normal(9)
            b = rng.standard_normal(9)
            b[rng.integers(0, 9)] = 0.0
            out = entrywise_div(a, b) * b
            mask = b != 0
            np.testing.assert_allclose(out[mask], a[mask], rtol=1e-15)

    def test_no_warnings_on_zero(self):
        with np.errstate(divide="raise", invalid="raise"):
            entrywise_div([1.0, 2.0], [0.0, 0.0])


class TestVec:
    def test_column_stacking(self):
        np.testing.assert_array_equal(vec([[1, 3], [2, 4]]), [1, 2, 3, 4])

    def test_identity(self):
        np.testing.assert_array_equal(vec(np.eye(2)), [1, 0, 0, 1])

    def test_row_matrix(self):
        row = np.array([[5.0, 6.0, 7.0]])
        np.testing.assert_array_equal(vec(row), [5, 6, 7])

    def test_unvec_roundtrip(self):
        rng = np.random.default_rng(1)
        A = rng.standard_normal((4, 3))
        np.testing.assert_array_equal(unvec(vec(A), (4, 3)), A)

    def test_unvec_bad_length(self):
        with pytest.raises(ValueError):
            unvec(np.ones(5), (2, 3))
