import numpy as np
import pytest
import scipy.linalg

from warpski.exceptions import (DimensionMismatchError,
                                NotPositiveDefiniteError)
from warpski.structured import (DENSE_MAX_ORDER, KronOperator,
                                SymToeplitz)


class TestSymToeplitz:
    def test_matvec_matches_dense_across_sizes(self):
        rng = np.random.default_rng(0)
        for m in [1, 2, 3, 5, 17, 64, 127, 256]:
            col = rng.normal(size=m)
            op = SymToeplitz(col)
            v = rng.normal(size=m)
            want = scipy.linalg.toeplitz(col) @ v
            np.testing.assert_allclose(op.matvec(v), want,
                                       rtol=1e-12, atol=1e-12)

    def test_matmat_applies_columnwise(self):
        rng = np.random.default_rng(1)
        col = rng.normal(size=40)
        op = SymToeplitz(col)
        v = rng.normal(size=(40, 7))
        want = scipy.linalg.toeplitz(col) @ v
        np.testing.assert_allclose(op.matmat(v), want, rtol=1e-12, atol=1e-12)

    def test_dense_is_symmetric_toeplitz(self):
        col = np.array([3.0, 1.0, 0.5, 0.1])
        d = SymToeplitz(col).dense()
        np.testing.assert_array_equal(d, d.T)
        np.testing.assert_array_equal(np.diag(d), np.full(4, 3.0))

    def test_length_mismatch_raises(self):
        op = SymToeplitz(np.ones(5))
        with pytest.raises(DimensionMismatchError):
            op.matvec(np.ones(6))


class TestKronOperator:
    @pytest.mark.parametrize("shapes", [(6,), (4, 5), (3, 4, 2)])
    def test_matvec_matches_dense(self, shapes):
        rng = np.random.default_rng(3)
        factors = [SymToeplitz(rng.normal(size=m)) for m in shapes]
        op = KronOperator(factors)
        v = rng.normal(size=op.shape[0])
        np.testing.assert_allclose(op.matvec(v), op.dense() @ v,
                                   rtol=1e-12, atol=1e-12)

    def test_index_order_is_last_dimension_fastest(self):
        # with A (2x2) and B (3x3), entry layout must follow np.kron(A, B)
        a = np.array([[1.0, 0.0], [0.0, 2.0]])
        b = np.diag([1.0, 10.0, 100.0])
        op = KronOperator([a, b])
        v = np.arange(6, dtype=float)
        np.testing.assert_allclose(op.matvec(v), np.kron(a, b) @ v,
                                   rtol=1e-14)

    def test_matrix_operand(self):
        rng = np.random.default_rng(4)
        factors = [SymToeplitz(rng.normal(size=m)) for m in (4, 6)]
        op = KronOperator(factors)
        v = rng.normal(size=(24, 5))
        np.testing.assert_allclose(op.matmat(v), op.dense() @ v,
                                   rtol=1e-12, atol=1e-12)

    def test_rejects_empty_factor_list(self):
        with pytest.raises(DimensionMismatchError):
            KronOperator([])


def _spd_toeplitz(m):
    # SE-type column gives a positive definite Toeplitz matrix
    lags = np.arange(m, dtype=float)
    return SymToeplitz(np.exp(-0.5 * (lags / (0.15 * m)) ** 2))


class TestKronSqrt:
    @pytest.mark.parametrize("orders", [(8, 7), (3, DENSE_MAX_ORDER + 1)],
                             ids=["dense-dense", "dense-fft"])
    def test_squares_to_matrix(self, orders):
        factors = [_spd_toeplitz(m) for m in orders]
        # the seam between stored-dense and FFT factors is covered
        assert [f._dense is None for f in factors] == \
            [m > DENSE_MAX_ORDER for m in orders]
        root = KronOperator(factors).sqrt().dense()
        np.testing.assert_allclose(root @ root.T,
                                   KronOperator(factors).dense(),
                                   rtol=1e-8, atol=1e-10)

    def test_rejects_indefinite_factor(self):
        # eigenvalues of toeplitz([1, 2]) are 3 and -1
        op = KronOperator([_spd_toeplitz(4), SymToeplitz([1.0, 2.0])])
        with pytest.raises(NotPositiveDefiniteError,
                           match=r"factor 1 \(order 2\)"):
            op.sqrt()
