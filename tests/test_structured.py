import numpy as np
import pytest

from warpski.exceptions import (DimensionMismatchError,
                                NotPositiveDefiniteError)
from warpski.kernels import Periodic, SquaredExponential
from warpski.model import build_operator
from warpski.structured import (DENSE_MAX_ORDER, KronOperator, SymToeplitz,
                                mode_products, toeplitz_root)
from test_acceptance import _two_source_model


class TestSymToeplitz:
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
    def test_index_order_is_last_dimension_fastest(self):
        # with A (2x2) and B (3x3), entry layout must follow np.kron(A, B)
        a = SymToeplitz([1.0, 0.5])
        b = SymToeplitz([1.0, 10.0, 100.0])
        op = KronOperator([a, b])
        v = np.arange(6, dtype=float)
        np.testing.assert_allclose(op.matvec(v),
                                   np.kron(a.dense(), b.dense()) @ v,
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


def _se_root(m, index=0):
    kernel = SquaredExponential(1.3, 0.05 * m)
    axis = np.arange(m, dtype=float)
    return (SymToeplitz(kernel.eval(axis)),
            toeplitz_root(kernel.eval, axis, index))


class TestToeplitzRoot:
    @pytest.mark.parametrize("m", [8, DENSE_MAX_ORDER, DENSE_MAX_ORDER + 1,
                                   600])
    def test_squares_to_factor(self, m):
        factor, (root, width) = _se_root(m)
        # dense root up to DENSE_MAX_ORDER, circulant embedding above
        assert width == (m if m <= DENSE_MAX_ORDER else 2 * (m - 1))
        r = root(np.eye(width))  # R, from the identity columns of the noise
        np.testing.assert_allclose(r @ r.T, factor.dense(),
                                   rtol=1e-8, atol=1e-10)

    def test_kronecker_draw_squares_to_matrix(self):
        factors, roots = zip(*(_se_root(m, d) for d, m in
                               enumerate((3, DENSE_MAX_ORDER + 1))))
        widths = [w for _, w in roots]
        block = np.eye(int(np.prod(widths))).reshape(widths + [-1])
        r = mode_products(block, [root for root, _ in roots])
        r = r.reshape(-1, block.shape[-1])
        np.testing.assert_allclose(r @ r.T, KronOperator(factors).dense(),
                                   rtol=1e-8, atol=1e-10)

    def test_ac3_factor_needs_doubled_embedding(self):
        t = np.linspace(0.0, 12.0, 1500)
        comp = build_operator(_two_source_model(12.0), t).components[0]
        (kernel, _), = comp.axis_kernels
        axis, = comp.grid.axes
        factor, = comp.kuu.factors
        assert factor.shape[0] == 337
        root, width = toeplitz_root(kernel.eval, axis, 0)
        assert width == 2 * 2 * 336
        r = root(np.eye(width))
        np.testing.assert_allclose(r @ r.T, factor.dense(),
                                   rtol=1e-8, atol=1e-10)

    def test_periodic_factor_without_psd_embedding_takes_dense_root(self):
        # no 1x, 2x or 4x circulant embedding of this factor is PSD; the
        # dense factor is, to rounding (eigenvalues -9.6e-14 to 140)
        kernel = Periodic(1.0, 1.0, 7.3)
        axis = np.arange(300.0)
        factor = SymToeplitz(kernel.eval(axis)).dense()
        root, width = toeplitz_root(kernel.eval, axis, 0)
        assert width == 300
        r = root(np.eye(width))
        np.testing.assert_allclose(r @ r.T, factor, rtol=1e-8, atol=1e-10)
        draws = root(np.random.default_rng(3).normal(size=(width, 10_000)))
        np.testing.assert_allclose(draws @ draws.T / 10_000, factor,
                                   atol=0.05)

    @pytest.mark.parametrize("m", [2, 300], ids=["dense", "embedding"])
    def test_rejects_indefinite_factor(self, m):
        # toeplitz([1, 2, 0, ...]) has eigenvalues 1 + 4 cos(theta) < 0
        def kernel(lags):
            return np.where(lags == 1.0, 2.0, (lags == 0.0) * 1.0)
        with pytest.raises(NotPositiveDefiniteError,
                           match=rf"factor 1 \(order {m}\)"):
            toeplitz_root(kernel, np.arange(float(m)), 1)
