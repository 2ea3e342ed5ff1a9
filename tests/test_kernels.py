import numpy as np
import pytest

from warpski.exceptions import DimensionMismatchError
from warpski.kernels import (Periodic, Product, QuasiPeriodic,
                             SquaredExponential, dense_matrix, split_params)


class TestSquaredExponential:
    def test_value_at_zero_lag_is_amplitude_squared(self):
        k = SquaredExponential(1.5, 0.4)
        assert k.eval(0.0) == pytest.approx(1.5 ** 2, rel=1e-15)

    def test_matches_closed_form(self):
        k = SquaredExponential(1.3, 0.7)
        tau = np.array([-1.0, 0.2, 2.5])
        want = 1.3 ** 2 * np.exp(-tau ** 2 / (2 * 0.7 ** 2))
        np.testing.assert_allclose(k.eval(tau), want, rtol=1e-14)

    def test_tiny_lengthscale_gives_the_finite_limit(self):
        k = SquaredExponential(1.3, 1e-300)
        tau = np.linspace(0.0, 6.0, 13)
        want = np.where(tau == 0.0, 1.3 ** 2, 0.0)
        np.testing.assert_array_equal(k.eval(tau), want)
        np.testing.assert_array_equal(k.grad(tau), [2.0 * want, np.zeros(13)])


class TestPeriodic:
    def test_exactly_periodic(self):
        k = Periodic(1.1, 0.6, 2.3)
        tau = np.linspace(-3, 3, 41)
        np.testing.assert_allclose(k.eval(tau), k.eval(tau + 2.3), rtol=1e-13)

    def test_matches_closed_form(self):
        k = Periodic(0.9, 1.1, 2.0)
        tau = np.array([0.3, 1.0, -0.7])
        want = 0.9 ** 2 * np.exp(-2 * np.sin(np.pi * tau / 2.0) ** 2 / 1.1 ** 2)
        np.testing.assert_allclose(k.eval(tau), want, rtol=1e-14)

    def test_tiny_lengthscale_gives_the_finite_limit(self):
        # (s / l)^2 and 1 / l^2 overflow: k is a^2 at tau = 0 and 0
        # elsewhere, and its lengthscale and period derivatives are 0
        k = Periodic(1.3, 1e-300, 2.0)
        tau = np.linspace(0.0, 6.0, 13)
        want = np.where(tau == 0.0, 1.3 ** 2, 0.0)
        np.testing.assert_array_equal(k.eval(tau), want)
        np.testing.assert_array_equal(
            k.grad(tau), [2.0 * want, np.zeros(13), np.zeros(13)])


class TestQuasiPeriodic:
    def test_redundant_periodic_amplitude_is_marked(self):
        k = QuasiPeriodic(1.2, 5.0, 0.6, 2.0)
        assert np.exp(k.log_params[2]) == pytest.approx(1.0)


class TestComposite:
    def test_product_param_order_is_concatenation(self):
        k = Product([SquaredExponential(1.5, 0.4),
                     SquaredExponential(2.0, 0.9)], dims=[0, 1])
        np.testing.assert_allclose(np.exp(k.log_params),
                                   [1.5, 0.4, 2.0, 0.9], rtol=1e-14)

    def test_product_gradient_finite_where_a_child_underflows(self):
        a = SquaredExponential(1.5, 0.01)
        b = Periodic(0.7, 0.9, 1.3)
        k = Product([a, b])
        tau = np.linspace(-2, 2, 41)
        assert np.any(a.eval(tau) == 0.0)
        got = k.grad(tau)
        want = np.concatenate([a.grad(tau) * b.eval(tau),
                               b.grad(tau) * a.eval(tau)])
        assert np.all(np.isfinite(got))
        np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("lags", [np.zeros((5, 3)), np.zeros((5, 1)),
                                      np.zeros(())],
                             ids=["3-axis", "1-axis", "0-d"])
    def test_2d_product_rejects_lags_of_wrong_trailing_dimension(self, lags):
        k = Product([SquaredExponential(1.5, 0.4),
                     SquaredExponential(1.0, 0.9)], dims=[0, 1])
        for method in (k.eval, k.grad):
            with pytest.raises(DimensionMismatchError, match="arity 2"):
                method(lags)

    def test_product_needs_a_child(self):
        with pytest.raises(ValueError, match="Product requires"):
            Product([])

    @pytest.mark.parametrize("dims", [[1, 0], [0, 1, 0]])
    def test_product_dims_are_one_lag_or_one_child_per_axis(self, dims):
        children = [SquaredExponential(1.0, 0.5) for _ in dims]
        with pytest.raises(DimensionMismatchError, match="dims"):
            Product(children, dims=dims)

    def test_with_log_params_round_trip(self):
        k = Product([SquaredExponential(1.5, 0.4),
                     Periodic(0.7, 0.9, 1.3)], dims=[0, 1])
        lp = k.log_params + 0.1
        k2 = k.with_log_params(lp)
        np.testing.assert_allclose(k2.log_params, lp, rtol=0, atol=1e-13)
        # the original is unchanged
        np.testing.assert_allclose(np.exp(k.log_params),
                                   [1.5, 0.4, 0.7, 0.9, 1.3], rtol=1e-14)


class TestLogParams:
    def test_log_round_trip(self):
        k = SquaredExponential(1.5, 0.25)
        np.testing.assert_allclose(np.exp(k.log_params), [1.5, 0.25],
                                   rtol=1e-15)
        assert k.param_names == ("amplitude", "lengthscale")
        assert not k.log_params.flags.writeable

    def test_rejects_nonpositive_values(self):
        with pytest.raises(ValueError):
            SquaredExponential(-1.0, 1.0)

    @pytest.mark.parametrize("kernel", [
        SquaredExponential(1.5, 0.4),
        Periodic(0.9, 1.1, 2.3),
        QuasiPeriodic(1.2, 5.0, 0.6, 2.0),
        Product([SquaredExponential(1.5, 0.4),
                 SquaredExponential(1.0, 0.9)], dims=[0, 1])],
        ids=["se", "periodic", "quasiperiodic", "product-2d"])
    def test_with_log_params_wrong_length_raises(self, kernel):
        for size in (kernel.n_params - 1, kernel.n_params + 1):
            with pytest.raises(DimensionMismatchError):
                kernel.with_log_params(np.zeros(size))

    def test_composite_names_follow_children(self):
        k = QuasiPeriodic(1.2, 5.0, 0.6, 2.0)
        assert k.param_names == ("0.amplitude", "0.lengthscale",
                                 "1.amplitude", "1.lengthscale", "1.period")
        assert k.n_params == len(k.param_names) == k.log_params.size

    def test_split_params_cuts_consecutive_slices(self):
        a, b, c = split_params([2, 0, 3], np.arange(5))
        assert a.tolist() == [0, 1] and b.size == 0
        assert c.tolist() == [2, 3, 4]
        with pytest.raises(DimensionMismatchError):
            split_params([2, 2], np.arange(5))


class TestDenseMatrix:
    def test_symmetric_and_unit_diagonal_scaled(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=50)
        k = SquaredExponential(1.4, 0.6)
        m = dense_matrix(k, x)
        np.testing.assert_allclose(m, m.T, atol=1e-16)
        np.testing.assert_allclose(np.diag(m), 1.4 ** 2, rtol=1e-14)

    def test_positive_semidefinite(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=60)
        m = dense_matrix(SquaredExponential(1.0, 0.5), x)
        vals = np.linalg.eigvalsh(m)
        assert vals.min() >= -1e-10 * vals.max()
