import numpy as np
import pytest

from warpski.exceptions import (DimensionMismatchError, MonotonicityError,
                                OutOfDomainError)
from warpski.warping import (ElementwiseWarp, Identity, PiecewiseLinearPhase,
                             Polynomial1D, phase_from_events)


class TestIdentity:
    def test_forward_is_identity(self):
        w = Identity()
        x = np.linspace(-3, 3, 11)
        np.testing.assert_array_equal(w.forward(x), x)
        np.testing.assert_array_equal(w.inverse(x), x)


class TestPolynomial1D:
    def test_coefficient_convention(self):
        # [2, 0, 1] means 2 x^3 + x with implied zero constant term
        w = Polynomial1D([2.0, 0.0, 1.0], domain=(-2.0, 2.0))
        x = np.array([0.0, 0.5, -1.0])
        np.testing.assert_allclose(w.forward(x), 2 * x ** 3 + x, rtol=1e-15)

    def test_scalar_inverse_returns_scalar(self):
        w = Polynomial1D([2.0, 0.0, 1.0], domain=(-1.5, 1.0))
        out = w.inverse(w.forward(0.3))
        assert np.isscalar(out)
        assert out == pytest.approx(0.3, abs=1e-12)

    def test_rejects_non_monotone_polynomial(self):
        with pytest.raises(MonotonicityError):
            Polynomial1D([1.0, -3.0, 0.0], domain=(-2.0, 2.0))  # x^3 - 3x^2

    def test_rejects_derivative_root_between_samples(self):
        # x^3 - 1e-7 x decreases on |x| < 1.8e-4, between sample points
        with pytest.raises(MonotonicityError):
            Polynomial1D([1.0, 0.0, -1e-7], domain=(-1.0, 1.0))

    def test_rejects_derivative_root_on_the_domain_edge(self):
        # derivative 3 x^2 vanishes at the lower end of [0, 1]
        with pytest.raises(MonotonicityError):
            Polynomial1D([1.0, 0.0, 0.0], domain=(0.0, 1.0))
        Polynomial1D([1.0, 0.0, 0.0], domain=(0.1, 1.0))

    @pytest.mark.parametrize("domain", [None, (0.0, np.inf), (np.nan, 1.0),
                                        (1.0, 1.0), (1.0, 0.0)])
    def test_requires_finite_domain(self, domain):
        with pytest.raises(ValueError, match="finite domain lo < hi"):
            Polynomial1D([1.0], domain=domain)

    def test_forward_rejects_points_outside_domain(self):
        w = Polynomial1D([2.0, 0.0, 1.0], domain=(-1.0, 1.0))
        with pytest.raises(OutOfDomainError, match="index 1 outside warp "
                                                   "domain"):
            w.forward(np.array([0.5, 2.0]))

    def test_inverse_rejects_points_outside_image(self):
        w = Polynomial1D([2.0, 0.0, 1.0], domain=(-1.0, 1.0))
        with pytest.raises(OutOfDomainError):
            w.inverse(100.0)


class TestPiecewiseLinearPhase:
    def test_linear_between_knots(self):
        w = PiecewiseLinearPhase([0.0, 1.0, 3.0], [0.0, 2.0, 3.0])
        assert w.forward(0.5) == pytest.approx(1.0)
        assert w.forward(2.0) == pytest.approx(2.5)

    def test_extrapolates_with_edge_slopes(self):
        w = PiecewiseLinearPhase([0.0, 1.0, 3.0], [0.0, 2.0, 3.0])
        assert w.forward(-1.0) == pytest.approx(-2.0)   # slope 2 on the left
        assert w.forward(5.0) == pytest.approx(4.0)     # slope 0.5 on the right

    def test_rejects_non_monotone_knots(self):
        with pytest.raises(MonotonicityError):
            PiecewiseLinearPhase([0.0, 2.0, 1.0], [0.0, 1.0, 2.0])
        with pytest.raises(MonotonicityError):
            PiecewiseLinearPhase([0.0, 1.0, 2.0], [0.0, 2.0, 1.0])


class TestPhaseFromEvents:
    def test_rejects_unsorted_events(self):
        with pytest.raises(MonotonicityError):
            phase_from_events([0.0, 2.0, 1.0])


class TestElementwiseWarp:
    def test_applies_per_dimension(self):
        poly = Polynomial1D([2.0, 0.0, 1.0], domain=(-2.0, 2.0))
        w = ElementwiseWarp([poly, Identity()])
        x = np.array([[0.5, -1.0], [1.0, 2.0]])
        z = w.forward(x)
        np.testing.assert_allclose(z[:, 0], poly.forward(x[:, 0]), rtol=1e-15)
        np.testing.assert_array_equal(z[:, 1], x[:, 1])

    def test_inverse_roundtrip(self):
        rng = np.random.default_rng(3)
        poly = Polynomial1D([2.0, 0.0, 1.0], domain=(-1.5, 1.0))
        w = ElementwiseWarp([poly, Identity()])
        x = np.column_stack([rng.uniform(-1.5, 1.0, 200),
                             rng.normal(size=200)])
        np.testing.assert_allclose(w.inverse(w.forward(x)), x,
                                   rtol=0, atol=1e-10)

    def test_dimension_mismatch_raises(self):
        w = ElementwiseWarp([Identity(), Identity()])
        with pytest.raises(DimensionMismatchError):
            w.forward(np.zeros((5, 3)))
