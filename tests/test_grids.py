from types import SimpleNamespace

import numpy as np
import pytest

from warpski.exceptions import (DimensionMismatchError, GridError,
                                InterpolationRegionError)
from warpski.grids import (InducingGrid, grid_covering_box,
                           interpolation_weights, warped_grid)
from warpski.kernels import Product, SquaredExponential
from warpski.operators import build_component
from warpski.serialize import grid_from_dict
from warpski.warping import ElementwiseWarp, Identity, Polynomial1D


class TestInducingGrid:
    def test_shape_and_total_size(self):
        g = InducingGrid([(0, 1), (0, 2)], [10, 12])
        assert g.shape == (10, 12)
        assert g.total_size == 120
        assert g.ndim == 2
        assert g.bounds == ((0.0, 1.0), (0.0, 2.0))
        np.testing.assert_array_equal(g.axes[1], np.linspace(0.0, 2.0, 12))

    @pytest.mark.parametrize("count", [4, 7, 16.0, "16", True])
    def test_rejects_a_small_or_non_integer_count(self, count):
        with pytest.raises(GridError, match="axis 1: count must be an "
                                            "integer >= 8"):
            InducingGrid([(0, 1), (0, 1)], [16, count])

    @pytest.mark.parametrize("bounds", [
        (1.0, 0.0), (1.0, 1.0), (np.nan, 7.0), (0.0, np.inf), (-np.inf, 7.0),
        (0.0, 1.0, 2.0), (0.0,)])
    def test_rejects_bounds_not_finite_and_increasing(self, bounds):
        with pytest.raises(GridError, match="axis 1: bounds need finite"):
            InducingGrid([(0.0, 9.0), bounds], [10, 8])
        with pytest.raises(GridError, match="axis 0: bounds need finite"):
            grid_from_dict({"bounds": [list(bounds)], "counts": [8]})

    def test_rejects_counts_not_matching_the_bounds(self):
        with pytest.raises(DimensionMismatchError, match="one entry per"):
            InducingGrid([(0.0, 1.0)], [8, 8])


class TestGridCoveringBox:
    def test_covering_box_leaves_margin(self):
        box = [(-1.0, 1.0)]
        g = grid_covering_box(box, [32])
        h = np.diff(g.axes[0])[0]
        assert g.axes[0][0] == pytest.approx(-1.0 - 3 * h)
        assert g.axes[0][-1] == pytest.approx(1.0 + 3 * h)

    @pytest.mark.parametrize("count", [16.7, 16.0, "16"])
    def test_rejects_non_integer_count(self, count):
        with pytest.raises(GridError, match="axis 1: count must be an integer"):
            grid_covering_box([(-1.0, 1.0)] * 2, [16, count])

    @pytest.mark.parametrize("counts", [[16], [16, 16, 16]])
    def test_rejects_counts_not_matching_the_box(self, counts):
        with pytest.raises(DimensionMismatchError, match="one entry per"):
            grid_covering_box([(-1.0, 1.0)] * 2, counts)

    @pytest.mark.parametrize("lo, hi", [(np.nan, 1.0), (-1.0, np.inf),
                                        (1.0, 1.0), (1.0, -1.0)])
    def test_rejects_an_empty_or_non_finite_box(self, lo, hi):
        with pytest.raises(GridError, match="axis 0"):
            grid_covering_box([(lo, hi)], [16])


class TestInterpolationWeights:
    def test_midpoint_weights_match_closed_form(self):
        g = InducingGrid([(0.0, 7.0)], [8])
        w = interpolation_weights(g, np.array([2.5])).dense().ravel()
        want = np.zeros(8)
        want[1:5] = [-1 / 16, 9 / 16, 9 / 16, -1 / 16]
        np.testing.assert_allclose(w, want, rtol=0, atol=1e-14)

    def test_exact_on_grid_nodes(self):
        g = InducingGrid([(0.0, 9.0)], [10])
        w = interpolation_weights(g, np.array([3.0, 5.0])).dense()
        want = np.zeros((2, 10))
        want[0, 3] = 1.0
        want[1, 5] = 1.0
        np.testing.assert_allclose(w, want, rtol=0, atol=1e-14)

    def test_points_outside_safe_region_raise(self):
        g = InducingGrid([(0.0, 1.0)], [16])
        with pytest.raises(InterpolationRegionError):
            interpolation_weights(g, np.array([0.5, 0.99999, 1.5]))

    def test_rmatvec_is_transpose(self):
        rng = np.random.default_rng(4)
        g = grid_covering_box([(-1.0, 1.0)], [32])
        w = interpolation_weights(g, rng.uniform(-1, 1, 50))
        u = rng.normal(size=50)
        v = rng.normal(size=32)
        assert u @ w.matvec(v) == pytest.approx(w.rmatvec(u) @ v, rel=1e-12)

    def test_rmatvec_builds_transpose_once_on_first_use(self):
        rng = np.random.default_rng(6)
        g = grid_covering_box([(-1.0, 1.0), (-1.0, 1.0)], [12, 14])
        w = interpolation_weights(g, rng.uniform(-1, 1, size=(60, 2)))
        assert "matrix_t" not in vars(w)  # construction builds no copy
        u = rng.normal(size=60)
        np.testing.assert_allclose(w.rmatvec(u), w.matrix.T @ u,
                                   rtol=1e-14, atol=1e-15)
        cached = vars(w)["matrix_t"]
        block = rng.normal(size=(60, 3))
        np.testing.assert_allclose(w.rmatvec(block), w.matrix.T @ block,
                                   rtol=1e-14, atol=1e-15)
        assert vars(w)["matrix_t"] is cached

    def test_2d_tensor_product_matches_kron_of_1d(self):
        rng = np.random.default_rng(5)
        g = grid_covering_box([(-1.0, 1.0), (-1.0, 1.0)], [16, 20])
        pts = rng.uniform(-1, 1, size=(40, 2))
        w2 = interpolation_weights(g, pts).dense()
        g0 = InducingGrid(g.bounds[:1], g.shape[:1])
        g1 = InducingGrid(g.bounds[1:], g.shape[1:])
        w0 = interpolation_weights(g0, pts[:, 0]).dense()
        w1 = interpolation_weights(g1, pts[:, 1]).dense()
        rowwise = np.einsum("ni,nj->nij", w0, w1).reshape(40, -1)
        np.testing.assert_allclose(w2, rowwise, rtol=0, atol=1e-14)


def _poly_lattice(poly, count):
    """Equispaced lattice over the warp's image of [-1.4, 0.9]."""
    return InducingGrid([(poly.forward(-1.4), poly.forward(0.9))], [count])


class TestWarpedGrid:
    def test_axes_map_back_to_lattice(self):
        poly = Polynomial1D([2.0, 0.0, 1.0], domain=(-1.5, 1.0))
        g = _poly_lattice(poly, 32)
        uhat = warped_grid(g, poly)
        np.testing.assert_allclose(poly.forward(uhat.axes[0]), g.axes[0],
                                   rtol=0, atol=1e-9)
        assert uhat.bounds == g.bounds and uhat.shape == g.shape
        np.testing.assert_array_equal(uhat.warped_axes[0], g.axes[0])
        assert uhat.axis_warps == (poly,)

    def test_rejects_a_warp_that_reverses_the_lattice(self):
        flip = SimpleNamespace(inverse=lambda z: -z)
        with pytest.raises(GridError, match="warped axis 0"):
            InducingGrid([(-1.0, 1.0)], [16], axis_warps=[flip])
        with pytest.raises(DimensionMismatchError, match="one warp per axis"):
            InducingGrid([(-1.0, 1.0)], [16], axis_warps=[flip, flip])

    def test_2d_warped_weights_match_warp_then_interpolate(self):
        # the ElementwiseWarp branch of warped_grid, against the weights
        # build_component interpolates from the warped points
        rng = np.random.default_rng(8)
        poly = Polynomial1D([2.0, 0.0, 1.0], domain=(-1.5, 1.0))
        warp = ElementwiseWarp([poly, Identity()])
        g = InducingGrid([*_poly_lattice(poly, 48).bounds, (-1.0, 1.0)],
                         [48, 24])
        x = np.column_stack([rng.uniform(-1.0, 0.8, 300),
                             rng.uniform(-0.8, 0.8, 300)])
        w_raw = interpolation_weights(warped_grid(g, warp), x)
        comp = build_component(Product([SquaredExponential(1.5, 0.4),
                                        SquaredExponential(1.0, 0.5)],
                                       dims=[0, 1]), warp, g, x)
        assert abs(w_raw.matrix - comp.weights.matrix).max() <= 1e-12
