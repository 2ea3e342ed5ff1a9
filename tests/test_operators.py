import numpy as np
import pytest

from warpski.exceptions import DimensionMismatchError, GridError
from warpski.experiments import (ExperimentConfig, _synthetic_events,
                                 numeric2d_model, separation_model)
from warpski.grids import grid_covering_box, warped_grid
from warpski.kernels import (Periodic, Product, QuasiPeriodic,
                             SquaredExponential, dense_matrix)
from warpski.operators import (MixtureOperator, build_component,
                               decompose_separable, warp_points)
from warpski.structured import KronOperator, SymToeplitz
from warpski.model import build_operator
from warpski.warping import (ElementwiseWarp, Identity, Polynomial1D,
                             phase_from_events)


def _warped_setup(n=300, m=512, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.uniform(-1.0, 1.0, n)
    poly = Polynomial1D([2.0, 0.0, 1.0], domain=(-1.2, 1.2))
    grid = grid_covering_box([(float(poly.forward(-1.0)),
                               float(poly.forward(1.0)))], [m])
    kernel = SquaredExponential(1.5, 0.4)
    return x, poly, grid, kernel


class TestDecomposeSeparable:
    def test_1d_kernel_passes_through(self):
        k = SquaredExponential(1.0, 0.5)
        [(kd, idx)] = decompose_separable(k, 1)
        assert kd is k
        assert idx == [0, 1]

    def test_2d_product_splits_by_dimension(self):
        k = Product([SquaredExponential(1.5, 0.4),
                     SquaredExponential(1.0, 0.9)], dims=[0, 1])
        parts = decompose_separable(k, 2)
        assert len(parts) == 2
        assert parts[0][1] == [0, 1]
        assert parts[1][1] == [2, 3]

    def test_nested_product_is_one_axis_kernel(self):
        axis0 = QuasiPeriodic(1.2, 5.0, 0.6, 2.0)
        k = Product([axis0, SquaredExponential(1.0, 0.9)], dims=[0, 1])
        [(kd0, idx0), (_, idx1)] = decompose_separable(k, 2)
        assert kd0 is axis0
        assert idx0 == [0, 1, 2, 3, 4]
        assert idx1 == [5, 6]

    def test_quasiperiodic_stays_on_one_axis(self):
        k = QuasiPeriodic(1.2, 5.0, 0.6, 2.0)
        [(kd, idx)] = decompose_separable(k, 1)
        assert idx == [0, 1, 2, 3, 4]

    def test_arity_mismatch_raises(self):
        with pytest.raises(DimensionMismatchError):
            decompose_separable(SquaredExponential(1.0, 0.5), 2)
        k2 = Product([SquaredExponential(1.0, 0.5),
                      SquaredExponential(1.0, 0.5)], dims=[0, 1])
        with pytest.raises(DimensionMismatchError, match="does not match grid"):
            decompose_separable(k2, 1)


class TestWarpPoints:
    def test_1d(self):
        poly = Polynomial1D([2.0, 0.0, 1.0], domain=(-2.0, 2.0))
        x = np.array([0.0, 0.5])
        np.testing.assert_allclose(warp_points(poly, x, 1),
                                   2 * x ** 3 + x, rtol=1e-15)

    def test_2d_elementwise(self):
        poly = Polynomial1D([2.0, 0.0, 1.0], domain=(-2.0, 2.0))
        w = ElementwiseWarp([poly, Identity()])
        x = np.array([[0.5, -1.0]])
        z = warp_points(w, x, 2)
        np.testing.assert_allclose(z, [[2 * 0.125 + 0.5, -1.0]], rtol=1e-14)


class TestSkiComponent:
    def test_matvec_matches_dense_ski(self):
        x, poly, grid, kernel = _warped_setup()
        comp = build_component(kernel, poly, grid, x)
        rng = np.random.default_rng(1)
        v = rng.normal(size=x.size)
        np.testing.assert_allclose(comp.matvec(v), comp.dense_ski() @ v,
                                   rtol=1e-10, atol=1e-12)

    def test_derivative_matvec_matches_dense_fd(self):
        x, poly, grid, kernel = _warped_setup(n=150, m=256)
        comp = build_component(kernel, poly, grid, x)
        rng = np.random.default_rng(2)
        v = rng.normal(size=x.size)
        eps = 1e-6
        for p in range(kernel.n_params):
            lp = kernel.log_params.copy()
            lp[p] += eps
            up = build_component(kernel.with_log_params(lp), poly, grid, x)
            lp[p] -= 2 * eps
            dn = build_component(kernel.with_log_params(lp), poly, grid, x)
            fd = (up.dense_ski() - dn.dense_ski()) @ v / (2 * eps)
            got = MixtureOperator([comp], 0.0, x.size).derivative_matvec(p, v)
            np.testing.assert_allclose(got, fd, rtol=1e-5, atol=1e-8)

    def test_kuu_is_the_kernel_over_the_lattice(self):
        rng = np.random.default_rng(3)
        grid = grid_covering_box([(-1.0, 1.0), (0.0, 2.0)], [12, 9])
        kernel = Product([SquaredExponential(1.5, 0.4),
                          Periodic(1.0, 0.8, 1.3)], dims=[0, 1])
        comp = build_component(kernel, ElementwiseWarp([Identity()] * 2),
                               grid, rng.uniform(0.0, 1.0, size=(5, 2)))
        nodes = np.stack(np.meshgrid(*grid.axes, indexing="ij"), -1)
        np.testing.assert_allclose(
            comp.kuu.dense(), dense_matrix(kernel, nodes.reshape(-1, 2)),
            rtol=1e-14, atol=1e-15)

    def test_rejects_a_warped_grid(self):
        x, poly, grid, kernel = _warped_setup(n=20, m=64)
        with pytest.raises(GridError, match="lattice in warped space"):
            build_component(kernel, poly, warped_grid(grid, poly), x)

    def test_derivative_operator_built_once_per_parameter(self):
        x, poly, grid, kernel = _warped_setup(n=50, m=64)
        comp = build_component(kernel, poly, grid, x)
        assert comp.derivative_operator(1) is comp.derivative_operator(1)
        assert comp.derivative_operator(0) is not comp.derivative_operator(1)
        for index in (-1, kernel.n_params):
            with pytest.raises(IndexError):
                comp.derivative_operator(index)


class TestMixtureOperator:
    def _mixture(self, n=200):
        rng = np.random.default_rng(3)
        x = rng.uniform(-1.0, 1.0, n)
        grid = grid_covering_box([(-1.0, 1.0)], [128])
        comps = [build_component(SquaredExponential(1.0, 0.3), Identity(),
                                 grid, x),
                 build_component(Periodic(0.7, 0.8, 0.9), Identity(),
                                 grid, x)]
        return MixtureOperator(comps, 0.04, n), x

    def test_matvec_matches_dense(self):
        op, x = self._mixture()
        rng = np.random.default_rng(4)
        v = rng.normal(size=x.size)
        np.testing.assert_allclose(op.matvec(v), op.dense() @ v,
                                   rtol=1e-10, atol=1e-12)

    def test_param_layout_kernels_then_noise(self):
        op, _ = self._mixture()
        assert op.n_params == 2 + 3 + 1
        assert op.param_owner(0) == ("component", 0, 0)
        assert op.param_owner(2) == ("component", 1, 0)
        assert op.param_owner(5) == ("noise",)
        for index in (-1, op.n_params):
            with pytest.raises(IndexError):
                op.param_owner(index)

    def test_noise_derivative_is_twice_variance(self):
        op, x = self._mixture()
        v = np.ones(x.size)
        np.testing.assert_allclose(op.derivative_matvec(op.n_params - 1, v),
                                   2 * 0.04 * v, rtol=1e-14)

    def test_rejects_weights_with_wrong_row_count(self):
        op, _ = self._mixture()
        with pytest.raises(DimensionMismatchError, match="row count"):
            MixtureOperator(op.components, 0.04, op.n + 1)

    def test_rejects_negative_noise(self):
        with pytest.raises(ValueError):
            MixtureOperator([], -1.0, 10)
        with pytest.raises(ValueError):
            MixtureOperator([], float("nan"), 10)
        with pytest.raises(ValueError, match="finite"):
            MixtureOperator([], float("inf"), 10)


def _experiment_model(kind):
    """An experiment model at desk scale and points inside its grids."""
    rng = np.random.default_rng(7)
    if kind == "numeric2d":
        config = ExperimentConfig(n=100, grid_counts=(16, 16))
        box = config.data_box
        x = np.column_stack([rng.uniform(lo, hi, config.n) for lo, hi in box])
        return numeric2d_model(config), x
    config = ExperimentConfig(kind="separation1d", n=200)
    x = np.arange(config.n) * config.dt
    warps = [phase_from_events(_synthetic_events(rng, x[-1], period, 0.03))
             for period in (config.maternal_period,
                            config.maternal_period / config.period_ratio)]
    return separation_model(config, warps, float(x[-1])), x


@pytest.mark.parametrize("kind", ["numeric2d", "separation"])
def test_param_layout_agrees_across_model_operator_and_axes(kind):
    model, x = _experiment_model(kind)
    op = build_operator(model, x)
    assert op.n_params == model.n_params == len(model.param_names)
    for j, name in enumerate(model.param_names):
        owner = op.param_owner(j)
        if owner == ("noise",):
            assert (j, name) == (model.n_params - 1, "noise")
            continue
        _, i, local = owner
        comp = op.components[i]
        assert name == f"c{i}.{comp.kernel.param_names[local]}"
        [(kd, idx)] = [(kd, idx) for kd, idx in comp.axis_kernels
                       if local in idx]
        assert all(type(k) is int for k in idx)
        assert name.endswith(kd.param_names[idx.index(local)])
        assert kd.log_params[idx.index(local)] == model.theta[j]


@pytest.mark.parametrize("kind", ["numeric2d", "separation"])
@pytest.mark.parametrize("cols", [None, 3])
def test_matvec_is_the_out_of_place_sum_of_its_layers(kind, cols):
    # in place, bit for bit: sigma^2 v, then each W_i K_i W_i^T v in order
    model, x = _experiment_model(kind)
    op = build_operator(model, x)
    rng = np.random.default_rng(11)
    v = rng.normal(size=(x.shape[0],) if cols is None else (x.shape[0], cols))
    want = op.noise_variance * v
    for c in op.components:
        want = want + c.weights.matvec(c.kuu.matvec(c.weights.rmatvec(v)))
    np.testing.assert_array_equal(op.matvec(v), want)


def _entry_points():
    """(name, operand length, product) for every operator entry point."""
    x = np.random.default_rng(2).uniform(-1.0, 1.0, 50)
    grid = grid_covering_box([(-1.0, 1.0)], [16])
    comp = build_component(SquaredExponential(1.0, 0.3), Identity(), grid, x)
    w = comp.weights
    kron = KronOperator([SymToeplitz(np.ones(4)), SymToeplitz(np.ones(5))])
    return {
        "toeplitz-dense": (6, SymToeplitz(np.ones(6)).matmat),
        "toeplitz-fft": (300, SymToeplitz(np.ones(300)).matmat),
        "kron": (20, kron.matvec),
        "w": (w.shape[1], w.matvec),
        "wt": (w.shape[0], w.rmatvec),
        "mixture": (x.size, MixtureOperator([comp], 0.1, x.size).matvec),
    }


@pytest.mark.parametrize("operand", ["wrong-length", "0-d", "3-d"])
@pytest.mark.parametrize("entry", ["toeplitz-dense", "toeplitz-fft", "kron",
                                   "w", "wt", "mixture"])
def test_operand_shape_checked(entry, operand):
    size, product = _entry_points()[entry]
    v = {"wrong-length": np.ones(size + 1), "0-d": np.ones(()),
         "3-d": np.ones((size, 2, 3))}[operand]
    with pytest.raises(DimensionMismatchError, match=f"expected \\({size},\\)"):
        product(v)
    assert product(np.ones((size, 2))).shape[1] == 2
