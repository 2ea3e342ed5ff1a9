import weakref

import numpy as np
import pytest

import warpski.krylov
import warpski.model
from warpski.exceptions import (ConfigError, DimensionMismatchError,
                                NonFiniteInputError, NotPositiveDefiniteError)
from warpski.grids import grid_covering_box
from warpski.kernels import Periodic, Product, SquaredExponential
from warpski.krylov import lanczos, rademacher_probes, slq_probes
from warpski.model import (GpComponent, GpModel, _log_divided_difference,
                           _probe_trace_gradient, approx_nlml,
                           build_operator, dense_mixture_matrix,
                           exact_nlml, exact_separation_means, fit,
                           predict_mean, sample_prior, separate)
from warpski.operators import MixtureOperator
from warpski.structured import SymToeplitz
from warpski.warping import ElementwiseWarp, Identity


def _model_1d(noise=0.3, counts=128, amplitude=1.2, lengthscale=0.35):
    grid = grid_covering_box([(-1.0, 1.0)], [counts])
    return GpModel([GpComponent(SquaredExponential(amplitude, lengthscale),
                                Identity(), grid)], noise=noise)


def _two_component(noise=0.2, counts=128, periodic_counts=None):
    grid = grid_covering_box([(-1.0, 1.0)], [counts])
    periodic_grid = grid_covering_box([(-1.0, 1.0)],
                                      [periodic_counts or counts])
    return GpModel([GpComponent(SquaredExponential(1.0, 0.3), Identity(), grid),
                    GpComponent(Periodic(0.7, 0.8, 0.5), Identity(),
                                periodic_grid)],
                   noise=noise)


def _data(n=300, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.uniform(-1.0, 1.0, n)
    y = np.sin(3 * x) + 0.3 * rng.standard_normal(n)
    return x, y


def _model_2d(noise=0.3):
    grid = grid_covering_box([(-1.0, 1.0), (-1.0, 1.0)], [20, 24])
    kernel = Product([SquaredExponential(1.1, 0.4),
                      SquaredExponential(0.9, 0.5)], dims=[0, 1])
    return GpModel([GpComponent(kernel, ElementwiseWarp([Identity(),
                                                         Identity()]),
                                grid)], noise=noise)


def _data_2d(n=200, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.uniform(-1.0, 1.0, (n, 2))
    y = np.sin(3 * x[:, 0]) * np.cos(2 * x[:, 1]) \
        + 0.3 * rng.standard_normal(n)
    return x, y


def _reference_trace_gradient(op, factors):
    """Loop form of the projected trace gradient over every parameter."""
    grad = np.zeros(op.n_params)
    for factor in factors:
        q = factor.basis
        vals, vecs = factor.ritz()
        u = vecs[0, :]
        phi = _log_divided_difference(vals)
        for idx in range(op.n_params):
            m = vecs.T @ (q.T @ op.derivative_matvec(idx, q)) @ vecs
            grad[idx] += op.n * float(u @ ((m * phi) @ u))
    return grad / len(factors)


GRADIENT_CASES = {
    "1d": (_model_1d, _data),
    # distinct grids, so each component needs its own projection W_i^T Q
    "two-component": (lambda: _two_component(periodic_counts=100), _data),
    "2d": (_model_2d, _data_2d),
}


class TestGpModel:
    def test_theta_layout_kernels_then_noise(self):
        m = _two_component()
        names = m.param_names
        assert names[-1] == "noise"
        assert len(names) == 2 + 3 + 1
        np.testing.assert_allclose(np.exp(m.theta),
                                   [1.0, 0.3, 0.7, 0.8, 0.5, 0.2], rtol=1e-12)

    def test_with_theta_round_trip(self):
        m = _two_component()
        theta = m.theta + 0.05
        m2 = m.with_theta(theta)
        np.testing.assert_allclose(m2.theta, theta, atol=1e-13)
        # original untouched
        np.testing.assert_allclose(np.exp(m.theta)[-1], 0.2, rtol=1e-12)

    @pytest.mark.parametrize("noise", [0.0, -0.1, np.nan, np.inf])
    def test_rejects_nonpositive_noise(self, noise):
        with pytest.raises(ValueError, match="noise standard deviation"):
            _model_1d(noise=noise)

    def test_fixed_mask_controls_free_indices(self):
        m = _two_component()
        m.fixed[:] = True
        m.fixed[0] = False
        np.testing.assert_array_equal(m.free_indices(), [0])


class TestExactNlml:
    def test_value_matches_direct_formula(self):
        x, y = _data(120)
        m = _model_1d()
        k = dense_mixture_matrix(m, x)
        want = 0.5 * (y @ np.linalg.solve(k, y)
                      + np.linalg.slogdet(k)[1]
                      + y.size * np.log(2 * np.pi))
        value, _ = exact_nlml(m, x, y, with_gradient=False)
        assert value == pytest.approx(want, rel=1e-10)

    def test_gradient_matches_finite_differences(self):
        x, y = _data(100)
        m = _two_component()
        _, grad = exact_nlml(m, x, y)
        eps = 1e-6
        theta = m.theta
        for p in range(theta.size):
            tp = theta.copy(); tp[p] += eps
            tm = theta.copy(); tm[p] -= eps
            up, _ = exact_nlml(m.with_theta(tp), x, y, with_gradient=False)
            dn, _ = exact_nlml(m.with_theta(tm), x, y, with_gradient=False)
            fd = (up - dn) / (2 * eps)
            assert grad[p] == pytest.approx(fd, rel=1e-6, abs=1e-8)

    @pytest.mark.parametrize("oracle", [exact_nlml, exact_separation_means])
    def test_singular_kernel_raises_not_positive_definite(self, oracle):
        # a smooth kernel on 400 close points with almost no noise is
        # numerically singular, so its dense Cholesky factorization fails
        m = _model_1d(noise=1e-9, amplitude=1.0, lengthscale=0.5)
        x = np.linspace(-1.0, 1.0, 400)
        with pytest.raises(NotPositiveDefiniteError, match="jitter"):
            oracle(m, x, np.sin(3 * x))


class TestApproxNlml:
    def test_close_to_exact_on_fine_grid(self):
        x, y = _data(250)
        m = _model_1d(counts=512)
        exact, _ = exact_nlml(m, x, y, with_gradient=False)
        val, _, diag = approx_nlml(m, x, y, n_probes=50, seed=0,
                                   cg_tol=1e-10, lanczos_steps=50,
                                   with_gradient=False)
        assert diag["cg_converged"]
        assert abs(val - exact) / abs(exact) < 0.03

    def test_deterministic_given_seed(self):
        x, y = _data(150)
        m = _model_1d()
        a = approx_nlml(m, x, y, seed=3)[0]
        b = approx_nlml(m, x, y, seed=3)[0]
        assert a == b

    def test_pure_noise_model_is_exact(self):
        x, y = _data(150)
        m = GpModel([], noise=0.3)
        value, grad, _ = approx_nlml(m, x, y, n_probes=4, lanczos_steps=10)
        want, want_grad = exact_nlml(m, x, y)
        assert value == pytest.approx(want, rel=1e-15)
        np.testing.assert_allclose(grad, want_grad, rtol=1e-15)
        sep = separate(m, x, y)
        assert sep.means == []
        np.testing.assert_array_equal(
            sep.residual, y - m.noise_variance * sep.cg_report.x)

    def test_components_build_no_transpose_of_their_own(self):
        m = _two_component()
        x, y = _data(150)
        op = build_operator(m, x)
        approx_nlml(m, x, y, n_probes=2, lanczos_steps=5, operator=op)
        assert all("matrix_t" not in vars(c.weights) for c in op.components)
        assert "matrix_t" in vars(op.weights)

    def test_projected_gradient_matches_seeded_finite_differences(self):
        x, y = _data(200, seed=1)
        m = _model_1d(counts=96)
        kwargs = dict(n_probes=10, seed=0, cg_tol=1e-12, lanczos_steps=40)
        _, grad, _ = approx_nlml(m, x, y, **kwargs)
        eps = 1e-5
        theta = m.theta
        for p in range(theta.size):
            tp = theta.copy(); tp[p] += eps
            tm = theta.copy(); tm[p] -= eps
            up, _, _ = approx_nlml(m.with_theta(tp), x, y,
                                   with_gradient=False, **kwargs)
            dn, _, _ = approx_nlml(m.with_theta(tm), x, y,
                                   with_gradient=False, **kwargs)
            fd = (up - dn) / (2 * eps)
            assert grad[p] == pytest.approx(fd, rel=1e-4, abs=1e-6)

    @pytest.mark.parametrize("with_gradient", [False, True])
    def test_holds_no_earlier_basis(self, monkeypatch, with_gradient):
        original = warpski.krylov.lanczos
        bases = []
        alive = []

        def tracking(*args, **kwargs):
            alive.append(sum(ref() is not None for ref in bases))
            factor = original(*args, **kwargs)
            if factor.basis is not None:
                bases.append(weakref.ref(factor.basis))
            return factor

        monkeypatch.setattr(warpski.krylov, "lanczos", tracking)
        x, y = _data(150)
        approx_nlml(_two_component(), x, y, n_probes=8, lanczos_steps=10,
                    with_gradient=with_gradient)
        # the value path advances all probes in one call and keeps no basis
        assert len(alive) == (8 if with_gradient else 1)
        assert max(alive) == 0
        assert len(bases) == (8 if with_gradient else 0)

    @pytest.mark.parametrize("field, count", [
        ("n_probes", 0), ("n_probes", -1), ("lanczos_steps", 0),
        ("n_probes", 2.0), ("n_probes", True), ("lanczos_steps", 2.5)])
    def test_rejects_krylov_sizes_that_are_not_positive_integers(
            self, field, count):
        m = _model_1d()
        x, y = _data(50)
        with pytest.raises(ConfigError, match=f"{field}:"):
            approx_nlml(m, x, y, **{field: count})
        with pytest.raises(ConfigError, match=f"{field}:"):
            fit(m, x, y, max_steps=2, **{field: count})


@pytest.mark.parametrize("call", [approx_nlml, fit, separate],
                         ids=["approx_nlml", "fit", "separate"])
@pytest.mark.parametrize("shape", [(50, 1), (49,), (50, 2)])
def test_y_must_have_shape_n(call, shape):
    x, y = _data(50)
    with pytest.raises(DimensionMismatchError, match=r"y: shape .* \(50,\)"):
        call(_model_1d(), x, np.resize(y, shape))


class TestProjectedTraceGradient:
    @pytest.mark.parametrize("case", sorted(GRADIENT_CASES))
    def test_matches_loop_over_derivative_matvecs(self, case):
        make_model, make_data = GRADIENT_CASES[case]
        m = make_model()
        x, _ = make_data(150)
        op = build_operator(m, x)
        indices = np.arange(op.n_params)
        factors = []
        got = np.zeros(op.n_params)
        for factor, vals, vecs, _ in slq_probes(
                op.matvec, rademacher_probes(op.n, 4, 0), 15):
            factors.append(factor)
            got += _probe_trace_gradient(op, indices, factor.basis, vals,
                                         vecs)
        got /= len(factors)
        want = _reference_trace_gradient(op, factors)
        np.testing.assert_allclose(got, want, rtol=1e-10,
                                   atol=1e-10 * np.abs(want).max())

    @pytest.mark.parametrize("case", ["2d", "two-component"])
    def test_forms_run_on_fewer_columns_than_steps(self, case, monkeypatch):
        make_model, make_data = GRADIENT_CASES[case]
        m = make_model()
        x, y = make_data(150)
        widths = []
        original = MixtureOperator.derivative_forms

        def recording(self, indices, x, xkx=None):
            widths.append(x.shape[1])
            return original(self, indices, x, xkx)

        monkeypatch.setattr(MixtureOperator, "derivative_forms", recording)
        approx_nlml(m, x, y, n_probes=4, lanczos_steps=30)
        assert len(widths) == 4
        assert all(1 <= width < 30 for width in widths), widths

    @pytest.mark.parametrize("case", sorted(GRADIENT_CASES))
    def test_derivative_forms_match_projected_derivative_matvecs(self, case):
        make_model, make_data = GRADIENT_CASES[case]
        x, _ = make_data(150)
        op = build_operator(make_model(), x)
        block = np.random.default_rng(7).normal(size=(op.n, 5))
        indices = np.arange(op.n_params)
        for j, form in zip(indices, op.derivative_forms(indices, block)):
            want = block.T @ op.derivative_matvec(j, block)
            np.testing.assert_allclose(form, want, rtol=0,
                                       atol=1e-12 * np.abs(want).max())

    @pytest.mark.parametrize("case, fixed", [
        ("1d", []),
        ("2d", []),  # two child amplitudes, one taken from T
        ("two-component", []),
        ("two-component", [0, 1, 3, 4, 5]),  # the amplitudes only
        ("two-component", [2]),  # one amplitude free: every form on grids
    ])
    def test_amplitude_forms_from_t_match_grid_forms(self, case, fixed):
        make_model, make_data = GRADIENT_CASES[case]
        x, _ = make_data(150)
        op = build_operator(make_model(), x)
        free = np.setdiff1d(np.arange(op.n_params), fixed)
        factor = lanczos(op.matvec, rademacher_probes(op.n, 1, 0)[:, 0],
                         20)
        t = (np.diag(factor.alphas) + np.diag(factor.betas, 1)
             + np.diag(factor.betas, -1))
        got = op.derivative_forms(free, factor.basis, t)
        want = op.derivative_forms(free, factor.basis)
        for a, b in zip(got, want):
            assert np.linalg.norm(a - b) <= 1e-10 * np.linalg.norm(b)
            if fixed == [2]:
                np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("free, built", [
        ([0, 2], [(1, 0)]), ([0, 1, 2], [(0, 1), (1, 0)]),
        ([0, 3], [(0, 0), (1, 1)])])
    def test_largest_grid_is_projected_for_other_parameters_only(
            self, free, built):
        op = build_operator(_two_component(periodic_counts=100), _data(150)[0])
        factor = lanczos(op.matvec, np.ones(op.n), 10)
        t = (np.diag(factor.alphas) + np.diag(factor.betas, 1)
             + np.diag(factor.betas, -1))
        projections, derivatives = [], []
        rmatvec = op.weights.rmatvec
        op.weights.rmatvec = lambda v: projections.append(v) or rmatvec(v)
        for i, c in enumerate(op.components):
            c.derivative_operator = (
                lambda j, i=i, d=c.derivative_operator:
                derivatives.append((i, j)) or d(j))
        op.derivative_forms(free, factor.basis, t)
        assert len(projections) == 1
        assert sorted(derivatives) == built

    def test_each_free_derivative_built_once_per_evaluation(self,
                                                            monkeypatch):
        m = _two_component()
        m.fixed[[1, 2, 4]] = True
        x, y = _data(150)
        op = build_operator(m, x)
        built = []
        original = SymToeplitz.__init__

        def counting(self, first_column):
            built.append(len(first_column))
            original(self, first_column)

        monkeypatch.setattr(SymToeplitz, "__init__", counting)
        approx_nlml(m, x, y, n_probes=4, lanczos_steps=10, operator=op)
        assert len(built) == m.free_indices().size - 1  # less the noise

    @pytest.mark.parametrize("case", sorted(GRADIENT_CASES))
    def test_fixed_entries_are_zero_and_free_ones_unchanged(self, case):
        make_model, make_data = GRADIENT_CASES[case]
        m = make_model()
        x, y = make_data(150)
        kwargs = dict(n_probes=4, seed=1, cg_tol=1e-10, lanczos_steps=15)
        _, full, _ = approx_nlml(m, x, y, **kwargs)
        m.fixed[::2] = True
        _, grad, _ = approx_nlml(m, x, y, **kwargs)
        assert np.all(grad[m.fixed] == 0.0)
        free = m.free_indices()
        np.testing.assert_allclose(grad[free], full[free], rtol=1e-10,
                                   atol=1e-10 * np.abs(full).max())

    def test_derivative_matvec_called_for_free_indices_only(self,
                                                             monkeypatch):
        calls = []
        original = MixtureOperator.derivative_matvec

        def counting(self, index, v):
            calls.append(int(index))
            return original(self, index, v)

        monkeypatch.setattr(MixtureOperator, "derivative_matvec", counting)
        m = _two_component()
        m.fixed[[1, 2, 4]] = True
        x, y = _data(150)
        approx_nlml(m, x, y, n_probes=4, lanczos_steps=10)
        assert sorted(calls) == m.free_indices().tolist()


class TestFit:
    def test_recovers_amplitude_on_synthetic_draw(self):
        m_truth = _model_1d(amplitude=1.5, lengthscale=0.35, counts=256)
        rng = np.random.default_rng(2)
        x = rng.uniform(-1.0, 1.0, 600)
        draw = sample_prior(m_truth, x, seed=4)
        start = _model_1d(amplitude=0.6, lengthscale=0.35, counts=256)
        start.fixed[1] = True   # keep the lengthscale at truth
        result = fit(start, x, draw.y, max_steps=40, cg_tol=1e-6)
        learned_amp = np.exp(result.model.theta[0])
        assert learned_amp == pytest.approx(1.5, rel=0.35)
        assert result.n_evaluations > 0
        assert len(result.trace) == result.n_evaluations

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_operator_backs_off(self):
        # amplitude e^400 overflows a K_UU factor; the line search must
        # back off, not die, and numpy must not warn on the way
        m = _model_1d()
        x, y = _data(80)
        huge = m.with_theta(m.theta + np.array([400.0, 0.0, 0.0]))
        with pytest.raises(NonFiniteInputError,
                           match="c0: K_UU factor 0 overflows"):
            approx_nlml(huge, x, y, n_probes=2, lanczos_steps=5)
        result = fit(huge, x, y, max_steps=2)
        assert result.flag == "no_finite_evaluation"

    def test_overflowing_noise_backs_off(self):
        # noise e^400 is a finite float, but its square is not
        m = _model_1d()
        x, y = _data(80)
        huge = m.with_theta(m.theta + np.array([0.0, 0.0, 400.0]))
        with pytest.raises(NonFiniteInputError,
                           match="noise: its variance overflows"):
            approx_nlml(huge, x, y, n_probes=2, lanczos_steps=5)
        result = fit(huge, x, y, max_steps=2)
        assert result.flag == "no_finite_evaluation"

    @pytest.mark.parametrize("index, name", [(0, "c0.amplitude"),
                                             (2, "noise")])
    @pytest.mark.parametrize("shift", [800.0, -800.0, np.nan])
    def test_with_theta_names_a_parameter_whose_exp_is_not_finite(
            self, index, name, shift):
        m = _model_1d()
        theta = m.theta
        theta[index] += shift
        with pytest.raises(NonFiniteInputError,
                           match=f"{name}: exp.* is not positive and finite"):
            m.with_theta(theta)

    def test_trial_point_whose_exp_overflows_backs_off(self, monkeypatch):
        # a quadratic pulling the log-noise to 1000 makes L-BFGS try a
        # point whose exp is inf; building that model must back off too
        def pull(model, *args, **kwargs):
            d = model.theta - 1000.0
            return 0.5 * float(d @ d), d, {"cg_converged": True}

        monkeypatch.setattr(warpski.model, "approx_nlml", pull)
        m = _model_1d()
        m.fixed[:2] = True
        result = fit(m, *_data(20), max_steps=5)
        assert result.n_evaluations > len(result.trace) > 0

    def test_fixed_parameters_do_not_move(self):
        m = _model_1d()
        m.fixed[1] = True
        x, y = _data(200)
        result = fit(m, x, y, max_steps=10, cg_tol=1e-4)
        assert result.model.theta[1] == pytest.approx(m.theta[1], abs=1e-14)

    def test_all_fixed_is_a_noop(self):
        m = _model_1d()
        m.fixed[:] = True
        x, y = _data(50)
        result = fit(m, x, y)
        assert result.flag == "no_free_parameters"
        np.testing.assert_array_equal(result.model.theta, m.theta)

    def test_rejects_nonfinite_data_naming_field_and_index(self):
        m = _model_1d()
        x, y = _data(50)
        bad_y = y.copy()
        bad_y[7] = np.nan
        with pytest.raises(NonFiniteInputError, match="y: .* index 7"):
            fit(m, x, bad_y, max_steps=2)
        bad_x = x.copy()
        bad_x[11] = np.inf
        with pytest.raises(NonFiniteInputError, match="x: .* index 11"):
            fit(m, bad_x, y, max_steps=2)

    @pytest.mark.parametrize("failure", ["nan", "indefinite"])
    def test_no_finite_evaluation_returns_start_model(self, monkeypatch,
                                                      failure):
        def broken(model, *args, **kwargs):
            if failure == "indefinite":
                raise NotPositiveDefiniteError("indefinite everywhere")
            return np.nan, np.zeros(model.n_params), {"cg_converged": True}

        monkeypatch.setattr(warpski.model, "approx_nlml", broken)
        m = _model_1d()
        x, y = _data(50)
        result = fit(m, x, y, max_steps=3)
        assert result.flag == "no_finite_evaluation"
        assert np.isnan(result.value)
        assert result.n_evaluations > 0
        np.testing.assert_array_equal(result.model.theta, m.theta)


    def test_counts_unconverged_cg_solves(self, monkeypatch):
        real = warpski.model.approx_nlml
        unconverged = []

        def every_other_unconverged(*args, **kwargs):
            value, grad, diag = real(*args, **kwargs)
            unconverged.append(len(unconverged) % 2 == 0)
            return value, grad, {**diag, "cg_converged": not unconverged[-1]}

        monkeypatch.setattr(warpski.model, "approx_nlml",
                            every_other_unconverged)
        m = _model_1d()
        x, y = _data(50)
        result = fit(m, x, y, max_steps=3)
        assert result.n_evaluations == len(unconverged) > 1
        assert result.cg_unconverged == sum(unconverged)


class TestSeparate:
    def test_matches_dense_oracle(self):
        m = _two_component(counts=512)
        x, y = _data(300)
        sep = separate(m, x, y, cg_tol=1e-10)
        exact_means, _ = exact_separation_means(m, x, y)
        for got, want in zip(sep.means, exact_means):
            rel = np.linalg.norm(got - want) / np.linalg.norm(want)
            assert rel < 5e-2

    def test_means_sum_to_operator_without_noise(self):
        m = _two_component(noise=0.2)
        x, y = _data(250)
        op = build_operator(m, x)
        sep = separate(m, x, y, cg_tol=1e-10, operator=op)
        np.testing.assert_allclose(
            op.matvec(sep.cg_report.x) - sum(sep.means),
            m.noise_variance * sep.cg_report.x, rtol=1e-10, atol=1e-14)


class TestPredictMean:
    def test_matches_training_mean_at_training_points(self):
        m = _model_1d(counts=256)
        x, y = _data(200)
        sep = separate(m, x, y, cg_tol=1e-10)
        total, per = predict_mean(m, x, sep.cg_report.x, x)
        np.testing.assert_allclose(total, sep.means[0], rtol=1e-8, atol=1e-10)
        assert len(per) == 1

    def test_column_points_match_flat_and_2d_points_raise(self):
        m = _model_1d()
        x, y = _data(100)
        alpha = separate(m, x, y, cg_tol=1e-10).cg_report.x
        x_star = np.linspace(-0.9, 0.9, 10)
        total, _ = predict_mean(m, x, alpha, x_star)
        column, _ = predict_mean(m, x, alpha, x_star[:, None])
        np.testing.assert_array_equal(column, total)
        with pytest.raises(DimensionMismatchError, match=r"\(n, 1\)"):
            predict_mean(m, x, alpha, np.column_stack([x_star, x_star]))


class TestSamplePrior:
    def test_deterministic_given_seed(self):
        m = _model_1d()
        rng = np.random.default_rng(5)
        x = rng.uniform(-1.0, 1.0, 100)
        a = sample_prior(m, x, seed=9)
        b = sample_prior(m, x, seed=9)
        np.testing.assert_array_equal(a.y, b.y)

    def test_marginal_variance_close_to_kernel(self):
        m = _model_1d(amplitude=1.2, counts=256, noise=1e-3)
        rng = np.random.default_rng(6)
        x = rng.uniform(-1.0, 1.0, 400)
        draws = np.stack([sample_prior(m, x, seed=s).latent
                          for s in range(200)])
        var = draws.var()
        assert var == pytest.approx(1.2 ** 2, rel=0.2)

    def test_latents_sum_to_latent(self):
        m = _two_component()
        rng = np.random.default_rng(7)
        x = rng.uniform(-1.0, 1.0, 80)
        d = sample_prior(m, x, seed=1)
        np.testing.assert_allclose(sum(d.latents), d.latent, rtol=1e-12)


class TestBuildOperator:
    def test_dense_equals_component_sum(self):
        m = _two_component()
        x, _ = _data(150)
        op = build_operator(m, x)
        want = sum(c.dense_ski() for c in op.components) \
            + m.noise_variance * np.eye(150)
        np.testing.assert_allclose(op.dense(), want, rtol=1e-12)
