import numpy as np
import pytest

from warpski.exceptions import (ConfigError, NonFiniteInputError,
                                NotPositiveDefiniteError)
from warpski.grids import grid_covering_box
from warpski.kernels import Periodic, SquaredExponential
from warpski.krylov import (cg_solve, lanczos, rademacher_probes, slq_logdet,
                            slq_probes)
from warpski.model import GpComponent, GpModel, build_operator
from warpski.warping import Identity


def _spd(rng, n, cond=10.0):
    a = rng.normal(size=(n, n))
    return a @ a.T / n + np.eye(n) / cond


class TestCgSolve:
    def test_solves_to_requested_tolerance(self):
        rng = np.random.default_rng(0)
        n = 80
        k = _spd(rng, n)
        y = rng.normal(size=n)
        rep = cg_solve(lambda v: k @ v, y, tol=1e-10)
        assert rep.converged
        err = np.linalg.norm(k @ rep.x - y) / np.linalg.norm(y)
        assert err <= 1e-10

    def test_reports_nonconvergence_on_budget_exhaustion(self):
        rng = np.random.default_rng(1)
        n = 100
        k = _spd(rng, n, cond=1e6)
        y = rng.normal(size=n)
        rep = cg_solve(lambda v: k @ v, y, tol=1e-14, max_iter=3)
        assert not rep.converged
        assert rep.iterations == 3

    @pytest.mark.parametrize("tol", [1.0, 2.0, np.inf, np.nan])
    def test_rejects_tolerance_outside_unit_interval(self, tol):
        with pytest.raises(ConfigError, match="tol:"):
            cg_solve(lambda v: 2.0 * v, np.ones(50), tol=tol)

    def test_zero_rhs_returns_zero(self):
        rep = cg_solve(lambda v: v, np.zeros(5), tol=1e-8)
        assert rep.converged
        np.testing.assert_array_equal(rep.x, np.zeros(5))

    def test_nonfinite_rhs_stops_at_once(self):
        calls = []

        def apply(v):
            calls.append(1)
            return 2.0 * v

        y = np.ones(3000)
        y[17] = np.nan
        rep = cg_solve(apply, y, tol=1e-8)
        assert rep.iterations == 0 and not rep.converged
        assert np.isnan(rep.residual)
        assert calls == []

    def test_nonfinite_curvature_stops_the_run(self):
        calls = []

        def apply(v):
            calls.append(1)
            return v * (np.inf if len(calls) == 3 else np.arange(1.0, 501.0))

        rep = cg_solve(apply, np.ones(500), tol=1e-14)
        assert not rep.converged
        assert rep.iterations == 2
        assert len(calls) <= 4


class TestLanczos:
    def test_reproduces_operator_on_krylov_subspace(self):
        rng = np.random.default_rng(4)
        n = 50
        k = _spd(rng, n)
        f = lanczos(lambda v: k @ v, rng.normal(size=n), 20)
        q = f.basis
        t = np.diag(f.alphas) + np.diag(f.betas, 1) + np.diag(f.betas, -1)
        # orthonormal basis and T = Q^T K Q
        np.testing.assert_allclose(q.T @ q, np.eye(f.steps), atol=1e-10)
        np.testing.assert_allclose(q.T @ k @ q, t, atol=1e-8)

    def test_second_pass_restores_orthogonality(self):
        # each K q carries a huge component along q_0, which one
        # Gram-Schmidt pass removes only to about eps * 1e8
        rng = np.random.default_rng(10)
        n = 60
        k = _spd(rng, n)
        z = rng.normal(size=n)
        q0 = z / np.linalg.norm(z)
        f = lanczos(lambda v: k @ v + 1e8 * q0, z, 25)
        assert f.steps == 25
        err = np.linalg.norm(f.basis.T @ f.basis - np.eye(f.steps), 2)
        assert err <= 1e-12

    def test_full_run_recovers_all_eigenvalues(self):
        rng = np.random.default_rng(5)
        n = 30
        k = _spd(rng, n)
        f = lanczos(lambda v: k @ v, rng.normal(size=n), n)
        vals, _ = f.ritz()
        np.testing.assert_allclose(np.sort(vals), np.linalg.eigvalsh(k),
                                   rtol=1e-8)

    def test_breakdown_truncates_on_invariant_subspace(self):
        # start vector inside a 2-dimensional invariant subspace
        k = np.diag([1.0, 2.0, 3.0, 4.0])
        v = np.array([1.0, 1.0, 0.0, 0.0])
        f = lanczos(lambda u: k @ u, v, 4)
        assert f.steps == 2
        vals, _ = f.ritz()
        np.testing.assert_allclose(np.sort(vals), [1.0, 2.0], atol=1e-12)

    def test_single_step_breakdown_gives_one_ritz_pair(self):
        f = lanczos(lambda v: 2 * v, np.ones(5), 4)
        assert f.steps == 1
        vals, vecs = f.ritz()
        np.testing.assert_allclose(vals, [2.0], rtol=1e-15)
        np.testing.assert_allclose(vecs, [[1.0]], rtol=1e-15)

    def test_rejects_zero_start_vector(self):
        with pytest.raises(ValueError, match="column 0 "):
            lanczos(lambda v: v, np.zeros(5), 3)

    def test_block_names_its_zero_column(self):
        block = np.ones((5, 3))
        block[:, 1] = 0.0
        with pytest.raises(ValueError, match="column 1 "):
            lanczos(lambda v: v, block, 3, keep_basis=False)

    def test_block_with_basis_is_a_config_error(self):
        with pytest.raises(ConfigError, match="start:"):
            lanczos(lambda v: v, np.ones((5, 2)), 3)

    @pytest.mark.parametrize("keep_basis", [True, False])
    def test_no_steps_is_a_config_error(self, keep_basis):
        with pytest.raises(ConfigError, match="k: need at least one step"):
            lanczos(lambda v: v, np.ones(5), 0, keep_basis=keep_basis)

    @pytest.mark.parametrize("k", [1, 5, 10])
    def test_block_matches_each_column_run_alone(self, k):
        rng = np.random.default_rng(11)
        n = 60
        mat = _spd(rng, n)
        block = rng.normal(size=(n, 4))
        got = lanczos(lambda v: mat @ v, block, k, keep_basis=False)
        assert got.basis is None and got.steps == k
        assert got.alphas.shape == (k, 4) and got.betas.shape == (k - 1, 4)
        for j, z in enumerate(block.T):
            want = lanczos(lambda v: mat @ v, z, k)
            np.testing.assert_allclose(got.alphas[:, j], want.alphas,
                                       rtol=1e-10)
            np.testing.assert_allclose(got.betas[:, j], want.betas,
                                       rtol=1e-10)

    def test_broken_down_column_freezes_beside_live_ones(self):
        # e_0 + e_1 spans an invariant subspace of a diagonal K, so its
        # recurrence breaks down after 2 steps; the other columns go on
        rng = np.random.default_rng(12)
        diag = np.linspace(1.0, 5.0, 8)
        k = np.diag(diag)
        block = np.column_stack([rng.normal(size=(8, 2)),
                                 np.r_[1.0, 1.0, np.zeros(6)]])
        got = lanczos(lambda v: k @ v, block, 6, keep_basis=False)
        vals, vecs = got.ritz()
        own = lanczos(lambda v: k @ v, block[:, 2], 6)
        assert own.steps == 2
        np.testing.assert_array_equal(got.betas[2:, 2], 0.0)
        np.testing.assert_array_equal(got.alphas[2:, 2], got.alphas[1, 2])
        z = block[:, 2]
        quad = z @ z * vecs[2, 0, :] ** 2 @ np.log(vals[2])
        assert quad == pytest.approx(z @ (np.log(diag) * z), abs=1e-12)
        own_vals, _ = own.ritz()
        np.testing.assert_allclose([vals[2].min(), vals[2].max()],
                                   [own_vals.min(), own_vals.max()],
                                   rtol=1e-12)
        for j in range(2):
            alone = lanczos(lambda v: k @ v, block[:, j], 6, keep_basis=False)
            np.testing.assert_allclose(got.alphas[:, j], alone.alphas,
                                       rtol=1e-12)
            np.testing.assert_allclose(got.betas[:, j], alone.betas,
                                       rtol=1e-12)

    def test_block_ends_once_every_column_breaks_down(self):
        # each column spans an invariant subspace of a diagonal K, of
        # dimension 2 and 3, so the run ends after 3 steps
        diag = np.linspace(1.0, 5.0, 8)
        block = np.zeros((8, 2))
        block[:2, 0] = [1.0, -2.0]
        block[2:5, 1] = [0.5, 1.0, 3.0]
        got = lanczos(lambda v: diag[:, None] * v, block, 6, keep_basis=False)
        assert got.steps == 3
        assert got.alphas.shape == (3, 2) and got.betas.shape == (2, 2)
        assert got.betas[1, 0] == 0.0 and got.alphas[2, 0] == got.alphas[1, 0]
        vals, vecs = got.ritz()
        for j, z in enumerate(block.T):
            quad = z @ z * vecs[j, 0, :] ** 2 @ np.log(vals[j])
            assert quad == pytest.approx(z @ (np.log(diag) * z), abs=1e-12)

    @pytest.mark.parametrize("keep_basis", [True, False])
    def test_identity_stops_after_one_step(self, keep_basis):
        start = np.arange(1.0, 6.0)
        f = lanczos(lambda v: v, start, 3, keep_basis=keep_basis)
        assert f.steps == 1 and f.betas.shape == (0,)
        np.testing.assert_allclose(f.alphas, [1.0], rtol=1e-15)
        np.testing.assert_array_equal(start, np.arange(1.0, 6.0))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("shape", [(50,), (50, 3)])
    def test_overflow_ends_the_run_at_once(self, shape):
        # the second apply overflows; a kept-basis run and a block run both
        # stop there, and numpy's overflow warning does not escape
        calls = []
        d = np.linspace(1.0, 2.0, 50)

        def apply(v):
            calls.append(v)
            return (d * v.T).T * np.exp(710.0 * (len(calls) - 1))

        with pytest.raises(NonFiniteInputError, match="overflows"):
            lanczos(apply, np.ones(shape), 10, keep_basis=len(shape) == 1)
        assert len(calls) == 2

    @pytest.mark.parametrize("k", [1, 5, 10])
    def test_basis_free_matches_reorthogonalized_for_few_steps(self, k):
        # an elementwise apply sees (n,) on both paths, as it does in CG
        rng = np.random.default_rng(9)
        n = 60
        mat = _spd(rng, n)
        d = np.linspace(1.0, 4.0, n)
        z = rng.normal(size=n)
        for apply in (lambda v: mat @ v, lambda v: d * v):
            full = lanczos(apply, z, k)
            free = lanczos(apply, z, k, keep_basis=False)
            assert free.basis is None and free.steps == full.steps == k
            assert free.alphas.shape == (k,)
            np.testing.assert_allclose(free.alphas, full.alphas, rtol=1e-10)
            np.testing.assert_allclose(free.betas, full.betas, rtol=1e-10)

    def test_basis_free_quadrature_holds_at_many_steps(self):
        # orthogonality is lost long before step 150 (the reorthogonalized
        # run breaks down near step 50), yet the Gauss quadrature stays
        # exact to rounding, far inside AC6's 2% of the curve range
        grid = grid_covering_box([(-1.0, 1.0)], [128])
        model = GpModel(
            [GpComponent(SquaredExponential(1.0, 0.3), Identity(), grid),
             GpComponent(Periodic(0.7, 0.8, 0.5), Identity(), grid)],
            noise=0.2)
        n = 400
        op = build_operator(model, np.random.default_rng(0).uniform(
            -1.0, 1.0, n))
        vals, vecs = np.linalg.eigh(op.matvec(np.eye(n)))
        log_k = (vecs * np.log(vals)) @ vecs.T
        probes = rademacher_probes(n, 5, seed=1)
        quads = slq_probes(op.matvec, probes, 150, keep_basis=False)
        for z, (f, ritz, _, quad) in zip(probes.T, quads):
            assert f.basis is None and f.steps == 150
            assert quad == pytest.approx(z @ log_k @ z, rel=1e-9)
            assert ritz.min() >= model.noise_variance * (1.0 - 1e-8)


class TestSlqLogdet:
    def test_single_seed_close_to_cholesky(self):
        rng = np.random.default_rng(6)
        n = 300
        a = rng.normal(size=(n, n))
        k = a @ a.T / n + np.eye(n)
        exact = float(np.linalg.slogdet(k)[1])
        est = slq_logdet(lambda v: k @ v, rademacher_probes(n, 20, 0), 30)
        assert abs(est - exact) / abs(exact) < 0.03

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(7)
        n = 100
        k = _spd(rng, n)
        a = slq_logdet(lambda v: k @ v, rademacher_probes(n, 10, 3), 20)
        b = slq_logdet(lambda v: k @ v, rademacher_probes(n, 10, 3), 20)
        assert a == b

    def test_raises_on_indefinite_operator(self):
        k = np.diag([1.0, -2.0, 3.0, 4.0, 5.0, 6.0])
        with pytest.raises(NotPositiveDefiniteError):
            slq_logdet(lambda v: k @ v, rademacher_probes(6, 4, 0), 6)

    def test_probes_yield_per_probe_factorizations(self):
        rng = np.random.default_rng(8)
        n = 40
        k = _spd(rng, n)
        probes = rademacher_probes(n, 5, 0)
        quadratures = []
        for f, vals, _, quadrature in slq_probes(lambda v: k @ v, probes, 15):
            assert f.basis.shape == (n, f.steps)
            ritz_vals, ritz_vecs = f.ritz()
            np.testing.assert_array_equal(vals, ritz_vals)
            want = n * float(ritz_vecs[0, :] ** 2 @ np.log(ritz_vals))
            assert quadrature == pytest.approx(want, rel=1e-14)
            quadratures.append(quadrature)
        assert len(quadratures) == 5
        est = slq_logdet(lambda v: k @ v, probes, 15)
        assert est == pytest.approx(np.mean(quadratures), rel=1e-14)
