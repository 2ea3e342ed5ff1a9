"""Self-contained invariant checks runnable from the command line.

Each check is a named function that raises ``AssertionError`` (with a
message) on violation; :func:`run_validation` runs them all and prints
one pass/fail line per check. The whole suite is sized to finish in
minutes on a laptop.
"""

from __future__ import annotations

import time

import numpy as np
import scipy.linalg

from .exceptions import ConfigError
from .grids import (InducingGrid, grid_covering_box, interpolation_weights,
                    warped_grid)
from .kernels import (Periodic, Product, QuasiPeriodic, SquaredExponential,
                      dense_matrix)
from .krylov import (cg_solve, lanczos, rademacher_probes, slq_logdet,
                     slq_probes)
from .model import (GpComponent, GpModel, approx_nlml, build_operator,
                    exact_nlml, separate)
from .operators import build_component
from .structured import KronOperator, SymToeplitz, toeplitz_root
from .warping import Identity, Polynomial1D, phase_from_events

_CHECKS = []


def check(name):
    def deco(fn):
        _CHECKS.append((name, fn))
        return fn
    return deco


def _assert_symmetric(matvec, rng, n, what):
    u, v = rng.normal(size=(2, n))
    a = float(u @ matvec(v))
    b = float(v @ matvec(u))
    assert abs(a - b) <= 1e-10 * max(abs(a), 1.0), f"{what} asymmetric"


def _rel(a, b):
    return np.linalg.norm(a - b) / max(np.linalg.norm(b), 1e-300)


# ---------------------------------------------------------------- kernels

@check("kernels.stationary_symmetry")
def _kernel_symmetry():
    rng = np.random.default_rng(0)
    tau = rng.normal(size=200)
    for k in (SquaredExponential(1.3, 0.7), Periodic(0.9, 1.1, 2.3),
              QuasiPeriodic(1.2, 5.0, 0.6, 2.0)):
        assert np.array_equal(k.eval(tau), k.eval(-tau)), \
            f"{type(k).__name__} is not an even function of the lag"


@check("kernels.gradient_matches_finite_differences")
def _kernel_grad_fd():
    rng = np.random.default_rng(1)
    tau = rng.normal(size=50)
    eps = 1e-6
    for k, rtol, atol in ((SquaredExponential(1.3, 0.7), 1e-7, 1e-10),
                          (Periodic(0.9, 1.1, 2.3), 1e-6, 1e-10),
                          (QuasiPeriodic(1.2, 5.0, 0.6, 2.0), 1e-6, 1e-8)):
        g = k.grad(tau)
        for p in range(k.n_params):
            lp = k.log_params.copy()
            lp[p] += eps
            up = k.with_log_params(lp).eval(tau)
            lp[p] -= 2 * eps
            dn = k.with_log_params(lp).eval(tau)
            fd = (up - dn) / (2 * eps)
            err = _rel(g[p], fd)
            assert err < 1e-7 and np.allclose(g[p], fd, rtol, atol), (
                f"{type(k).__name__} param {p}: gradient vs FD rel err {err:.2e}")


@check("kernels.product_separability")
def _kernel_separability():
    rng = np.random.default_rng(2)
    x = rng.normal(size=(40, 2))
    k = Product([SquaredExponential(1.5, 0.4), SquaredExponential(1.0, 0.9)],
                dims=[0, 1])
    full = dense_matrix(k, x)
    f0 = dense_matrix(k.children[0], x[:, 0])
    f1 = dense_matrix(k.children[1], x[:, 1])
    assert np.allclose(full, f0 * f1, rtol=1e-13, atol=0), \
        "product kernel does not factor across dimensions"


@check("kernels.quasiperiodic_is_envelope_times_periodic")
def _kernel_qp_structure():
    tau = np.linspace(-8, 8, 301)
    k = QuasiPeriodic(1.2, 5.0, 0.6, 2.0)
    env = SquaredExponential(1.2, 5.0)
    per = Periodic(1.0, 0.6, 2.0)
    assert np.allclose(k.eval(tau), env.eval(tau) * per.eval(tau),
                       rtol=1e-14, atol=0), \
        "quasi-periodic kernel is not envelope * periodic"


# ---------------------------------------------------------------- warping

@check("warping.inverse_roundtrip")
def _warp_roundtrip():
    rng = np.random.default_rng(3)
    poly = Polynomial1D([2.0, 0.0, 1.0], domain=(-1.5, 1.0))
    x = rng.uniform(-1.5, 1.0, 500)
    err = np.max(np.abs(poly.inverse(poly.forward(x)) - x))
    assert err < 1e-10, f"polynomial inverse roundtrip error {err:.2e}"
    events = np.cumsum(rng.uniform(0.7, 1.0, 30)) - 0.8
    phase = phase_from_events(events)
    t = rng.uniform(events[2], events[-3], 500)
    err = np.max(np.abs(phase.inverse(phase.forward(t)) - t))
    assert err < 1e-10, f"phase inverse roundtrip error {err:.2e}"


@check("warping.forward_is_monotone")
def _warp_monotone():
    poly = Polynomial1D([2.0, 0.0, 1.0], domain=(-1.5, 1.0))
    x = np.linspace(-1.5, 1.0, 2000)
    assert np.all(np.diff(poly.forward(x)) > 0), "polynomial warp not increasing"
    rng = np.random.default_rng(4)
    events = np.cumsum(rng.uniform(0.7, 1.0, 30))
    phase = phase_from_events(events)
    t = np.linspace(events[0] - 3.0, events[-1] + 3.0, 2000)
    assert np.all(np.diff(phase.forward(t)) > 0), "phase warp not increasing"


@check("warping.phase_hits_two_pi_lattice_at_events")
def _warp_phase_lattice():
    rng = np.random.default_rng(5)
    events = np.cumsum(rng.uniform(0.7, 1.0, 25))
    phase = phase_from_events(events)
    got = phase.forward(events)
    want = 2.0 * np.pi * np.arange(events.size)
    assert np.allclose(got, want, rtol=0, atol=1e-12), \
        "event phases are not on the 2*pi lattice"


@check("warping.warped_grid_inverts_to_equispaced")
def _warp_grid_consistency():
    poly = Polynomial1D([2.0, 0.0, 1.0], domain=(-1.5, 1.0))
    grid = InducingGrid([(poly.forward(-1.4), poly.forward(0.9))], [64])
    uhat = warped_grid(grid, poly)
    back = poly.forward(uhat.axes[0])
    assert np.allclose(back, grid.axes[0], rtol=0, atol=1e-10), \
        "warped grid does not map back to the equispaced lattice"


# ------------------------------------------------------------------ grids

@check("grids.rows_sum_to_one_with_4powD_nonzeros")
def _grid_row_sums():
    rng = np.random.default_rng(6)
    for d, counts in ((1, (32,)), (2, (16, 20)), (3, (10, 12, 9))):
        box = [(-1.0, 1.0)] * d
        grid = grid_covering_box(box, counts)
        pts = rng.uniform(-1.0, 1.0, size=(200, d))
        w = interpolation_weights(grid, pts if d > 1 else pts[:, 0])
        sums = np.asarray(w.matrix.sum(axis=1)).ravel()
        assert np.allclose(sums, 1.0, rtol=0, atol=1e-12), \
            f"D={d}: interpolation rows do not sum to one"
        nnz = np.diff(w.matrix.indptr)
        assert np.all(nnz == 4 ** d), f"D={d}: expected {4**d} nonzeros per row"


@check("grids.local_polynomial_reproduction")
def _grid_poly_exact():
    rng = np.random.default_rng(7)
    # Keys cubic convolution reproduces quadratics exactly on uniform grids
    grid = grid_covering_box([(-1.0, 1.0)], [64])
    pts = rng.uniform(-1.0, 1.0, 300)
    w = interpolation_weights(grid, pts)
    for poly in (lambda t: 0.5 * t ** 2 + t - 1, lambda t: 2 * t + 0.3):
        err = np.max(np.abs(w.matvec(poly(grid.axes[0])) - poly(pts)))
        assert err < 1e-11, f"quadratic reproduction error {err:.2e}"


@check("grids.ski_matrix_close_to_dense_kernel")
def _grid_ski_accuracy():
    rng = np.random.default_rng(8)
    x = rng.uniform(-1.0, 1.0, 300)
    kernel = SquaredExponential(1.2, 0.35)
    grid = grid_covering_box([(-1.0, 1.0)], [512])
    comp = build_component(kernel, Identity(), grid, x)
    dense = comp.dense_exact(x)
    err = _rel(comp.dense_ski(), dense)
    assert err < 1e-4, f"identity-warp SKI Frobenius error {err:.2e}"
    poly = Polynomial1D([2.0, 0.0, 1.0], domain=(-1.2, 1.2))
    wgrid = grid_covering_box([(float(poly.forward(-1.0)),
                                float(poly.forward(1.0)))], [1024])
    wcomp = build_component(kernel, poly, wgrid, x)
    err = _rel(wcomp.dense_ski(), wcomp.dense_exact(x))
    assert err < 1e-4, f"warped SKI Frobenius error {err:.2e}"


# -------------------------------------------------------------- structured

@check("structured.toeplitz_matmat_matches_dense")
def _toeplitz_vs_dense():
    rng = np.random.default_rng(9)
    for _ in range(200):
        m = int(rng.integers(2, 513))
        col = rng.normal(size=m)
        op = SymToeplitz(col)
        v = rng.normal(size=m)
        got, want = op.matvec(v), scipy.linalg.toeplitz(col) @ v
        err = _rel(got, want)
        assert err < 1e-12 and np.allclose(got, want, 1e-12, 1e-12), \
            f"m={m}: Toeplitz MVM rel err {err:.2e}"


@check("structured.kronecker_matvec_matches_dense")
def _kron_vs_dense():
    rng = np.random.default_rng(10)
    for shapes in ((7,), (5, 6), (3, 4, 5), (6, 6)):
        factors = [SymToeplitz(rng.normal(size=m)) for m in shapes]
        op = KronOperator(factors)
        v = rng.normal(size=int(np.prod(shapes)))
        got, want = op.matvec(v), op.dense() @ v
        err = _rel(got, want)
        assert err < 1e-12 and np.allclose(got, want, 1e-12, 1e-12), \
            f"shapes {shapes}: Kronecker MVM rel err {err:.2e}"


@check("structured.operators_are_symmetric")
def _structured_symmetry():
    rng = np.random.default_rng(11)
    factors = [SymToeplitz(rng.normal(size=m)) for m in (6, 8)]
    _assert_symmetric(KronOperator(factors).matvec, rng, 48,
                      "Kronecker operator")


@check("structured.prior_root_squares_to_toeplitz")
def _prior_root():
    kernel = QuasiPeriodic(1.0, 20.0, 0.6, 2 * np.pi)
    for m in (128, 512):  # one dense and one circulant-embedding root
        axis = 2 * np.pi / 24 * np.arange(m)
        root, width = toeplitz_root(kernel.eval, axis, 0)
        r = root(np.eye(width))
        assert np.allclose(r @ r.T, scipy.linalg.toeplitz(kernel.eval(axis)),
                           rtol=1e-8, atol=1e-10), f"order {m}: R R^T != T"


@check("structured.toeplitz_mvm_near_linear_scaling")
def _toeplitz_scaling():
    rng = np.random.default_rng(12)
    sizes = [2 ** p for p in range(14, 20)]
    times = []
    for m in sizes:
        op = SymToeplitz(rng.normal(size=m))
        v = rng.normal(size=m)
        op.matvec(v)
        reps = max(3, 2 ** 20 // m)
        best = np.inf
        for _ in range(3):
            t0 = time.perf_counter()
            for _ in range(reps):
                op.matvec(v)
            best = min(best, (time.perf_counter() - t0) / reps)
        times.append(best)
    # compare against the mean growth per doubling across the whole range
    rate = (times[-1] / times[0]) ** (1.0 / (len(sizes) - 1))
    assert rate <= 2.6, \
        f"Toeplitz MVM mean growth {rate:.2f}x per doubling exceeds 2.6x"


# --------------------------------------------------------------- operators

@check("operators.both_construction_paths_agree")
def _construction_paths():
    rng = np.random.default_rng(13)
    x = rng.uniform(-1.0, 1.0, 400)
    poly = Polynomial1D([2.0, 0.0, 1.0], domain=(-1.2, 1.2))
    grid = grid_covering_box([(float(poly.forward(-1.0)),
                               float(poly.forward(1.0)))], [256])
    kernel = SquaredExponential(1.5, 0.4)
    a = build_component(kernel, poly, grid, x).weights
    b = interpolation_weights(warped_grid(grid, poly), x)
    diff = abs(a.matrix - b.matrix).max()
    assert diff <= 1e-12, f"warped-grid weights disagree by {diff:.2e}"


def _two_component(period, counts=128):
    grid = grid_covering_box([(-1.0, 1.0)], [counts])
    return GpModel([GpComponent(SquaredExponential(1.0, 0.3), Identity(), grid),
                    GpComponent(Periodic(0.7, 0.8, period), Identity(), grid)],
                   noise=0.2)


@check("operators.mixture_is_symmetric")
def _mixture_symmetry():
    rng = np.random.default_rng(14)
    x = rng.uniform(-1.0, 1.0, 300)
    _assert_symmetric(build_operator(_two_component(0.9), x).matvec, rng,
                      300, "mixture operator")


@check("operators.amplitude_forms_match_grid")
def _amplitude_forms():
    rng = np.random.default_rng(23)
    op = build_operator(_two_component(0.9), rng.uniform(-1.0, 1.0, 300))
    f = lanczos(op.matvec, rng.normal(size=300), 30)
    t = np.diag(f.alphas) + np.diag(f.betas, 1) + np.diag(f.betas, -1)
    free = np.arange(op.n_params)
    for j, a, b in zip(free, op.derivative_forms(free, f.basis, t),
                       op.derivative_forms(free, f.basis)):
        assert _rel(a, b) < 1e-10, \
            f"parameter {j}: form from T off the grid form by {_rel(a, b):.2e}"


@check("operators.noise_floor_bounds_smallest_ritz_value")
def _noise_floor():
    rng = np.random.default_rng(15)
    x = rng.uniform(-1.0, 1.0, 400)
    grid = grid_covering_box([(-1.0, 1.0)], [128])
    model = GpModel([GpComponent(SquaredExponential(1.0, 0.3), Identity(), grid)],
                    noise=0.3)
    op = build_operator(model, x)
    factor = lanczos(op.matvec, rng.normal(size=400), 40)
    vals, _ = factor.ritz()
    floor = model.noise_variance * (1.0 - 1e-6)
    assert vals.min() >= floor, (
        f"smallest Ritz value {vals.min():.6g} below noise floor {floor:.6g}")


@check("operators.warping_restores_toeplitz_structure")
def _warp_restores_toeplitz():
    # On the warped (non-equispaced) grid the exact inducing matrix is not
    # Toeplitz; on the equispaced warped-space grid it is.
    poly = Polynomial1D([2.0, 0.0, 1.0], domain=(-1.2, 1.2))
    kernel = SquaredExponential(1.0, 0.4)
    grid = grid_covering_box([(float(poly.forward(-1.0)),
                               float(poly.forward(1.0)))], [64])
    uhat = warped_grid(grid, poly)
    k_plain = dense_matrix(kernel, uhat.axes[0])
    dev = 0.0
    for off in (1, 2, 5):
        diag = np.diagonal(k_plain, offset=off)
        dev = max(dev, float(diag.max() - diag.min()))
    assert dev > 1e-3, "expected non-Toeplitz inducing matrix on the raw grid"
    col = kernel.eval(grid.axes[0] - grid.axes[0][0])
    k_struct = dense_matrix(kernel, grid.axes[0])
    assert np.allclose(k_struct, scipy.linalg.toeplitz(col),
                       rtol=1e-13, atol=1e-14), \
        "warped-space inducing matrix is not Toeplitz"


# ------------------------------------------------------------------ krylov

@check("krylov.cg_reduces_error_monotonically")
def _cg_monotone():
    rng = np.random.default_rng(16)
    n = 120
    a = rng.normal(size=(n, n))
    k = a @ a.T + n * np.eye(n)
    y = rng.normal(size=n)
    x_star = np.linalg.solve(k, y)
    energies = []
    for it in range(1, 30):
        rep = cg_solve(lambda v: k @ v, y, tol=0.0, max_iter=it)
        e = rep.x - x_star
        energies.append(float(e @ k @ e))
    diffs = np.diff(energies)
    assert np.all(diffs <= 1e-12 * energies[0]), \
        "CG energy-norm error is not monotonically decreasing"


@check("krylov.probe_sets_are_seed_reproducible")
def _probe_reproducible():
    p1 = rademacher_probes(64, 10, seed=42)
    p2 = rademacher_probes(64, 10, seed=42)
    p3 = rademacher_probes(64, 10, seed=43)
    assert np.array_equal(p1, p2), "same seed produced different probes"
    assert not np.array_equal(p1, p3), "different seeds produced equal probes"
    assert set(np.unique(p1)) == {-1.0, 1.0}, "probes are not Rademacher"


@check("krylov.quadrature_exact_for_few_distinct_eigenvalues")
def _quadrature_exact():
    rng = np.random.default_rng(17)
    n = 80
    distinct = np.array([0.5, 1.0, 2.0, 3.5, 6.0])
    vals = distinct[rng.integers(0, distinct.size, n)]
    q, _ = np.linalg.qr(rng.normal(size=(n, n)))
    k = (q * vals) @ q.T
    k = 0.5 * (k + k.T)
    logk = (q * np.log(vals)) @ q.T
    for i, z in enumerate(rademacher_probes(n, 10, seed=0).T):
        factor = lanczos(lambda v: k @ v, z, distinct.size + 2)
        rvals, rvecs = factor.ritz()
        est = float(n * np.sum(rvecs[0, :] ** 2 * np.log(rvals)))
        exact = float(z @ logk @ z)
        err = abs(est - exact) / abs(exact)
        assert err < 1e-9, (
            f"probe {i}: quadrature with k > #distinct eigenvalues "
            f"off by {err:.2e}")


@check("krylov.slq_logdet_unbiased_over_seeds")
def _slq_seed_average():
    rng = np.random.default_rng(18)
    n = 200
    a = rng.normal(size=(n, n))
    k = a @ a.T / n + np.eye(n)
    exact = float(np.linalg.slogdet(k)[1])
    ests = [slq_logdet(lambda v: k @ v, rademacher_probes(n, 20, seed=s), 30)
            for s in range(50)]
    err = abs(np.mean(ests) - exact) / abs(exact)
    assert err < 5e-3, f"50-seed mean log-det off by {err:.2e}"


@check("krylov.block_quadrature_matches_columns")
def _block_quadrature():
    rng = np.random.default_rng(24)
    n = 300  # grids of 300 > DENSE_MAX_ORDER: each block goes through FFTs
    op = build_operator(_two_component(0.9, 300), rng.uniform(-1.0, 1.0, n))
    vals, vecs = np.linalg.eigh(op.dense())
    probes = rademacher_probes(n, 6, seed=5)
    exact = np.sum(probes * ((vecs * np.log(vals)) @ (vecs.T @ probes)), 0)
    quads = np.array([q for *_, q in slq_probes(op.matvec, probes, 60, False)])
    alone = [q for z in probes.T
             for *_, q in slq_probes(op.matvec, z[:, None], 60, False)]
    for want, tol, what in ((alone, 1e-12, "lone runs"),
                            (exact, 1e-10, "dense z^T log(K) z")):
        err = _rel(quads, np.array(want))
        assert err < tol, f"block quadratures off {what} by {err:.2e}"


# ---------------------------------------------------------------------- gp

def _toy_model(counts):
    grid = grid_covering_box([(-1.0, 1.0)], [counts])
    return GpModel([GpComponent(SquaredExponential(1.2, 0.35), Identity(),
                                grid)], noise=0.3)


@check("gp.approx_nlml_approaches_exact_with_grid_density")
def _gp_oracle_agreement():
    rng = np.random.default_rng(19)
    n = 300
    x = rng.uniform(-1.0, 1.0, n)
    y = np.sin(3 * x) + 0.3 * rng.standard_normal(n)
    from .model import LOG_2PI
    exact, _ = exact_nlml(_toy_model(512), x, y, with_gradient=False)
    # deterministic structured NLML (dense log-det of the assembled
    # operator) isolates the grid error from quadrature sampling noise
    errs = []
    for counts in (32, 96, 512):
        op = build_operator(_toy_model(counts), x)
        k = op.dense()
        val = 0.5 * (float(y @ np.linalg.solve(k, y))
                     + float(np.linalg.slogdet(k)[1]) + n * LOG_2PI)
        errs.append(abs(val - exact) / abs(exact))
    assert errs[-1] < 1e-4, f"finest grid NLML rel err {errs[-1]:.2e}"
    assert errs[-1] <= errs[0] + 1e-12, \
        f"NLML error did not shrink with grid density: {errs}"
    # the stochastic estimate should sit within sampling noise of exact
    val, _, _ = approx_nlml(_toy_model(512), x, y, n_probes=50, seed=0,
                            cg_tol=1e-10, lanczos_steps=60,
                            with_gradient=False)
    err = abs(val - exact) / abs(exact)
    assert err < 3e-2, f"stochastic NLML rel err {err:.2e}"


@check("gp.separation_components_sum_to_data")
def _gp_separation_identity():
    rng = np.random.default_rng(20)
    n = 400
    x = np.sort(rng.uniform(-1.0, 1.0, n))
    model = _two_component(0.5)
    y = np.sin(6 * x) + 0.2 * rng.standard_normal(n)
    sep = separate(model, x, y, cg_tol=1e-10)
    recon = sum(sep.means) + model.noise_variance * sep.cg_report.x
    err = _rel(recon, y)
    assert err < 1e-8, f"separation identity violated, rel err {err:.2e}"


@check("gp.approx_gradient_matches_its_own_finite_differences")
def _gp_gradient_fd():
    rng = np.random.default_rng(21)
    n = 250
    x = rng.uniform(-1.0, 1.0, n)
    y = np.sin(3 * x) + 0.3 * rng.standard_normal(n)
    model = _toy_model(96)
    kwargs = dict(n_probes=10, seed=0, cg_tol=1e-12, lanczos_steps=40)
    _, grad, _ = approx_nlml(model, x, y, **kwargs)
    eps = 1e-5
    theta = model.theta
    for p in range(theta.size):
        tp = theta.copy(); tp[p] += eps
        tm = theta.copy(); tm[p] -= eps
        up, _, _ = approx_nlml(model.with_theta(tp), x, y,
                               with_gradient=False, **kwargs)
        dn, _, _ = approx_nlml(model.with_theta(tm), x, y,
                               with_gradient=False, **kwargs)
        fd = (up - dn) / (2 * eps)
        err = abs(grad[p] - fd) / max(abs(fd), 1e-12)
        assert err < 1e-4, f"param {p}: grad vs seeded FD rel err {err:.2e}"


@check("gp.likelihood_argmin_stable_across_seeds")
def _gp_argmin_stable():
    rng = np.random.default_rng(22)
    n = 400
    x = rng.uniform(-1.0, 1.0, n)
    truth = _toy_model(256)
    from .model import sample_prior
    draw = sample_prior(truth, x, seed=5)
    amps = np.linspace(0.6, 2.4, 9)
    argmins = []
    for seed in (0, 1):
        curve = []
        for a in amps:
            theta = truth.theta.copy()
            theta[0] = np.log(a)
            val, _, _ = approx_nlml(truth.with_theta(theta), x, draw.y,
                                    n_probes=20, seed=seed, cg_tol=1e-8,
                                    lanczos_steps=30, with_gradient=False)
            curve.append(val)
        argmins.append(int(np.argmin(curve)))
    assert abs(argmins[0] - argmins[1]) <= 1, \
        f"likelihood argmin moved across probe seeds: {argmins}"


# -------------------------------------------------------------------- cli

@check("cli.runs_are_deterministic_given_config")
def _cli_deterministic():
    import dataclasses
    from .experiments import ExperimentConfig, run_numeric2d
    cfg = ExperimentConfig(kind="numeric2d", n=200, max_steps=3,
                           grid_counts=(24, 24), sample_grid_counts=(32, 32))
    r1 = run_numeric2d(cfg)
    r2 = run_numeric2d(dataclasses.replace(cfg))
    assert r1.metrics["rmse"] == r2.metrics["rmse"], "rmse not reproducible"
    assert r1.metrics["nlml"] == r2.metrics["nlml"], "nlml not reproducible"
    assert r1.learned == r2.learned, "learned parameters not reproducible"


def run_validation(names=None, out=print):
    """Run the named checks (all by default); return the number of failures.

    Prints one ``PASS``/``FAIL`` line per check with wall time; a check
    that raises anything but an ``AssertionError`` fails with the error's
    type named, and the checks after it still run. Names that select no
    check raise ``ConfigError``.
    """
    failures = 0
    selected = [(n, f) for n, f in _CHECKS
                if names is None or any(n.startswith(p) for p in names)]
    if names is not None and not selected:
        raise ConfigError(f"--checks: no check name starts with any of "
                          f"{', '.join(names)}")
    for name, fn in selected:
        t0 = time.perf_counter()
        try:
            fn()
        except Exception as err:
            failures += 1
            kind = ("" if isinstance(err, AssertionError)
                    else f"{type(err).__name__}: ")
            out(f"FAIL {name} ({time.perf_counter() - t0:.1f}s): {kind}{err}")
        else:
            out(f"PASS {name} ({time.perf_counter() - t0:.1f}s)")
    out(f"{len(selected) - failures}/{len(selected)} checks passed")
    return failures


def check_names():
    return [n for n, _ in _CHECKS]
