"""End-to-end acceptance suite.

Each test prints one PASS/FAIL line with the measured quantity before
asserting, so a verbose run reads as a checklist. Tolerances are pinned;
several tests are deliberately large and take minutes.
"""

import time

import numpy as np
import scipy.fft
import scipy.linalg
import scipy.sparse

from warpski.experiments import (ExperimentConfig, run_numeric2d,
                                 run_separation1d)
from warpski.grids import (grid_covering_box, interpolation_weights,
                           warped_grid)
from warpski.kernels import QuasiPeriodic, SquaredExponential
from warpski.krylov import cg_solve, rademacher_probes, slq_logdet
from warpski.model import (GpComponent, GpModel, approx_nlml, build_operator,
                           exact_nlml, exact_separation_means, sample_prior,
                           separate)
from warpski.operators import build_component
from warpski.validate import run_validation
from warpski.warping import Identity, Polynomial1D, phase_from_events


def _report(name, ok, detail):
    print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
    assert ok, f"{name}: {detail}"


def _rel_fro(a, b):
    return float(np.linalg.norm(a - b) / np.linalg.norm(b))


def test_ac01_ski_fidelity_identity_warp():
    rng = np.random.default_rng(0)
    n, m = 500, 512
    x = rng.uniform(-1.0, 1.0, n)
    kernel = SquaredExponential(1.2, 0.35)
    grid = grid_covering_box([(-1.0, 1.0)], [m])
    t0 = time.perf_counter()
    comp = build_component(kernel, Identity(), grid, x)
    ski = comp.dense_ski()
    elapsed = time.perf_counter() - t0
    err = _rel_fro(ski, comp.dense_exact(x))
    _report("AC1 SKI fidelity",
            err <= 1e-3 and elapsed < 5.0,
            f"rel Frobenius error {err:.2e} (<= 1e-3), "
            f"build {elapsed:.2f}s (< 5s)")


def test_ac02_warpski_fidelity_and_construction_equivalence():
    rng = np.random.default_rng(1)
    n, m = 500, 1024
    x = rng.uniform(-1.0, 1.0, n)
    poly = Polynomial1D([2.0, 0.0, 1.0], domain=(-1.2, 1.2))
    kernel = SquaredExponential(1.5, 0.4)
    grid = grid_covering_box([(float(poly.forward(-1.0)),
                               float(poly.forward(1.0)))], [m])
    a = build_component(kernel, poly, grid, x)
    b = interpolation_weights(warped_grid(grid, poly), x)
    err = _rel_fro(a.dense_ski(), a.dense_exact(x))
    wdiff = float(abs(a.weights.matrix - b.matrix).max())
    _report("AC2 warpSKI fidelity",
            err <= 1e-3 and wdiff <= 1e-12,
            f"rel Frobenius error {err:.2e} (<= 1e-3), "
            f"construction-path weight gap {wdiff:.1e} (<= 1e-12)")


def _two_source_model(t_end, noise=0.15, seed=0, per_cycle=24):
    rng = np.random.default_rng(seed)
    ev1 = np.cumsum(rng.uniform(0.75, 0.95, int(t_end / 0.75) + 4)) - 0.9
    ev2 = np.cumsum(rng.uniform(0.27, 0.34, int(t_end / 0.27) + 4)) - 0.4
    comps = []
    for ev, amp in ((ev1, 1.0), (ev2, 0.4)):
        warp = phase_from_events(ev)
        span = (float(warp.forward(0.0)), float(warp.forward(t_end)))
        count = max(int((span[1] - span[0]) / (2 * np.pi) * per_cycle), 16)
        grid = grid_covering_box([span], [count])
        comps.append(GpComponent(
            QuasiPeriodic(amp, 20.0, 0.6, 2 * np.pi), warp, grid))
    return GpModel(comps, noise=noise)


def test_ac03_inference_matches_dense_oracles():
    n = 1500
    t = np.linspace(0.0, 12.0, n)
    model = _two_source_model(12.0)
    draw = sample_prior(model, t, seed=3)
    y = draw.y
    op = build_operator(model, t)
    rep = cg_solve(op.matvec, y, tol=1e-8)
    dense_alpha = np.linalg.solve(op.dense(), y)
    solve_err = float(np.linalg.norm(rep.x - dense_alpha)
                      / np.linalg.norm(dense_alpha))
    sep = separate(model, t, y, cg_tol=1e-8, operator=op)
    exact_means, _ = exact_separation_means(model, t, y)
    mean_errs = [float(np.linalg.norm(g - e) / np.linalg.norm(e))
                 for g, e in zip(sep.means, exact_means)]
    _report("AC3 inference oracle",
            solve_err <= 1e-6 and max(mean_errs) <= 5e-2,
            f"CG vs dense solve rel L2 {solve_err:.2e} (<= 1e-6), "
            f"source means vs exact-kernel separation "
            f"{[f'{e:.3f}' for e in mean_errs]} (<= 5e-2)")


def test_ac04_slq_logdet_accuracy():
    rng = np.random.default_rng(4)
    n = 500
    a = rng.normal(size=(n, n))
    k = a @ a.T / n + np.eye(n)
    exact = 2.0 * float(np.sum(np.log(np.diag(
        scipy.linalg.cholesky(k, lower=True)))))
    ests = [slq_logdet(lambda v: k @ v, rademacher_probes(n, 20, seed), 30)
            for seed in range(10)]
    avg_err = abs(np.mean(ests) - exact) / abs(exact)
    single_err = abs(ests[0] - exact) / abs(exact)
    _report("AC4 SLQ log-det",
            avg_err <= 0.01 and single_err <= 0.03,
            f"10-seed mean rel err {avg_err:.4f} (<= 0.01), "
            f"single-seed rel err {single_err:.4f} (<= 0.03)")


def _gradient_setup(n, seed=5, counts=256):
    rng = np.random.default_rng(seed)
    x = rng.uniform(-1.0, 1.0, n)
    grid = grid_covering_box([(-1.0, 1.0)], [counts])
    model = GpModel([GpComponent(SquaredExponential(1.2, 0.35), Identity(),
                                 grid)], noise=0.3)
    draw = sample_prior(model, x, seed=seed + 1)
    return model, x, draw.y


def test_ac05a_exact_gradient_matches_finite_differences():
    model, x, y = _gradient_setup(300)
    _, grad = exact_nlml(model, x, y)
    eps = 1e-6
    theta = model.theta
    fd = np.zeros_like(grad)
    for p in range(theta.size):
        tp = theta.copy(); tp[p] += eps
        tm = theta.copy(); tm[p] -= eps
        up, _ = exact_nlml(model.with_theta(tp), x, y, with_gradient=False)
        dn, _ = exact_nlml(model.with_theta(tm), x, y, with_gradient=False)
        fd[p] = (up - dn) / (2 * eps)
    err = float(np.linalg.norm(grad - fd) / np.linalg.norm(fd))
    _report("AC5a exact gradient", err <= 1e-6,
            f"gradient vs central differences rel err {err:.2e} (<= 1e-6)")


def test_ac05b_approx_gradient_matches_seeded_objective():
    model, x, y = _gradient_setup(300, counts=128)
    kwargs = dict(n_probes=10, seed=0, cg_tol=1e-12, lanczos_steps=40)
    _, grad, _ = approx_nlml(model, x, y, **kwargs)
    eps = 1e-5
    theta = model.theta
    fd = np.zeros_like(grad)
    for p in range(theta.size):
        tp = theta.copy(); tp[p] += eps
        tm = theta.copy(); tm[p] -= eps
        up, _, _ = approx_nlml(model.with_theta(tp), x, y,
                               with_gradient=False, **kwargs)
        dn, _, _ = approx_nlml(model.with_theta(tm), x, y,
                               with_gradient=False, **kwargs)
        fd[p] = (up - dn) / (2 * eps)
    err = float(np.linalg.norm(grad - fd) / np.linalg.norm(fd))
    _report("AC5b approx gradient self-consistency", err <= 1e-4,
            f"gradient vs FD of the seeded stochastic objective "
            f"rel err {err:.2e} (<= 1e-4)")


def test_ac05c_approx_gradient_aligned_with_exact():
    model, x, y = _gradient_setup(1000, counts=512)
    # evaluate at a mildly displaced hyperparameter point, i.e. where an
    # optimizer actually consumes gradients; at a stationary point the
    # direction is dominated by estimator noise by definition
    model = model.with_theta(model.theta + np.log([0.9, 1.1, 1.05]))
    _, exact_grad = exact_nlml(model, x, y)
    _, grad, _ = approx_nlml(model, x, y, n_probes=50, seed=0,
                             cg_tol=1e-10, lanczos_steps=60)
    cos = float(grad @ exact_grad
                / (np.linalg.norm(grad) * np.linalg.norm(exact_grad)))
    _report("AC5c gradient alignment", cos >= 0.99,
            f"cosine(approx, exact) = {cos:.4f} (>= 0.99)")


def test_ac06_likelihood_curves_agree():
    n = 2000
    t = np.linspace(0.0, 16.0, n)
    model = _two_source_model(16.0, seed=6, per_cycle=40)
    draw = sample_prior(model, t, seed=7)
    y = draw.y
    amps = np.geomspace(0.3, 3.0, 15)
    exact_curve = np.zeros(15)
    approx_curve = np.zeros(15)
    for i, a in enumerate(amps):
        theta = model.theta.copy()
        theta[0] = np.log(a)
        m = model.with_theta(theta)
        exact_curve[i], _ = exact_nlml(m, t, y, with_gradient=False)
        approx_curve[i], _, _ = approx_nlml(m, t, y, n_probes=200, seed=0,
                                            cg_tol=1e-10, lanczos_steps=150,
                                            with_gradient=False)
    argmin_gap = abs(int(np.argmin(exact_curve))
                     - int(np.argmin(approx_curve)))
    span = float(exact_curve.max() - exact_curve.min())
    max_gap = float(np.max(np.abs(approx_curve - exact_curve))) / span
    _report("AC6 likelihood curve",
            argmin_gap <= 1 and max_gap <= 0.02,
            f"argmin gap {argmin_gap} steps (<= 1), "
            f"max curve deviation {max_gap:.4f} of range (<= 0.02)")


def test_ac07_numeric2d_replica():
    config = ExperimentConfig(kind="numeric2d", n=10_000,
                              grid_counts=(100, 100))
    report = run_numeric2d(config)
    truth = {"noise": 0.5, "amplitude": 1.5, "lengthscale": 0.4}
    learned = {
        "noise": report.learned["noise"],
        "amplitude": report.learned["c0.0.amplitude"],
        "lengthscale": report.learned["c0.0.lengthscale"],
    }
    rel = {k: abs(learned[k] - truth[k]) / truth[k] for k in truth}
    ok = (max(rel.values()) <= 0.20
          and report.metrics["rmse"] <= 0.5
          and report.timings["learning"] <= 600.0)
    _report("AC7 2-D benchmark replica", ok,
            f"learned {({k: round(v, 3) for k, v in learned.items()})} "
            f"rel errors {({k: round(v, 3) for k, v in rel.items()})} "
            f"(<= 0.20), rmse {report.metrics['rmse']:.3f} (<= 0.5), "
            f"learning {report.timings['learning']:.0f}s (<= 600s)")


def _best_time(fn, repeats=3):
    fn()
    best = np.inf
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def _reference_kernel():
    """A fixed numpy/scipy computation, ten sparse-FFT-sparse products at
    n = 20,000 and m = 4,096, whose time follows the machine's current
    speed and no change to warpski."""
    rng = np.random.default_rng(0)
    n, m = 20_000, 4096
    rows = np.repeat(np.arange(n), 4)
    w = scipy.sparse.csr_matrix(
        (rng.random(rows.size), (rows, rng.integers(0, m, rows.size))),
        shape=(n, m))
    w_t = w.T.tocsr()
    spectrum = np.abs(rng.standard_normal(m + 1))
    v = rng.standard_normal(n)

    def run():
        for _ in range(10):
            u = scipy.fft.irfft(scipy.fft.rfft(w_t @ v, n=2 * m) * spectrum,
                                n=2 * m)
            w @ u[:m]

    return run


def test_ac08_near_linear_scaling():
    # each size is timed in units of a fixed reference kernel timed right
    # before and right after it, so a neighbour that starts mid-sweep on
    # a shared host does not show as growth
    rng = np.random.default_rng(8)
    kernel = SquaredExponential(1.2, 0.35)
    doublings = 4
    reference = _reference_kernel()

    def op_for(n, m):
        x = rng.uniform(-1.0, 1.0, n)
        grid = grid_covering_box([(-1.0, 1.0)], [m])
        model = GpModel([GpComponent(kernel, Identity(), grid)], noise=0.3)
        return build_operator(model, x), x

    def growth(times):
        return (times[-1] / times[0]) ** (1.0 / doublings)

    def time_size(n, m, mvm, inf):
        op, x = op_for(n, m)
        v = rng.normal(size=n)
        y = np.sin(3 * x) + 0.3 * rng.standard_normal(n)
        before = _best_time(reference)
        t_mvm = _best_time(lambda: op.matvec(v))
        t_inf = _best_time(lambda: cg_solve(op.matvec, y, tol=1e-6))
        scale = 0.5 * (before + _best_time(reference))
        mvm.append(t_mvm / scale)
        inf.append(t_inf / scale)

    mvm_n, inf_n = [], []
    for n in [2500 * 2 ** i for i in range(doublings + 1)]:
        time_size(n, 4096, mvm_n, inf_n)
    mvm_m, inf_m = [], []
    for m in [4096 * 2 ** i for i in range(doublings + 1)]:
        time_size(10_000, m, mvm_m, inf_m)
    rates = {"mvm vs n": growth(mvm_n), "inference vs n": growth(inf_n),
             "mvm vs m": growth(mvm_m), "inference vs m": growth(inf_m)}
    _report("AC8 near-linear scaling",
            max(rates.values()) <= 2.6,
            "mean growth per doubling "
            f"{({k: round(v, 2) for k, v in rates.items()})} (<= 2.6)")


def test_ac09_source_separation_snr():
    config = ExperimentConfig(kind="separation1d", n=20_000, dt=0.002,
                              noise=0.1, max_steps=30)
    report = run_separation1d(config)
    weaker = report.metrics["snr_improvement_fetal_db"]
    stronger = report.metrics["snr_improvement_maternal_db"]
    _report("AC9 source separation", weaker > 10.0,
            f"SNR improvement: weaker source {weaker:.1f} dB (> 10 dB), "
            f"stronger source {stronger:.1f} dB")


def test_ac10_validation_suite_green():
    t0 = time.perf_counter()
    lines = []
    failures = run_validation(out=lines.append)
    elapsed = time.perf_counter() - t0
    for line in lines:
        print(f"  {line}")
    failed = [line for line in lines if line.startswith("FAIL ")]
    _report("AC10 validation suite",
            failures == 0 and elapsed <= 900.0,
            "; ".join([lines[-1], *failed])
            + f", wall time {elapsed:.0f}s (<= 900s)")
