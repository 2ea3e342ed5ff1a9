"""Model-level API: exact dense oracle, approximate learning, separation.

A ``GpModel`` is an additive mixture of phase-warped stationary GPs plus
white noise. The exact path assembles dense kernel matrices (desk scale
only); the approximate path goes through the matrix-free warpSKI operator
with conjugate gradients and stochastic Lanczos quadrature.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.optimize

from .exceptions import (ConfigError, DimensionMismatchError,
                         NonFiniteInputError, NotPositiveDefiniteError)
from .grids import InducingGrid, interpolation_weights
from .kernels import Kernel, dense_matrix, pairwise_lags, split_params
from .krylov import CgReport, cg_solve, rademacher_probes, slq_probes
from .operators import MixtureOperator, build_component, warp_points
from .structured import mode_products, toeplitz_root
from .warping import Warp

LOG_2PI = float(np.log(2.0 * np.pi))


@dataclass
class GpComponent:
    """One mixture component: kernel + warp + inducing grid (warped space)."""
    kernel: Kernel
    warp: Warp
    grid: InducingGrid


class GpModel:
    """Additive mixture of warped GPs with white noise.

    The flattened hyperparameter vector ``theta`` (log-space) lists each
    component's kernel parameters in order, followed by the log noise
    standard deviation. ``fixed`` masks parameters that never change
    during fitting.
    """

    def __init__(self, components, noise, fixed=None):
        self.components = list(components)
        if not 0.0 < noise < np.inf:
            raise ValueError(
                "noise standard deviation must be positive and finite")
        self.noise = float(noise)
        n_params = sum(c.kernel.n_params for c in self.components) + 1
        if fixed is None:
            fixed = np.zeros(n_params, dtype=bool)
        fixed = np.asarray(fixed, dtype=bool)
        if fixed.size != n_params:
            raise DimensionMismatchError("fixed mask length mismatch")
        self.fixed = fixed.copy()

    @property
    def n_params(self):
        return self.fixed.size

    @property
    def noise_variance(self):
        try:
            return self.noise ** 2
        except OverflowError:
            raise NonFiniteInputError("noise: its variance overflows") from None

    @property
    def theta(self):
        return np.concatenate([*(c.kernel.log_params for c in self.components),
                               [np.log(self.noise)]])

    @property
    def param_names(self):
        return [f"c{i}.{n}" for i, c in enumerate(self.components)
                for n in c.kernel.param_names] + ["noise"]

    def with_theta(self, theta):
        """The model at log-parameters ``theta``; ``NonFiniteInputError``
        names the first parameter whose exp is not positive and finite."""
        theta = np.asarray(theta, dtype=float)
        *kernel_logs, log_noise = split_params(
            [c.kernel.n_params for c in self.components] + [1], theta)
        with np.errstate(over="ignore"):
            values = np.exp(theta)
        bad = ~((values > 0.0) & (values < np.inf))
        if np.any(bad):
            i = int(np.argmax(bad))
            raise NonFiniteInputError(
                f"{self.param_names[i]}: exp({theta[i]}) is not positive "
                "and finite")
        comps = [GpComponent(kernel=c.kernel.with_log_params(lp),
                             warp=c.warp, grid=c.grid)
                 for c, lp in zip(self.components, kernel_logs)]
        return GpModel(comps, noise=float(np.exp(log_noise[0])),
                       fixed=self.fixed)

    def free_indices(self):
        return np.flatnonzero(~self.fixed)


def build_operator(model, x):
    """Matrix-free warpSKI operator for the model at data points ``x``."""
    x = np.asarray(x, dtype=float)
    n = x.shape[0]
    comps = [build_component(c.kernel, c.warp, c.grid, x)
             for c in model.components]
    return MixtureOperator(comps, model.noise_variance, n)


def dense_mixture_matrix(model, x):
    """Dense exact kernel sum_i k_i(phi_i(x), phi_i(x')) + sigma^2 I."""
    x = np.asarray(x, dtype=float)
    n = x.shape[0]
    out = np.zeros((n, n))
    for c in model.components:
        z = warp_points(c.warp, x, c.grid.ndim)
        out += dense_matrix(c.kernel, z)
    out += model.noise_variance * np.eye(n)
    return out


def _dense_cholesky(model, x):
    """``cho_factor`` of the dense kernel, or NotPositiveDefiniteError."""
    try:
        return scipy.linalg.cho_factor(dense_mixture_matrix(model, x),
                                       lower=True)
    except scipy.linalg.LinAlgError as err:
        raise NotPositiveDefiniteError(
            f"dense kernel factorization failed ({err}); consider adding "
            "jitter to the noise variance") from err


def exact_nlml(model, x, y, with_gradient=True):
    """Dense-oracle negative log marginal likelihood (and gradient).

    Includes the conventional 0.5 * n * log(2 pi) constant so exact and
    approximate values are directly comparable. Gradients are with
    respect to the log-parameters in ``model.theta`` order.
    """
    y = np.asarray(y, dtype=float)
    n = y.size
    cho = _dense_cholesky(model, x)
    alpha = scipy.linalg.cho_solve(cho, y)
    logdet = 2.0 * float(np.sum(np.log(np.diag(cho[0]))))
    value = 0.5 * (float(y @ alpha) + logdet + n * LOG_2PI)
    if not with_gradient:
        return value, None
    kinv = scipy.linalg.cho_solve(cho, np.eye(n))
    grad = [0.5 * (float(np.sum(kinv * dk)) - float(alpha @ dk @ alpha))
            for c in model.components
            for dk in c.kernel.grad(pairwise_lags(
                c.kernel, warp_points(c.warp, x, c.grid.ndim)))]
    s2 = model.noise_variance
    grad.append(0.5 * (2.0 * s2 * float(np.trace(kinv))
                       - 2.0 * s2 * float(alpha @ alpha)))
    return value, np.array(grad)


def _check_y(x, y):
    """``y`` as floats; it must have shape (n,) for the n points ``x``."""
    y = np.asarray(y, dtype=float)
    if y.shape != np.shape(x)[:1]:
        raise DimensionMismatchError(f"y: shape {y.shape}, want ({len(x)},)")
    return y


def _log_divided_difference(vals):
    """Loewner matrix of log: (log a - log b) / (a - b), 1/a on the diagonal."""
    a, b = vals[:, None], vals[None, :]
    diff = a - b
    close = np.abs(diff) <= 1e-12 * np.maximum(a, b)
    safe = np.where(close, 1.0, diff)
    return np.where(close, 2.0 / (a + b), (np.log(a) - np.log(b)) / safe)


# Eigenvalues of G = diag(u) Phi diag(u) at or below this fraction of the
# largest carry no gradient. Phi, the Loewner matrix of log on the Ritz
# values, is PSD, and its spectrum decays geometrically (Beckermann &
# Townsend, SIAM J. Matrix Anal. Appl. 2017): on numeric2d-grad and
# separation at seed 301, 12-13 of 30 eigenvalues lie above it at 30 steps,
# and 19-20 of 120 at 120 steps, and the free gradient moved by under 1e-12
# relative against forms on all k columns (seeds 301 and 302).
GRADIENT_RANK_RTOL = 1e-18


def _probe_trace_gradient(op, free, basis, vals, vecs):
    """One probe's trace-term gradient over ``free``, consistent with its
    quadrature ||z||^2 e_1^T log(T) e_1 (||z||^2 = n for a Rademacher z).

    With T = V diag(vals) V^T, u = V^T e_1 and the Loewner matrix Phi of
    log on ``vals``, the Daleckii-Krein derivative of that quadrature in
    direction dK, with the Lanczos ``basis`` Q held fixed, is
    n tr(V^T B V G) for B = Q^T dK Q and G = diag(u) Phi diag(u). G is
    PSD, so with its eigenpairs (mu_r, S_r) above ``GRADIENT_RANK_RTOL``
    mu_max this is n sum_r mu_r (X^T dK X)_rr for the orthonormal
    X = Q V S_r: the forms are taken on r columns, not k, and
    X^T K X = S_r^T diag(vals) S_r.
    """
    mu, s = np.linalg.eigh(vecs[0, :, None] * _log_divided_difference(vals)
                           * vecs[0, :])
    keep = mu > GRADIENT_RANK_RTOL * mu[-1]
    mu, s = mu[keep], s[:, keep]
    forms = op.derivative_forms(free, basis @ (vecs @ s), (s.T * vals) @ s)
    return float(op.n) * np.array([np.diag(form) @ mu for form in forms])


def approx_nlml(model, x, y, n_probes=20, seed=0, cg_tol=1e-8,
                lanczos_steps=30, with_gradient=True, operator=None):
    """Approximate NLML via CG and stochastic Lanczos quadrature.

    Deterministic given ``seed``. The data term comes from one CG solve.
    One pass of :func:`slq_probes` over ``n_probes`` Rademacher probes of
    ``lanczos_steps`` steps adds each probe's quadrature to the log-det.
    With ``with_gradient`` it holds one reorthogonalized Lanczos basis at
    a time and adds the probe's projected trace term to the gradient, its
    forms taken on the basis directions that carry it and, for an
    amplitude where ``MixtureOperator.derivative_forms`` can, from the
    probe's T: the derivative of the seeded estimate itself, consistent
    with finite differences of the value. Without, one basis-free Lanczos
    recurrence advances all probes together. Only ``model.free_indices()``
    are differentiated; fixed entries are exactly 0, the gradient of the
    objective ``fit`` minimises. Returns ``(value, gradient or None,
    diagnostics)``. An ``n_probes`` or ``lanczos_steps`` that is not an
    integer >= 1 raises ``ConfigError``.
    """
    for name, count in (("n_probes", n_probes),
                        ("lanczos_steps", lanczos_steps)):
        if not (np.issubdtype(type(count), np.integer) and count > 0):
            raise ConfigError(f"{name}: must be a positive integer")
    y = _check_y(x, y)
    n = y.size
    op = operator if operator is not None else build_operator(model, x)
    probes = rademacher_probes(n, n_probes, seed)
    rep = cg_solve(op.matvec, y, tol=cg_tol)
    free = model.free_indices()
    logdet = 0.0
    trace_term = np.zeros(free.size)
    for factor, vals, vecs, quadrature in slq_probes(
            op.matvec, probes, lanczos_steps, keep_basis=with_gradient):
        logdet += quadrature
        if with_gradient:
            trace_term += _probe_trace_gradient(op, free, factor.basis,
                                                vals, vecs)
        del factor  # its basis goes before the next probe's run starts
    logdet /= n_probes
    value = 0.5 * (float(y @ rep.x) + logdet + n * LOG_2PI)
    diagnostics = {
        "cg_iterations": rep.iterations,
        "cg_converged": rep.converged,
        "cg_residual": rep.residual,
        "logdet": logdet,
    }
    if not with_gradient:
        return value, None, diagnostics
    data_term = np.array([-float(rep.x @ op.derivative_matvec(idx, rep.x))
                          for idx in free])
    grad = np.zeros(op.n_params)
    grad[free] = 0.5 * (data_term + trace_term / n_probes)
    return value, grad, diagnostics


@dataclass
class FitResult:
    """Fitted model, best objective value and the run's record.

    ``cg_unconverged`` counts the evaluations whose CG solve for the data
    term stopped short of ``cg_tol``.
    """
    model: "GpModel"
    value: float
    trace: list
    n_evaluations: int
    flag: str
    cg_unconverged: int = 0


def _check_finite(name, values):
    """Raise naming ``name`` and the first point index holding nan/inf."""
    bad = ~np.isfinite(np.atleast_1d(np.asarray(values, dtype=float)))
    if np.any(bad):
        index = int(np.argmax(bad.reshape(bad.shape[0], -1).any(axis=1)))
        raise NonFiniteInputError(f"{name}: non-finite value at index {index}")


def fit(model, x, y, max_steps=100, seed=0, n_probes=20, cg_tol=1e-2,
        lanczos_steps=30):
    """Learn free hyperparameters by quasi-Newton NLML minimization.

    The objective is :func:`approx_nlml` with its projected gradient. The
    probe seed is frozen for the whole fit, so the stochastic objective
    is a deterministic surrogate. Fixed-masked parameters never change.
    Non-finite ``x`` or ``y`` raise ``NonFiniteInputError``. Returns the
    best-so-far model even when the line search fails, and the start
    model with ``value=nan`` and flag ``"no_finite_evaluation"`` when no
    evaluation was finite and positive definite.
    """
    _check_finite("x", x)
    _check_finite("y", _check_y(x, y))
    free = model.free_indices()
    if free.size == 0:
        return FitResult(model=model, value=np.nan, trace=[],
                         n_evaluations=0, flag="no_free_parameters")
    theta0 = model.theta
    state = {"evals": 0, "trace": [], "cg_unconverged": 0}

    def objective_fn(free_theta):
        theta = theta0.copy()
        theta[free] = free_theta
        try:
            value, grad, diag = approx_nlml(
                model.with_theta(theta), x, y, n_probes=n_probes, seed=seed,
                cg_tol=cg_tol, lanczos_steps=lanczos_steps)
            state["cg_unconverged"] += not diag["cg_converged"]
        except (NotPositiveDefiniteError, NonFiniteInputError):
            # numerically indefinite or overflowing at this point; make the
            # line search back off rather than aborting the whole fit
            state["evals"] += 1
            return 1e30, np.zeros(free.size)
        state["evals"] += 1
        if not np.isfinite(value):
            return 1e30, np.zeros(free.size)
        state["trace"].append((theta.copy(), float(value)))
        return value, grad[free]

    result = scipy.optimize.minimize(
        objective_fn, theta0[free], jac=True, method="L-BFGS-B",
        options={"maxiter": max_steps})
    if not state["trace"]:
        return FitResult(model=model, value=np.nan, trace=state["trace"],
                         n_evaluations=state["evals"],
                         flag="no_finite_evaluation",
                         cg_unconverged=state["cg_unconverged"])
    best_theta, best_value = min(state["trace"], key=lambda rec: rec[1])
    flag = "converged" if result.success else f"stopped: {result.message}"
    return FitResult(model=model.with_theta(best_theta), value=best_value,
                     trace=state["trace"], n_evaluations=state["evals"],
                     flag=flag, cg_unconverged=state["cg_unconverged"])


@dataclass
class SeparationResult:
    """Per-component posterior means at the training inputs."""
    means: list
    residual: np.ndarray
    cg_report: CgReport


def separate(model, x, y, cg_tol=5e-3, operator=None):
    """Posterior mean of each mixture component at the training points.

    Solves (sum_i K_i + sigma^2 I) alpha = y once by CG, then forms
    K_b W_b^T alpha once; component i's mean is W_i times its block. The
    identity sum_j mean_j + sigma^2 alpha = y holds to CG tolerance.
    """
    y = _check_y(x, y)
    op = operator if operator is not None else build_operator(model, x)
    rep = cg_solve(op.matvec, y, tol=cg_tol)
    u = op.inducing(rep.x)
    means = [c.weights.matvec(u[block])
             for c, block in zip(op.components, op.blocks)]
    residual = y - sum(means) - op.noise_variance * rep.x
    return SeparationResult(means=means, residual=residual, cg_report=rep)


def predict_mean(model, x, alpha, x_star):
    """Posterior mixture mean at test points using fresh interpolation rows.

    ``alpha`` is the CG solution at the training points ``x``. Test
    points must fall inside each component grid's stencil-safe region.
    """
    alpha = np.asarray(alpha, dtype=float)
    x_star = np.asarray(x_star, dtype=float)
    op = build_operator(model, x)
    u = op.inducing(alpha)
    per_component = [interpolation_weights(c.grid, warp_points(
        c.warp, x_star, c.grid.ndim)).matvec(u[block])
        for c, block in zip(op.components, op.blocks)]
    return sum(per_component, np.zeros(x_star.shape[0])), per_component


@dataclass
class PriorSample:
    """A structured prior draw with per-component latents and noisy targets."""
    latents: list
    latent: np.ndarray
    y: np.ndarray


def sample_prior(model, x, seed):
    """Draw from the approximate prior through per-axis square roots.

    Each component draws u ~ N(0, K_UU), one ``structured.toeplitz_root``
    per axis applied to white noise, and interpolates f = W u to the data
    points with its ``weights``; targets add noise at the model's level.
    """
    rng = np.random.default_rng(seed)
    x = np.asarray(x, dtype=float)
    n = x.shape[0]
    latents = []
    for c in model.components:
        comp = build_component(c.kernel, c.warp, c.grid, x)
        roots, widths = zip(*[
            toeplitz_root(kd.eval, ax, d) for d, ((kd, _), ax)
            in enumerate(zip(comp.axis_kernels, c.grid.axes))])
        u = mode_products(rng.standard_normal(widths), roots).reshape(-1)
        latents.append(comp.weights.matvec(u))
    latent = np.sum(latents, axis=0) if latents else np.zeros(n)
    y = latent + model.noise * rng.standard_normal(n)
    return PriorSample(latents=latents, latent=latent, y=y)


def exact_separation_means(model, x, y):
    """Dense-oracle posterior component means (kernel-swap identity)."""
    y = np.asarray(y, dtype=float)
    alpha = scipy.linalg.cho_solve(_dense_cholesky(model, x), y)
    means = [dense_matrix(c.kernel, warp_points(c.warp, x, c.grid.ndim))
             @ alpha for c in model.components]
    return means, alpha
