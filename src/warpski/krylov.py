"""Matrix-free Krylov machinery: CG, Lanczos, stochastic Lanczos quadrature.

All routines access the operator only through a matvec callable and are
deterministic given their seeds.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .exceptions import NonFiniteInputError, NotPositiveDefiniteError


@dataclass
class CgReport:
    """Result of a conjugate-gradient solve."""
    x: np.ndarray
    iterations: int
    residual: float
    converged: bool


def cg_solve(apply, y, tol=1e-8, max_iter=None):
    """Linear conjugate gradients for a symmetric PSD operator, from x = 0.

    Stops when the relative residual ||Kx - y|| / ||y|| drops below
    ``tol``. ``max_iter`` defaults to 2n: in finite precision CG can need
    more than the n steps that suffice in exact arithmetic (about 1.3 n
    on small well-posed two-component models). On iteration exhaustion,
    on a non-finite right-hand side and when the curvature p^T K p or the
    residual turns non-positive or non-finite, the report carries
    ``converged=False`` (residual ``nan`` for a non-finite ``y``); the
    caller decides severity.
    """
    y = np.asarray(y, dtype=float)
    n = y.size
    if max_iter is None:
        max_iter = 2 * n
    ynorm = np.linalg.norm(y)
    if ynorm == 0.0:
        return CgReport(np.zeros(n), 0, 0.0, True)
    if not np.isfinite(ynorm):
        return CgReport(np.zeros(n), 0, float("nan"), False)
    x = np.zeros(n)
    r = y.copy()
    p = r.copy()
    rs = r @ r
    it = 0
    while it < max_iter:
        if np.sqrt(rs) / ynorm <= tol:
            return CgReport(x, it, float(np.sqrt(rs) / ynorm), True)
        kp = apply(p)
        denom = p @ kp
        if not 0.0 < denom < np.inf:
            break
        alpha = rs / denom
        x = x + alpha * p
        r = r - alpha * kp
        rs_new = r @ r
        if not np.isfinite(rs_new):
            break
        p = r + (rs_new / rs) * p
        rs = rs_new
        it += 1
    res = float(np.linalg.norm(y - apply(x)) / ynorm)
    return CgReport(x, it, res, res <= tol)


@dataclass
class ProbeSet:
    """Reproducible Rademacher probe vectors (entries in {-1, +1})."""
    count: int
    seed: int
    vectors: np.ndarray

    @classmethod
    def draw(cls, n, count, seed):
        rng = np.random.default_rng(seed)
        vectors = rng.integers(0, 2, size=(n, count)).astype(float) * 2.0 - 1.0
        return cls(count=count, seed=seed, vectors=vectors)


@dataclass
class LanczosFactor:
    """Lanczos tridiagonal and its ``(n, steps)`` basis.

    :func:`lanczos` always stores the basis; it is ``None`` only in a
    factor that a caller builds from the tridiagonal alone.
    """
    alphas: np.ndarray
    betas: np.ndarray
    basis: np.ndarray | None
    steps: int

    def ritz(self):
        """Eigenvalues of T and first components of its eigenvectors."""
        if not np.all(np.isfinite(np.r_[self.alphas, self.betas])):
            raise NonFiniteInputError("Lanczos T is not finite: K overflows")
        return scipy.linalg.eigh_tridiagonal(self.alphas, self.betas)


def lanczos(apply, start_vector, k):
    """Lanczos tridiagonalization with full reorthogonalization.

    Stops early on breakdown (beta <= 1e-12 |alpha_0|), which signals an
    invariant subspace and truncates the factor benignly.
    """
    v = np.asarray(start_vector, dtype=float)
    norm = np.linalg.norm(v)
    if norm == 0.0:
        raise ValueError("start vector must be nonzero")
    n = v.size
    k = min(int(k), n)
    basis = np.zeros((n, k))
    alphas = np.zeros(k)
    betas = np.zeros(max(k - 1, 0))
    basis[:, 0] = v / norm
    steps = 0
    for j in range(k):
        w = apply(basis[:, j])
        alphas[j] = basis[:, j] @ w
        w = w - alphas[j] * basis[:, j]
        if j > 0:
            w = w - betas[j - 1] * basis[:, j - 1]
        # full reorthogonalization, two passes
        active = basis[:, :j + 1]
        w = w - active @ (active.T @ w)
        w = w - active @ (active.T @ w)
        steps = j + 1
        if j == k - 1:
            break
        beta = np.linalg.norm(w)
        if beta <= 1e-12 * max(abs(alphas[0]), 1e-300):
            break
        betas[j] = beta
        basis[:, j + 1] = w / beta
    return LanczosFactor(
        alphas=alphas[:steps],
        betas=betas[:max(steps - 1, 0)],
        basis=basis[:, :steps],
        steps=steps)


def slq_probes(apply, probes, k):
    """Lanczos on one probe at a time, yielding ``(factor, vals, vecs, quad)``.

    ``vals, vecs`` are the Ritz pairs of the factor's tridiagonal T and
    ``quad`` = ||z||^2 e_1^T log(T) e_1 is the Gauss quadrature of
    z^T log(K) z. Only the current basis is held. Raises
    ``NotPositiveDefiniteError`` on a nonpositive Ritz value and
    ``NonFiniteInputError`` on a non-finite T.
    """
    for i in range(probes.count):
        z = probes.vectors[:, i]
        factor = lanczos(apply, z, k)
        vals, vecs = factor.ritz()
        if np.any(vals <= 0.0):
            raise NotPositiveDefiniteError(
                f"nonpositive Ritz value {vals.min():.3e}; the operator is "
                "not positive definite (consider a noise/jitter floor)")
        yield (factor, vals, vecs,
               float(z @ z) * float(vecs[0, :] ** 2 @ np.log(vals)))


def slq_logdet(apply, probes, k):
    """Stochastic Lanczos quadrature log|K|: the mean of the quadratures."""
    return sum(q for *_, q in slq_probes(apply, probes, k)) / probes.count
