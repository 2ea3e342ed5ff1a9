"""Matrix-free Krylov machinery: CG, Lanczos, stochastic Lanczos quadrature.

All routines access the operator only through a matvec callable and are
deterministic given their seeds.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .exceptions import (ConfigError, NonFiniteInputError,
                         NotPositiveDefiniteError)


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
    caller decides severity. A ``tol`` outside [0, 1) raises
    ``ConfigError``: at 1 or above x = 0 would pass as converged.
    """
    if not 0.0 <= tol < 1.0:
        raise ConfigError(f"tol: must lie in [0, 1), got {tol}")
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


def rademacher_probes(n, count, seed):
    """``(n, count)`` reproducible Rademacher probes (entries in {-1, +1})."""
    rng = np.random.default_rng(seed)
    return rng.integers(0, 2, size=(n, count)).astype(float) * 2.0 - 1.0


@dataclass
class LanczosFactor:
    """Lanczos tridiagonal and, on the reorthogonalized path, its basis.

    ``basis`` is the ``(n, steps)`` orthonormal basis that
    :func:`lanczos` keeps with ``keep_basis=True``, and ``None`` on its
    basis-free path or in a factor built from the tridiagonal alone.
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


def lanczos(apply, start_vector, k, keep_basis=True):
    """Lanczos tridiagonalization of ``apply`` from ``start_vector``.

    With ``keep_basis`` the basis is stored row-major, carried as ``(n,
    steps)``, and each new vector is reorthogonalized against it in one
    Gram-Schmidt pass, and in a second if the first left under 1/sqrt(2)
    of its norm (Daniel, Gragg, Kaufman & Stewart, Math. Comp. 1976).
    Without, only the three-term recurrence runs: T then loses the
    orthogonality of exact arithmetic (repeated Ritz values), but its Gauss
    quadrature e_1^T f(T) e_1 stays accurate in finite precision (Meurant
    & Strakos, Acta Numerica 2006). The last step stops after its alpha.
    Stops early on breakdown (beta <= 1e-12 |alpha_0|), which signals an
    invariant subspace and truncates the factor benignly.
    """
    v = np.asarray(start_vector, dtype=float)
    norm = np.linalg.norm(v)
    if norm == 0.0:
        raise ValueError("start vector must be nonzero")
    k = min(int(k), v.size)
    basis = np.zeros((k, v.size)) if keep_basis else None
    alphas, betas = [], []
    q = v / norm
    for j in range(k):
        w = apply(q)
        alphas.append(q @ w)
        if keep_basis:
            basis[j] = q
        if j == k - 1:
            break
        w = w - alphas[j] * q
        if betas:
            w -= betas[-1] * q_prev
        beta = np.linalg.norm(w)
        for _ in range(2 if keep_basis else 0):
            w -= (basis[:j + 1] @ w) @ basis[:j + 1]
            beta, before = np.linalg.norm(w), beta
            if beta >= before / np.sqrt(2.0):
                break
        if beta <= 1e-12 * max(abs(alphas[0]), 1e-300):
            break
        betas.append(beta)
        q_prev, q = q, w / beta
    steps = len(alphas)
    return LanczosFactor(np.array(alphas), np.array(betas),
                         basis[:steps].T if keep_basis else None, steps)


def slq_probes(apply, probes, k, keep_basis=True):
    """Lanczos on each probe column, yielding ``(factor, vals, vecs, quad)``.

    ``vals, vecs`` are the Ritz pairs of the factor's tridiagonal T and
    ``quad`` = ||z||^2 e_1^T log(T) e_1 is the Gauss quadrature of
    z^T log(K) z. ``keep_basis`` is passed to :func:`lanczos`; at most
    the current basis is held. Raises
    ``NotPositiveDefiniteError`` on a nonpositive Ritz value and
    ``NonFiniteInputError`` on a non-finite T.
    """
    for z in probes.T:
        factor = lanczos(apply, z, k, keep_basis=keep_basis)
        vals, vecs = factor.ritz()
        if np.any(vals <= 0.0):
            raise NotPositiveDefiniteError(
                f"nonpositive Ritz value {vals.min():.3e}; the operator is "
                "not positive definite (consider a noise/jitter floor)")
        yield (factor, vals, vecs,
               float(z @ z) * float(vecs[0, :] ** 2 @ np.log(vals)))


def slq_logdet(apply, probes, k):
    """Stochastic Lanczos quadrature log|K|: the mean of the quadratures."""
    return sum(q for *_, q in slq_probes(apply, probes, k)) / probes.shape[1]
