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
    ``ConfigError``: at 1 or above x = 0 would pass as converged. ``apply``
    may return its argument, a view of it or one reused output buffer.
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
    x, step = np.zeros(n), np.empty(n)
    r, p = y.copy(), y.copy()
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
        x += np.multiply(alpha, p, out=step)
        r -= np.multiply(alpha, kp, out=step)
        rs_new = r @ r
        if not np.isfinite(rs_new):
            break
        np.add(r, np.multiply(rs_new / rs, p, out=p), out=p)
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

    ``alphas`` is ``(steps,)``, or ``(steps, p)`` for a block of p
    columns, and ``betas`` has one row fewer. ``basis`` is the ``(n,
    steps)`` orthonormal basis that :func:`lanczos` keeps with
    ``keep_basis=True``, and ``None`` otherwise.
    """
    alphas: np.ndarray
    betas: np.ndarray
    basis: np.ndarray | None
    steps: int

    def ritz(self):
        """Eigenvalues of T and first components of its eigenvectors,
        stacked per column for a block."""
        if self.alphas.ndim == 1:
            return scipy.linalg.eigh_tridiagonal(self.alphas, self.betas)
        pairs = map(scipy.linalg.eigh_tridiagonal, self.alphas.T, self.betas.T)
        return tuple(map(np.array, zip(*pairs)))


@np.errstate(over="ignore", invalid="ignore")
def lanczos(apply, start, k, keep_basis=True):
    """Lanczos tridiagonalization of ``apply`` from ``start``.

    One three-term recurrence runs on every column of an ``(n, p)`` start
    at once, one ``apply`` per step on an operand shaped like ``start``
    (``(n,)`` for a vector). The last step stops after its alpha. A column
    whose beta falls to 1e-12 |alpha_0| or below has reached an invariant
    subspace and freezes: its later alphas repeat its last, its later
    betas are 0, so its T keeps its quadrature and Ritz extremes. The run
    ends, truncated to its steps, once no column is live.

    Without ``keep_basis``, T loses the orthogonality of exact arithmetic
    (repeated Ritz values), but its Gauss quadrature e_1^T f(T) e_1 stays
    accurate in finite precision (Meurant & Strakos, Acta Numerica 2006).
    With it, from one vector, the basis is stored row-major, returned as
    ``(n, steps)``, and each new vector is reorthogonalized against it in
    one Gram-Schmidt pass, and in a second if the first left under
    1/sqrt(2) of its norm (Daniel, Gragg, Kaufman & Stewart, Math. Comp.
    1976). A block with ``keep_basis`` or a k below 1 raises
    ``ConfigError``, and a zero column ``ValueError``. A non-finite alpha
    or beta ends the run with ``NonFiniteInputError``, not a numpy warning.
    Each step writes only one new vector and ``q_prev``, so ``apply`` may
    alias its argument or its last output as in :func:`cg_solve`.
    """
    v = np.asarray(start, dtype=float)
    q = v.reshape(len(v), -1)
    zero = np.flatnonzero(~q.any(axis=0))
    if zero.size:
        raise ValueError(f"start column {zero[0]} must be nonzero")
    if keep_basis and v.ndim != 1:
        raise ConfigError(f"start: one basis is kept at a time, so the start "
                          f"must be one vector, got shape {v.shape}")
    if k < 1:
        raise ConfigError(f"k: need at least one step, got {k}")
    k = min(int(k), len(v))
    q = q / np.sqrt(_column_dots(q, q))
    alphas, betas = np.zeros((k, q.shape[1])), np.zeros((k - 1, q.shape[1]))
    basis = np.zeros((k, len(v))) if keep_basis else None
    proj = np.empty(len(v)) if keep_basis else None
    live = np.ones(q.shape[1], dtype=bool)
    for j in range(k):
        w = apply(q.reshape(v.shape)).reshape(q.shape)
        alphas[j] = np.where(live, _column_dots(q, w), alphas[j - 1])
        if not np.isfinite(alphas[j]).all():
            raise NonFiniteInputError(f"Lanczos alpha {j}: K overflows")
        if keep_basis:
            basis[j] = q[:, 0]
        if j == k - 1:
            break
        aq = alphas[j] * q  # the one new vector of the step
        w = np.subtract(w, aq, out=aq)
        if j:
            w -= np.multiply(betas[j - 1], q_prev, out=q_prev)
        beta = np.sqrt(_column_dots(w, w))
        for _ in range(2 if keep_basis else 0):
            w[:, 0] -= np.matmul(basis[:j + 1] @ w[:, 0], basis[:j + 1],
                                 out=proj)
            beta, before = np.sqrt(_column_dots(w, w)), beta
            if beta >= before / np.sqrt(2.0):
                break
        if not np.isfinite(beta).all():
            raise NonFiniteInputError(f"Lanczos beta {j}: K overflows")
        if not j:
            floor = 1e-12 * np.maximum(np.abs(alphas[0]), 1e-300)
        live &= beta > floor
        if not live.any():
            break
        betas[j] = np.where(live, beta, 0.0)
        w /= np.where(live, beta, np.inf)
        q_prev, q = q, w
    steps = j + 1
    return LanczosFactor(
        alphas[:steps].reshape((steps,) + v.shape[1:]),
        betas[:steps - 1].reshape((steps - 1,) + v.shape[1:]),
        None if basis is None else basis[:steps].T, steps)


def _column_dots(x, y):
    """``x[:, j] @ y[:, j]`` per column: a BLAS dot for one column, one
    einsum for a block, where a strided dot per column is slower."""
    return (x.T @ y)[0] if x.shape[1] == 1 else np.einsum("ij,ij->j", x, y)


def slq_probes(apply, probes, k, keep_basis=True):
    """Lanczos on each probe column, yielding ``(factor, vals, vecs, quad)``.

    ``vals, vecs`` are the Ritz pairs of the factor's tridiagonal T and
    ``quad`` = ||z||^2 e_1^T log(T) e_1 is the Gauss quadrature of
    z^T log(K) z. With ``keep_basis`` one basis is held at a time if the
    caller drops each factor before asking for the next; without, one
    :func:`lanczos` call advances all probes in about 10 n p floats
    (30 MB for 200 probes at n = 2,000 on grids of 764 and 2,115).
    Raises ``NotPositiveDefiniteError`` on a nonpositive Ritz value;
    :func:`lanczos` raises ``NonFiniteInputError`` on a non-finite T.
    """
    if keep_basis:
        factors = (lanczos(apply, z, k) for z in probes.T)
    else:
        block = lanczos(apply, probes, k, keep_basis=False)
        factors = (LanczosFactor(a, b, None, block.steps)
                   for a, b in zip(block.alphas.T, block.betas.T))
    for z in probes.T:
        factor = next(factors)
        vals, vecs = factor.ritz()
        if np.any(vals <= 0.0):
            raise NotPositiveDefiniteError(
                f"nonpositive Ritz value {vals.min():.3e}; the operator is "
                "not positive definite (consider a noise/jitter floor)")
        yield (factor, vals, vecs,
               float(z @ z) * float(vecs[0, :] ** 2 @ np.log(vals)))
        del factor  # not held while the next probe's basis is built


def slq_logdet(apply, probes, k):
    """Stochastic Lanczos quadrature log|K|: the mean of the quadratures."""
    return sum(q for *_, q in slq_probes(apply, probes, k)) / probes.shape[1]
