"""Fast structured matrix primitives: Toeplitz and Kronecker operators.

Index-order convention: flattened grid indices are C-ordered, i.e. the
LAST listed dimension varies fastest. The same convention is used for
interpolation weight columns.
"""

from __future__ import annotations

import numpy as np
import scipy.fft
import scipy.linalg

from .exceptions import DimensionMismatchError, NotPositiveDefiniteError

PSD_RTOL = 1e-8

# Largest Toeplitz order applied as a dense matrix. FFT/dense times in ms
# on a 2-vCPU Xeon with one BLAS thread (best of 3): order 256 takes
# 0.025/0.013 on one column and 0.13/0.14 on 30; order 512 takes 0.034/0.066
# and 0.25/0.61; order 750 takes 1.1/1.6 on 50 probe columns, 3.1/5.0 on
# 200, and only on far wider blocks favours the dense product (72/58 on 3000).
DENSE_MAX_ORDER = 256


def as_operand(v, size):
    """``v`` as a float array of shape ``(size,)`` or ``(size, p)``."""
    v = np.asarray(v, dtype=float)
    if v.ndim not in (1, 2) or v.shape[0] != size:
        raise DimensionMismatchError(
            f"operand has shape {v.shape}, expected ({size},) or ({size}, p)")
    return v


class SymToeplitz:
    """Symmetric Toeplitz matrix given by its first column.

    A matrix of order at most ``DENSE_MAX_ORDER`` is stored dense and
    applied by a matrix product. A larger one runs in O(m log m) by
    embedding into a circulant of the next efficient FFT size >= 2m - 1;
    the transform of the embedding is cached at construction.
    """

    def __init__(self, first_column):
        c = np.asarray(first_column, dtype=float)
        if c.ndim != 1 or c.size == 0:
            raise DimensionMismatchError("first_column must be a 1-D array")
        self.first_column = c.copy()
        m = c.size
        self.shape = (m, m)
        if m <= DENSE_MAX_ORDER:
            self._dense = scipy.linalg.toeplitz(c)
            return
        self._dense = None
        length = scipy.fft.next_fast_len(2 * m - 1, real=True)
        emb = np.zeros(length)
        emb[:m] = c
        emb[length - m + 1:] = c[1:][::-1]
        self._len = length
        # kept complex: dropping its imaginary rounding moves CG's counts
        self._fft = scipy.fft.rfft(emb)

    def matmat(self, v):
        """Product with a vector or with the columns of a matrix."""
        m = self.shape[0]
        v = as_operand(v, m)
        if self._dense is not None:
            return self._dense @ v
        spec = scipy.fft.rfft(v.T, n=self._len)
        spec *= self._fft
        return scipy.fft.irfft(spec, n=self._len)[..., :m].T

    matvec = matmat

    def dense(self):
        return scipy.linalg.toeplitz(self.first_column)


def mode_products(x, maps):
    """Apply ``maps[d]``, which may resize the axis, along axis d of ``x``."""
    for d, f in enumerate(maps):
        x = np.moveaxis(x, d, 0) if d else x
        y = f(x.reshape(x.shape[0], -1)).reshape((-1,) + x.shape[1:])
        x = np.moveaxis(y, 0, d) if d else y
    return x


def toeplitz_root(kernel, axis, index):
    """``(root, width)``: for white noise ``e`` of shape ``(width, k)``, each
    column of ``root(e)`` has covariance ``kernel(axis_i - axis_j)``.

    Above order m = ``DENSE_MAX_ORDER`` the root is circulant embedding
    (Wood & Chan, JCGS 1994): the first m rows of ``C^{1/2} e``, C the
    circulant of ``kernel`` at 2s(m - 1) lags, for the first s of 1, 2, 4
    whose spectrum is PSD. Up to that order, or when no such embedding is,
    it is the eigen square root of the dense factor. Eigenvalues above
    ``-PSD_RTOL * max`` are clipped to 0; a lower one in the dense factor
    raises ``NotPositiveDefiniteError`` naming factor ``index``.
    """
    m = axis.size
    for width in (2 * s * (m - 1) for s in (1, 2, 4) if m > DENSE_MAX_ORDER):
        col = kernel(np.ptp(axis) / (m - 1) * np.arange(width // 2 + 1))
        vals = scipy.fft.rfft(np.concatenate([col, col[-2:0:-1]])).real
        if vals.min() >= -PSD_RTOL * vals.max():
            scale = np.sqrt(np.maximum(vals, 0.0))[:, None]
            return (lambda e: scipy.fft.irfft(scale * scipy.fft.rfft(
                e, axis=0), n=width, axis=0)[:m]), width
    vals, vecs = np.linalg.eigh(scipy.linalg.toeplitz(kernel(axis - axis[0])))
    if vals.min() >= -PSD_RTOL * vals.max():
        return (vecs * np.sqrt(np.maximum(vals, 0.0))).__matmul__, m
    raise NotPositiveDefiniteError(
        f"factor {index} (order {m}) has eigenvalue {vals.min():.3e} below "
        f"-{PSD_RTOL:g} * max")


class KronOperator:
    """Kronecker product of per-dimension ``SymToeplitz`` factors.

    MVMs are computed by sequential mode-d tensor contractions. The
    flattened index order is C-order (last factor fastest).
    """

    def __init__(self, factors):
        factors = list(factors)
        if not factors:
            raise DimensionMismatchError("need at least one factor")
        self.factors = factors
        self.sizes = tuple(f.shape[0] for f in factors)
        n = int(np.prod(self.sizes))
        self.shape = (n, n)

    def matvec(self, v):
        v = as_operand(v, self.shape[0])
        return mode_products(v.reshape(self.sizes + (-1,)),
                             [f.matmat for f in self.factors]).reshape(v.shape)

    matmat = matvec

    def dense(self):
        out = self.factors[0].dense()
        for f in self.factors[1:]:
            out = np.kron(out, f.dense())
        return out
