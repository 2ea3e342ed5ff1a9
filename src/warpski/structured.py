"""Fast structured matrix primitives: Toeplitz and Kronecker operators.

Index-order convention: flattened grid indices are C-ordered, i.e. the
LAST listed dimension varies fastest. The same convention is used for
interpolation weight columns; see ``INDEX_ORDER``.
"""

from __future__ import annotations

import numpy as np
import scipy.fft
import scipy.linalg

from .exceptions import DimensionMismatchError, NotPositiveDefiniteError

# Shared flattening convention for Kronecker factors and interpolation
# weight columns. "C" = row-major = last dimension fastest-varying.
INDEX_ORDER = "C"

PSD_RTOL = 1e-8

# Largest Toeplitz order applied as a dense matrix. FFT/dense times in ms
# on a 2-vCPU Xeon with one BLAS thread: order 256 takes 0.020/0.011 on one
# column and 0.11/0.11 on 30; order 512 takes 0.037/0.068 and 0.31/0.61.
# Wide blocks favour the dense product further (order 750 on 3000 columns:
# 100/48), but factors that large are 1-D grids applied to single columns.
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
        self._fft = scipy.fft.rfft(emb)

    def matmat(self, v):
        """Product with a vector or with the columns of a matrix."""
        m = self.shape[0]
        v = as_operand(v, m)
        if self._dense is not None:
            return self._dense @ v
        spec = scipy.fft.rfft(v, n=self._len, axis=0)
        spec *= self._fft.reshape((-1,) + (1,) * (v.ndim - 1))
        return scipy.fft.irfft(spec, n=self._len, axis=0)[:m]

    matvec = matmat

    def dense(self):
        return scipy.linalg.toeplitz(self.first_column)


def _apply_factor(f, mat):
    if isinstance(f, SymToeplitz):
        return f.matmat(mat)
    return np.asarray(f) @ mat


def _factor_dense(f):
    if isinstance(f, SymToeplitz):
        return f.dense()
    return np.asarray(f, dtype=float)


class KronOperator:
    """Kronecker product of square per-dimension operators.

    MVMs are computed by sequential mode-d tensor contractions. The
    flattened index order is C-order (last factor fastest), matching
    ``INDEX_ORDER``.
    """

    def __init__(self, factors):
        factors = list(factors)
        if not factors:
            raise DimensionMismatchError("need at least one factor")
        for f in factors:
            s = f.shape
            if len(s) != 2 or s[0] != s[1]:
                raise DimensionMismatchError("factors must be square")
        self.factors = factors
        self.sizes = tuple(f.shape[0] for f in factors)
        n = int(np.prod(self.sizes))
        self.shape = (n, n)

    def matvec(self, v):
        v = as_operand(v, self.shape[0])
        x = v.reshape(self.sizes + (-1,))
        for d, f in enumerate(self.factors):
            x = np.moveaxis(x, d, 0)
            x = _apply_factor(f, x.reshape(x.shape[0], -1)).reshape(x.shape)
            x = np.moveaxis(x, 0, d)
        return x.reshape(v.shape)

    matmat = matvec

    def sqrt(self):
        """KronOperator A with A A^T = K, from per-factor eigen square roots.

        Each factor is densified and decomposed; eigenvalues are clipped
        at 0. A factor with an eigenvalue below ``-PSD_RTOL`` times its
        largest raises ``NotPositiveDefiniteError``.
        """
        roots = []
        for i, f in enumerate(self.factors):
            a = _factor_dense(f)
            vals, vecs = np.linalg.eigh(0.5 * (a + a.T))
            top = max(vals.max(), 0.0)
            if vals.min() < -PSD_RTOL * max(top, 1e-300):
                raise NotPositiveDefiniteError(
                    f"factor {i} (order {a.shape[0]}) has eigenvalue "
                    f"{vals.min():.3e} below -{PSD_RTOL:g} * max")
            roots.append(vecs * np.sqrt(np.maximum(vals, 0.0))[None, :])
        return KronOperator(roots)

    def dense(self):
        out = _factor_dense(self.factors[0])
        for f in self.factors[1:]:
            out = np.kron(out, _factor_dense(f))
        return out
