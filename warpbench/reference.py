"""A fixed reference computation that measures the machine's current speed.

On a shared host the same evaluation can take 3 s in one minute and 5 s
the next, in one process. The benchmark therefore times this kernel right
before and right after every timed operation and reports the operation's
time in units of the kernel's time: the machine's speed cancels out, the
program's cost does not.

The kernel uses numpy and scipy only, never warpski, so no change to the
library moves it. Its work mirrors what the workloads spend their time on:
real FFTs of embedded circulants along both axes of a grid, a sparse
interpolation matrix and its transpose on a block of columns, and
Lanczos-style loops of single-vector operations with full
reorthogonalization, on a short and on a long vector.
"""

from __future__ import annotations

import time

import numpy as np
import scipy.fft
import scipy.sparse


class Reference:
    """Inputs of the reference kernel, built once; ``time()`` runs it.

    Two halves of about equal time: block work on a 2-D grid (FFTs and a
    sparse product on many columns at once), and Lanczos-style loops on
    one vector at a time through 1-D sparse-Toeplitz-sparse operators,
    where per-call overhead counts as much as arithmetic: a short vector
    with a long recurrence, and a long vector whose basis outgrows the
    core's caches.
    """

    GRID = (100, 100)
    COLUMNS = 20
    N_SPARSE = 10_000
    NNZ_PER_ROW = 16
    BLOCK_REPEATS = 5
    # (vector length n, Toeplitz size m, Lanczos steps, repeats)
    VECTOR_LOOPS = ((2_000, 1_024, 200, 1), (20_000, 2_048, 30, 3))

    def __init__(self, seed=0):
        rng = np.random.default_rng(seed)
        self.block = rng.standard_normal((*self.GRID, self.COLUMNS))
        self.spectra = [np.abs(rng.standard_normal(g + 1))
                        for g in self.GRID]
        self.interp = _sparse(rng, self.N_SPARSE, self.GRID[0] * self.GRID[1],
                              self.NNZ_PER_ROW)
        self.interp_t = self.interp.T.tocsr()
        self.columns = rng.standard_normal((self.N_SPARSE, self.COLUMNS))
        self.loops = []
        for n, m, steps, repeats in self.VECTOR_LOOPS:
            w = _sparse(rng, n, m, 4)
            self.loops.append((w, w.T.tocsr(),
                               np.abs(rng.standard_normal(m + 1)),
                               rng.standard_normal(n), steps, repeats))

    def _block_half(self):
        for _ in range(self.BLOCK_REPEATS):
            a = self.block
            for axis, spectrum in enumerate(self.spectra):
                a = _toeplitz(a, axis, spectrum)
            v = self.interp @ (self.interp_t @ self.columns)
        return float(a[0, 0, 0] + v[0, 0])

    def _vector_half(self):
        total = 0.0
        for w1, w1_t, spectrum, start, steps, repeats in self.loops:
            m = w1.shape[1]
            basis = np.empty((steps + 1, start.size))
            for _ in range(repeats):
                q = start / np.linalg.norm(start)
                basis[0] = q
                for k in range(steps):
                    u = scipy.fft.rfft(w1_t @ q, n=2 * m)
                    w = w1 @ scipy.fft.irfft(u * spectrum, n=2 * m)[:m]
                    w += q
                    w -= basis[:k + 1].T @ (basis[:k + 1] @ w)
                    q = w / np.linalg.norm(w)
                    basis[k + 1] = q
            total += basis[-1, 0]
        return float(total)

    def run(self):
        """The kernel itself; returns a checksum so no step is skipped."""
        return self._block_half() + self._vector_half()

    def time(self):
        """Seconds one run of the kernel takes now."""
        t0 = time.perf_counter()
        self.run()
        return time.perf_counter() - t0


def _sparse(rng, rows, cols, per_row):
    """A random CSR matrix with ``per_row`` nonzeros in every row."""
    r = np.repeat(np.arange(rows), per_row)
    c = rng.integers(0, cols, r.size)
    return scipy.sparse.csr_matrix((rng.random(r.size), (r, c)),
                                   shape=(rows, cols))


def _toeplitz(a, axis, spectrum):
    """Embedded-circulant product of ``a`` along ``axis``."""
    n = a.shape[axis]
    f = scipy.fft.rfft(a, n=2 * n, axis=axis)
    shape = [1] * a.ndim
    shape[axis] = -1
    f *= spectrum.reshape(shape)
    out = scipy.fft.irfft(f, n=2 * n, axis=axis)
    return np.take(out, np.arange(n), axis=axis)
