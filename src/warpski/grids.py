"""Inducing grids and sparse local-cubic interpolation weights.

Every grid is built from an equispaced lattice, ``np.linspace`` over
each axis's bounds and count, so its spacing holds by construction: on a
plain grid the lattice is the grid itself, on a warped grid
(:func:`warped_grid`) each axis is its axis warp's inverse of the
lattice axis. Interpolation uses
the Keys cubic convolution kernel (a = -0.5) on that lattice, giving
exactly 4 nonzeros per row and dimension (4^D combined). Rows sum to one.
"""

from __future__ import annotations

import functools
import numbers

import numpy as np
import scipy.sparse

from .exceptions import (DimensionMismatchError, GridError,
                         InterpolationRegionError)
from .structured import as_operand
from .warping import ElementwiseWarp, Warp

MIN_AXIS_COUNT = 8  # leaves at least one cell inside the covering margin
COVER_CELLS = 3  # box margin in cells per side; the stencil needs more than 1


def _axis_count(d, count):
    """``count`` if it is an integer >= ``MIN_AXIS_COUNT``, else GridError."""
    if not (isinstance(count, numbers.Integral) and count >= MIN_AXIS_COUNT):
        raise GridError(f"axis {d}: count must be an integer >= "
                        f"{MIN_AXIS_COUNT}, got {count!r}")
    return count


class InducingGrid:
    """Cartesian product of per-dimension 1-D inducing coordinate arrays.

    Lattice axis d is ``np.linspace(lo, hi, counts[d])`` for ``bounds[d] =
    (lo, hi)``, kept as ``warped_axes``: finite ``lo < hi`` and an integer
    count of at least ``MIN_AXIS_COUNT``, or ``GridError`` naming the axis.
    Without ``axis_warps`` the grid's ``axes`` are the lattice. With one
    1-D warp per dimension, ``axes[d]`` is ``axis_warps[d].inverse`` of
    the lattice axis, which must come out strictly increasing.
    """

    def __init__(self, bounds, counts, axis_warps=None):
        self.bounds = tuple(tuple(map(float, b)) for b in bounds)
        if len(counts) != len(self.bounds):
            raise DimensionMismatchError("counts needs one entry per axis")
        for d, b in enumerate(self.bounds):
            if len(b) != 2 or not -np.inf < b[0] < b[1] < np.inf:
                raise GridError(f"axis {d}: bounds need finite lo < hi, "
                                f"got {b}")
        self.warped_axes = self.axes = tuple(
            np.linspace(lo, hi, _axis_count(d, count))
            for d, ((lo, hi), count) in enumerate(zip(self.bounds, counts)))
        self.axis_warps = None if axis_warps is None else tuple(axis_warps)
        if self.axis_warps is None:
            return
        if len(self.axis_warps) != self.ndim:
            raise DimensionMismatchError("axis_warps needs one warp per axis")
        self.axes = tuple(np.asarray(w.inverse(a), dtype=float)
                          for w, a in zip(self.axis_warps, self.warped_axes))
        for d, a in enumerate(self.axes):
            if not np.all(np.diff(a) > 0.0):
                raise GridError(f"warped axis {d} is not strictly increasing")

    @property
    def ndim(self):
        return len(self.axes)

    @property
    def shape(self):
        return tuple(a.size for a in self.axes)

    @property
    def total_size(self):
        return int(np.prod(self.shape))


def grid_covering_box(data_box, counts):
    """Equispaced grid whose axes cover ``data_box`` with a margin.

    Each axis spans the box plus ``COVER_CELLS`` extra grid cells per
    side, using ``counts[d]`` points: one integer per box axis
    (``DimensionMismatchError``, or ``GridError`` naming the axis).
    """
    if len(counts) != len(data_box):
        raise DimensionMismatchError("counts needs one entry per box axis")
    bounds = []
    for d, ((lo, hi), count) in enumerate(zip(data_box, counts)):
        h = (float(hi) - float(lo)) / (_axis_count(d, count) - 1
                                       - 2 * COVER_CELLS)
        bounds.append((lo - COVER_CELLS * h, hi + COVER_CELLS * h))
    return InducingGrid(bounds, counts)


def warped_grid(grid, warp):
    """Map an equispaced grid in warped space to input space, Ubar -> Uhat.

    Axes are mapped through the per-dimension inverse warp; the original
    warped-space lattice is retained for stencil arithmetic.
    """
    if not isinstance(warp, Warp):
        raise TypeError("warp must be a Warp")
    if grid.ndim == 1:
        if warp.dim != 1:
            raise DimensionMismatchError("1-D grid needs a 1-D warp")
        comps = [warp]
    elif isinstance(warp, ElementwiseWarp) and warp.dim == grid.ndim:
        comps = warp.warps
    else:
        raise DimensionMismatchError(
            "grid warping needs an elementwise warp matching the grid dimension")
    return InducingGrid(grid.bounds, grid.shape, axis_warps=comps)


class InterpWeights:
    """Sparse local-cubic interpolation weights (n rows, m columns).

    Exactly ``4^D`` nonzeros per row; each row sums to one. Column order
    is the C-order flattening of the grid (last dimension fastest).
    """

    def __init__(self, matrix):
        self.matrix = matrix.tocsr()

    @functools.cached_property
    def matrix_t(self):
        """CSR copy of ``matrix.T``, built on the first ``rmatvec``."""
        return self.matrix.T.tocsr()

    @property
    def shape(self):
        return self.matrix.shape

    def matvec(self, v):
        return self.matrix @ as_operand(v, self.shape[1])

    def rmatvec(self, v):
        return self.matrix_t @ as_operand(v, self.shape[0])

    def dense(self):
        return self.matrix.toarray()


def _keys_weights(t):
    """Keys cubic-convolution weights (a = -0.5) for stencil offsets
    (-1, 0, 1, 2), at normalized in-cell position t in [0, 1]."""
    t = np.asarray(t, dtype=float)
    t2 = t * t
    t3 = t2 * t
    w_m1 = -0.5 * t3 + t2 - 0.5 * t
    w_0 = 1.5 * t3 - 2.5 * t2 + 1.0
    w_p1 = -1.5 * t3 + 2.0 * t2 + 0.5 * t
    w_p2 = 0.5 * t3 - 0.5 * t2
    return np.stack([w_m1, w_0, w_p1, w_p2], axis=-1)


def _weights_1d(grid, d, x):
    """Stencil indices (n,) and Keys weights (n, 4) along dimension d.

    The cell is located on the input-space axis (boundary ties go left);
    the in-cell offset is taken on the equispaced lattice, after the axis
    warp on a warped grid.
    """
    axis, lattice = grid.axes[d], grid.warped_axes[d]
    m = axis.size
    cell = np.searchsorted(axis, x, side="left") - 1
    bad = (cell < 1) | (cell > m - 3)
    if np.any(bad):
        idx = int(np.argmax(bad))
        raise InterpolationRegionError(
            f"point index {idx} (value {x[idx]:.6g}) outside the stencil-safe "
            f"region of axis {d}")
    z = x if grid.axis_warps is None else np.asarray(
        grid.axis_warps[d].forward(x), dtype=float)
    h = (lattice[-1] - lattice[0]) / (m - 1)
    return cell, _keys_weights((z - lattice[cell]) / h)


def interpolation_weights(grid, points):
    """Sparse interpolation matrix between ``points`` and the grid.

    Points must lie strictly inside the grid's stencil-safe interior.
    Per-dimension 4-point weights are tensor-product combined; MVM cost
    is linear in the number of points.
    """
    points = np.asarray(points, dtype=float)
    if grid.ndim == 1 and points.shape[1:] in ((), (1,)):
        points = points.reshape(-1, 1)
    if points.ndim != 2 or points.shape[1] != grid.ndim:
        raise DimensionMismatchError(
            f"points must have shape (n, {grid.ndim})")
    n = points.shape[0]
    shape = grid.shape
    cols = None
    weights = None
    for d in range(grid.ndim):
        cell, w = _weights_1d(grid, d, points[:, d])
        idx = cell[:, None] + np.arange(-1, 3)[None, :]
        if cols is None:
            cols = idx
            weights = w
        else:
            cols = (cols[:, :, None] * shape[d] + idx[:, None, :]).reshape(n, -1)
            weights = (weights[:, :, None] * w[:, None, :]).reshape(n, -1)
    nnz = weights.shape[1]
    indptr = np.arange(0, n * nnz + 1, nnz)
    mat = scipy.sparse.csr_matrix(
        (weights.ravel(), cols.ravel(), indptr),
        shape=(n, int(np.prod(shape))))
    return InterpWeights(mat)
