"""Inducing grids and sparse local-cubic interpolation weights.

Grids are rectilinear; each axis is strictly increasing. Interpolation
uses the Keys cubic convolution kernel (a = -0.5) on equispaced axes and
local cubic Lagrange weights on the 4-node stencil otherwise, giving
exactly 4 nonzeros per row and dimension (4^D combined). Rows sum to one.
"""

from __future__ import annotations

import functools

import numpy as np
import scipy.sparse

from .exceptions import (DimensionMismatchError, GridError,
                         InterpolationRegionError)
from .kernels import check_equispaced
from .structured import as_operand
from .warping import ElementwiseWarp, Warp

MIN_AXIS_COUNT = 8
MARGIN_CELLS = 2
COVER_CELLS = 3  # one cell of slack over the MARGIN_CELLS check


def _is_equispaced(axis):
    try:
        check_equispaced(axis)
        return True
    except Exception:
        return False


class InducingGrid:
    """Per-dimension 1-D inducing coordinate arrays (Cartesian product).

    When the grid was produced by :func:`warped_grid`, ``warped_axes``
    holds the original equispaced coordinates in warped space and ``warp``
    the map between the two views.
    """

    def __init__(self, axes, warped_axes=None, warp=None):
        axes = [np.asarray(a, dtype=float) for a in axes]
        for d, a in enumerate(axes):
            if a.ndim != 1 or a.size < MIN_AXIS_COUNT:
                raise GridError(
                    f"axis {d} needs at least {MIN_AXIS_COUNT} points, got {a.size}")
            if np.any(np.diff(a) <= 0.0):
                raise GridError(f"axis {d} must be strictly increasing")
        self.axes = tuple(axes)
        self.equispaced_flags = tuple(_is_equispaced(a) for a in axes)
        self.warped_axes = (tuple(np.asarray(a, dtype=float) for a in warped_axes)
                            if warped_axes is not None else None)
        self.warp = warp

    @property
    def ndim(self):
        return len(self.axes)

    @property
    def shape(self):
        return tuple(a.size for a in self.axes)

    @property
    def total_size(self):
        return int(np.prod(self.shape))


def build_grid(per_dim, data_box=None):
    """Build an equispaced inducing grid.

    ``per_dim`` is a list with one entry per dimension: either a mapping
    with keys ``min``, ``max``, ``count`` or an explicit coordinate array.
    If ``data_box`` (list of per-dimension ``(lo, hi)``) is given, each
    axis must extend at least ``MARGIN_CELLS`` grid cells beyond the box
    on both sides (cubic stencil support).
    """
    axes = []
    for d, spec in enumerate(per_dim):
        if isinstance(spec, dict):
            lo, hi, count = float(spec["min"]), float(spec["max"]), int(spec["count"])
            if count < MIN_AXIS_COUNT:
                raise GridError(
                    f"axis {d}: count {count} below required minimum {MIN_AXIS_COUNT}")
            if not lo < hi:
                raise GridError(f"axis {d}: min must be below max")
            axes.append(np.linspace(lo, hi, count))
        else:
            axes.append(np.asarray(spec, dtype=float))
    grid = InducingGrid(axes)
    if data_box is not None:
        if len(data_box) != grid.ndim:
            raise DimensionMismatchError("data_box dimension mismatch")
        for d, (blo, bhi) in enumerate(data_box):
            a = grid.axes[d]
            h = (a[-1] - a[0]) / (a.size - 1)
            slack = 1e-12 * max(abs(a[0]), abs(a[-1]), 1.0)
            need = MARGIN_CELLS * h
            if blo - a[0] < need - slack or a[-1] - bhi < need - slack:
                min_count = int(np.ceil((bhi - blo) / h)) + 2 * MARGIN_CELLS + 1
                raise GridError(
                    f"axis {d} must extend >= {MARGIN_CELLS} cells beyond the "
                    f"data box; need at least {min_count} points at this spacing")
    return grid


def grid_covering_box(data_box, counts):
    """Equispaced grid whose axes cover ``data_box`` with a margin.

    Each axis spans the box plus ``COVER_CELLS`` extra grid cells per
    side, using ``counts[d]`` points.
    """
    specs = []
    for (lo, hi), count in zip(data_box, counts):
        count = int(count)
        inner = count - 1 - 2 * COVER_CELLS
        if inner < 1:
            raise GridError(f"count {count} too small for margin {COVER_CELLS}")
        h = (float(hi) - float(lo)) / inner
        specs.append({"min": lo - COVER_CELLS * h,
                      "max": hi + COVER_CELLS * h,
                      "count": count})
    return build_grid(specs, data_box=data_box)


def warped_grid(grid, warp):
    """Map an equispaced grid in warped space to input space, Ubar -> Uhat.

    Axes are mapped through the per-dimension inverse warp; the original
    warped-space coordinates are retained for stencil arithmetic.
    """
    if not isinstance(warp, Warp):
        raise TypeError("warp must be a Warp")
    if grid.ndim == 1:
        comps = [warp if warp.dim == 1 else None]
        if comps[0] is None:
            raise DimensionMismatchError("1-D grid needs a 1-D warp")
    elif isinstance(warp, ElementwiseWarp) and warp.dim == grid.ndim:
        comps = warp.warps
    else:
        raise DimensionMismatchError(
            "grid warping needs an elementwise warp matching the grid dimension")
    new_axes = [np.asarray(c.inverse(a), dtype=float)
                for c, a in zip(comps, grid.axes)]
    for d, a in enumerate(new_axes):
        if np.any(np.diff(a) <= 0.0):
            raise GridError(f"warped axis {d} is not strictly increasing")
    return InducingGrid(new_axes, warped_axes=grid.axes, warp=warp)


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


def _lagrange_weights(nodes, x):
    """Cubic Lagrange weights on a non-uniform 4-node stencil.

    ``nodes`` has shape (n, 4), ``x`` shape (n,). Exact for polynomials
    up to degree 3 on the stencil; reduces to 4-point weights that sum
    to one on any node spacing.
    """
    n = x.shape[0]
    w = np.empty((n, 4))
    for i in range(4):
        num = np.ones(n)
        den = np.ones(n)
        for j in range(4):
            if j == i:
                continue
            num *= x - nodes[:, j]
            den *= nodes[:, i] - nodes[:, j]
        w[:, i] = num / den
    return w


def _locate_cells(axis, x):
    """Left node index of the containing cell; boundary ties go left."""
    cell = np.searchsorted(axis, x, side="left") - 1
    return cell


def _weights_1d(grid, d, x):
    """Stencil indices (n,) and weights (n, 4) along dimension d."""
    axis = grid.axes[d]
    m = axis.size
    cell = _locate_cells(axis, x)
    bad = (cell < 1) | (cell > m - 3)
    if np.any(bad):
        idx = int(np.argmax(bad))
        raise InterpolationRegionError(
            f"point index {idx} (value {x[idx]:.6g}) outside the stencil-safe "
            f"region of axis {d}")
    if grid.warped_axes is not None:
        # Warped-grid path: locate by input-space axis, compute offsets in
        # warped space where the lattice is equispaced.
        g = grid.warped_axes[d]
        h = (g[-1] - g[0]) / (m - 1)
        if grid.ndim == 1:
            z = np.asarray(grid.warp.forward(x), dtype=float)
        else:
            z = np.asarray(grid.warp.warps[d].forward(x), dtype=float)
        t = (z - g[cell]) / h
        return cell, _keys_weights(t)
    if grid.equispaced_flags[d]:
        h = (axis[-1] - axis[0]) / (m - 1)
        t = (x - axis[cell]) / h
        return cell, _keys_weights(t)
    stencil = cell[:, None] + np.arange(-1, 3)[None, :]
    nodes = axis[stencil]
    return cell, _lagrange_weights(nodes, x)


def interpolation_weights(grid, points):
    """Sparse interpolation matrix between ``points`` and the grid.

    Points must lie strictly inside the grid's stencil-safe interior.
    Per-dimension 4-point weights are tensor-product combined; MVM cost
    is linear in the number of points.
    """
    points = np.asarray(points, dtype=float)
    if grid.ndim == 1:
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
