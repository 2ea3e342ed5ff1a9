"""Matrix-free mixture operator sum_i W_i K_{U_i U_i} W_i^T + sigma^2 I.

Each component pairs a stationary separable kernel with a warp and an
equispaced inducing grid in warped space. The inducing-point matrix is a
Kronecker product of per-axis symmetric Toeplitz factors, so MVMs cost
O(n + m log m) per component. The mixture is one SKI operator
W_b K_b W_b^T + sigma^2 I on the stacked inducing space: W_b = [W_1 ... W_c]
and K_b the block diagonal of the K_{U_i U_i}.
"""

from __future__ import annotations

import functools

import numpy as np
import scipy.sparse

from .exceptions import (DimensionMismatchError, GridError,
                         NonFiniteInputError)
from .grids import InducingGrid, InterpWeights, interpolation_weights
from .kernels import Kernel, dense_matrix, split_params
from .structured import KronOperator, SymToeplitz, as_operand
from .warping import Warp


def decompose_separable(kernel, ndim):
    """Split a separable kernel into per-axis 1-D kernels.

    Returns a list of ``(axis_kernel, param_indices)`` pairs, where
    ``param_indices`` maps the axis kernel's parameters into the full
    kernel's parameter vector. A 1-D kernel is its own axis kernel; a
    multi-axis ``Product`` has one child per axis.
    """
    if kernel.arity != ndim:
        raise DimensionMismatchError(
            f"kernel arity {kernel.arity} does not match grid of {ndim} axes")
    if ndim == 1:
        return [(kernel, list(range(kernel.n_params)))]
    owned = split_params([c.n_params for c in kernel.children],
                         np.arange(kernel.n_params))
    return [(c, idx.tolist()) for c, idx in zip(kernel.children, owned)]


class SkiComponent:
    """One warped-SKI summand: weights, warp and Kronecker-of-Toeplitz K_UU."""

    def __init__(self, kernel, warp, grid, weights):
        self.kernel = kernel
        self.warp = warp
        self.grid = grid
        self.weights = weights
        self.axis_kernels = decompose_separable(kernel, grid.ndim)
        # a factor that overflows is reported by MixtureOperator
        with np.errstate(over="ignore", invalid="ignore"):
            self.kuu = KronOperator([
                SymToeplitz(kd.eval(ax - ax[0]))
                for (kd, _), ax in zip(self.axis_kernels, grid.axes)])
        self._derivatives = {}

    def derivative_operator(self, param_index):
        """dK_UU / d log(theta_j) as one Kronecker operator, built once.

        ``decompose_separable`` puts each parameter in exactly one axis
        kernel, so the derivative replaces that axis's Toeplitz factor and
        reuses the other factors of ``kuu``. The operator is memoised on
        the component, which is rebuilt for every evaluation. An index no
        axis kernel owns raises ``IndexError``.
        """
        if param_index not in self._derivatives:
            for axis, ((kd, idx), ax) in enumerate(
                    zip(self.axis_kernels, self.grid.axes)):
                if param_index in idx:
                    break
            else:
                raise IndexError(
                    f"parameter index {param_index} out of range")
            factors = list(self.kuu.factors)
            factors[axis] = SymToeplitz(
                kd.grad(ax - ax[0])[idx.index(param_index)])
            self._derivatives[param_index] = KronOperator(factors)
        return self._derivatives[param_index]

    def dense_ski(self):
        """Explicit W K_UU W^T (desk scale)."""
        w = self.weights.dense()
        return w @ self.kuu.dense() @ w.T

    def dense_exact(self, x):
        """Dense warped kernel k(phi(x), phi(x')) as the oracle."""
        z = warp_points(self.warp, np.asarray(x, dtype=float), self.grid.ndim)
        return dense_matrix(self.kernel, z)


def warp_points(warp, x, ndim):
    """Apply a warp to a point set of shape (n, D); (n,) also for D = 1."""
    x = np.asarray(x, dtype=float)
    if ndim == 1 and x.shape[1:] in ((), (1,)):
        return np.asarray(warp.forward(x.reshape(-1)), dtype=float)
    if x.ndim != 2 or x.shape[1] != ndim:
        raise DimensionMismatchError(f"points must have shape (n, {ndim})")
    return np.asarray(warp.forward(x), dtype=float)


def build_component(kernel, warp, grid, x):
    """Assemble a SkiComponent for data ``x``.

    ``grid`` is a plain lattice in warped space (a grid with axis warps
    raises ``GridError``); the weights interpolate the warped points on
    it. Interpolating the raw points on ``warped_grid(grid, warp)`` gives
    the same weights.
    """
    if not isinstance(kernel, Kernel):
        raise TypeError("kernel must be a Kernel")
    if not isinstance(warp, Warp):
        raise TypeError("warp must be a Warp")
    if not isinstance(grid, InducingGrid):
        raise TypeError("grid must be an InducingGrid")
    if grid.axis_warps is not None:
        raise GridError("a component's grid is the lattice in warped space, "
                        "not a warped grid")
    z = warp_points(warp, x, grid.ndim)
    return SkiComponent(kernel, warp, grid, interpolation_weights(grid, z))


class MixtureOperator:
    """W_b K_b W_b^T + sigma^2 I, exposed through MVMs.

    ``weights`` is W_b = [W_1 ... W_c] (n x M, M the sum of the grid
    sizes) and K_b the block diagonal of the components' ``kuu``;
    ``blocks[i]`` is component i's slice of M. The flattened
    hyperparameter vector is the concatenation of each component's kernel
    parameters followed by the noise standard deviation; derivatives are
    with respect to log-parameters.
    """

    def __init__(self, components, noise_variance, n):
        if not 0.0 <= noise_variance < np.inf:
            raise ValueError("noise variance must be non-negative and finite")
        self.components = list(components)
        self.noise_variance = float(noise_variance)
        self.n = int(n)
        for i, c in enumerate(self.components):
            if c.weights.shape[0] != self.n:
                raise DimensionMismatchError(
                    "component weights row count does not match n")
            for axis, factor in enumerate(c.kuu.factors):
                if not np.isfinite(factor.first_column).all():
                    raise NonFiniteInputError(
                        f"c{i}: K_UU factor {axis} overflows")
        edges = np.cumsum([0] + [c.weights.shape[1] for c in self.components])
        self.blocks = [slice(a, b) for a, b in zip(edges, edges[1:])]
        self._owners = tuple(
            ("component", i, local) for i, c in enumerate(self.components)
            for local in range(c.kernel.n_params)) + (("noise",),)

    @property
    def n_params(self):
        return len(self._owners)

    def param_owner(self, index):
        """Map a flat parameter index to ('component', i, local) or ('noise',)."""
        if not 0 <= index < self.n_params:
            raise IndexError(f"parameter index {index} out of range")
        return self._owners[index]

    @functools.cached_property
    def weights(self):
        """W_b = [W_1 ... W_c] as one CSR matrix, stacked on first use."""
        # the leading n x 0 block makes a mixture of no components n x 0
        return InterpWeights(scipy.sparse.hstack(
            [scipy.sparse.csr_matrix((self.n, 0))]
            + [c.weights.matrix for c in self.components], format="csr"))

    def inducing(self, v):
        """K_b W_b^T v: block i holds K_{U_i U_i} W_i^T v at ``blocks[i]``."""
        u = self.weights.rmatvec(v)
        for c, block in zip(self.components, self.blocks):
            u[block] = c.kuu.matvec(u[block])
        return u

    def matvec(self, v):
        v = as_operand(v, self.n)
        out = self.weights.matvec(self.inducing(v))
        out += self.noise_variance * v
        return out

    def derivative_matvec(self, index, v):
        """(dK / d log theta_index) v: W_i dK_UU (W_b^T v)_i, on block i
        of the projection, for a kernel parameter of component i;
        2 sigma^2 v for the noise entry."""
        owner = self.param_owner(index)
        v = np.asarray(v, dtype=float)
        if owner[0] == "noise":
            return 2.0 * self.noise_variance * v
        _, i, local = owner
        c = self.components[i]
        return c.weights.matvec(c.derivative_operator(local).matvec(
            self.weights.rmatvec(v)[self.blocks[i]]))

    def derivative_forms(self, indices, x, xkx=None):
        """X^T (dK / d log theta_j) X for each j in ``indices``; X is (n, k).

        A kernel parameter of component i differentiates W_i K_UU W_i^T on
        its grid: P = W_b^T X is formed once, and the form is
        P_i^T (dK_UU P_i) on component i's block P_i of P, with no product
        by W_b. The noise entry gives 2 sigma^2 X^T X. Given ``xkx`` =
        X^T K X for an orthonormal X (the Lanczos T) and a free amplitude
        in every component, the largest-grid component's amplitude form is
        2 (xkx - sigma^2 I) less the others' (each 2 X^T K_i X), and no
        dK_UU is built for it. X is not projected when no form needs P.
        """
        owners = [self.param_owner(j) for j in indices]
        amps = {o[1]: o for o in owners if o[0] == "component"
                and o[2] in self.components[o[1]].kernel.amplitude_indices}
        from_t = max(amps.values(), default=None,
                     key=lambda o: self.components[o[1]].kuu.shape[0])
        if xkx is None or len(amps) < len(self.components):
            from_t = None

        on_grid = [o for o in owners if o[0] == "component" and o != from_t]
        p = self.weights.rmatvec(x) if on_grid else None
        forms = {o: 2.0 * self.noise_variance * (x.T @ x)
                 for o in owners if o[0] == "noise"}
        for o in on_grid:
            p_i = p[self.blocks[o[1]]]
            d_kuu = self.components[o[1]].derivative_operator(o[2])
            forms[o] = p_i.T @ d_kuu.matmat(p_i)
        if from_t is not None:
            forms[from_t] = 2.0 * (xkx - self.noise_variance * np.eye(
                len(xkx))) - sum(forms[o] for o in amps.values() if o != from_t)
        return [forms[o] for o in owners]

    def dense(self):
        """Explicitly assembled approximate kernel (desk scale)."""
        out = self.noise_variance * np.eye(self.n)
        for c in self.components:
            out = out + c.dense_ski()
        return out
