"""Stationary, separable covariance functions with hyperparameter gradients.

All kernels are even functions of the lag ``tau = x - x'``. Hyperparameters
are strictly positive and stored in log-space so that gradient-based
optimization is unconstrained. Gradients are taken with respect to the
log-parameters throughout.

Parameter ordering is stable per kernel kind: amplitude first, then
lengthscales, then periods. ``Product``, the one composite kernel,
concatenates its children's parameters in child order, and
``split_params`` cuts such a flat vector back into its parts;
``QuasiPeriodic`` is the product of an SE envelope and a periodic kernel.
"""

from __future__ import annotations

import numpy as np

from .exceptions import DimensionMismatchError


def split_params(sizes, values):
    """Cut the flat vector ``values`` into consecutive slices of ``sizes``.

    This is the one definition of the flat log-parameter layout: a
    ``Product``'s children, a model's components followed by the noise.
    Raises ``DimensionMismatchError`` unless the sizes add up to its length.
    """
    values = np.asarray(values)
    bounds = np.cumsum([0, *sizes])
    if values.shape != (bounds[-1],):
        raise DimensionMismatchError(
            f"expected {bounds[-1]} parameters, got shape {values.shape}")
    return [values[a:b] for a, b in zip(bounds[:-1], bounds[1:])]


def _log_positive(values):
    """Read-only ``log(values)``; raises ``ValueError`` unless all are > 0."""
    values = np.asarray(values, dtype=float)
    if np.any(values <= 0.0) or not np.all(np.isfinite(values)):
        raise ValueError("hyperparameters must be strictly positive and finite")
    log = np.log(values)
    log.flags.writeable = False
    return log


class Kernel:
    """Base class for stationary kernels. Instances are immutable.

    ``log_params`` is the read-only vector of log-hyperparameters and
    ``param_names`` names its entries. A leaf kernel declares
    ``param_names`` on its class and its constructor takes the positive
    values in that order.
    """

    arity = 1
    param_names = ()

    @property
    def n_params(self):
        return self.log_params.size

    @property
    def amplitude_indices(self):
        """Flat indices of the amplitudes a, each with dk / d log a = 2k."""
        return tuple(i for i, name in enumerate(self.param_names)
                     if name.rpartition(".")[2] == "amplitude")

    def with_log_params(self, log_params) -> "Kernel":
        """Return a copy of this kernel with new log-space hyperparameters."""
        (values,) = split_params([self.n_params], log_params)
        return type(self)(*np.exp(values))

    def eval(self, tau):
        """Evaluate k(tau). For arity-1 kernels ``tau`` is elementwise; for
        multi-dimensional kernels the trailing axis of ``tau`` indexes dims."""
        raise NotImplementedError

    def grad(self, tau):
        """Gradient d k / d log(theta_j), stacked on a leading axis."""
        raise NotImplementedError


class SquaredExponential(Kernel):
    """k(tau) = amplitude^2 * exp(-tau^2 / (2 lengthscale^2))."""

    param_names = ("amplitude", "lengthscale")

    def __init__(self, amplitude, lengthscale):
        self.log_params = _log_positive((amplitude, lengthscale))

    @np.errstate(over="ignore")  # (tau / l)^2 = inf gives k = 0
    def eval(self, tau):
        tau = np.asarray(tau, dtype=float)
        a, l = np.exp(self.log_params)
        return a * a * np.exp(-0.5 * (tau / l) ** 2)

    @np.errstate(over="ignore", invalid="ignore")
    def grad(self, tau):
        tau = np.asarray(tau, dtype=float)
        k = self.eval(tau)
        _, l = np.exp(self.log_params)
        return np.stack([2.0 * k, np.where(k > 0.0, k * (tau / l) ** 2, 0.0)])


class Periodic(Kernel):
    """Exponentiated-sine periodic kernel:
    k(tau) = amplitude^2 * exp(-2 sin^2(pi tau / period) / lengthscale^2)."""

    param_names = ("amplitude", "lengthscale", "period")

    def __init__(self, amplitude, lengthscale, period):
        self.log_params = _log_positive((amplitude, lengthscale, period))

    @np.errstate(over="ignore")  # (s / l)^2 = inf gives k = 0
    def eval(self, tau):
        tau = np.asarray(tau, dtype=float)
        a, l, p = np.exp(self.log_params)
        s = np.sin(np.pi * tau / p)
        return a * a * np.exp(-2.0 * (s / l) ** 2)

    @np.errstate(over="ignore", divide="ignore", invalid="ignore")
    def grad(self, tau):
        tau = np.asarray(tau, dtype=float)
        k = self.eval(tau)
        _, l, p = np.exp(self.log_params)
        arg = np.pi * tau / p
        s = np.sin(arg)
        d_len = k * 4.0 * (s / l) ** 2
        # d/d log p via chain rule: sin(2 arg) = 2 sin(arg) cos(arg)
        d_per = k * (2.0 * np.pi * tau / (p * l * l)) * np.sin(2.0 * arg)
        # 0 where k underflows or s = 0, where a tiny l gives inf * 0
        return np.stack([2.0 * k, *np.where((k > 0.0) & (s != 0.0),
                                            [d_len, d_per], 0.0)])


class Product(Kernel):
    """Product of 1-D kernels, on one shared lag or one per input axis.

    ``dims[i]`` is the input dimension that child ``i`` acts on: all 0
    (default), a product over one shared 1-D lag, or ``0, ..., D-1``, one
    child per axis of a D-dimensional lag. Several factors on one axis
    form a nested ``Product`` child. The parameters are the children's,
    concatenated in child order.
    """

    def __init__(self, children, dims=None):
        children = list(children)
        if not children:
            raise ValueError("Product requires at least one child kernel")
        if any(c.arity != 1 for c in children):
            raise DimensionMismatchError("Product children must be 1-D kernels")
        if dims is None:
            dims = [0] * len(children)
        dims = [int(d) for d in dims]
        if dims not in ([0] * len(children), list(range(len(children)))):
            raise DimensionMismatchError(
                "dims must be all 0 (one shared lag) or 0..D-1 (one child "
                "per axis)")
        self.children = children
        self.dims = dims
        self.arity = max(dims) + 1
        self.param_names = tuple(f"{i}.{n}" for i, c in enumerate(children)
                                 for n in c.param_names)
        self.log_params = np.concatenate([c.log_params for c in children])
        self.log_params.flags.writeable = False

    def with_log_params(self, log_params):
        parts = split_params([c.n_params for c in self.children], log_params)
        return Product([c.with_log_params(p)
                        for c, p in zip(self.children, parts)], self.dims)

    def _child_lags(self, tau):
        tau = np.asarray(tau, dtype=float)
        if self.arity == 1:
            return [tau for _ in self.children]
        if tau.ndim == 0 or tau.shape[-1] != self.arity:
            raise DimensionMismatchError(
                f"kernel arity {self.arity} but lag has trailing "
                f"dimension {tau.shape[-1] if tau.ndim else 0}")
        return [tau[..., d] for d in self.dims]

    def eval(self, tau):
        lags = self._child_lags(tau)
        out = self.children[0].eval(lags[0])
        for c, lag in zip(self.children[1:], lags[1:]):
            out = out * c.eval(lag)
        return out

    def grad(self, tau):
        lags = self._child_lags(tau)
        vals = [c.eval(lag) for c, lag in zip(self.children, lags)]
        blocks = []
        for i, (c, lag) in enumerate(zip(self.children, lags)):
            rest = np.prod(np.stack([np.ones_like(vals[i]), *vals[:i],
                                     *vals[i + 1:]]), axis=0)
            blocks.append(c.grad(lag) * rest)
        return np.concatenate(blocks)


def QuasiPeriodic(amplitude, env_lengthscale, per_lengthscale, period):
    """SE envelope times a unit-amplitude periodic kernel, as a ``Product``
    on one shared lag. Its ``log_params`` is the log of (amplitude,
    env_lengthscale, 1, per_lengthscale, period), and ``param_names`` is
    ("0.amplitude", "0.lengthscale", "1.amplitude", "1.lengthscale",
    "1.period"). The periodic amplitude, at index 2, is redundant with the
    SE amplitude and is normally held fixed in learning."""
    return Product([SquaredExponential(amplitude, env_lengthscale),
                    Periodic(1.0, per_lengthscale, period)])


def pairwise_lags(kernel, x):
    """Lags ``x_i - x_j`` over the point set ``x``, shaped for ``kernel``:
    ``(n, n)`` for an arity-1 kernel, ``(n, n, arity)`` otherwise."""
    x = np.asarray(x, dtype=float)
    if kernel.arity == 1:
        a = x.reshape(-1)
        return a[:, None] - a[None, :]
    a = x.reshape(len(x), -1)
    if a.shape[1] != kernel.arity:
        raise DimensionMismatchError("point dimension does not match kernel arity")
    return a[:, None, :] - a[None, :, :]


def dense_matrix(kernel, x):
    """Dense kernel matrix over the point set ``x``."""
    return kernel.eval(pairwise_lags(kernel, x))
