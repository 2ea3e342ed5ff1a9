"""Invertible coordinate maps carrying the non-stationary phase.

Each 1-D warp is strictly increasing over its domain, which guarantees
invertibility. ``ElementwiseWarp`` stacks 1-D warps into a map that sends
rectilinear lattices to rectilinear lattices axis by axis.
"""

from __future__ import annotations

import numpy as np

from .exceptions import (DimensionMismatchError, MonotonicityError,
                         OutOfDomainError)

_ROUNDTRIP_TOL = 1e-10
# Roots of the derivative with an imaginary part below this (relative to
# their modulus) count as real: a double root comes out of the companion
# eigenvalues as a complex pair split by about sqrt(machine epsilon).
_REAL_ROOT_RTOL = 1e-6


class Warp:
    """Base class: an invertible map on R^dim."""

    dim = 1

    def forward(self, x):
        raise NotImplementedError

    def inverse(self, z):
        raise NotImplementedError


class Warp1D(Warp):
    """Base for scalar warps with an interval domain."""

    dim = 1

    def __init__(self, domain=None):
        if domain is None:
            domain = (-np.inf, np.inf)
        lo, hi = float(domain[0]), float(domain[1])
        if not lo < hi:
            raise ValueError("domain must satisfy lo < hi")
        self.domain = (lo, hi)

    def _check_domain(self, x):
        x = np.asarray(x, dtype=float)
        lo, hi = self.domain
        if np.any(x < lo) or np.any(x > hi):
            bad = np.flatnonzero((x < lo) | (x > hi)).ravel()
            raise OutOfDomainError(
                f"point index {int(bad[0])} outside warp domain [{lo}, {hi}]")
        return x

    @property
    def image(self):
        lo, hi = self.domain
        if np.isinf(lo) or np.isinf(hi):
            return (-np.inf, np.inf)
        return (float(self._forward_raw(np.asarray(lo))),
                float(self._forward_raw(np.asarray(hi))))

    def _check_image(self, z):
        z = np.asarray(z, dtype=float)
        lo, hi = self.image
        tol = 1e-12 * max(abs(lo), abs(hi), 1.0) if np.isfinite(lo) else 0.0
        if np.any(z < lo - tol) or np.any(z > hi + tol):
            bad = np.flatnonzero((z < lo - tol) | (z > hi + tol)).ravel()
            raise OutOfDomainError(
                f"point index {int(bad[0])} outside warp image [{lo}, {hi}]")
        return z

    def _forward_raw(self, x):
        raise NotImplementedError

    def forward(self, x):
        return self._forward_raw(self._check_domain(x))


class Identity(Warp1D):
    """The identity map."""

    def _forward_raw(self, x):
        return np.asarray(x, dtype=float).copy()

    def inverse(self, z):
        return self._check_image(np.asarray(z, dtype=float)).copy()


class Polynomial1D(Warp1D):
    """Odd-powered monotone polynomial warp with zero constant term.

    ``coeffs`` are in descending powers and the constant term is implied
    zero, so ``[2, 0, 1]`` is ``2 x^3 + x``. Strict monotonicity on the
    (required, finite) domain is verified exactly at construction: the
    derivative has no real root in the closed domain and is positive at
    its midpoint.
    """

    def __init__(self, coeffs, domain):
        super().__init__(domain)
        if not all(np.isfinite(self.domain)):
            raise ValueError("Polynomial1D requires a finite domain")
        coeffs = [float(c) for c in coeffs]
        if not coeffs:
            raise ValueError("coeffs must be non-empty")
        self.coeffs = tuple(coeffs)
        self._poly = np.array(coeffs + [0.0])
        self._dpoly = np.polyder(self._poly)
        lo, hi = self.domain
        roots = np.roots(self._dpoly)
        real = roots[np.abs(roots.imag)
                     <= _REAL_ROOT_RTOL * np.maximum(np.abs(roots), 1.0)].real
        if (np.any((real >= lo) & (real <= hi))
                or np.polyval(self._dpoly, 0.5 * (lo + hi)) <= 0.0):
            raise MonotonicityError(
                "polynomial derivative is not strictly positive over the domain")

    def _forward_raw(self, x):
        return np.polyval(self._poly, x)

    def inverse(self, z):
        """Safeguarded Newton with bisection fallback, at most 100 steps."""
        z = self._check_image(np.asarray(z, dtype=float))
        scalar = z.ndim == 0
        z = np.atleast_1d(z)
        lo = np.full_like(z, self.domain[0])
        hi = np.full_like(z, self.domain[1])
        x = np.clip((z - self.image[0]) / (self.image[1] - self.image[0]), 0, 1)
        x = self.domain[0] + x * (self.domain[1] - self.domain[0])
        scale = np.maximum(np.abs(z), 1.0)
        for _ in range(100):
            f = np.polyval(self._poly, x) - z
            if np.all(np.abs(f) <= 1e-12 * scale):
                break
            pos = f > 0
            hi = np.where(pos, x, hi)
            lo = np.where(pos, lo, x)
            step = f / np.polyval(self._dpoly, x)
            x_new = x - step
            outside = (x_new <= lo) | (x_new >= hi)
            x = np.where(outside, 0.5 * (lo + hi), x_new)
        return float(x[0]) if scalar else x


class PiecewiseLinearPhase(Warp1D):
    """Piecewise-linear monotone map given by knot times and knot phases.

    Linear between knots and linearly extrapolated beyond the first/last
    knot using the adjacent interval's slope, so the map (and its inverse)
    is defined on all of R.
    """

    def __init__(self, knot_times, knot_phases, domain=None):
        super().__init__(domain)
        t = np.asarray(knot_times, dtype=float)
        p = np.asarray(knot_phases, dtype=float)
        if t.ndim != 1 or t.size < 2 or t.shape != p.shape:
            raise ValueError("need >= 2 knots with matching times and phases")
        if np.any(np.diff(t) <= 0.0):
            raise MonotonicityError("knot times must be strictly increasing")
        if np.any(np.diff(p) <= 0.0):
            raise MonotonicityError("knot phases must be strictly increasing")
        self.knot_times = t
        self.knot_phases = p

    @staticmethod
    def _interp_extrap(x, xp, yp):
        y = np.interp(x, xp, yp)
        s0 = (yp[1] - yp[0]) / (xp[1] - xp[0])
        s1 = (yp[-1] - yp[-2]) / (xp[-1] - xp[-2])
        y = np.where(x < xp[0], yp[0] + s0 * (x - xp[0]), y)
        y = np.where(x > xp[-1], yp[-1] + s1 * (x - xp[-1]), y)
        return y

    def _forward_raw(self, x):
        return self._interp_extrap(x, self.knot_times, self.knot_phases)

    def inverse(self, z):
        z = self._check_image(np.asarray(z, dtype=float))
        return self._interp_extrap(z, self.knot_phases, self.knot_times)


class ElementwiseWarp(Warp):
    """Vector of 1-D warps applied per input dimension."""

    def __init__(self, warps):
        warps = list(warps)
        if not warps:
            raise ValueError("need at least one component warp")
        if any(w.dim != 1 for w in warps):
            raise DimensionMismatchError("component warps must be 1-D")
        self.warps = warps
        self.dim = len(warps)

    def _check(self, x):
        x = np.asarray(x, dtype=float)
        if x.ndim == 0 or x.shape[-1] != self.dim:
            raise DimensionMismatchError(
                f"expected trailing dimension {self.dim}")
        return x

    def forward(self, x):
        x = self._check(x)
        return np.stack([w.forward(x[..., d])
                         for d, w in enumerate(self.warps)], axis=-1)

    def inverse(self, z):
        z = self._check(z)
        return np.stack([w.inverse(z[..., d])
                         for d, w in enumerate(self.warps)], axis=-1)


def phase_from_events(event_times):
    """Monotone phase warp from event annotations (e.g. detected R peaks).

    The phase advances by 2*pi per event interval (phi(t_k) = 2*pi*k),
    is linear between events and linearly extrapolated beyond the first
    and last event with the adjacent interval's slope.
    """
    t = np.asarray(event_times, dtype=float)
    return PiecewiseLinearPhase(t, 2.0 * np.pi * np.arange(t.size))
