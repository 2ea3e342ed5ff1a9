"""Invertible coordinate maps carrying the non-stationary phase.

Each 1-D warp is strictly increasing, which guarantees invertibility:
``Identity`` and ``PiecewiseLinearPhase`` on all of R, ``Polynomial1D``
on the finite domain where its monotonicity is proved. ``ElementwiseWarp``
stacks 1-D warps into a map that sends rectilinear lattices to
rectilinear lattices axis by axis.
"""

from __future__ import annotations

import numpy as np

from .exceptions import (DimensionMismatchError, MonotonicityError,
                         OutOfDomainError)

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


class Identity(Warp):
    """The identity map on R."""

    def forward(self, x):
        return np.asarray(x, dtype=float).copy()

    def inverse(self, z):
        return np.asarray(z, dtype=float).copy()


class Polynomial1D(Warp):
    """Odd-powered monotone polynomial warp with zero constant term.

    ``coeffs`` are in descending powers and the constant term is implied
    zero, so ``[2, 0, 1]`` is ``2 x^3 + x``. The map is defined on its
    required, finite ``domain`` (``ValueError`` otherwise), where strict
    monotonicity is verified exactly at construction: the derivative has
    no real root in the closed domain and is positive at its midpoint.
    ``forward`` rejects points outside the domain and ``inverse`` points
    outside its ``image``, with ``OutOfDomainError``.
    """

    def __init__(self, coeffs, domain):
        if domain is None or not -np.inf < domain[0] < domain[1] < np.inf:
            raise ValueError("Polynomial1D requires a finite domain lo < hi")
        lo, hi = self.domain = (float(domain[0]), float(domain[1]))
        coeffs = [float(c) for c in coeffs]
        if not coeffs:
            raise ValueError("coeffs must be non-empty")
        self.coeffs = tuple(coeffs)
        self._poly = np.array(coeffs + [0.0])
        self._dpoly = np.polyder(self._poly)
        roots = np.roots(self._dpoly)
        real = roots[np.abs(roots.imag)
                     <= _REAL_ROOT_RTOL * np.maximum(np.abs(roots), 1.0)].real
        if (np.any((real >= lo) & (real <= hi))
                or np.polyval(self._dpoly, 0.5 * (lo + hi)) <= 0.0):
            raise MonotonicityError(
                "polynomial derivative is not strictly positive over the domain")
        self.image = (float(np.polyval(self._poly, lo)),
                      float(np.polyval(self._poly, hi)))

    @staticmethod
    def _check_interval(values, interval, what, tol=0.0):
        values = np.asarray(values, dtype=float)
        lo, hi = interval
        bad = (values < lo - tol) | (values > hi + tol)
        if np.any(bad):
            raise OutOfDomainError(
                f"point index {int(np.flatnonzero(bad)[0])} outside warp "
                f"{what} [{lo}, {hi}]")
        return values

    def forward(self, x):
        return np.polyval(self._poly,
                          self._check_interval(x, self.domain, "domain"))

    def inverse(self, z):
        """Safeguarded Newton with bisection fallback, at most 100 steps."""
        z = self._check_interval(
            z, self.image, "image",
            1e-12 * max(abs(self.image[0]), abs(self.image[1]), 1.0))
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


class PiecewiseLinearPhase(Warp):
    """Piecewise-linear monotone map given by knot times and knot phases.

    Linear between knots and linearly extrapolated beyond the first/last
    knot using the adjacent interval's slope, so the map (and its inverse)
    is defined on all of R.
    """

    def __init__(self, knot_times, knot_phases):
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
        x = np.asarray(x, dtype=float)
        y = np.interp(x, xp, yp)
        s0 = (yp[1] - yp[0]) / (xp[1] - xp[0])
        s1 = (yp[-1] - yp[-2]) / (xp[-1] - xp[-2])
        y = np.where(x < xp[0], yp[0] + s0 * (x - xp[0]), y)
        y = np.where(x > xp[-1], yp[-1] + s1 * (x - xp[-1]), y)
        return y

    def forward(self, x):
        return self._interp_extrap(x, self.knot_times, self.knot_phases)

    def inverse(self, z):
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

    def _per_axis(self, x, method):
        x = np.asarray(x, dtype=float)
        if x.ndim == 0 or x.shape[-1] != self.dim:
            raise DimensionMismatchError(
                f"expected trailing dimension {self.dim}")
        return np.stack([getattr(w, method)(x[..., d])
                         for d, w in enumerate(self.warps)], axis=-1)

    def forward(self, x):
        return self._per_axis(x, "forward")

    def inverse(self, z):
        return self._per_axis(z, "inverse")


def phase_from_events(event_times):
    """Monotone phase warp from event annotations (e.g. detected R peaks).

    The phase advances by 2*pi per event interval (phi(t_k) = 2*pi*k),
    is linear between events and linearly extrapolated beyond the first
    and last event with the adjacent interval's slope.
    """
    t = np.asarray(event_times, dtype=float)
    return PiecewiseLinearPhase(t, 2.0 * np.pi * np.arange(t.size))
