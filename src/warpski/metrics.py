"""Error and separation-quality metrics."""

from __future__ import annotations

import numpy as np

from .exceptions import DimensionMismatchError


def _pair(a, b):
    a = np.asarray(a, dtype=float).ravel()
    b = np.asarray(b, dtype=float).ravel()
    if a.size != b.size:
        raise DimensionMismatchError(
            f"length mismatch: {a.size} vs {b.size}")
    return a, b


def rmse(a, b):
    """Root-mean-square error between two series."""
    a, b = _pair(a, b)
    return float(np.sqrt(np.mean((a - b) ** 2)))


def snr_improvement(raw, cleaned, truth):
    """Error-energy-ratio SNR improvement in dB:
    10 log10(||raw - truth||^2 / ||cleaned - truth||^2)."""
    raw, truth = _pair(raw, truth)
    cleaned, _ = _pair(cleaned, truth)
    num = float(np.sum((raw - truth) ** 2))
    den = float(np.sum((cleaned - truth) ** 2))
    if den == 0.0:
        raise ValueError("cleaned signal matches truth exactly; SNR undefined")
    return float(10.0 * np.log10(num / den))
