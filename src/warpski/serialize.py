"""Serialization of kernels, warps, grids and models to structured text.

The format is plain JSON-compatible dicts: every object carries a
``kind`` plus its defining fields; composites carry ``children``.
Round-trips are exact up to floating-point representation.
"""

from __future__ import annotations

import json

import numpy as np

from .exceptions import ConfigError
from .grids import InducingGrid
from .kernels import Periodic, Product, QuasiPeriodic, SquaredExponential
from .model import GpComponent, GpModel
from .warping import (ElementwiseWarp, Identity, PiecewiseLinearPhase,
                      Polynomial1D)


_LEAF_KINDS = {"se": SquaredExponential, "periodic": Periodic}


def kernel_to_dict(kernel):
    for kind, cls in _LEAF_KINDS.items():
        if isinstance(kernel, cls):
            return {"kind": kind, **dict(zip(cls.param_names,
                                             np.exp(kernel.log_params)))}
    if isinstance(kernel, QuasiPeriodic):
        return {"kind": "quasiperiodic",
                "children": [kernel_to_dict(c) for c in kernel.children]}
    if isinstance(kernel, Product):
        return {"kind": "product", "dims": list(kernel.dims),
                "children": [kernel_to_dict(c) for c in kernel.children]}
    raise ConfigError(f"cannot serialize kernel of type {type(kernel).__name__}")


def kernel_from_dict(spec):
    try:
        kind = spec["kind"]
    except (TypeError, KeyError):
        raise ConfigError("kernel spec needs a 'kind' field") from None
    if kind in _LEAF_KINDS:
        cls = _LEAF_KINDS[kind]
        return cls(*(spec[name] for name in cls.param_names))
    if kind == "quasiperiodic":
        children = [kernel_from_dict(c) for c in spec["children"]]
        return QuasiPeriodic(_children=children)
    if kind == "product":
        children = [kernel_from_dict(c) for c in spec["children"]]
        return Product(children, dims=spec.get("dims"))
    raise ConfigError(f"unknown kernel kind {kind!r}")


def _domain_out(domain):
    lo, hi = domain
    return [None if np.isinf(lo) else lo, None if np.isinf(hi) else hi]


def _domain_in(val):
    if val is None:
        return None
    lo = -np.inf if val[0] is None else float(val[0])
    hi = np.inf if val[1] is None else float(val[1])
    return (lo, hi)


def warp_to_dict(warp):
    if isinstance(warp, Identity):
        return {"kind": "identity", "domain": _domain_out(warp.domain)}
    if isinstance(warp, Polynomial1D):
        return {"kind": "polynomial", "coeffs": list(warp.coeffs),
                "domain": _domain_out(warp.domain)}
    if isinstance(warp, PiecewiseLinearPhase):
        return {"kind": "phase",
                "knot_times": warp.knot_times.tolist(),
                "knot_phases": warp.knot_phases.tolist(),
                "domain": _domain_out(warp.domain)}
    if isinstance(warp, ElementwiseWarp):
        return {"kind": "elementwise",
                "children": [warp_to_dict(c) for c in warp.warps]}
    raise ConfigError(f"cannot serialize warp of type {type(warp).__name__}")


def warp_from_dict(spec):
    try:
        kind = spec["kind"]
    except (TypeError, KeyError):
        raise ConfigError("warp spec needs a 'kind' field") from None
    if kind == "identity":
        return Identity(domain=_domain_in(spec.get("domain")))
    if kind == "polynomial":
        return Polynomial1D(spec["coeffs"], domain=_domain_in(spec["domain"]))
    if kind == "phase":
        return PiecewiseLinearPhase(spec["knot_times"], spec["knot_phases"],
                                    domain=_domain_in(spec.get("domain")))
    if kind == "elementwise":
        return ElementwiseWarp([warp_from_dict(c) for c in spec["children"]])
    raise ConfigError(f"unknown warp kind {kind!r}")


def grid_to_dict(grid):
    return {"axes": [a.tolist() for a in grid.axes]}


def grid_from_dict(spec):
    try:
        axes = spec["axes"]
    except (TypeError, KeyError):
        raise ConfigError("grid spec needs an 'axes' field") from None
    return InducingGrid([np.asarray(a, dtype=float) for a in axes])


def model_to_dict(model):
    return {
        "components": [
            {"kernel": kernel_to_dict(c.kernel),
             "warp": warp_to_dict(c.warp),
             "grid": grid_to_dict(c.grid)}
            for c in model.components],
        "noise": model.noise,
        "fixed": model.fixed.astype(int).tolist(),
    }


def model_from_dict(spec):
    comps = [GpComponent(kernel=kernel_from_dict(c["kernel"]),
                         warp=warp_from_dict(c["warp"]),
                         grid=grid_from_dict(c["grid"]))
             for c in spec["components"]]
    fixed = np.asarray(spec.get("fixed", []), dtype=bool)
    return GpModel(comps, noise=spec["noise"],
                   fixed=fixed if fixed.size else None)


def model_to_json(model):
    return json.dumps(model_to_dict(model), indent=2)


def model_from_json(text):
    return model_from_dict(json.loads(text))
