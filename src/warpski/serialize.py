"""Serialization of kernels, warps, grids and models to structured text.

The format is plain JSON-compatible dicts. Kernels and warps carry a
``kind`` plus their defining fields; composites carry ``children``, and a
quasi-periodic kernel is a ``"product"`` on ``dims`` [0, 0]. A grid is its
lattice's ``bounds`` and ``counts``, plus a warped grid's ``axis_warps``,
and is rebuilt bit for bit. Round trips are exact.
"""

from __future__ import annotations

import json

import numpy as np

from .exceptions import ConfigError
from .grids import InducingGrid
from .kernels import Periodic, Product, SquaredExponential
from .model import GpComponent, GpModel
from .warping import (ElementwiseWarp, Identity, PiecewiseLinearPhase,
                      Polynomial1D)


_LEAF_KINDS = {"se": SquaredExponential, "periodic": Periodic}


def _field(spec, name, what):
    """``spec[name]``; a missing field raises ``ConfigError`` naming it."""
    try:
        return spec[name]
    except (TypeError, KeyError):
        raise ConfigError(f"{what} spec is missing the {name!r} field") from None


def kernel_to_dict(kernel):
    for kind, cls in _LEAF_KINDS.items():
        if isinstance(kernel, cls):
            return {"kind": kind, **dict(zip(cls.param_names,
                                             np.exp(kernel.log_params)))}
    if isinstance(kernel, Product):
        return {"kind": "product", "dims": list(kernel.dims),
                "children": [kernel_to_dict(c) for c in kernel.children]}
    raise ConfigError(f"cannot serialize kernel of type {type(kernel).__name__}")


def kernel_from_dict(spec):
    kind = _field(spec, "kind", "kernel")
    if kind in _LEAF_KINDS:
        cls = _LEAF_KINDS[kind]
        return cls(*(_field(spec, name, "kernel") for name in cls.param_names))
    if kind == "product":
        children = [kernel_from_dict(c)
                    for c in _field(spec, "children", "kernel")]
        return Product(children, dims=spec.get("dims"))
    raise ConfigError(f"unknown kernel kind {kind!r}")


def warp_to_dict(warp):
    if isinstance(warp, Identity):
        return {"kind": "identity"}
    if isinstance(warp, Polynomial1D):
        return {"kind": "polynomial", "coeffs": list(warp.coeffs),
                "domain": list(warp.domain)}
    if isinstance(warp, PiecewiseLinearPhase):
        return {"kind": "phase",
                "knot_times": warp.knot_times.tolist(),
                "knot_phases": warp.knot_phases.tolist()}
    if isinstance(warp, ElementwiseWarp):
        return {"kind": "elementwise",
                "children": [warp_to_dict(c) for c in warp.warps]}
    raise ConfigError(f"cannot serialize warp of type {type(warp).__name__}")


def warp_from_dict(spec):
    kind = _field(spec, "kind", "warp")
    if kind == "identity":
        return Identity()
    if kind == "polynomial":
        return Polynomial1D(_field(spec, "coeffs", "warp"),
                            domain=_field(spec, "domain", "warp"))
    if kind == "phase":
        return PiecewiseLinearPhase(_field(spec, "knot_times", "warp"),
                                    _field(spec, "knot_phases", "warp"))
    if kind == "elementwise":
        return ElementwiseWarp([warp_from_dict(c)
                                for c in _field(spec, "children", "warp")])
    raise ConfigError(f"unknown warp kind {kind!r}")


def grid_to_dict(grid):
    """The lattice's ``bounds`` and ``counts``; a warped grid adds its
    ``axis_warps``."""
    out = {"bounds": [list(b) for b in grid.bounds],
           "counts": list(grid.shape)}
    if grid.axis_warps is not None:
        out["axis_warps"] = [warp_to_dict(w) for w in grid.axis_warps]
    return out


def grid_from_dict(spec):
    bounds = _field(spec, "bounds", "grid")
    counts = _field(spec, "counts", "grid")
    warps = spec.get("axis_warps")
    return InducingGrid(bounds, counts,
                        None if warps is None else map(warp_from_dict, warps))


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
    comps = [GpComponent(
        kernel=kernel_from_dict(_field(c, "kernel", "component")),
        warp=warp_from_dict(_field(c, "warp", "component")),
        grid=grid_from_dict(_field(c, "grid", "component")))
        for c in _field(spec, "components", "model")]
    fixed = np.asarray(spec.get("fixed", []), dtype=bool)
    return GpModel(comps, noise=_field(spec, "noise", "model"),
                   fixed=fixed if fixed.size else None)


def model_to_json(model):
    return json.dumps(model_to_dict(model), indent=2)


def model_from_json(text):
    return model_from_dict(json.loads(text))
