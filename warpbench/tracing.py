"""In-memory span tracer wrapped around warpski's entry points from outside.

The tracer never edits the library: ``instrument`` swaps module and class
attributes for timing wrappers and restores them on exit. Callers import
some names directly (``warpski.model`` binds ``cg_solve`` and
``interpolation_weights`` at import), so each such binding is wrapped
where it is resolved.

A span is ``[name, start, end, parent, phase, work]``: ``parent`` is the
index of the enclosing span (-1 at the top), ``phase`` the benchmark step
that caused it and ``work`` a per-call count (columns, iterations, steps).
"""

from __future__ import annotations

import contextlib
import functools
import time

import numpy as np

import warpski.experiments as experiments
import warpski.grids as grids
import warpski.krylov as krylov
import warpski.model as model
import warpski.operators as operators
import warpski.structured as structured

MODULES = ("grids", "structured", "operators", "krylov", "model")


def _columns(tracer, args, out):
    return args[1].shape[1] if np.ndim(args[1]) == 2 else 1


def _iterations(tracer, args, out):
    return out.iterations


def _steps(tracer, args, out):
    tracer.lanczos_factors.append(
        krylov.LanczosFactor(out.alphas, out.betas, None, out.steps))
    return out.steps


def _useful(tracer, args, out):
    return 1 if args[1] in tracer.free else 0


def _targets():
    """(owner, attribute, span name, work counter) for every wrapped name."""
    return [
        (grids, "interpolation_weights", "grids.interp_build", None),
        (operators, "interpolation_weights", "grids.interp_build", None),
        (model, "interpolation_weights", "grids.interp_build", None),
        (grids.InterpWeights, "matvec", "grids.w", None),
        (grids.InterpWeights, "rmatvec", "grids.wt", None),
        (structured.SymToeplitz, "matmat", "structured.toeplitz", _columns),
        (structured.SymToeplitz, "matvec", "structured.toeplitz", _columns),
        (structured.KronOperator, "matvec", "structured.kron", None),
        (structured.KronOperator, "matmat", "structured.kron", None),
        (operators.MixtureOperator, "matvec", "operators.mvm", _columns),
        (operators.MixtureOperator, "derivative_matvec", "operators.dmvm",
         _useful),
        (krylov, "cg_solve", "krylov.cg", _iterations),
        (model, "cg_solve", "krylov.cg", _iterations),
        (krylov, "lanczos", "krylov.lanczos", _steps),
        (model, "build_operator", "model.build_operator", None),
        (model, "approx_nlml", "model.approx_nlml", None),
        (model, "separate", "model.separate", None),
        (model, "sample_prior", "model.sample_prior", None),
        (experiments, "sample_prior", "model.sample_prior", None),
    ]


class Tracer:
    """Spans and per-call counts of one traced section, kept in memory.

    ``free`` holds the flat indices of free hyperparameters, so that a
    ``derivative_matvec`` call counts as useful work only for those.
    ``lanczos_factors`` keeps each Lanczos tridiagonal, without its basis,
    for the Ritz values.
    """

    def __init__(self):
        self.spans = []
        self.free = frozenset()
        self.lanczos_factors = []
        self._stack = []

    def _wrap(self, name, fn, work, phase):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, phase, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if work is not None:
                rec[5] = work(self, args, out)
            return out

        return traced

    @contextlib.contextmanager
    def instrument(self, phase):
        """Trace every wrapped entry point while the block runs."""
        saved = []
        try:
            for owner, attr, name, work in _targets():
                original = owner.__dict__[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr, self._wrap(name, original, work, phase))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def self_times(self):
        """Per-span duration minus the time covered by its child spans."""
        own = [end - start for _, start, end, _, _, _ in self.spans]
        for _, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def summary(self, phases=None):
        """Per span name: calls, total and self seconds, summed work."""
        out = {}
        for rec, own in zip(self.spans, self.self_times()):
            name, start, end, _, phase, work = rec
            if phases is not None and phase not in phases:
                continue
            s = out.setdefault(name, {"calls": 0, "total_s": 0.0,
                                      "self_s": 0.0, "work": 0})
            s["calls"] += 1
            s["total_s"] += end - start
            s["self_s"] += own
            s["work"] += work or 0
        return out

    def module_self_s(self, phases=None):
        """Self time summed per library module (``grids``, ``krylov``, ...)."""
        out = dict.fromkeys(MODULES, 0.0)
        for name, s in self.summary(phases).items():
            out[name.split(".", 1)[0]] += s["self_s"]
        return out
