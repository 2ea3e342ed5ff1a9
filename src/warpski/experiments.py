"""Config-driven experiment runners: synthetic benchmark and separation.

Runs are fully deterministic given their config (all randomness is
seeded) and every reported number is recomputable from the persisted
CSV artifacts.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import numbers
import os
import time
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .csvio import save_columns_csv
from .exceptions import ConfigError
from .grids import MIN_AXIS_COUNT, grid_covering_box
from .kernels import Product, QuasiPeriodic, SquaredExponential
from .krylov import CgReport, cg_solve
from .metrics import rmse, snr_improvement
from .model import (FitResult, GpComponent, GpModel, approx_nlml,
                    build_operator, fit, sample_prior, separate)
from .warping import ElementwiseWarp, Identity, Polynomial1D, phase_from_events


# Scalar settings that must be positive and finite; NaN fails as well.
_POSITIVE_FIELDS = (
    "n", "noise", "cg_tol_inference", "cg_tol_separation", "n_probes",
    "lanczos_steps", "max_steps", "dt", "env_lengthscale", "per_lengthscale",
    "grid_per_cycle")
_INTEGER_FIELDS = ("n", "n_probes", "lanczos_steps", "max_steps",
                   "grid_per_cycle")


def _is_number(value, kind=numbers.Real):
    """``value`` is a ``kind`` number; a JSON ``true``/``false`` is not."""
    return isinstance(value, kind) and not isinstance(value, bool)


@dataclass
class ExperimentConfig:
    """What a run may vary, as fields that a ``--config`` file or a flag
    sets; each experiment's fixed definition is a class constant."""
    kind: str = "numeric2d"
    n: int = 2000
    seed: int = 0
    noise: float = 0.5
    cg_tol_inference: float = 1e-1
    cg_tol_separation: float = 5e-3
    n_probes: int = 20
    lanczos_steps: int = 30
    max_steps: int = 100
    out_dir: str | None = None

    # numeric2d: an SE draw on data_box, its first axis warped by the
    # polynomial warp_coeffs, fitted from the start_* values
    data_box: ClassVar[tuple] = ((-1.2, 0.75), (-2.5, 2.5))
    warp_coeffs: ClassVar[tuple] = (2.0, 0.0, 1.0)
    amplitude: ClassVar[float] = 1.5
    lengthscale: ClassVar[float] = 0.4
    start_noise: ClassVar[float] = 1.0
    start_amplitude: ClassVar[float] = 1.0
    start_lengthscale: ClassVar[float] = 0.6
    grid_counts: tuple = (100, 100)
    sample_grid_counts: tuple = (200, 160)

    # separation1d: synthetic beats every maternal_period s, period_ratio
    # times as often for the fetal source, each jittered by period_jitter
    maternal_period: ClassVar[float] = 0.85
    period_ratio: ClassVar[float] = 2.8
    period_jitter: ClassVar[float] = 0.03
    dt: float = 0.002
    amplitudes: tuple = (1.0, 0.4)
    env_lengthscale: float = 20.0
    per_lengthscale: float = 0.6
    grid_per_cycle: int = 24
    maternal_events_csv: str | None = None
    fetal_events_csv: str | None = None
    data_csv: str | None = None

    def __post_init__(self):
        if self.kind not in ("numeric2d", "separation1d"):
            raise ConfigError(f"kind: unknown experiment kind {self.kind!r}")
        for name in _POSITIVE_FIELDS:
            value = getattr(self, name)
            kind = "integer" if name in _INTEGER_FIELDS else "number"
            if not (_is_number(value, numbers.Integral if kind == "integer"
                               else numbers.Real) and 0 < value < np.inf):
                raise ConfigError(f"{name}: must be a positive finite {kind}")
        for name in ("cg_tol_inference", "cg_tol_separation"):
            if not getattr(self, name) < 1:
                raise ConfigError(f"{name}: must be below 1")
        if not (_is_number(self.seed, numbers.Integral) and self.seed >= 0):
            raise ConfigError("seed: must be an integer >= 0")
        for name in ("amplitudes", "grid_counts", "sample_grid_counts"):
            pair = getattr(self, name)
            if not (isinstance(pair, (list, tuple)) and len(pair) == 2):
                raise ConfigError(f"{name}: need a list of 2 entries")
        if not all(_is_number(a) and 0 < a < np.inf for a in self.amplitudes):
            raise ConfigError("amplitudes: need 2, all positive and finite")
        for name in ("grid_counts", "sample_grid_counts"):
            if not all(isinstance(c, numbers.Integral) and c >= MIN_AXIS_COUNT
                       for c in getattr(self, name)):
                raise ConfigError(f"{name}: need 2 per-axis integer counts, "
                                  f"each >= {MIN_AXIS_COUNT}")
        for name in ("maternal_events_csv", "fetal_events_csv"):
            if self.data_csv and not getattr(self, name):
                raise ConfigError(f"{name}: data_csv needs the events of both "
                                  "sources; random beats would not match it")

    @classmethod
    def from_dict(cls, data):
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ConfigError(f"unknown config fields: {sorted(unknown)}")
        return cls(**data)


@dataclass
class RunReport:
    """An experiment run: its timings and metrics, the hyperparameter fit
    and the final CG solve of ``separate``."""
    kind: str
    n: int
    timings: dict
    metrics: dict
    fit: FitResult
    solve: CgReport

    @property
    def learned(self):
        """The fitted hyperparameter values by name."""
        fitted = self.fit.model
        return {name: float(v)
                for name, v in zip(fitted.param_names, np.exp(fitted.theta))}

    def rows(self):
        m_total = sum(c.grid.total_size for c in self.fit.model.components)
        return [("kind", self.kind), ("n", self.n), ("m_total", m_total),
                ("cg_iterations", self.solve.iterations),
                *((f"time_{k}_s", v) for k, v in self.timings.items()),
                *self.metrics.items(),
                *((f"learned_{k}", v) for k, v in self.learned.items()),
                ("fit_flag", self.fit.flag),
                ("fit_evaluations", self.fit.n_evaluations),
                ("fit_cg_unconverged", self.fit.cg_unconverged),
                ("cg_converged", self.solve.converged)]


def _learn(config, model, x, y):
    """``fit`` with the config's Krylov settings; the result and its wall
    time."""
    t0 = time.perf_counter()
    result = fit(model, x, y, max_steps=config.max_steps, seed=config.seed,
                 n_probes=config.n_probes, cg_tol=config.cg_tol_inference,
                 lanczos_steps=config.lanczos_steps)
    return result, time.perf_counter() - t0


def _timeit(fn):
    """Median wall time of ``fn`` over 3 runs after a warm-up."""
    fn()
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return float(np.median(times))


def _write_outputs(config, tables, report=None):
    """Under ``out_dir``: config_echo.json, report.csv and CSV tables."""
    if config.out_dir is None:
        return
    os.makedirs(config.out_dir, exist_ok=True)
    with open(os.path.join(config.out_dir, "config_echo.json"), "w") as fh:
        json.dump(dataclasses.asdict(config), fh, indent=2)
    if report is not None:
        with open(os.path.join(config.out_dir, "report.csv"), "w",
                  newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(("name", "value"))
            writer.writerows(report.rows())
    for relpath, columns in tables.items():
        save_columns_csv(os.path.join(config.out_dir, relpath), columns)


def numeric2d_model(config):
    """The warped-SE benchmark model on a ``config.grid_counts`` grid."""
    box = config.data_box
    pad = 0.05 * (box[0][1] - box[0][0])
    warp = ElementwiseWarp([
        Polynomial1D(config.warp_coeffs,
                     domain=(box[0][0] - pad, box[0][1] + pad)),
        Identity()])
    warped_box = [tuple(sorted((warp.warps[0].forward(box[0][0]),
                                warp.warps[0].forward(box[0][1])))),
                  box[1]]
    grid = grid_covering_box(warped_box, config.grid_counts)
    kernel = Product([
        SquaredExponential(config.amplitude, config.lengthscale),
        SquaredExponential(1.0, config.lengthscale)], dims=[0, 1])
    # the second-axis amplitude is redundant with the first and stays fixed
    fixed = np.zeros(5, dtype=bool)
    fixed[2] = True
    return GpModel([GpComponent(kernel, warp, grid)], noise=config.noise,
                   fixed=fixed)


def _sample_numeric2d(config):
    rng = np.random.default_rng(config.seed)
    x = np.column_stack([rng.uniform(lo, hi, config.n)
                         for lo, hi in config.data_box])
    truth_model = numeric2d_model(
        dataclasses.replace(config, grid_counts=config.sample_grid_counts))
    return x, sample_prior(truth_model, x, seed=config.seed + 1)


def _infer_numeric2d(config, model, x, y):
    """Build the operator, time CG and the value-only NLML on it, and
    separate; returns the ``separate`` result and the two timings."""
    op = build_operator(model, x)
    timings = {
        "inference": _timeit(
            lambda: cg_solve(op.matvec, y, tol=config.cg_tol_inference)),
        "nlml_eval": _timeit(
            lambda: approx_nlml(model, x, y, n_probes=config.n_probes,
                                seed=config.seed,
                                cg_tol=config.cg_tol_inference,
                                lanczos_steps=config.lanczos_steps,
                                with_gradient=False, operator=op))}
    sep = separate(model, x, y, cg_tol=config.cg_tol_inference, operator=op)
    return sep, timings


def run_numeric2d(config):
    """Sample a warped-SE draw, learn hyperparameters, infer and report."""
    x, draw = _sample_numeric2d(config)
    y = draw.y

    model = numeric2d_model(config)
    start_theta = model.theta.copy()
    start_theta[0] = np.log(config.start_amplitude)
    start_theta[[1, 3]] = np.log(config.start_lengthscale)
    start_theta[-1] = np.log(config.start_noise)
    model = model.with_theta(start_theta)

    result, t_learn = _learn(config, model, x, y)
    sep, timings = _infer_numeric2d(config, result.model, x, y)
    posterior_mean = sum(sep.means)
    report = RunReport(
        kind="numeric2d", n=config.n,
        timings={**timings, "learning": t_learn},
        metrics={"rmse": rmse(posterior_mean, draw.latent),
                 "nlml": result.value},
        fit=result, solve=sep.cg_report)
    _write_outputs(config, {os.path.join("curves", "posterior.csv"): {
        "x0": x[:, 0], "x1": x[:, 1], "y": y,
        "latent_truth": draw.latent, "posterior_mean": posterior_mean}},
        report)
    return report


def _synthetic_events(rng, t_end, period, jitter):
    times = [-period]
    while times[-1] < t_end + period:
        step = period * (1.0 + jitter * rng.standard_normal())
        times.append(times[-1] + max(step, 0.2 * period))
    return np.asarray(times)


def separation_model(config, warps, t_end, t_start=0.0):
    """Two quasi-periodic phase-warped components over [t_start, t_end]."""
    comps = []
    for warp, amp in zip(warps, config.amplitudes):
        phase_span = (float(warp.forward(t_start)), float(warp.forward(t_end)))
        cycles = (phase_span[1] - phase_span[0]) / (2.0 * np.pi)
        count = max(int(np.ceil(cycles * config.grid_per_cycle)), 16)
        grid = grid_covering_box([phase_span], [count])
        kernel = QuasiPeriodic(amplitude=amp,
                               env_lengthscale=config.env_lengthscale,
                               per_lengthscale=config.per_lengthscale,
                               period=2.0 * np.pi)
        comps.append(GpComponent(kernel, warp, grid))
    # free: the two amplitudes; lengthscales, periods and noise stay fixed
    fixed = np.ones(2 * 5 + 1, dtype=bool)
    fixed[[0, 5]] = False
    return GpModel(comps, noise=config.noise, fixed=fixed)


def run_separation1d(config):
    """Fit and separate a two-source quasi-periodic mixture.

    With ``data_csv`` the series is loaded first and its time column,
    which must be strictly increasing, sets the span of the grids, and
    both warps come from the event CSVs; otherwise ``n`` samples at
    spacing ``dt`` are drawn from the prior, and a source without an
    event CSV gets synthetic events.
    """
    from .csvio import load_events_csv, load_series_csv

    rng = np.random.default_rng(config.seed)
    if config.data_csv:
        series = load_series_csv(config.data_csv)
        if "time" not in series or "value" not in series:
            raise ConfigError("data_csv: expected 'time' and 'value' columns")
        t = series["time"]
        y = series["value"]
        if t.size < 2 or not np.all(np.diff(t) > 0.0):
            raise ConfigError(
                "data_csv: the time column must be finite and strictly "
                "increasing with at least 2 rows")
    else:
        t = np.arange(config.n) * config.dt
    t_start, t_end = float(t[0]), float(t[-1])

    warps = []
    for name, period in (("maternal_events_csv", config.maternal_period),
                         ("fetal_events_csv",
                          config.maternal_period / config.period_ratio)):
        path = getattr(config, name)
        if not path:
            events = _synthetic_events(rng, t_end, period,
                                       config.period_jitter)
        elif (events := load_events_csv(path)).size < 2:
            raise ConfigError(f"{name}: need at least 2 events, got "
                              f"{events.size}")
        elif np.any(np.diff(events) <= 0.0):
            raise ConfigError(f"{name}: event times in {path} must strictly "
                              "increase")
        warps.append(phase_from_events(events))
        if not np.all(np.diff(warps[-1].forward(t)) > 0.0):
            raise ConfigError(f"{'data_csv' if config.data_csv else 'dt'}: "
                              "consecutive samples share a rounded phase")
    model = separation_model(config, warps, t_end, t_start=t_start)

    if config.data_csv:
        truths = None
    else:
        draw = sample_prior(model, t, seed=config.seed + 1)
        y = draw.y
        truths = draw.latents

    result, t_learn = _learn(config, model, t, y)
    t0 = time.perf_counter()
    sep = separate(result.model, t, y, cg_tol=config.cg_tol_separation)
    t_sep = time.perf_counter() - t0

    metrics = {}
    if truths is not None:
        for j, name in enumerate(("maternal", "fetal")):
            metrics[f"snr_improvement_{name}_db"] = snr_improvement(
                y, sep.means[j], truths[j])

    report = RunReport(
        kind="separation1d", n=t.size,
        timings={"learning": t_learn, "separation": t_sep},
        metrics=metrics, fit=result, solve=sep.cg_report)
    tables = {os.path.join("separated", "sources.csv"): {
        "time": t, "y": y,
        "mean_maternal": sep.means[0], "mean_fetal": sep.means[1],
        **({"truth_maternal": truths[0], "truth_fetal": truths[1]}
           if truths is not None else {})}}
    _write_outputs(config, tables, report)
    return report


def run_sweep(config, n_values, m_axis_counts):
    """Timing/error curves over input and inducing-point counts."""
    rows_n = {"n": [], "time_inference_s": [], "time_nlml_s": [], "rmse": []}
    for n in n_values:
        sub = dataclasses.replace(config, n=int(n), out_dir=None)
        x, draw = _sample_numeric2d(sub)
        sep, timings = _infer_numeric2d(sub, numeric2d_model(sub), x,
                                        draw.y)
        rows_n["n"].append(n)
        rows_n["time_inference_s"].append(timings["inference"])
        rows_n["time_nlml_s"].append(timings["nlml_eval"])
        rows_n["rmse"].append(rmse(sum(sep.means), draw.latent))
    rows_m = {"m_total": [], "time_inference_s": [], "mvm_time_s": []}
    for counts in m_axis_counts:
        sub = dataclasses.replace(config, out_dir=None,
                                  grid_counts=tuple(counts))
        x, draw = _sample_numeric2d(sub)
        op = build_operator(numeric2d_model(sub), x)
        rows_m["m_total"].append(op.components[0].grid.total_size)
        rows_m["time_inference_s"].append(_timeit(
            lambda: cg_solve(op.matvec, draw.y, tol=sub.cg_tol_inference)))
        rows_m["mvm_time_s"].append(_timeit(lambda: op.matvec(draw.y)))
    _write_outputs(config, {
        os.path.join("curves", "scaling_vs_n.csv"): rows_n,
        os.path.join("curves", "scaling_vs_m.csv"): rows_m})
    return rows_n, rows_m
