"""Scalable GP regression and source separation with warped inducing grids."""

from .kernels import Periodic, Product, QuasiPeriodic, SquaredExponential
from .warping import (ElementwiseWarp, Identity, PiecewiseLinearPhase,
                      Polynomial1D, phase_from_events)
from .grids import (InducingGrid, InterpWeights, grid_covering_box,
                    interpolation_weights, warped_grid)
from .structured import KronOperator, SymToeplitz
from .operators import MixtureOperator, SkiComponent, build_component
from .krylov import (CgReport, LanczosFactor, cg_solve, lanczos,
                     rademacher_probes, slq_logdet, slq_probes)
from .model import (FitResult, GpComponent, GpModel, SeparationResult,
                    approx_nlml, build_operator, exact_nlml, fit,
                    predict_mean, sample_prior, separate)

__version__ = "0.1.0"
