"""Property tests of the operator contract, the prior-draw roots, the
amplitude derivatives, the inducing lattice, the interpolation weights,
the warps, the separation identity and the rank-truncated trace gradient.

Block Krylov methods apply an operator to ``(n, p)`` blocks, so a block
product must equal the single-column products stacked side by side.
Toeplitz orders are drawn on both sides of ``DENSE_MAX_ORDER``, so the
dense and the FFT branch of ``SymToeplitz`` are both covered.
"""

import json

import numpy as np
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st

from warpski.grids import (COVER_CELLS, MIN_AXIS_COUNT, InducingGrid,
                           grid_covering_box, interpolation_weights)
from warpski.exceptions import NotPositiveDefiniteError
from warpski.kernels import (Periodic, Product, QuasiPeriodic,
                             SquaredExponential)
from warpski.model import (GpComponent, GpModel, _log_divided_difference,
                           _probe_trace_gradient, separate)
from warpski.operators import MixtureOperator, build_component
from warpski.serialize import grid_from_dict, grid_to_dict
from warpski.structured import (DENSE_MAX_ORDER, KronOperator, SymToeplitz,
                                toeplitz_root)
from warpski.warping import (Identity, PiecewiseLinearPhase, Polynomial1D,
                             phase_from_events)

FAST = settings(max_examples=25, deadline=None)
seeds = st.integers(0, 2**32 - 1)
columns = st.integers(1, 6)
orders = st.one_of(st.integers(1, DENSE_MAX_ORDER),
                   st.integers(DENSE_MAX_ORDER + 1, 400))


def _assert_block_equals_columns(apply, block):
    want = np.column_stack([apply(block[:, j]) for j in range(block.shape[1])])
    got = apply(block)
    assert got.shape == block.shape
    np.testing.assert_allclose(got, want, rtol=1e-12,
                               atol=1e-12 * np.abs(want).max())


def _assert_matches_dense(got, dense, v):
    want = dense @ v
    scale = np.abs(dense).sum(axis=1).max() * np.abs(v).max()
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * scale)


@FAST
@given(m=orders, p=columns, seed=seeds)
@example(m=DENSE_MAX_ORDER, p=2, seed=0)
@example(m=DENSE_MAX_ORDER + 1, p=2, seed=0)
def test_toeplitz_block_equals_stacked_columns(m, p, seed):
    # block Lanczos probes see the products their lone runs would see: to
    # the bit through the FFT, to BLAS rounding through the dense matrix
    rng = np.random.default_rng(seed)
    op = SymToeplitz(rng.normal(size=m))
    block = rng.normal(size=(m, p))
    got = op.matmat(block)
    want = np.column_stack([op.matmat(v) for v in block.T])
    if m > DENSE_MAX_ORDER:
        np.testing.assert_array_equal(got, want)
    else:
        np.testing.assert_allclose(got, want, rtol=0,
                                   atol=1e-13 * np.abs(want).max())
    _assert_matches_dense(got, op.dense(), block)


@FAST
@given(m=orders, p=columns, seed=seeds)
@example(m=1, p=1, seed=0)
@example(m=DENSE_MAX_ORDER, p=1, seed=0)
@example(m=DENSE_MAX_ORDER + 1, p=1, seed=0)
def test_toeplitz_matches_scipy_toeplitz(m, p, seed):
    rng = np.random.default_rng(seed)
    column = rng.normal(size=m)
    v = rng.normal(size=(m, p))
    _assert_matches_dense(SymToeplitz(column).matmat(v),
                          scipy.linalg.toeplitz(column), v)


@FAST
@given(big=orders, small=st.lists(st.integers(1, 3), max_size=1),
       first=st.booleans(), p=columns, seed=seeds)
@example(big=DENSE_MAX_ORDER, small=[2], first=True, p=1, seed=0)
@example(big=DENSE_MAX_ORDER + 1, small=[2], first=False, p=1, seed=0)
def test_kronecker_matches_kron_of_dense_factors(big, small, first, p, seed):
    rng = np.random.default_rng(seed)
    sizes = [big] + small if first else small + [big]
    cols = [rng.normal(size=m) for m in sizes]
    dense = scipy.linalg.toeplitz(cols[0])
    for c in cols[1:]:
        dense = np.kron(dense, scipy.linalg.toeplitz(c))
    op = KronOperator([SymToeplitz(c) for c in cols])
    v = rng.normal(size=(op.shape[0], p))
    _assert_matches_dense(op.matmat(v), dense, v)


@FAST
@given(sizes=st.lists(st.integers(1, 9), min_size=1, max_size=3), p=columns,
       seed=seeds)
def test_kronecker_block_equals_stacked_columns(sizes, p, seed):
    rng = np.random.default_rng(seed)
    op = KronOperator([SymToeplitz(rng.normal(size=m)) for m in sizes])
    _assert_block_equals_columns(op.matmat,
                                 rng.normal(size=(op.shape[0], p)))


positive = st.floats(0.3, 3.0)
stationary_kernels = st.one_of(
    st.builds(SquaredExponential, positive, st.floats(0.5, 100.0)),
    st.builds(Periodic, positive, positive, st.floats(2.0, 100.0)),
    st.builds(QuasiPeriodic, positive, st.floats(1.0, 200.0), positive,
              st.floats(2.0, 100.0)))


@FAST
@given(kernel=stationary_kernels,
       m=st.integers(DENSE_MAX_ORDER + 1, DENSE_MAX_ORDER + 44))
def test_circulant_root_squares_to_factor_or_names_it(kernel, m):
    axis = np.arange(m, dtype=float)
    try:
        root, width = toeplitz_root(kernel.eval, axis, 0)
    except NotPositiveDefiniteError as err:
        assert f"factor 0 (order {m})" in str(err)
        return
    # the draw is exact up to the eigenvalues clipped, each at most
    # PSD_RTOL times the embedding's largest, itself <= its column's l1 norm
    r = root(np.eye(width))
    l1 = 2.0 * np.abs(kernel.eval(np.arange(width // 2 + 1.0))).sum()
    factor = scipy.linalg.toeplitz(kernel.eval(axis - axis[0]))
    assert np.linalg.norm(r @ r.T - factor, 2) <= 1e-8 * l1


amplitude_kernels = st.one_of(
    st.builds(SquaredExponential, positive, positive),
    st.builds(Periodic, positive, positive, positive),
    st.builds(lambda a, b: Product([a, b], dims=[0, 1]),
              st.builds(SquaredExponential, positive, positive),
              st.builds(Periodic, positive, positive, positive)),
    st.builds(QuasiPeriodic, positive, positive, positive, positive))


@FAST
@given(kernel=amplitude_kernels,
       lags=st.lists(st.floats(-20.0, 20.0), min_size=2, max_size=40))
@example(kernel=QuasiPeriodic(1.0, 0.5234375, 1.0, 1.5), lags=[0.0, 20.0])
def test_amplitude_rows_of_the_gradient_are_twice_the_kernel(kernel, lags):
    # the derivative forms take amplitude forms from the Lanczos T on this;
    # a subnormal k (far lags) holds it only to the subnormal spacing
    tau = np.column_stack([lags, lags[::-1]])[:, :kernel.arity].squeeze()
    want = (0, 2) if isinstance(kernel, Product) else (0,)
    assert kernel.amplitude_indices == want
    grad, k = kernel.grad(tau), kernel.eval(tau)
    for j in want:
        np.testing.assert_allclose(grad[j], 2.0 * k, rtol=1e-14,
                                   atol=np.finfo(float).tiny)


@FAST
@given(n=st.integers(1, 120), p=columns, seed=seeds)
def test_mixture_block_equals_stacked_columns(n, p, seed):
    rng = np.random.default_rng(seed)
    x = rng.uniform(-1.0, 1.0, n)
    grid = grid_covering_box([(-1.0, 1.0)], [int(rng.integers(12, 60))])
    comps = [build_component(SquaredExponential(1.0, 0.3), Identity(), grid, x),
             build_component(Periodic(0.7, 0.8, 0.5), Identity(), grid, x)]
    op = MixtureOperator(comps, 0.04, n)
    _assert_block_equals_columns(op.matvec, rng.normal(size=(n, p)))


@FAST
@given(ndim=st.integers(1, 3), seed=seeds)
def test_interpolation_rows_sum_to_one_with_4_pow_d_entries(ndim, seed):
    rng = np.random.default_rng(seed)
    counts = rng.integers(8, 16, size=ndim)
    box = [tuple(np.sort(rng.uniform(-3.0, 3.0, 2))) for _ in range(ndim)]
    grid = grid_covering_box(box, counts)
    # points strictly inside each axis's stencil-safe cells
    points = np.column_stack([rng.uniform(a[1], a[-2], 50)
                              for a in grid.axes])
    w = interpolation_weights(grid, points)
    assert np.all(np.diff(w.matrix.indptr) == 4 ** ndim)
    np.testing.assert_allclose(w.matrix.sum(axis=1).A1, 1.0, atol=1e-12)


# (lo, width, count) of one lattice axis
lattice_axes = st.tuples(st.floats(-100.0, 100.0), st.floats(1e-3, 1e3),
                         st.integers(MIN_AXIS_COUNT, 300))


@FAST
@given(axes=st.lists(lattice_axes, min_size=1, max_size=3))
def test_lattice_is_linspace_and_round_trips_exactly(axes):
    bounds = [(lo, lo + width) for lo, width, _ in axes]
    counts = [count for _, _, count in axes]
    grid = InducingGrid(bounds, counts)
    for axis, (lo, hi), count in zip(grid.warped_axes, bounds, counts):
        np.testing.assert_array_equal(axis, np.linspace(lo, hi, count))
    phase = PiecewiseLinearPhase([0.0, 1.0, 3.0], [0.0, 2.0, 3.0])
    for g in (grid, InducingGrid(bounds, counts, [phase] * len(counts))):
        spec = json.loads(json.dumps(grid_to_dict(g)))
        back = grid_from_dict(spec)
        assert grid_to_dict(back) == spec
        for got, want in zip(back.axes + back.warped_axes,
                             g.axes + g.warped_axes):
            np.testing.assert_array_equal(got, want)


@FAST
@given(axis=lattice_axes)
def test_covering_box_leaves_three_cells_per_side(axis):
    lo, width, count = axis
    hi = lo + width
    grid = grid_covering_box([(lo, hi)], [count])
    np.testing.assert_allclose(
        grid.axes[0][[COVER_CELLS, -1 - COVER_CELLS]], [lo, hi],
        rtol=0, atol=1e-9 * width)
    interpolation_weights(grid, np.array([lo, hi]))  # inside the safe region


@FAST
@given(seed=seeds)
def test_polynomial_warp_round_trip(seed):
    # derivative 3a (x - s)^2 + d >= d > 0 everywhere: monotone by design
    rng = np.random.default_rng(seed)
    a, s, d = rng.uniform(0.0, 2.0), rng.uniform(-1.0, 1.0), \
        rng.uniform(0.5, 2.0)
    lo = rng.uniform(-2.0, 1.5)
    hi = rng.uniform(lo + 0.1, 2.0)
    warp = Polynomial1D([a, -3 * a * s, 3 * a * s ** 2 + d], (lo, hi))
    x = np.concatenate([[lo, hi], rng.uniform(lo, hi, 200)])
    np.testing.assert_allclose(warp.inverse(warp.forward(x)), x, rtol=0,
                               atol=1e-10)


@FAST
@given(seed=seeds)
def test_event_phase_round_trip(seed):
    rng = np.random.default_rng(seed)
    events = rng.uniform(-5.0, 5.0) + np.cumsum(
        rng.uniform(0.2, 2.0, int(rng.integers(2, 30))))
    warp = phase_from_events(events)
    # events, points between them and extrapolated points beyond both ends
    x = np.concatenate([events, rng.uniform(events[0] - 3.0,
                                            events[-1] + 3.0, 200)])
    np.testing.assert_allclose(warp.inverse(warp.forward(x)), x, rtol=0,
                               atol=1e-10)


@FAST
@given(n=st.integers(5, 120), seed=seeds)
@example(n=18, seed=29)  # needs more than n CG steps in finite precision
def test_separation_means_and_noise_reconstruct_data(n, seed):
    rng = np.random.default_rng(seed)
    x = rng.uniform(-1.0, 1.0, n)
    y = rng.normal(size=n)
    grids = [grid_covering_box([(-1.0, 1.0)], [int(rng.integers(12, 60))])
             for _ in range(2)]
    kernels = [SquaredExponential(rng.uniform(0.3, 2.0),
                                  rng.uniform(0.1, 1.0)),
               Periodic(rng.uniform(0.3, 2.0), rng.uniform(0.3, 1.5),
                        rng.uniform(0.2, 1.0))]
    model = GpModel([GpComponent(k, Identity(), g)
                     for k, g in zip(kernels, grids)],
                    noise=rng.uniform(0.1, 1.0))
    cg_tol = 1e-6
    sep = separate(model, x, y, cg_tol=cg_tol)
    assert sep.cg_report.converged
    identity = y - sum(sep.means) - model.noise_variance * sep.cg_report.x
    # CG stops on its recursive residual, so allow rounding drift on top
    assert np.linalg.norm(identity) <= 1.01 * cg_tol * np.linalg.norm(y)


class _FormsOfB:
    """A stand-in operator whose derivative form on X is X^T B X, checking
    that the X^T K X it is handed is that of T = V diag(vals) V^T."""

    def __init__(self, b, t):
        self.n, self.b, self.t = len(b), b, t

    def derivative_forms(self, indices, x, xkx):
        np.testing.assert_allclose(np.eye(x.shape[1]), x.T @ x, rtol=0,
                                   atol=1e-12)
        np.testing.assert_allclose(xkx, x.T @ self.t @ x, rtol=0,
                                   atol=1e-12 * np.abs(self.t).max())
        return [x.T @ self.b @ x for _ in indices]


@FAST
@given(k=st.integers(1, 40), close=st.integers(0, 5), seed=seeds)
@example(k=30, close=5, seed=0)
def test_rank_truncated_trace_gradient_matches_full_rank(k, close, seed):
    # n sum_r mu_r (S_r^T B_V S_r)_rr over the eigenpairs of
    # G = diag(u) Phi diag(u) kept by GRADIENT_RANK_RTOL equals the full
    # n u^T ((B_V o Phi) u), also where Ritz values nearly coincide and
    # Phi takes its 2 / (a + b) branch
    rng = np.random.default_rng(seed)
    vals = np.exp(rng.uniform(np.log(1e-2), np.log(1e4), k))
    pairs = rng.integers(0, k, size=(min(close, k - 1), 2))
    vals[pairs[:, 0]] = vals[pairs[:, 1]] * (
        1.0 + rng.uniform(-1e-13, 1e-13, len(pairs)))
    vecs, _ = np.linalg.qr(rng.normal(size=(k, k)))
    b = rng.normal(size=(k, k))
    b = b + b.T
    b_v = vecs.T @ b @ vecs
    u, phi = vecs[0], _log_divided_difference(vals)
    want = k * u @ ((b_v * phi) @ u)
    got = _probe_trace_gradient(_FormsOfB(b, (vecs * vals) @ vecs.T), [0],
                                np.eye(k), vals, vecs)
    scale = k * np.abs(u) @ ((np.abs(b_v) * phi) @ np.abs(u))
    assert abs(got[0] - want) <= 1e-10 * scale
