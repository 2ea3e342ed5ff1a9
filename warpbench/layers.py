"""Layer microbenchmarks on a workload's operator, through public calls.

Times one mixture MVM on a single column and per column of a 30-column
block, and each Toeplitz factor by FFT against a dense product per
column, which is the FFT/dense crossover a Kronecker layer would pick
from. Flops and bytes of one single-column MVM are computed from array
sizes, not measured, and are named ``..._computed``.
"""

from __future__ import annotations

import math
import statistics
import time

import numpy as np
import scipy.fft

BLOCK = 30
MIN_REPEATS = 5
MAX_REPEATS = 200
TARGET_S = 0.15


def _median_call_s(fn):
    """Median wall time of ``fn`` over repeats filling about ``TARGET_S``."""
    fn()
    times = []
    spent = 0.0
    while len(times) < MIN_REPEATS or (spent < TARGET_S
                                       and len(times) < MAX_REPEATS):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
        spent += times[-1]
    return statistics.median(times)


def _fft_flops(length):
    """Real FFT pair (forward and inverse) plus the spectral product."""
    return 2 * 2.5 * length * math.log2(length) + 6 * (length // 2 + 1)


def computed_mvm_cost(op):
    """Flops and bytes moved by one single-column mixture MVM.

    ``W`` and ``W^T`` stream values (8 B) and column indices (4 B) of
    every nonzero and gather one operand entry each; a Toeplitz product
    of a length-``m`` column embedded in a circulant of length ``L``
    reads and writes the column and its spectrum once.
    """
    n = op.n
    flops = 2 * n                       # noise term and the running sum
    bytes_moved = 3 * 8 * n
    for c in op.components:
        nnz = c.weights.matrix.nnz
        m = c.weights.shape[1]
        flops += 2 * 2 * nnz
        bytes_moved += 2 * (nnz * (8 + 4 + 8) + (n + 1) * 4 + (n + m) * 8)
        total = c.grid.total_size
        for f in c.kuu.factors:
            size = f.shape[0]
            length = scipy.fft.next_fast_len(2 * size - 1, real=True)
            cols = total // size
            flops += cols * _fft_flops(length)
            bytes_moved += cols * (2 * size * 8 + 2 * (length // 2 + 1) * 16)
    return float(flops), float(bytes_moved)


def layer_metrics(op, seed=0):
    """Per-layer microbenchmark metrics for the operator ``op``."""
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(op.n)
    block = rng.standard_normal((op.n, BLOCK))
    out = {
        "operators.mvm1_ms": 1e3 * _median_call_s(lambda: op.matvec(v)),
        "operators.mvm_block_ms_per_col":
            1e3 * _median_call_s(lambda: op.matvec(block)) / BLOCK,
    }
    factors = [f for c in op.components for f in c.kuu.factors]
    for i, f in enumerate(factors):
        cols = rng.standard_normal((f.shape[0], BLOCK))
        dense = f.dense()
        out[f"structured.f{i}.toeplitz_fft_ms_per_col"] = (
            1e3 * _median_call_s(lambda: f.matmat(cols)) / BLOCK)
        out[f"structured.f{i}.toeplitz_dense_ms_per_col"] = (
            1e3 * _median_call_s(lambda: dense @ cols) / BLOCK)
    flops, bytes_moved = computed_mvm_cost(op)
    out["operators.mvm_flops_computed"] = flops
    out["operators.mvm_bytes_computed"] = bytes_moved
    return out
