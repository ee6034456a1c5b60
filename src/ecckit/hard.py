"""Exact Euler characteristic curves by weighted histogram accumulation.

Each pixel deposits its coefficient into the bin of the smallest threshold
covering its value; one internal overflow slot after the last bin takes
pixels above the last threshold.  A prefix sum over the bins, overflow
slot excluded, then yields the curve.  Only critical pixels, those with a
nonzero coefficient, change a bin, so a block that is mostly zeros is
compacted to them before binning.  Each worker counts into one float64
histogram whose sums are small integers, hence exact; the worker
histograms are added in worker order and converted to int64 once, so
results are bit-identical across strategies and worker counts.

Two accumulation strategies expose a performance comparison:

* ``FullSweep``: the grid's cache-sized row blocks are statically
  partitioned among workers, whole blocks each, recomputing a one-row
  halo per block boundary; each worker scans its blocks once into a
  private histogram.  A grid of one block runs on the calling thread.
* ``Chunked``: a deliberately overhead-faithful baseline that walks fixed
  length chunks of the flat pixel range sequentially, recomputes a
  one-pixel halo around every chunk, and adds each chunk into the running
  total after every chunk.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from .coefficients import (
    _coefficient_rows,
    _critical_pixels,
    _fan_out,
    _lower_star_coefficients,
    _row_block,
)
from .grid import EulerCurve, ScalarGrid, ThresholdSet


@dataclass(frozen=True)
class FullSweep:
    """Single pass over the grid, one histogram merge per worker."""

    def __str__(self):
        return "fullsweep"


@dataclass(frozen=True)
class Chunked:
    """Sequential fixed-size chunks with a global merge after each chunk."""

    chunk_len: int

    def __post_init__(self):
        if self.chunk_len < 1:
            raise ValueError(f"chunk_len must be >= 1, got {self.chunk_len}")

    def __str__(self):
        return f"chunked:{self.chunk_len}"


Strategy = FullSweep | Chunked


def parse_strategy(text: str) -> Strategy:
    """Parse ``fullsweep`` or ``chunked:<k>``."""
    if text == "fullsweep":
        return FullSweep()
    if text.startswith("chunked:"):
        return Chunked(int(text.split(":", 1)[1]))
    raise ValueError(f"unknown strategy {text!r}; expected 'fullsweep' or 'chunked:<k>'")


def _block_counts(values, coeffs, taus: ThresholdSet) -> np.ndarray:
    """Float64 coefficient totals of one block per bin, overflow last.

    A block whose nonzero share is under a quarter is first compacted to
    its critical pixels; denser blocks are binned whole, since compaction
    then costs more than binning the zeros.  The weighted count is exact:
    every partial sum is an integer of magnitude at most 7 * pixels, far
    below 2**53.
    """
    if 4 * np.count_nonzero(coeffs) < coeffs.size:
        _, values, coeffs = _critical_pixels(values, coeffs)
    bins = taus.bin_indices(values.ravel())
    return np.bincount(bins, weights=coeffs.ravel(), minlength=len(taus) + 1)


def _sweep_rows(grid: ScalarGrid, taus: ThresholdSet, b0: int, b1: int) -> np.ndarray:
    """Float64 coefficient totals per bin, overflow last, of row blocks [b0, b1).

    A block is a run of :func:`_row_block` first-axis rows.
    """
    values = grid.values
    hist = np.zeros(len(taus) + 1)
    step = _row_block(values.shape)
    for s0 in range(b0 * step, min(b1 * step, values.shape[0]), step):
        s1 = min(values.shape[0], s0 + step)
        hist += _block_counts(values[s0:s1], _coefficient_rows(values, s0, s1), taus)
    return hist


def _flat_range_box(start: int, stop: int, dims) -> tuple[slice, ...]:
    """Bounding box of the flat index range [start, stop), plus a 1-pixel halo."""
    first = np.unravel_index(start, dims)
    last = np.unravel_index(stop - 1, dims)
    box = []
    split = False
    for a, (f, l) in enumerate(zip(first, last)):
        if split:
            lo, hi = 0, dims[a]
        else:
            lo, hi = int(f), int(l) + 1
            if f != l:
                split = True
        box.append(slice(max(0, lo - 1), min(dims[a], hi + 1)))
    return tuple(box)


def _chunk_histogram(grid: ScalarGrid, taus: ThresholdSet, start: int, stop: int) -> np.ndarray:
    """Float64 histogram of one flat chunk, recomputing coefficients with a halo."""
    box = _flat_range_box(start, stop, grid.dims)
    coords = np.unravel_index(np.arange(start, stop), grid.dims)
    local = tuple(c - s.start for c, s in zip(coords, box))
    c8 = _lower_star_coefficients(grid.values[box])[local]
    return _block_counts(grid.values.ravel()[start:stop], c8, taus)


def compute_ecc(
    grid: ScalarGrid,
    taus: ThresholdSet,
    strategy: Strategy = FullSweep(),
    workers: int = 1,
) -> EulerCurve:
    """Exact Euler characteristic curve at every threshold.

    The result is bit-identical across strategies and worker counts.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")

    if isinstance(strategy, FullSweep):
        blocks = -(-grid.dims[0] // _row_block(grid.dims))
        hist, *rest = _fan_out(partial(_sweep_rows, grid, taus), blocks, workers)
        for part in rest:
            hist += part
    elif isinstance(strategy, Chunked):
        # Deliberately sequential: models per-chunk synchronization; every
        # chunk pays a halo recompute plus an add into the running total.
        hist = np.zeros(len(taus) + 1)
        n = grid.size
        for start in range(0, n, strategy.chunk_len):
            stop = min(n, start + strategy.chunk_len)
            hist += _chunk_histogram(grid, taus, start, stop)
    else:
        raise TypeError(f"unknown strategy {strategy!r}")

    return EulerCurve(taus.taus, np.cumsum(hist.astype(np.int64)[:-1]))
