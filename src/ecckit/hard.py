"""Exact Euler characteristic curves by weighted histogram accumulation.

Each pixel deposits its coefficient into the bin of the smallest threshold
covering its value; one internal overflow slot after the last bin takes
pixels above the last threshold.  A prefix sum over the bins, overflow
slot excluded, then yields the curve.  Only critical pixels, those with a
nonzero coefficient, change a bin, so a block that is mostly zeros is
compacted to them before binning.

Both strategies walk the flat pixel range in blocks through one span
primitive, :func:`_span_counts`: the coefficients of the rows a block
touches, computed on a view boxed to the block and a one-pixel halo,
reading its halo rows, are binned into one float64 histogram.  Each
worker adds whole blocks into a private histogram whose sums are small
integers, hence exact; the worker histograms are added in worker order
and converted to int64 once, so results are bit-identical across
strategies and worker counts.  The strategies differ only in block size
and worker count:

* ``FullSweep``: cache-sized runs of first-axis rows, statically
  partitioned among workers, whole blocks each.  A grid of one block
  runs on the calling thread.
* ``Chunked``: a deliberately overhead-faithful baseline that walks fixed
  length chunks of the flat pixel range on one thread, each chunk on its
  own halo box and added into the running total.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from .coefficients import (
    _coefficient_rows,
    _critical_pixels,
    _fan_out,
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
    # bincount returns int64 on empty input, whatever the weights
    counts = np.bincount(bins, weights=coeffs.ravel(), minlength=len(taus) + 1)
    return counts.astype(np.float64, copy=False)


def _span_counts(grid: ScalarGrid, taus: ThresholdSet, start: int, stop: int) -> np.ndarray:
    """Float64 coefficient totals per bin, overflow last, of the flat pixels [start, stop).

    Coefficients are computed for the first-axis rows the range touches,
    on a view boxed on each trailing axis to the range plus a one-pixel
    halo when the range keeps every earlier coordinate fixed, and to the
    full extent otherwise.  The range is then one contiguous slice of the
    raveled result, and a row-aligned range computes exactly its own rows.
    """
    values = grid.values
    first = np.unravel_index(start, grid.dims)
    last = np.unravel_index(stop - 1, grid.dims)
    box = [
        slice(max(0, first[a] - 1), last[a] + 2) if first[:a] == last[:a] else slice(0, None)
        for a in range(1, grid.ndim)
    ]
    coeffs = _coefficient_rows(values[(slice(None), *box)], first[0], last[0] + 1)
    local = [f - s.start for f, s in zip(first[1:], box)]
    offset = np.ravel_multi_index([0, *local], coeffs.shape)
    span = coeffs.ravel()[offset : offset + stop - start]
    return _block_counts(values.ravel()[start:stop], span, taus)


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
        step, w = _row_block(grid.dims) * (grid.size // grid.dims[0]), workers
    elif isinstance(strategy, Chunked):
        # Deliberately sequential: models per-chunk synchronization; every
        # chunk pays for its own halo box plus an add into the running total.
        step, w = strategy.chunk_len, 1
    else:
        raise TypeError(f"unknown strategy {strategy!r}")
    hist = _fan_out(partial(_span_counts, grid, taus), grid.size, step, w)
    return EulerCurve(taus.taus, np.cumsum(hist.astype(np.int64)[:-1]))
