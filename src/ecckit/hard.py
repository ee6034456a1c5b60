"""Exact Euler characteristic curves by weighted histogram accumulation.

Each pixel deposits its coefficient into the bin of the smallest threshold
covering its value (pixels above the last threshold are tallied in a
separate overflow bucket); a prefix sum over bins then yields the curve.
Only critical pixels, those with a nonzero coefficient, change a bin, so
a block that is mostly zeros is compacted to them before binning.  Each
worker counts into one float64 histogram whose sums are small integers,
hence exact, and converts it to int64 once; results are bit-identical
across strategies, worker counts and merge orders.

Two accumulation strategies expose a performance comparison:

* ``FullSweep``: the whole pixel range is statically partitioned among
  workers; each worker scans its share once into a private histogram and
  the private histograms are merged exactly once at the end.  Internally a
  worker walks cache-sized row blocks, recomputing a one-row halo per
  block boundary.
* ``Chunked``: a deliberately overhead-faithful baseline that walks fixed
  length chunks of the flat pixel range sequentially, recomputes a
  one-pixel halo around every chunk, and re-merges into the global
  histogram after every chunk.
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


@dataclass(frozen=True)
class HistogramBins:
    """Integer coefficient totals per threshold bin.

    ``bins[j]`` sums coefficients of pixels whose covering threshold is
    ``taus[j]``; ``overflow`` sums those above the last threshold.  Their
    grand total is 1 on any full grid.
    """

    taus: np.ndarray
    bins: np.ndarray
    overflow: int


def bin_index(x: float, taus: ThresholdSet) -> int | None:
    """Smallest index j with x <= taus[j] (0-based), or None beyond the last.

    Binary search; the batched path in :func:`compute_ecc` uses the
    certified affine rule of :class:`ThresholdSet` when available.
    """
    j = int(np.searchsorted(taus.taus, x, side="left"))
    return j if j < len(taus) else None


def merge_histograms(parts) -> HistogramBins:
    """Element-wise sum of histograms over identical threshold sets.

    Integer addition is associative and commutative, so the merge order
    never affects the result.
    """
    parts = list(parts)
    if not parts:
        raise ValueError("cannot merge zero histograms")
    first = parts[0]
    for p in parts[1:]:
        if p.bins.shape != first.bins.shape:
            raise ValueError(
                f"histogram bin counts differ: {p.bins.size} vs {first.bins.size}"
            )
        if not np.array_equal(p.taus, first.taus):
            raise ValueError("histograms were accumulated over different thresholds")
    bins = np.sum([p.bins for p in parts], axis=0, dtype=np.int64)
    overflow = int(sum(p.overflow for p in parts))
    return HistogramBins(first.taus, bins, overflow)


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


def _to_bins(taus: ThresholdSet, hist: np.ndarray) -> HistogramBins:
    counts = hist.astype(np.int64)
    return HistogramBins(taus.taus, counts[:-1], int(counts[-1]))


def _sweep_rows(grid: ScalarGrid, taus: ThresholdSet, r0: int, r1: int) -> HistogramBins:
    """Private histogram for first-axis rows [r0, r1), in cache-sized blocks."""
    values = grid.values
    hist = np.zeros(len(taus) + 1)
    step = _row_block(values.shape)
    for s0 in range(r0, r1, step):
        s1 = min(r1, s0 + step)
        hist += _block_counts(values[s0:s1], _coefficient_rows(values, s0, s1), taus)
    return _to_bins(taus, hist)


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


def _chunk_histogram(grid: ScalarGrid, taus: ThresholdSet, start: int, stop: int) -> HistogramBins:
    """Histogram of one flat chunk, recomputing coefficients with a halo."""
    box = _flat_range_box(start, stop, grid.dims)
    coords = np.unravel_index(np.arange(start, stop), grid.dims)
    local = tuple(c - s.start for c, s in zip(coords, box))
    c8 = _lower_star_coefficients(grid.values[box])[local]
    return _to_bins(taus, _block_counts(grid.values.ravel()[start:stop], c8, taus))


def accumulate_histogram(
    grid: ScalarGrid,
    taus: ThresholdSet,
    strategy: Strategy = FullSweep(),
    workers: int = 1,
) -> HistogramBins:
    """Coefficient histogram of a grid under the given strategy."""
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")

    if isinstance(strategy, FullSweep):
        return merge_histograms(_fan_out(partial(_sweep_rows, grid, taus), grid.dims[0], workers))

    if isinstance(strategy, Chunked):
        # Deliberately sequential: models per-chunk synchronization; every
        # chunk pays a halo recompute plus a merge into the global histogram.
        total = HistogramBins(taus.taus, np.zeros(len(taus), dtype=np.int64), 0)
        n = grid.size
        for start in range(0, n, strategy.chunk_len):
            stop = min(n, start + strategy.chunk_len)
            total = merge_histograms([total, _chunk_histogram(grid, taus, start, stop)])
        return total

    raise TypeError(f"unknown strategy {strategy!r}")


def compute_ecc(
    grid: ScalarGrid,
    taus: ThresholdSet,
    strategy: Strategy = FullSweep(),
    workers: int = 1,
) -> EulerCurve:
    """Exact Euler characteristic curve at every threshold.

    The result is bit-identical across strategies and worker counts.
    """
    hist = accumulate_histogram(grid, taus, strategy, workers)
    return EulerCurve(taus.taus, np.cumsum(hist.bins))
