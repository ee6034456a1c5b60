"""Exact Euler characteristic curves as step functions of the threshold.

Each pixel deposits its coefficient into the bin of the smallest threshold
covering its value, with one overflow bin past the last threshold.  Only
critical pixels, those with a nonzero coefficient, change a bin, and the
curve, the prefix sum of the bins, changes only where they fall.

Both strategies walk the flat pixel range in blocks, on the calling
thread, through one span primitive, :func:`_span_counts`: the
coefficients of the rows a block touches, computed on a view boxed to the
block and a one-pixel halo, reading its halo rows, are compacted to the
block's critical pixels and binned into sparse ``(bins, weights)`` pairs.
:func:`compute_ecc` merges all pairs once: fewer than a quarter of the
thresholds are summed per distinct bin and each int64 partial sum repeated
up to the next bin, more are counted densely; the overflow bin drops.
Every weight and sum is an integer far below 2**53, hence exact, so
results are bit-identical across strategies and worker counts.  The
strategies differ only in block size:

* ``FullSweep``: cache-sized runs of first-axis rows.
* ``Chunked``: a deliberately overhead-faithful baseline that walks fixed
  length chunks of the flat pixel range, each chunk on its own halo box.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from .coefficients import _coefficient_rows, _critical_pixels, _fan_out, _row_block
from .grid import EulerCurve, ScalarGrid, ThresholdSet, _positive_int


@dataclass(frozen=True)
class FullSweep:
    """Single pass over the grid in cache-sized blocks."""

    def __str__(self):
        return "fullsweep"


@dataclass(frozen=True)
class Chunked:
    """Sequential fixed-size chunks, each on its own halo box."""

    chunk_len: int

    def __post_init__(self):
        _positive_int("chunk_len", self.chunk_len)

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


class _Pairs(list):
    """``(bins, weights)`` pairs that ``+=`` concatenates, merged once more than
    64 are held: a few bytes per critical pixel, not two arrays per block."""

    def __iadd__(self, other):
        super().__iadd__(other)
        if len(self) > 64:
            self[:] = [self.merged()]
        return self

    def merged(self) -> tuple:
        return tuple(np.concatenate(a) for a in zip(*self))


def _span_counts(grid: ScalarGrid, taus: ThresholdSet, start: int, stop: int) -> _Pairs:
    """:class:`_Pairs` of one pair, the coefficient totals by bin of pixels [start, stop).

    Coefficients are computed for the first-axis rows the range touches,
    on a view boxed on each trailing axis to the range plus a one-pixel
    halo when the range keeps every earlier coordinate fixed, and to the
    full extent otherwise.  The range is then one contiguous slice of the
    raveled result, and a row-aligned range computes exactly its own rows.
    The range is compacted to its critical pixels: fewer of them than
    thresholds give their own bins and coefficients, more a weighted count
    (integer partial sums, exact) of their nonzero bins.
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
    _, critical, weights = _critical_pixels(values.ravel()[start:stop], span)
    bins = taus.bin_indices(critical)
    if bins.size < len(taus):
        return _Pairs([(bins, weights)])
    counts = np.bincount(bins, weights=weights)
    nonzero = np.flatnonzero(counts != 0)
    return _Pairs([(nonzero, counts[nonzero])])


def compute_ecc(
    grid: ScalarGrid,
    taus: ThresholdSet,
    strategy: Strategy = FullSweep(),
    workers: int = 1,
) -> EulerCurve:
    """Exact Euler characteristic curve at every threshold.

    The result is bit-identical across strategies and worker counts.
    ``workers`` is accepted and checked, but every block runs on the calling
    thread: a block is about 150 numpy calls on 64 KiB arrays, each holding
    the GIL, so a second worker only waits for it.  On 2 vCPUs, over several
    rounds, two workers ran at 0.68-0.97x the one-worker speed at 128**3 with
    256 thresholds, 0.68-1.14x at 1024**2, and 0.18-0.54x on 512**2 blobs with
    a threshold at every value, where a thread waits out the GIL switch interval.
    """
    _positive_int("workers", workers)
    if isinstance(strategy, FullSweep):
        step = _row_block(grid.dims) * (grid.size // grid.dims[0])
    elif isinstance(strategy, Chunked):
        step = strategy.chunk_len
    else:
        raise TypeError(f"unknown strategy {strategy!r}")
    pairs = _fan_out(partial(_span_counts, grid, taus), grid.size, step, 1)
    bins, weights = pairs.merged()
    if 4 * bins.size >= len(taus):  # a dense count: faster than sorting the bins, no larger
        chi = np.bincount(bins, weights, len(taus) + 1)[:-1].astype(np.int64)
        return EulerCurve(taus.taus, np.cumsum(chi, out=chi))
    at, inverse = np.unique(bins, return_inverse=True)
    steps = np.bincount(inverse, weights=weights).astype(np.int64)
    # chi[j] sums the steps at bins <= j: 0 before the first, then each
    # partial sum up to the next bin or the end, so the overflow bin drops
    gaps = np.diff(at, prepend=0, append=len(taus))
    chi = np.repeat(np.concatenate(([0], np.cumsum(steps))), gaps)
    return EulerCurve(taus.taus, chi)
