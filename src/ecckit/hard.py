"""Exact Euler characteristic curves as step functions of the threshold.

Each pixel deposits its coefficient into the bin of the smallest threshold
covering its value, with one overflow bin past the last threshold.  Only
critical pixels, those with a nonzero coefficient, change a bin, and the
curve, the prefix sum of the bins, changes only where they fall.

Both strategies walk the grid in blocks of whole first-axis rows, on the
calling thread, through one span primitive, :func:`_span_bins`: the rows'
coefficients, by :func:`compute_coefficients`' kernel reading the rows and a
one-row halo in place, and the rows' values go to
:meth:`ThresholdSet._bin_pairs`.  It compacts them to the critical pixels and
bins them into ``(bins, weights)`` pairs, one per pixel or, from 2(2T + 1)
pixels on in one round, T the thresholds, one per nonzero key of a block's
key histogram, freeing each array, the int8 block first, at its last use.
:func:`compute_ecc` folds blocks as they come, by one rule: held pairs
(concatenated once more than 64 are held) that number T or more are added
to one float64 histogram of T + 1 bins and dropped before the next block is
computed.  At the end, fewer than T/4 pairs with no histogram are summed
per distinct bin, each int64 partial sum repeated up to the next bin;
otherwise the rest join the histogram and it is prefix summed.  The
overflow bin drops; memory is O(T + block).  Weights and sums are integers
far below 2**53, hence exact and bit-identical across strategies and worker
counts.  The strategies differ only in block size, the most whole rows
within a pixel count, one row at least (:func:`_row_block`):

* ``FullSweep``: 82,264 pixels, which keeps a block within its byte budget:
  5 rows at 128**3, 160 at 512**2.
* ``Chunked(k)``: ``k`` pixels, a deliberately overhead-faithful baseline
  whose small blocks pay each numpy call's fixed cost more often.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from .coefficients import _blocks, _coefficient_rows, _row_block
from .grid import EulerCurve, ScalarGrid, ThresholdSet, _positive_int


@dataclass(frozen=True)
class FullSweep:
    """Single pass over the grid in row blocks sized to a byte budget."""

    def __str__(self):
        return "fullsweep"


@dataclass(frozen=True)
class Chunked:
    """Sequential blocks of the most whole rows within ``chunk_len`` pixels, one at least."""

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


def _block_rows(grid: ScalarGrid, strategy: Strategy) -> int:
    """First-axis rows in each block ``strategy`` walks over ``grid``, the last one aside."""
    if isinstance(strategy, FullSweep):
        return _row_block(grid.dims)
    if isinstance(strategy, Chunked):
        return _row_block(grid.dims, strategy.chunk_len)
    raise TypeError(f"unknown strategy {strategy!r}")


def _span_bins(grid: ScalarGrid, taus: ThresholdSet, r0: int, r1: int) -> tuple:
    """``(bins, weights)`` of the critical pixels in first-axis rows [r0, r1): the
    rows' values and :func:`compute_coefficients` coefficients, raveled in flat
    order, compacted and binned by the lookup, as the module says."""
    # no local keeps the int8 block: CPython frees an argument only when the callee holds the
    # last reference, so the lookup frees it once compacted (a *-call's tuple would hold it)
    return taus._bin_pairs(grid.values[r0:r1].ravel(), _coefficient_rows(grid.values, r0, r1).ravel())


def compute_ecc(
    grid: ScalarGrid,
    taus: ThresholdSet,
    strategy: Strategy = FullSweep(),
    workers: int = 1,
) -> EulerCurve:
    """Exact Euler characteristic curve at every threshold.

    Blocks come from :func:`_blocks` one at a time, folded by the module's
    one rule, bit-identically across strategies and worker counts.
    ``workers`` is checked, but every block runs on the calling thread: a
    5-row 128**3 block is about 110 numpy calls with views (a 160-row
    512**2 block about 60), each holding the GIL, so on 2 vCPUs two workers
    ran at 0.51-0.94x the one-worker speed (CPU/wall 1.0).
    """
    _positive_int("workers", workers)
    n, held, pairs, hist = len(taus), [], 0, None
    for pair in _blocks(partial(_span_bins, grid, taus), grid.dims[0], _block_rows(grid, strategy)):
        held.append(pair)
        pairs += pair[0].size
        del pair  # held or counted, not kept alive while the next block is computed
        if pairs >= n:
            hist, held, pairs = _count(hist, held, n), [], 0
        elif len(held) > 64:  # a few bytes per critical pixel, not two arrays per block
            held = [tuple(map(np.concatenate, zip(*held)))]
    if hist is None and 4 * pairs < n:  # a sparse sum
        bins, weights = map(np.concatenate, zip(*held))
        at, inverse = np.unique(bins, return_inverse=True)
        steps = np.bincount(inverse, weights=weights).astype(np.int64)
        # chi[j] sums the steps at bins <= j: each partial sum repeats up to the next bin
        gaps = np.diff(at, prepend=0, append=n)
        return EulerCurve(taus.taus, np.repeat(np.concatenate(([0], np.cumsum(steps))), gaps))
    chi = _count(hist, held, n)[:-1].astype(np.int64)
    return EulerCurve(taus.taus, np.cumsum(chi, out=chi))


def _count(hist, held: list, n: int) -> np.ndarray:
    """``hist``, or a new float64 histogram of ``n + 1`` bins, with the held pairs added."""
    hist = np.zeros(n + 1) if hist is None else hist
    for bins, weights in held:  # float64 weights take add.at's fast path, with no n + 1 copy
        np.add.at(hist, bins, weights.astype(np.float64, copy=False))
    return hist
