"""Exact Euler characteristic curves as step functions of the threshold.

Each pixel deposits its coefficient into the bin of the smallest threshold
covering its value, with one overflow bin past the last threshold.  Only
critical pixels, those with a nonzero coefficient, change a bin, and the
curve, the prefix sum of the bins, changes only where they fall.

Both strategies walk the flat pixel range in blocks, on the calling
thread, through one span primitive, :func:`_span_bins`: the coefficients of
the rows a block touches, by :func:`compute_coefficients`' kernel on a view
boxed to the block and a one-pixel halo, and the block's values go to
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
counts.  The strategies differ only in block size:

* ``FullSweep``: runs of first-axis rows, as many as fit a block's byte
  budget (:func:`_row_block`): 5 rows at 128**3, 160 at 512**2.
* ``Chunked``: a deliberately overhead-faithful baseline that walks fixed
  length chunks of the flat pixel range, each chunk on its own halo box.
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


def _block_pixels(grid: ScalarGrid, strategy: Strategy) -> int:
    """Pixels in each block ``strategy`` walks over ``grid``, the last one aside."""
    if isinstance(strategy, FullSweep):
        return _row_block(grid.dims) * (grid.size // grid.dims[0])
    if isinstance(strategy, Chunked):
        return min(strategy.chunk_len, grid.size)
    raise TypeError(f"unknown strategy {strategy!r}")


def _span_bins(grid: ScalarGrid, taus: ThresholdSet, start: int, stop: int) -> tuple:
    """``(bins, weights)`` of the critical pixels among pixels [start, stop).

    Coefficients are computed for the first-axis rows the range touches,
    on a view boxed on each trailing axis to the range plus a one-pixel
    halo when the range keeps every earlier coordinate fixed, and to the
    full extent otherwise.  The range is then one contiguous slice of the
    raveled result, and a row-aligned range computes exactly its own rows,
    the pixels' :func:`compute_coefficients` values, compacted to the critical
    pixels, in flat order, and binned by the lookup, as the module says.
    """
    strides = [s // grid.values.itemsize for s in grid.values.strides]  # C order, Python ints
    first, last = ([i // st % n for st, n in zip(strides, grid.dims)] for i in (start, stop - 1))
    box = [
        slice(max(0, first[a] - 1), last[a] + 2) if first[:a] == last[:a] else slice(0, None)
        for a in range(1, grid.ndim)
    ]
    view = grid.values[(slice(None), *box)]
    offset = 0  # of pixel ``start`` in the boxed rows: row-major over the box's extents
    for f, s, extent in zip(first[1:], box, view.shape[1:]):
        offset = offset * extent + f - s.start
    # no local keeps the int8 block: CPython frees an argument only when the callee holds the
    # last reference, so the lookup frees it once compacted (a *-call's tuple would hold it)
    return taus._bin_pairs(
        grid.values.ravel()[start:stop],
        _coefficient_rows(view, first[0], last[0] + 1).ravel()[offset : offset + stop - start],
    )


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
    for pair in _blocks(partial(_span_bins, grid, taus), grid.size, _block_pixels(grid, strategy)):
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
        np.add.at(hist, bins, weights.astype(np.float64))
    return hist
