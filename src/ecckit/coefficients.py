"""Per-pixel Euler characteristic coefficients.

Every cell of the full cubical complex on the grid (vertex, axis-aligned
edge, unit square, unit cube) is attributed to its highest vertex under
the total pixel order

    p < q  iff  value(p) < value(q), ties broken by smaller row-major
    linear index.

The coefficient of a pixel is the alternating cell count of the cells it
owns::

    c(p) = 1 - e(p) + f(p) - b(p)

with e/f/b the numbers of owned edges, squares and cubes.  Because a
cell's highest vertex carries its maximum value, summing c(p) over pixels
with value <= tau reproduces the Euler characteristic of the sublevel-set
complex at tau exactly, for every tau and regardless of ties.

Consequences used by tests and callers:

* coefficients sum to 1 on any grid (the full complex is contractible);
* c(p) is determined by the 3x3 (2D) or 3x3x3 (3D) neighborhood of p;
* attainable ranges are [-3, +1] in 2D and [-5, +7] in 3D.

Coefficients come from slabs.  Split along an axis into slices v[k], a cell
is a slice's cell, or one times the edge from slice k to k + 1, whose
corners' maximum is that of the slab maximum m[k] = max(v[k], v[k + 1]), so
chi_d = sum_k chi_{d-1}(v[k]) - sum_k chi_{d-1}(m[k]).  With the split axis
the least significant tie-break, a pixel of v[k] has its coefficient in
v[k], less those in m[k - 1] and m[k] where it holds the maximum (on a tie,
the upper slice does).  Down to one axis, slices are lines: along a line a,
with cmp[j] = a[j] <= a[j + 1] (on a tie a[j + 1] owns the edge),
c(j) = cmp[j] - cmp[j - 1], padded with 1 after the line and 0 before it.
A slab maximum's lines compare maxima over the slab's corners.  Slabs run
over axes d - 1, ..., 1 and lines along axis 0, so ties are broken by the
row-major linear index, as above, on the exact and soft paths alike.

Coefficients are computed per block of first-axis rows, in :func:`_blocks`,
reading the block and a one-row halo in place as one flat array: a compare
is of two shifted slices of it.  Each slab maximum above the innermost slab
level (in 3D, over last-axis neighbors) is built once, as one flat array,
and its inner slabs read in place; the innermost slabs' maxima are taken in
chunks of :data:`_CHUNK` pixels, so no other copy of the values is held.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .grid import (
    VERSION_COEFF,
    CorruptionError,
    ScalarGrid,
    _read_payload,
    _write_payload,
)

#: Inclusive attainable coefficient ranges by grid dimension.
COEFF_RANGE = {2: (-3, 1), 3: (-5, 7)}


@dataclass(frozen=True)
class CoefficientGrid:
    """Integer coefficients, one per pixel of the source grid."""

    coeffs: np.ndarray

    def __post_init__(self):
        if self.coeffs.ndim not in (2, 3):
            raise ValueError(f"coefficients must be 2D or 3D, got {self.coeffs.ndim}")

    @property
    def dims(self) -> tuple[int, ...]:
        return self.coeffs.shape


#: Flat pixels per compare of an innermost slab maximum: its maximum over a
#: chunk's corners stays cache-sized.
_CHUNK = 32_768


def _leq(flat: np.ndarray, shift: int, j0: int, j1: int, s: int, out: np.ndarray):
    """``out[j - j0] = g[j] <= g[j + s]`` for j in [j0, j1), with ``g[j]`` the
    maximum of ``flat`` over the corners ``j`` and ``j + shift`` (0: ``flat[j]``)."""
    step = _CHUNK if shift else max(j1 - j0, 1)  # no maximum, no copy
    for c0 in range(j0, j1, step):
        c1 = min(j1, c0 + step)
        g = flat[c0 : c1 + s + shift]
        if shift:
            g = np.maximum(g[:-shift], g[shift:])
        np.less_equal(g[: c1 - c0], g[s : s + c1 - c0], out=out[c0 - j0 : c1 - j0])
    return out


def _lines(flat, i0: int, shape: tuple[int, ...], slabs, shift: int = 0) -> np.ndarray:
    """Coefficients (int8) of the ``shape`` pixels from ``flat[i0]`` on,
    slabbed over the axes ``slabs`` (least significant first) with lines
    along the first axis; past the last slab, of the maximum over the
    corners ``0`` and ``shift``.

    A line's ``cmp`` spans the block and the row before it: False before the
    flat rows and True past them, so any row range gives the whole-grid
    coefficients.  Corners past the flat rows lie on a slab's last slice,
    where it is zeroed.
    """
    m = math.prod(shape)
    if slabs:
        a, *inner = slabs
        s = math.prod(shape[a + 1 :])
        if inner:  # the slab maximum, built once and freed before this level's coefficients
            maxed = _lines(np.maximum(flat[:-s], flat[s:]), i0, shape, inner)
        else:
            maxed = _lines(flat, i0, shape, inner, s)
        maxed.reshape(shape)[(slice(None),) * a + (-1,)] = 0  # no slice past the last
        coeffs = _lines(flat, i0, shape, inner)
        j1 = max(i0, min(i0 + m, flat.size - s))
        return _attribute(coeffs, maxed, _leq(flat, 0, i0, j1, s, np.empty(m, dtype=bool)), s)
    s = math.prod(shape[1:])
    cmp = np.empty(m + s, dtype=bool)  # cmp[j]: pixel i0 - s + j against the next one
    head = max(0, s - i0)
    tail = min(m + s, max(head, flat.size - shift - i0))
    _leq(flat, shift, i0 - s + head, i0 - s + tail, s, cmp[head:tail])
    cmp[:head], cmp[tail:] = False, True
    return np.subtract(cmp[s:].view(np.int8), cmp[:m].view(np.int8))


def _attribute(coeffs, maxed, up, s: int) -> np.ndarray:
    """``coeffs`` less the slab maxima's coefficients ``maxed``: each is held by
    the slice holding the maximum, the upper one (``s`` on) where ``up``,
    which holds on a tie."""
    lifted = np.multiply(maxed, up.view(np.int8), out=up.view(np.int8))
    maxed -= lifted
    coeffs -= maxed
    above = coeffs[s:]  # a slice past the rows is left out
    above -= lifted[: above.size]
    return coeffs


def _coefficient_rows(values: np.ndarray, r0: int, r1: int) -> np.ndarray:
    """Coefficients (int8) for first-axis rows [r0, r1) of C-contiguous ``values``,
    reading the rows and a one-row halo in place."""
    _, *rest = values.shape
    lo = max(0, r0 - 1)
    flat = values[lo : r1 + 1].reshape(-1)
    shape = (r1 - r0, *rest)
    return _lines(flat, (r0 - lo) * math.prod(rest), shape, range(len(rest), 0, -1)).reshape(shape)


def _critical_pixels(values: np.ndarray, coeffs: np.ndarray):
    """Flat index, value and coefficient of every nonzero-coefficient pixel.

    These critical pixels are the only ones either curve depends on.  They
    are found through a bool mask: ``np.flatnonzero`` on int8 takes numpy's
    per-element path, about 9x slower on a block than the mask and its
    bool ``flatnonzero`` together."""
    idx = np.flatnonzero(coeffs != 0)
    return idx, values.ravel()[idx], coeffs.ravel()[idx]


#: Pixels one block may hold: 1,925,000 bytes (a 65,536-pixel 3D block when the
#: kernel held all 26 relation masks) at 23.4 bytes per pixel, above the kernel's
#: peak (2D: 3, float64 4; 3D: 9, float64 17) and binning's (tracemalloc: about 18
#: per critical pixel, 26 on float64, so 10.5-15 per pixel on ~60%-critical
#: uniform-random grids).  7/10-row 128**3 blocks were no faster and raised the op peak.
_BLOCK_PIXELS = 82_264


def _row_block(dims: tuple[int, ...], pixels: int = _BLOCK_PIXELS) -> int:
    """First-axis block height: the most whole rows within ``pixels``, one at least.

    A larger block spreads each numpy call's fixed cost over more pixels;
    the pixel count bounds the memory it takes."""
    return max(1, min(pixels // math.prod(dims[1:]), dims[0]))


def _blocks(fn, n: int, step: int):
    """``fn(start, stop)`` over the blocks of ``step`` items covering range(n), in block order.

    A generator on the calling thread: each block runs when its result is
    asked for, and the caller folds results as they come.  Empty input is
    one ``fn(0, 0)``.
    """
    for start in range(0, max(n, 1), step):
        yield fn(start, min(n, start + step))


def compute_coefficients(grid: ScalarGrid) -> CoefficientGrid:
    """Euler characteristic coefficients of every pixel.

    Processed in first-axis blocks of :func:`_row_block` rows; each block reads
    a one-row halo and the result is identical to a whole-grid evaluation.
    """
    blocks = _blocks(partial(_coefficient_rows, grid.values), grid.dims[0], _row_block(grid.dims))
    return CoefficientGrid(np.concatenate([*blocks]))


def write_coefficients(cg: CoefficientGrid, path) -> None:
    """Write a version-2 grid file with an int32 payload."""
    _write_payload(path, VERSION_COEFF, cg.coeffs, "<i4")


def read_coefficients(path) -> CoefficientGrid:
    """Read a version-2 coefficient file written by :func:`write_coefficients`."""
    payload, dims = _read_payload(path, VERSION_COEFF, "<i4")
    lo, hi = COEFF_RANGE[len(dims)]
    if payload.size and (payload.min() < lo or payload.max() > hi):
        raise CorruptionError(
            f"{path}: coefficient payload outside the attainable range [{lo}, {hi}]"
        )
    return CoefficientGrid(payload.astype(np.int8).reshape(dims))
