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

A cell through p is keyed by its corner farthest from p, an offset in
{-1, 0, 1}**d.  p owns an edge when that corner precedes p, and a larger
cell when that corner precedes p and p owns each face of the cell through
p (the corner with one nonzero entry set to zero), on which all its other
corners lie.  Each owned cell adds (-1)**dimension to c(p).

Consequences used by tests and callers:

* coefficients sum to 1 on any grid (the full complex is contractible);
* c(p) is determined by the 3x3 (2D) or 3x3x3 (3D) neighborhood of p;
* attainable ranges are [-3, +1] in 2D and [-5, +7] in 3D.

Coefficients are computed per block of first-axis rows, in :func:`_fan_out`.
The kernel reads a block and its one-row halo in place as one flat array,
so each of the 3**d - 1 neighbor relations is one contiguous bool compare
of two shifted slices of it.  Neighbors beyond the flat rows never precede
a pixel; the only other boundary writes mark the trailing-axis edges,
across which a flat neighbor wraps into another row.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import cache, reduce
from itertools import product
from operator import iadd

import numpy as np

from .grid import (
    VERSION_COEFF,
    CorruptionError,
    ScalarGrid,
    _positive_int,
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


@cache
def _cells(nd: int) -> tuple[tuple[int, ...], ...]:
    """Far corners of the 3**nd - 1 cells through a pixel, by increasing dimension."""
    corners = (off for off in product((-1, 0, 1), repeat=nd) if any(off))
    return tuple(sorted(corners, key=lambda off: nd - off.count(0)))


@cache
def _faces(off: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """Far corners of the cell's faces through the pixel, save the pixel itself."""
    faces = (off[:a] + (0,) + off[a + 1 :] for a, o in enumerate(off) if o)
    return tuple(face for face in faces if any(face))


def _coefficient_rows(values: np.ndarray, r0: int, r1: int) -> np.ndarray:
    """Coefficients (int8) for first-axis rows [r0, r1), reading a one-row halo.

    The rows and their halo are compared in place as one flat array (a
    copy only for a strided view, such as ``Chunked``'s halo box), so a
    neighbor offset is one flat shift ``s``.  Flat order is row-major
    order, so the index tie-break reduces to an inclusive comparison for
    lexicographically negative offsets and, by antisymmetry, its negation
    for the opposite offset: one bool ``cmp = flat[p - s] <= flat[p]``
    over the block's rows, widened by ``s``, gives both masks as
    ``cmp[:m]`` and ``~cmp[s:]``.

    Where ``p - s`` or ``p`` falls outside the flat rows, ``cmp`` is set
    False at the head and True at the tail: that neighbor lies outside the
    grid and precedes no pixel.  Inside them, a shift wraps into another
    row only across the edge of a trailing axis, so the lower mask of each
    trailing-axis edge is set False at index 0 of its axis and the upper
    mask at index -1; every square and cube ANDs in the edges it contains
    and needs no write of its own.  A step along an axis of extent 1
    relates no pixels (its flat shift would be <= 0), so both its masks
    are all False.  The tie-break is translation invariant, so any row
    range reproduces the whole-grid coefficients.
    """
    nd = values.ndim
    dims = values.shape
    shape = (r1 - r0,) + dims[1:]
    lo, hi = max(0, r0 - 1), min(dims[0], r1 + 1)
    flat = values[lo:hi].reshape(-1)
    strides = [math.prod(dims[a + 1 :]) for a in range(nd)]
    i0 = (r0 - lo) * strides[0]
    m = math.prod(shape)
    zero = (0,) * nd
    # owned[off]: whether corner off precedes p, then, faces ANDed in, whether p owns its cell
    owned: dict[tuple[int, ...], np.ndarray] = {}
    for off in product((-1, 0, 1), repeat=nd):
        if off >= zero:
            continue
        opposite = tuple(-o for o in off)
        if any(o and n == 1 for o, n in zip(off, dims)):
            owned[off], owned[opposite] = np.zeros((2, m), dtype=bool)
            continue
        s = -sum(o * st for o, st in zip(off, strides))
        cmp = np.empty(m + s, dtype=bool)
        head, tail = max(0, s - i0), min(m + s, flat.size - i0)  # both operands in the flat rows
        j0, j1 = i0 + head, i0 + tail
        np.less_equal(flat[j0 - s : j1 - s], flat[j0:j1], out=cmp[head:tail])
        cmp[:head], cmp[tail:] = False, True
        owned[off], owned[opposite] = cmp[:m], ~cmp[s:]
    for a in range(1, nd):
        edge = (0,) * a + (-1,) + (0,) * (nd - a - 1)
        owned[edge].reshape(shape)[(slice(None),) * a + (0,)] = False
        owned[tuple(-o for o in edge)].reshape(shape)[(slice(None),) * a + (-1,)] = False

    coeffs = np.ones(m, dtype=np.int8)
    for off in _cells(nd):
        k = nd - off.count(0)
        cell = owned.pop(off) if k == nd else owned[off]  # a top cell is no cell's face
        for face in _faces(off):
            cell &= owned[face]
        (np.subtract if k % 2 else np.add)(coeffs, cell.view(np.int8), out=coeffs)

    return coeffs.reshape(shape)


def _critical_pixels(values: np.ndarray, coeffs: np.ndarray):
    """Flat index, value and coefficient of every nonzero-coefficient pixel.

    These critical pixels are the only ones either curve depends on.  They
    are found through a bool mask: ``np.flatnonzero`` on int8 takes numpy's
    per-element path, about 9x slower on a block than the mask and its
    bool ``flatnonzero`` together."""
    idx = np.flatnonzero(coeffs != 0)
    return idx, values.ravel()[idx], coeffs.ravel()[idx]


def _row_block(dims: tuple[int, ...], target_elems: int = 65536) -> int:
    """First-axis block height keeping a block roughly cache-sized."""
    row = math.prod(dims[1:])
    return int(np.clip(target_elems // max(row, 1), 1, dims[0]))


def _fan_out(fn, n: int, step: int, workers: int):
    """Sum of ``fn(start, stop)`` over the blocks of ``step`` items covering range(n).

    Each block is one task, its result added in place into the first in
    block order, whichever thread computed it: the sum is bit-identical at
    every worker count.  Empty input is one empty block ``fn(0, 0)``; one
    worker or one block runs on the calling thread, starting no pool.
    """
    starts = range(0, max(n, 1), step)
    w = min(_positive_int("workers", workers), len(starts))

    def block(start):
        return fn(start, min(n, start + step))

    if w == 1:
        return reduce(iadd, map(block, starts))
    with ThreadPoolExecutor(max_workers=w) as pool:
        return reduce(iadd, pool.map(block, starts))


def compute_coefficients(grid: ScalarGrid) -> CoefficientGrid:
    """Euler characteristic coefficients of every pixel.

    Processed in first-axis blocks for cache locality; each block reads a
    one-row halo and the result is identical to a whole-grid evaluation.
    """

    def rows(r0, r1):  # a one-element list: the blocks' sum lists them in order
        return [_coefficient_rows(grid.values, r0, r1)]

    return CoefficientGrid(np.concatenate(_fan_out(rows, grid.dims[0], _row_block(grid.dims), 1)))


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
