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

Coefficients are computed per block of first-axis rows, in :func:`_blocks`.
The kernel reads a block and its one-row halo in place as one flat array,
so each of the 3**d - 1 neighbor relations is one contiguous bool compare
of two shifted slices of it.  Neighbors beyond the flat rows never precede
a pixel; the only other boundary writes mark the trailing-axis edges,
across which a flat neighbor wraps into another row.

The exact path's 3D blocks break ties with the first axis least
significant instead (:func:`_slab_rows`).  A cell is then a plane's 2D
cell, or one times the edge between planes k and k + 1, whose corners'
maximum is the max plane ``np.maximum(v[k], v[k + 1])``'s over it, so
chi3 = sum_k chi2(v[k]) - sum_k chi2(max plane k), each 2D cell owned in
the plane holding its maximum, on a tie the upper one.  Every value's
coefficient sum, hence every curve, is the same under either order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache, lru_cache, partial
from itertools import product

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


@lru_cache(maxsize=64)
def _plan(dims: tuple[int, ...]) -> tuple[tuple[tuple, ...], ...]:
    """The kernel's compares on a grid of extents ``dims``, by cell dimension.

    Step k has one entry per lexicographically negative far corner of a
    k-cell: its flat shift, the positions of its and its opposite's faces
    among step k - 1's cells (corner, opposite, corner, ...), and the
    trailing axis across whose edge an edge's shift wraps (0: none).  A
    corner across an axis of extent 1 relates no pixels and is left out,
    with every cell it is a face of.  Only whether the first extent is 1
    matters, so callers cap it at 2.
    """
    nd = len(dims)
    strides = [math.prod(dims[a + 1 :]) for a in range(nd)]
    zero = (0,) * nd
    steps, below = [], {}
    for k in range(1, nd + 1):
        step, cells = [], {}
        for off in _cells(nd):
            if nd - off.count(0) != k or off > zero or any(o and n == 1 for o, n in zip(off, dims)):
                continue
            opposite = tuple(-o for o in off)
            faces = (tuple(below[face] for face in _faces(c)) for c in (off, opposite))
            s = -sum(o * st for o, st in zip(off, strides))
            step.append((s, *faces, off.index(-1) if k == 1 else 0))
            cells[off], cells[opposite] = len(cells), len(cells) + 1
        steps.append(tuple(step))
        below = cells
    return tuple(steps)


def _coefficient_rows(values: np.ndarray, r0: int, r1: int) -> np.ndarray:
    """Coefficients (int8) for first-axis rows [r0, r1), reading a one-row halo
    in place (a copy only for a strided view, such as ``Chunked``'s halo box)."""
    n, *rest = values.shape
    lo = max(0, r0 - 1)
    flat = values[lo : r1 + 1].reshape(-1)
    return _kernel(flat, (r0 - lo) * math.prod(rest), (r1 - r0, *rest), _plan((min(n, 2), *rest)))


def _kernel(flat: np.ndarray, i0: int, shape: tuple[int, ...], plan) -> np.ndarray:
    """Coefficients (int8) of the ``shape`` pixels from ``flat[i0]`` on, by ``plan``.

    A neighbor offset is one flat shift ``s``.  Flat order is row-major
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
    and needs no write of its own.  The tie-break is translation
    invariant, so any row range reproduces the whole-grid coefficients.

    Cells are built one dimension at a time, in the order of
    :func:`_plan`, each with its faces ANDed in, and each is counted just
    before it is dropped: a cell below the top dimension once every cell
    of the next dimension exists, a top cell, no cell's face, at once.  At
    most the edges and squares (3D) or the edges and one square pair (2D
    and in-plane plans) are held, with the int8 result: about 20 and 7
    bytes per pixel.
    The result is allocated at the first count, above every mask built so
    far on the heap, so masks dropped later leave a hole below it that the
    next masks and the block's compaction reuse, rather than a heap top
    that malloc returns to the system and faults back in.
    """
    m = math.prod(shape)
    coeffs = None

    def owned(s, lo_faces, hi_faces, wrap, below):
        """Masks of the cells keyed by a corner at flat shift ``s`` and by its
        opposite: whether it precedes p, then, ``below``'s faces ANDed in,
        whether p owns the cell."""
        cmp = np.empty(m + s, dtype=bool)
        head, tail = max(0, s - i0), min(m + s, flat.size - i0)  # both operands in the flat rows
        j0, j1 = i0 + head, i0 + tail
        np.less_equal(flat[j0 - s : j1 - s], flat[j0:j1], out=cmp[head:tail])
        cmp[:head], cmp[tail:] = False, True
        pair = cmp[:m], ~cmp[s:]
        if wrap:
            pair[0].reshape(shape)[(slice(None),) * wrap + (0,)] = False
            pair[1].reshape(shape)[(slice(None),) * wrap + (-1,)] = False
        for cell, faces in zip(pair, (lo_faces, hi_faces)):
            for face in faces:
                cell &= below[face]
        return pair

    def count(k, cells):
        nonlocal coeffs
        if coeffs is None:  # the first count: above every mask so far
            coeffs = np.ones(m, dtype=np.int8)
        for cell in cells:
            (np.subtract if k % 2 else np.add)(coeffs, cell.view(np.int8), out=coeffs)

    *lower, top = plan
    below: list[np.ndarray] = []
    for k, step in enumerate(lower, 1):
        cells = [cell for entry in step for cell in owned(*entry, below)]
        if below:
            count(k - 1, below)
        below = cells
    for entry in top:
        count(len(lower) + 1, owned(*entry, below))
    count(len(lower), below)
    return coeffs.reshape(shape)


def _slab_rows(values: np.ndarray, r0: int, r1: int) -> np.ndarray:
    """3D coefficients (int8) for first-axis rows [r0, r1) from 2D kernels,
    ties broken with the first axis least significant.

    The in-plane plan (its axis-1 wrap masks keep the planes apart) runs on
    the max planes the rows touch, then on the rows, so the max planes'
    copy in the values' dtype is gone before the rows' masks are built: a
    5-row 128**3 block peaks at about 13 bytes per pixel on float32 and 18
    on float64 (20 for :func:`_coefficient_rows`).
    """
    n, *rest = values.shape
    plan = _plan((1, *rest))[:2]
    k0, k1 = max(r0 - 1, 0), min(r1, n - 1)
    low, high = values[k0:k1], values[k0 + 1 : k1 + 1]
    maxed = _kernel(np.maximum(low, high).reshape(-1), 0, (k1 - k0, *rest), plan)
    coeffs = _kernel(values[r0:r1].reshape(-1), 0, (r1 - r0, *rest), plan)
    lifted = maxed * (high >= low).view(np.int8)  # held by plane k + 1
    maxed -= lifted  # held by plane k
    above = coeffs[k0 + 1 - r0 : k1 + 1 - r0]  # plane r1 lies past the rows
    above -= lifted[: len(above)]
    coeffs[: k1 - r0] -= maxed[r0 - k0 :]
    return coeffs


def _critical_pixels(values: np.ndarray, coeffs: np.ndarray):
    """Flat index, value and coefficient of every nonzero-coefficient pixel.

    These critical pixels are the only ones either curve depends on.  They
    are found through a bool mask: ``np.flatnonzero`` on int8 takes numpy's
    per-element path, about 9x slower on a block than the mask and its
    bool ``flatnonzero`` together."""
    idx = np.flatnonzero(coeffs != 0)
    return idx, values.ravel()[idx], coeffs.ravel()[idx]


#: Bytes per pixel of one exact-path block, above both peaks (tracemalloc):
#: the kernel's (about 7 in 2D; in 3D 20 row-major, 13 float32 and 18 float64
#: in slabs) and compaction and binning's (about 25 per critical pixel, 28 on
#: float64 grids, so about 16 per pixel on uniform-random grids, ~60% critical).
_PIXEL_BYTES = 23.4

#: Bytes one block may take: what a 65,536-pixel 3D block took when the
#: kernel held all 26 relation masks, so blocks grow as the kernel holds
#: fewer and the exact path's peak does not rise.
_BLOCK_BYTES = 1_925_000


def _row_block(dims: tuple[int, ...], budget: float = _BLOCK_BYTES) -> int:
    """First-axis block height keeping one block within ``budget`` bytes.

    A larger block spreads each numpy call's fixed cost over more pixels;
    the budget bounds the memory it takes.  A row larger than the budget
    makes blocks of one row."""
    row = math.prod(dims[1:]) * _PIXEL_BYTES
    return int(np.clip(budget // row, 1, dims[0]))


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

    Processed in first-axis blocks sized to a byte budget; each block reads
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
