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
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from itertools import product
from pathlib import Path

import numpy as np

from .grid import (
    VERSION_COEFF,
    CorruptionError,
    ScalarGrid,
    _pack_header,
    _read_payload,
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

    @property
    def ndim(self) -> int:
        return self.coeffs.ndim


def _unit(nd: int, axis: int, sign: int) -> tuple[int, ...]:
    return tuple(sign if a == axis else 0 for a in range(nd))


def _add(u: tuple[int, ...], v: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(a + b for a, b in zip(u, v))


def _lower_masks(values: np.ndarray) -> dict[tuple[int, ...], np.ndarray]:
    """For each neighbor offset, the mask of pixels whose neighbor precedes them.

    For in-bounds offsets the sign of the linear-index difference equals the
    lexicographic sign of the offset tuple, so the index tie-break reduces to
    an inclusive comparison for lexicographically negative offsets and a
    strict one for positive offsets.  Positive offsets are derived from their
    negatives by order antisymmetry (q precedes p iff p does not precede q),
    shifted back into place with out-of-bounds neighbors forced False.
    """
    nd = values.ndim
    shape = values.shape
    zero = (0,) * nd

    padded = np.full(tuple(s + 2 for s in shape), np.inf)
    padded[tuple(slice(1, 1 + s) for s in shape)] = values

    lower: dict[tuple[int, ...], np.ndarray] = {}
    offsets = [off for off in product((-1, 0, 1), repeat=nd) if off != zero]
    for off in offsets:
        if off < zero:
            sl = tuple(slice(1 + o, 1 + o + s) for o, s in zip(off, shape))
            lower[off] = padded[sl] <= values
    for off in offsets:
        if off > zero:
            # mask[p] = inverted[p + off], False where p + off leaves the grid
            inverted = ~lower[tuple(-o for o in off)]
            mask = np.zeros(shape, dtype=bool)
            dst = tuple(slice(max(0, -o), s + min(0, -o)) for o, s in zip(off, shape))
            src = tuple(slice(max(0, o), s + min(0, o)) for o, s in zip(off, shape))
            mask[dst] = inverted[src]
            lower[off] = mask
    return lower


def _lower_star_coefficients(values: np.ndarray) -> np.ndarray:
    """Coefficient array (int8) for a float64 value array."""
    nd = values.ndim
    lower = _lower_masks(values)

    coeffs = np.ones(values.shape, dtype=np.int8)
    for axis in range(nd):
        for sign in (-1, 1):
            coeffs -= lower[_unit(nd, axis, sign)].view(np.int8)

    squares: dict[tuple, np.ndarray] = {}
    for a in range(nd):
        for b in range(a + 1, nd):
            for sa, sb in product((-1, 1), repeat=2):
                ea, eb = _unit(nd, a, sa), _unit(nd, b, sb)
                sq = lower[ea] & lower[eb] & lower[_add(ea, eb)]
                squares[(a, b, sa, sb)] = sq
                coeffs += sq.view(np.int8)

    if nd == 3:
        for sx, sy, sz in product((-1, 1), repeat=3):
            cube = (
                squares[(0, 1, sx, sy)]
                & squares[(0, 2, sx, sz)]
                & squares[(1, 2, sy, sz)]
                & lower[(sx, sy, sz)]
            )
            coeffs -= cube.view(np.int8)

    return coeffs


def _coefficient_rows(values: np.ndarray, r0: int, r1: int) -> np.ndarray:
    """Coefficients for first-axis rows [r0, r1), reading a one-row halo.

    The index tie-break depends only on the lexicographic sign of the
    neighbor offset, which is translation invariant, so computing on a
    cropped box reproduces the full-grid coefficients everywhere the box
    covers the pixel's whole neighborhood.
    """
    lo = max(0, r0 - 1)
    hi = min(values.shape[0], r1 + 1)
    box = _lower_star_coefficients(values[lo:hi])
    return box[r0 - lo : r1 - lo]


def _critical_pixels(values: np.ndarray, coeffs: np.ndarray):
    """Flat index, value and coefficient of every nonzero-coefficient pixel.

    These critical pixels are the only ones either curve depends on."""
    idx = np.flatnonzero(coeffs)
    return idx, values.ravel()[idx], coeffs.ravel()[idx]


def _row_block(dims: tuple[int, ...], target_elems: int = 65536) -> int:
    """First-axis block height keeping a block roughly cache-sized."""
    row = 1
    for s in dims[1:]:
        row *= s
    return int(np.clip(target_elems // max(row, 1), 1, dims[0]))


def _fan_out(fn, n: int, workers: int) -> list:
    """Results of ``fn(start, stop)`` over one contiguous span of range(n) per worker.

    Callers count ``n`` in whole blocks, so block boundaries are the same
    at every worker count, and input of a single block runs on the calling
    thread without starting a pool.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    bounds = np.linspace(0, n, max(1, min(workers, n)) + 1).astype(int).tolist()
    spans = list(zip(bounds[:-1], bounds[1:]))
    if len(spans) == 1:
        return [fn(*spans[0])]
    with ThreadPoolExecutor(max_workers=len(spans)) as pool:
        return list(pool.map(lambda span: fn(*span), spans))


def compute_coefficients(grid: ScalarGrid) -> CoefficientGrid:
    """Euler characteristic coefficients of every pixel.

    Processed in first-axis blocks for cache locality; blocks overlap by a
    single halo row and the result is identical to a whole-grid evaluation.
    """
    values = grid.values
    out = np.empty(values.shape, dtype=np.int8)
    step = _row_block(values.shape)
    for r0 in range(0, values.shape[0], step):
        r1 = min(values.shape[0], r0 + step)
        out[r0:r1] = _coefficient_rows(values, r0, r1)
    return CoefficientGrid(out)


def write_coefficients(cg: CoefficientGrid, path) -> None:
    """Write a version-2 grid file with an int32 payload."""
    blob = _pack_header(VERSION_COEFF, cg.dims) + cg.coeffs.astype("<i4").tobytes()
    Path(path).write_bytes(blob)


def read_coefficients(path) -> CoefficientGrid:
    """Read a version-2 coefficient file written by :func:`write_coefficients`."""
    payload, dims = _read_payload(path, VERSION_COEFF, "<i4")
    lo, hi = COEFF_RANGE[len(dims)]
    if payload.size and (payload.min() < lo or payload.max() > hi):
        raise CorruptionError(
            f"{path}: coefficient payload outside the attainable range [{lo}, {hi}]"
        )
    return CoefficientGrid(payload.astype(np.int8).reshape(dims))
