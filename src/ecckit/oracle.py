"""Brute-force Euler characteristic ground truth.

This is the trusted slow path: it enumerates the cells of the cubical
complex of a binary mask directly, with no clever attribution and no reuse
across thresholds, so that its correctness is auditable line by line.

The complex is the vertex construction: mask pixels are vertices, an edge
joins each axis-adjacent pair of set pixels, a unit square is present when
all 4 of its corners are set, and a unit cube when all 8 are.  The exact
curve and coefficient modules are defined against this same construction
but share none of this code.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

import numpy as np

from .grid import EulerCurve, ScalarGrid, ThresholdSet


@dataclass(frozen=True)
class CellCounts:
    """Cells of a cubical complex, counted by dimension."""

    n_vertices: int
    n_edges: int
    n_faces: int
    n_cubes: int

    @property
    def euler_characteristic(self) -> int:
        return self.n_vertices - self.n_edges + self.n_faces - self.n_cubes


def sublevel_mask(grid: ScalarGrid, tau: float) -> np.ndarray:
    """Boolean mask of pixels with value <= tau (inclusive), compared in float64."""
    return grid.values <= np.float64(tau)


def _cell_count(mask: np.ndarray, corners) -> int:
    """Number of cells whose listed corner offsets are all set pixels."""
    span = tuple(max(c[a] for c in corners) for a in range(mask.ndim))
    present = None
    for off in corners:
        sl = tuple(slice(o, n - s + o) for o, s, n in zip(off, span, mask.shape))
        piece = mask[sl]
        present = piece if present is None else present & piece
    return int(present.sum())


def count_cells(mask: np.ndarray) -> CellCounts:
    """Count vertices, edges, faces and cubes of a mask's cubical complex."""
    mask = np.asarray(mask, dtype=bool)
    nd = mask.ndim
    if nd not in (2, 3):
        raise ValueError(f"mask must be 2D or 3D, got ndim={nd}")

    def axis_vec(axes, signs):
        return tuple(signs[axes.index(a)] if a in axes else 0 for a in range(nd))

    vertices = int(mask.sum())

    edges = 0
    for a in range(nd):
        corners = [axis_vec((a,), (s,)) for s in (0, 1)]
        edges += _cell_count(mask, corners)

    faces = 0
    for a in range(nd):
        for b in range(a + 1, nd):
            corners = [axis_vec((a, b), (sa, sb)) for sa, sb in product((0, 1), repeat=2)]
            faces += _cell_count(mask, corners)

    cubes = 0
    if nd == 3:
        corners = list(product((0, 1), repeat=3))
        cubes = _cell_count(mask, corners)

    return CellCounts(vertices, edges, faces, cubes)


def oracle_ecc(grid: ScalarGrid, taus: ThresholdSet) -> EulerCurve:
    """Euler characteristic curve by per-threshold cell counting.

    O(pixels x thresholds); intended for small instances and as the
    reference the fast path is tested against.
    """
    chis = np.array(
        [count_cells(sublevel_mask(grid, t)).euler_characteristic for t in taus.taus],
        dtype=np.int64,
    )
    return EulerCurve(taus.taus, chis)
