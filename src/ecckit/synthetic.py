"""Seeded synthetic grid generation for tests, demos and benchmarks.

All generators cast their output through float32 and the grid holds that
cast itself, so generated grids round-trip bit-exactly through the grid
file format. Every kind holds at most its float64 field and that cast, 12
bytes per pixel, besides the blobs' per-axis factors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grid import ScalarGrid, _positive_int

KINDS = ("uniform-random", "gaussian-blobs", "radial-gradient")

#: Refuse to materialize grids beyond this many pixels.
MAX_ELEMENTS = 1 << 31


@dataclass(frozen=True)
class SyntheticSpec:
    """Deterministic recipe for a synthetic grid."""

    kind: str
    dims: tuple[int, ...]
    seed: int = 0
    blobs: int = 8
    blob_width: float | None = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown kind {self.kind!r}; expected one of {KINDS}")
        dims = tuple(_positive_int("each dims extent", d) for d in self.dims)
        if len(dims) not in (2, 3):
            raise ValueError(f"dims must be 2 or 3 positive extents, got {dims}")
        object.__setattr__(self, "dims", dims)
        _positive_int("blobs", self.blobs)
        if self.blob_width is not None and not self.blob_width > 0:
            raise ValueError(f"blob_width must be positive, got {self.blob_width}")

    @property
    def size(self) -> int:
        return math.prod(self.dims)


def _radial_gradient(dims) -> np.ndarray:
    center = [(d - 1) / 2 for d in dims]
    axes = np.ix_(*(np.arange(d, dtype=np.float64) for d in dims))
    sq = sum((x - c) ** 2 for x, c in zip(axes, center))
    corner = sum(c**2 for c in center)
    if corner == 0:
        return np.zeros(dims)
    np.sqrt(sq, out=sq)
    sq /= np.sqrt(corner)
    return sq


def _gaussian_blobs(dims, rng, blobs, width) -> np.ndarray:
    if width is None:
        width = max(min(dims) / 8.0, 1.0)
    centers = rng.uniform(0, 1, size=(blobs, len(dims))) * (np.array(dims) - 1)
    # exp(-|x - c|^2 / 2w^2) = prod_a exp(-(x_a - c_a)^2 / 2w^2). Plain einsum calls no BLAS and
    # builds no temporary; with the blobs first it runs along the field's rows, blob after blob.
    factors = [np.exp(-((np.arange(d, dtype=np.float64) - c[:, None]) ** 2) / (2 * width**2))
               for d, c in zip(dims, centers.T)]
    field = np.einsum("bi,bj->ij" if len(dims) == 2 else "bi,bj,bk->ijk", *factors)
    peak = field.max()
    if peak > 0:
        field /= peak
    return field


def generate_grid(spec: SyntheticSpec) -> ScalarGrid:
    """Materialize a spec; identical specs give byte-identical grids on one numpy build
    and CPU (``np.exp``'s SIMD path differs across CPUs). A Gaussian blob is a product of
    1D Gaussians, one ``(blobs, dims[a])`` factor per axis: ``blobs * sum(dims)`` exponentials,
    contracted into the float64 field by one ``einsum``, normalized in place and cast once."""
    if spec.size > MAX_ELEMENTS:
        raise ValueError(
            f"dims {spec.dims} hold {spec.size} pixels, over the {MAX_ELEMENTS} cap"
        )
    rng = np.random.default_rng(spec.seed)
    if spec.kind == "uniform-random":
        field = rng.random(spec.dims)
    elif spec.kind == "gaussian-blobs":
        field = _gaussian_blobs(spec.dims, rng, spec.blobs, spec.blob_width)
    else:
        field = _radial_gradient(spec.dims)
    return ScalarGrid._adopt(field.astype(np.float32, order="C"))  # fresh: not copied again
