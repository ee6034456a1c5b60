"""Grid data model, threshold sets, curves, and bit-exact file I/O.

Conventions shared by every other module:

* Grids are dense 2D or 3D scalar fields stored row-major (last axis
  fastest).  Values live in float32 in memory when they come as float32,
  as from files and the synthetic generators, and in float64 otherwise;
  the on-disk payload is little-endian float32, so such grids round-trip
  bit-exactly.  Every comparison with a threshold happens in float64.
* A linear (flat) pixel index is the row-major flattening of its
  coordinates, as ``np.ravel_multi_index`` computes it; it orders tied
  values in the coefficient pass and locates critical pixels.

Grid file format (version 1)::

    magic "ECCG" | version u8 | ndim u8 in {2,3} | reserved u16 = 0
    | dims as ndim x u64 little-endian
    | payload as prod(dims) x f32 little-endian, row-major

Version 2 uses an i32 payload and stores integer coefficient grids (see
:mod:`ecckit.coefficients`).

Curve file format: CSV with header ``threshold,chi``; chi is printed as a
plain integer for exact curves and with 9 significant digits for smoothed
ones.
"""

from __future__ import annotations

import logging
import math
import struct
from pathlib import Path

import numpy as np

MAGIC = b"ECCG"
VERSION_SCALAR = 1
VERSION_COEFF = 2

_HEADER = struct.Struct("<4sBBH")
_log = logging.getLogger("ecckit")


class FormatError(ValueError):
    """File does not conform to the grid file format (bad magic/header)."""


class CorruptionError(ValueError):
    """Structurally valid header whose payload does not match it."""


class ScalarGrid:
    """An immutable dense 2D/3D scalar field on a regular grid.

    Parameters
    ----------
    values : array-like
        2D or 3D array of finite scalars.  Copied to a read-only,
        C-contiguous array, float32 for float32 input and float64 for any
        other.  A C-contiguous view of immutable ``bytes`` already in that
        dtype, such as the payload :func:`read_grid` reads, is adopted
        without a copy: nothing can write to it.
    """

    def __init__(self, values):
        arr = np.asarray(values)
        dtype = np.float32 if arr.dtype == np.float32 else np.float64
        owner = arr  # the object at the end of the chain of views
        while isinstance(owner, np.ndarray):
            owner = owner.base
        if not (isinstance(owner, bytes) and arr.dtype == dtype and arr.flags.c_contiguous):
            arr = np.array(arr, dtype=dtype, order="C")
        self._hold(arr)

    @classmethod
    def _adopt(cls, arr: np.ndarray) -> ScalarGrid:
        """A grid on ``arr`` itself, a fresh C-contiguous float32 or float64
        array that no caller keeps, after the checks :meth:`__init__` makes."""
        grid = cls.__new__(cls)
        grid._hold(arr)
        return grid

    def _hold(self, arr: np.ndarray):
        if arr.ndim not in (2, 3):
            raise ValueError(f"grid must be 2D or 3D, got ndim={arr.ndim}")
        if any(s < 1 for s in arr.shape):
            raise ValueError(f"grid extents must be positive, got {arr.shape}")
        # NaN propagates through min and max, and an infinity is one of them
        lo, hi = float(arr.min()), float(arr.max())
        if not math.isfinite(lo) or not math.isfinite(hi):
            raise ValueError("grid values must be finite (no NaN/Inf)")
        arr.flags.writeable = False
        self.values = arr
        self._range = lo, hi  # read by uniform_thresholds instead of a second pass

    @property
    def dims(self) -> tuple[int, ...]:
        return self.values.shape

    @property
    def ndim(self) -> int:
        return self.values.ndim

    @property
    def size(self) -> int:
        return self.values.size

    def __repr__(self):
        return f"ScalarGrid(dims={self.dims})"


def _affine_guess(x, t0: float, inv_w: float, nbins: int):
    """Monotone affine under-estimate of the covering-threshold index.

    Biased low by 1e-9 index units so float noise in the slope can only
    leave the estimate at or one below the true index, never above; a
    single conditional bump against the actual thresholds then makes it
    exact.  Clamping happens in float space before the integer conversion
    so arbitrarily large finite inputs cannot overflow int64.
    """
    with np.errstate(over="ignore"):
        # inv_w > 0, so an overflow lands on +-inf and clips to the right
        # end bin; NaN cannot arise
        pos = np.subtract(x, t0, dtype=np.float64)
        pos *= inv_w
    pos -= 1e-9
    np.clip(pos, 0.0, float(nbins), out=pos)
    np.ceil(pos, out=pos)
    return pos.astype(np.int64)


def _affine_certified(taus, t0: float, inv_w: float, step: int) -> bool:
    """Whether the affine guess sits in [true - 1, true] at every ``step``-th
    threshold taus[j], where the true index is j, and just above, where it is j + 1."""
    n = taus.size
    j = np.arange(0, n, step)
    at = _affine_guess(taus[::step], t0, inv_w, n)
    with np.errstate(over="ignore"):  # above the largest float is inf
        above = _affine_guess(np.nextafter(taus[::step], np.inf), t0, inv_w, n)
    return bool(((at <= j) & (at >= j - 1) & (above <= j + 1) & (above >= j)).all())


class ThresholdSet:
    """Strictly increasing, finite evaluation thresholds.

    On construction we try to certify a constant-time binning rule: a
    low-biased affine guess of the covering-threshold index that is then
    repaired by at most one increment against the actual thresholds.  The
    guess and the true index are both monotone step functions, so checking
    ``true - 1 <= guess <= true`` at every threshold and at the next
    representable float above it implies the bound for every float in
    between, making guess-plus-bump exact everywhere.  For 2**14 or more
    thresholds the same check at about 64 evenly spaced ones runs first: a
    subset of the full certificate, it cheaply rejects most uneven sets and
    no certified one.
    When the certificate fails, binning falls back to binary search, and a
    debug line on the ``ecckit`` logger says so.
    """

    def __init__(self, taus):
        arr = np.array(taus, dtype=np.float64).ravel()
        if arr.size < 1:
            raise ValueError("threshold set must contain at least one value")
        # NaN fails the strictness check, and a strictly increasing set is
        # finite exactly when its two ends are, so no T-sized finite mask
        # is built unless a check fails
        if not ((arr[1:] > arr[:-1]).all() and np.isfinite(arr[[0, -1]]).all()):
            if not np.isfinite(arr).all():
                raise ValueError("thresholds must be finite")
            raise ValueError("thresholds must be strictly increasing")
        arr.flags.writeable = False
        self.taus = arr
        self._affine = self._certify_affine()
        if self._affine is None:
            _log.debug("%r has no affine certificate; binning by binary search", self)

    def __len__(self) -> int:
        return self.taus.size

    def __repr__(self):
        return f"ThresholdSet(n={len(self)}, lo={self.taus[0]}, hi={self.taus[-1]})"

    def _certify_affine(self):
        taus = self.taus
        n = taus.size
        if n < 2:
            return None
        t0 = float(taus[0])
        inv_w = (n - 1) / (float(taus[-1]) - t0)
        if not 0.0 < inv_w < math.inf:  # the span or its inverse overflows
            return None
        # a sampled pre-check first where it costs a certified set nothing measurable
        steps = (n // 64 + 1, 1) if n >= 1 << 14 else (1,)
        if not all(_affine_certified(taus, t0, inv_w, step) for step in steps):
            return None
        # taus padded with +inf, against which a guess past the end is never bumped
        return t0, inv_w, np.append(taus, np.inf)

    def bin_indices(self, values) -> np.ndarray:
        """For each value, the smallest index j with value <= taus[j].

        Returns len(self) for values above the last threshold.
        """
        v = np.asarray(values)
        if v.dtype != np.float32:  # float32 meets the float64 thresholds exactly as it is
            v = v.astype(np.float64, copy=False)
        if self._affine is not None:
            t0, inv_w, padded = self._affine
            idx = _affine_guess(v, t0, inv_w, len(self))
            idx += v > padded[idx]
            return idx
        if len(self) < 1 << 16:  # cache-resident: values of smooth fields search faster unsorted
            return np.searchsorted(self.taus, v, side="left")
        order = np.argsort(v, axis=None)  # each search starts at the previous needle's result
        idx = np.empty_like(order)
        idx[order] = np.searchsorted(self.taus, v.ravel()[order], side="left")
        return idx.reshape(v.shape)


def uniform_thresholds(grid: ScalarGrid, bins: int) -> ThresholdSet:
    """Right edges of `bins` equal-width intervals spanning the value range.

    The last threshold is exactly max(grid); a constant grid collapses to
    the single threshold [max], as do near-degenerate spacings whose edges
    are not distinct in float64.
    """
    if bins < 1:
        raise ValueError(f"bins must be >= 1, got {bins}")
    lo, hi = grid._range
    frac = np.arange(1, bins + 1) / bins
    if np.isfinite(hi - lo):
        edges = lo + (hi - lo) * frac
    else:  # the span overflows only when lo < 0 < hi, where neither term can
        edges = lo * (1.0 - frac) + hi * frac
    edges[-1] = hi
    return ThresholdSet(np.unique(edges))


class EulerCurve:
    """Threshold/value pairs of an Euler characteristic curve.

    ``values`` is int64 when produced by the exact path and float64 when
    produced by the smoothed path.
    """

    def __init__(self, taus, values):
        taus = np.asarray(taus, dtype=np.float64)
        values = np.asarray(values)
        if values.dtype.kind not in "if":
            raise ValueError(f"curve values must be numeric, got {values.dtype}")
        if taus.shape != values.shape or taus.ndim != 1:
            raise ValueError(
                f"taus and values must be equal-length 1D arrays, "
                f"got {taus.shape} and {values.shape}"
            )
        self.taus = taus
        self.values = values

    @property
    def is_integral(self) -> bool:
        return self.values.dtype.kind == "i"

    def __len__(self) -> int:
        return self.taus.size

    def __repr__(self):
        kind = "int" if self.is_integral else "float"
        return f"EulerCurve(n={len(self)}, {kind})"


# ---------------------------------------------------------------------------
# grid files


def _write_payload(path, version: int, payload: np.ndarray, dtype: str) -> None:
    """Write the header, then ``payload`` as ``dtype`` straight from memory."""
    with open(path, "wb") as f:
        f.write(_HEADER.pack(MAGIC, version, payload.ndim, 0))
        f.write(np.asarray(payload.shape, dtype="<u8"))
        f.write(payload.astype(dtype, order="C", copy=False))


def _parse_header(data: bytes, path):
    if len(data) < _HEADER.size:
        raise FormatError(f"{path}: file shorter than the fixed header")
    magic, version, ndim, reserved = _HEADER.unpack_from(data)
    if magic != MAGIC:
        raise FormatError(f"{path}: bad magic {magic!r}, expected {MAGIC!r}")
    if reserved != 0:
        raise FormatError(f"{path}: reserved header field is {reserved}, expected 0")
    if ndim not in (2, 3):
        raise FormatError(f"{path}: ndim byte is {ndim}, expected 2 or 3")
    dims_end = _HEADER.size + 8 * ndim
    if len(data) < dims_end:
        raise FormatError(f"{path}: truncated dims block")
    dims = tuple(int(d) for d in np.frombuffer(data, dtype="<u8", count=ndim, offset=_HEADER.size))
    if any(d == 0 for d in dims):
        raise FormatError(f"{path}: zero extent in dims {dims}")
    return version, dims, dims_end


def _read_payload(path, expected_version: int, dtype: str):
    path = Path(path)
    data = path.read_bytes()
    version, dims, offset = _parse_header(data, path)
    if version != expected_version:
        raise FormatError(
            f"{path}: version {version}, expected {expected_version}"
        )
    count = math.prod(dims)
    itemsize = np.dtype(dtype).itemsize
    if len(data) - offset != count * itemsize:
        raise CorruptionError(
            f"{path}: payload is {len(data) - offset} bytes but dims {dims} "
            f"require {count * itemsize}"
        )
    payload = np.frombuffer(data, dtype=dtype, count=count, offset=offset)
    return payload, dims


def read_grid(path) -> ScalarGrid:
    """Read a version-1 grid file, viewing its bytes; inverse of :func:`write_grid`."""
    payload, dims = _read_payload(path, VERSION_SCALAR, "<f4")
    return ScalarGrid(payload.reshape(dims))


def write_grid(grid: ScalarGrid, path) -> None:
    """Write a grid file with a float32 payload.

    Exact inverse of :func:`read_grid` whenever the grid values are
    representable in float32 (always true for grids read from files or
    produced by :mod:`ecckit.synthetic`).
    """
    _write_payload(path, VERSION_SCALAR, grid.values, "<f4")


# ---------------------------------------------------------------------------
# curve files


def write_curve(curve: EulerCurve, path) -> None:
    """Write ``threshold,chi`` CSV; integer chi for exact curves."""
    lines = ["threshold,chi"]
    for t, v in zip(curve.taus.tolist(), curve.values.tolist()):
        text = f"{int(v)}" if curve.is_integral else f"{v:.9g}"
        if not curve.is_integral and text.lstrip("-").isdigit():
            text += ".0"  # a '.' or an exponent keeps a float curve float on reading
        lines.append(f"{t!r},{text}")
    Path(path).write_text("\n".join(lines) + "\n")


def read_curve(path) -> EulerCurve:
    """Read a curve CSV written by :func:`write_curve`."""
    path = Path(path)
    lines = path.read_text().strip().splitlines()
    if not lines or lines[0].strip() != "threshold,chi":
        raise FormatError(f"{path}: missing 'threshold,chi' header")
    taus, raw = [], []
    for line in lines[1:]:
        t, v = line.split(",")
        taus.append(float(t))
        raw.append(v)
    integral = all("." not in v and "e" not in v and "E" not in v for v in raw)
    values = np.array([int(v) for v in raw], dtype=np.int64) if integral else \
        np.array([float(v) for v in raw], dtype=np.float64)
    return EulerCurve(np.array(taus), values)
