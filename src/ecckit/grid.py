"""Grid data model, threshold sets, curves, and bit-exact file I/O.

Conventions shared by every other module:

* Grids are dense 2D or 3D scalar fields stored row-major (last axis
  fastest).  Values live in float64 in memory; the on-disk payload is
  little-endian float32, so grids that originate from files or from the
  synthetic generators round-trip bit-exactly.
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

import struct
from pathlib import Path

import numpy as np

MAGIC = b"ECCG"
VERSION_SCALAR = 1
VERSION_COEFF = 2

_HEADER = struct.Struct("<4sBBH")


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
        C-contiguous float64 array.
    """

    def __init__(self, values):
        arr = np.array(values, dtype=np.float64, order="C")
        if arr.ndim not in (2, 3):
            raise ValueError(f"grid must be 2D or 3D, got ndim={arr.ndim}")
        if any(s < 1 for s in arr.shape):
            raise ValueError(f"grid extents must be positive, got {arr.shape}")
        if not np.isfinite(arr).all():
            raise ValueError("grid values must be finite (no NaN/Inf)")
        arr.flags.writeable = False
        self.values = arr

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
        pos = np.asarray(x, dtype=np.float64) - t0
        pos *= inv_w
    pos -= 1e-9
    np.clip(pos, 0.0, float(nbins), out=pos)
    np.ceil(pos, out=pos)
    return pos.astype(np.int64)


class ThresholdSet:
    """Strictly increasing, finite evaluation thresholds.

    On construction we try to certify a constant-time binning rule: a
    low-biased affine guess of the covering-threshold index that is then
    repaired by at most one increment against the actual thresholds.  The
    guess and the true index are both monotone step functions, so checking
    ``true - 1 <= guess <= true`` at every threshold and at the next
    representable float above it implies the bound for every float in
    between, making guess-plus-bump exact everywhere.  When the
    certificate fails (thresholds not evenly spaced), binning falls back
    to binary search.
    """

    def __init__(self, taus):
        arr = np.array(taus, dtype=np.float64).ravel()
        if arr.size < 1:
            raise ValueError("threshold set must contain at least one value")
        if not np.isfinite(arr).all():
            raise ValueError("thresholds must be finite")
        if arr.size > 1 and not (np.diff(arr) > 0).all():
            raise ValueError("thresholds must be strictly increasing")
        arr.flags.writeable = False
        self.taus = arr
        self._affine = self._certify_affine()

    def __len__(self) -> int:
        return self.taus.size

    def __repr__(self):
        return f"ThresholdSet(n={len(self)}, lo={self.taus[0]}, hi={self.taus[-1]})"

    def _certify_affine(self):
        taus = self.taus
        n = taus.size
        span = float(taus[-1]) - float(taus[0])
        if n < 2 or not np.isfinite(span):
            return None
        t0 = float(taus[0])
        inv_w = (n - 1) / span
        # true index is j at taus[j] and j+1 just above it; require the
        # guess to sit in [true - 1, true] at both kinds of breakpoint
        at = _affine_guess(taus, t0, inv_w, n)
        with np.errstate(over="ignore"):  # above the largest float is inf
            above = _affine_guess(np.nextafter(taus, np.inf), t0, inv_w, n)
        j = np.arange(n)
        ok = (
            (at <= j).all()
            and (at >= j - 1).all()
            and (above <= j + 1).all()
            and (above >= j).all()
        )
        # taus padded with +inf, against which a guess past the end is never bumped
        return (t0, inv_w, np.append(taus, np.inf)) if ok else None

    def bin_indices(self, values) -> np.ndarray:
        """For each value, the smallest index j with value <= taus[j].

        Returns len(self) for values above the last threshold.
        """
        v = np.asarray(values, dtype=np.float64)
        if self._affine is not None:
            t0, inv_w, padded = self._affine
            idx = _affine_guess(v, t0, inv_w, len(self))
            idx += v > padded[idx]
            return idx
        return np.searchsorted(self.taus, v, side="left")


def uniform_thresholds(grid: ScalarGrid, bins: int) -> ThresholdSet:
    """Right edges of `bins` equal-width intervals spanning the value range.

    The last threshold is exactly max(grid); a constant grid collapses to
    the single threshold [max], as do near-degenerate spacings whose edges
    are not distinct in float64.
    """
    if bins < 1:
        raise ValueError(f"bins must be >= 1, got {bins}")
    lo = float(grid.values.min())
    hi = float(grid.values.max())
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


def _pack_header(version: int, dims) -> bytes:
    head = _HEADER.pack(MAGIC, version, len(dims), 0)
    return head + np.asarray(dims, dtype="<u8").tobytes()


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
    count = 1
    for d in dims:
        count *= d
    itemsize = np.dtype(dtype).itemsize
    if len(data) - offset != count * itemsize:
        raise CorruptionError(
            f"{path}: payload is {len(data) - offset} bytes but dims {dims} "
            f"require {count * itemsize}"
        )
    payload = np.frombuffer(data, dtype=dtype, count=count, offset=offset)
    return payload, dims


def read_grid(path) -> ScalarGrid:
    """Read a version-1 grid file; inverse of :func:`write_grid`."""
    payload, dims = _read_payload(path, VERSION_SCALAR, "<f4")
    return ScalarGrid(payload.astype(np.float64).reshape(dims))


def write_grid(grid: ScalarGrid, path) -> None:
    """Write a grid file with a float32 payload.

    Exact inverse of :func:`read_grid` whenever the grid values are
    representable in float32 (always true for grids read from files or
    produced by :mod:`ecckit.synthetic`).
    """
    blob = _pack_header(VERSION_SCALAR, grid.dims) + grid.values.astype("<f4").tobytes()
    Path(path).write_bytes(blob)


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
