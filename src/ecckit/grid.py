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

import math
import operator
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
        C-contiguous array, float32 for float32 input and float64 for any
        other.
    """

    def __init__(self, values):
        arr = np.asarray(values)
        dtype = np.float32 if arr.dtype == np.float32 else np.float64
        self._hold(np.array(arr, dtype=dtype, order="C"))

    @classmethod
    def _adopt(cls, arr: np.ndarray) -> ScalarGrid:
        """A grid on ``arr`` itself, after the checks :meth:`__init__` makes: a
        C-contiguous float32 or float64 array that nothing else writes, fresh
        or a view of immutable ``bytes`` such as the payload :func:`read_grid` reads."""
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


def _buckets(x, t0, s, top: int) -> np.ndarray:
    """``clip(floor((x - t0) * s), 0, top)`` in the dtype of ``x``: with ``s > 0``
    each step is monotone, so the bucket never decreases as ``x`` grows."""
    with np.errstate(over="ignore"):  # an overflow lands on +-inf, clipped to an end
        pos = np.subtract(x, t0, out=np.empty_like(x))  # an array even for a scalar x
        pos *= s
    np.clip(pos, 0, top, out=pos)
    return pos.astype(np.intp)


class ThresholdSet:
    """Strictly increasing, finite evaluation thresholds.

    :meth:`bin_indices` splits the thresholds' span into ``2 * len(self)``
    buckets by the monotone map :func:`_buckets`, in the values' dtype (the
    thresholds clipped to its finite range).  Thresholds below a value fall in
    its bucket or earlier ones, the others in its bucket or later ones, so the
    answer lies within the value's bucket: exact, with no certificate.  A lookup
    starts at the count of thresholds in earlier buckets and takes a branchless
    halving round per bit of the fullest bucket's count; evenly spaced
    thresholds of ordinary magnitude a float32 ulp apart or more take one.
    The table is built on first use for each values dtype and cached.  It is a
    pure function of the set, so two caller threads that build it at once build
    the same table and need no lock.  Calls with fewer than one value per 64
    thresholds search directly and build no table.
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
        self._tables = {}  # values dtype -> bucket table

    def __len__(self) -> int:
        return self.taus.size

    def __repr__(self):
        return f"ThresholdSet(n={len(self)}, lo={self.taus[0]}, hi={self.taus[-1]})"

    def _table(self, dtype: np.dtype):
        """``(t0, s, top, start, rounds, padded)`` for values of ``dtype``, cached:
        ``start[k]`` counts the thresholds in buckets below ``k``, and ``padded``
        is the thresholds followed by enough +inf that no round reads past it."""
        n, big = len(self), np.finfo(dtype).max
        t0, hi = np.clip(self.taus[[0, -1]], -big, big).astype(dtype)
        half_span = float(hi) / 2 - float(t0) / 2  # finite where the span itself overflows
        top = int(dtype.type(2 * n))  # the bucket count, representable in dtype
        s = dtype.type(min(top / 2 / half_span, float(big)) if half_span > 0 else 1.0)
        taus = np.clip(self.taus, -big, big).astype(dtype, copy=False)
        counts = np.bincount(_buckets(taus, t0, s, top), minlength=top + 1)
        rounds = int(counts.max()).bit_length()
        start = np.zeros(top + 1, np.int32 if n < 1 << 31 else np.intp)
        start[1:] = np.cumsum(counts[:-1], out=counts[:-1])  # in place: no int64 copy
        padded = np.concatenate([self.taus, np.full((1 << rounds) - 1, np.inf)])
        table = self._tables[dtype] = t0, s, top, start, rounds, padded
        return table

    def bin_indices(self, values) -> np.ndarray:
        """For each value, the smallest index j with value <= taus[j].

        Returns len(self) for values above the last threshold, as int32 from
        the table (below 2**31 thresholds) and as intp from a direct search.
        A NaN value raises ``ValueError``.
        """
        v = np.asarray(values)
        if v.dtype != np.float32:  # float32 meets the float64 thresholds exactly as it is
            v = v.astype(np.float64, copy=False)
        if v.size and np.isnan(v.min()):  # NaN propagates through min, with no mask built
            raise ValueError("values to bin must not be NaN")
        if 64 * v.size < len(self):  # too few values to pay for a table
            return np.searchsorted(self.taus, v, side="left")
        t0, s, top, start, rounds, padded = self._tables.get(v.dtype) or self._table(v.dtype)
        idx = start.take(_buckets(v, t0, s, top))
        for k in reversed(range(rounds)):  # the answer lies in [idx, idx + 2**(k + 1) - 1]
            hit = padded[(1 << k) - 1:].take(idx) < v
            idx += hit << k if k else hit
        return idx


def _positive_int(name: str, value) -> int:
    """``value`` as an int; ``ValueError`` naming ``name`` unless an integer >= 1."""
    try:
        if operator.index(value) >= 1:
            return operator.index(value)
    except TypeError:
        pass
    raise ValueError(f"{name} must be an integer >= 1, got {value!r}")


def uniform_thresholds(grid: ScalarGrid, bins: int) -> ThresholdSet:
    """Right edges of `bins` equal-width intervals spanning the value range.

    The last threshold is exactly max(grid); a constant grid collapses to
    the single threshold [max], as do near-degenerate spacings whose edges
    are not distinct in float64.
    """
    bins = _positive_int("bins", bins)
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
    return ScalarGrid._adopt(payload.astype(np.float32, copy=False).reshape(dims))


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
