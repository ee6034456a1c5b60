"""Differentiable Euler characteristic curves with one learnable direction.

The hard indicator in the exact curve is replaced by a sigmoid of sharpness
``lam``; with an optional direction term the smoothed curve at threshold
tau is::

    chi(tau) = sum_p  c(p) * sigmoid(lam * (tau - X(p) - alpha * <u, p>))

where ``p`` in the inner product is the pixel position mapped per axis to
[-1, 1] (single-pixel axes map to 0), keeping the meaning of ``alpha``
independent of resolution.  Each axis has one such coordinate vector:
:func:`effective_field` broadcasts it along its axis, and the passes
below index it at their critical pixels.  As ``lam`` grows this converges
to the exact curve at thresholds bounded away from grid values.

Coefficients carry no gradient: they are a piecewise-constant function of
the field, so callers compute them from the effective field
``X + alpha * <u, p>`` and the backward pass differentiates only through
the sigmoid arguments.  The direction gradient is returned projected onto
the tangent space of the unit sphere at ``u``, which is the chain rule
through :func:`reparametrize_direction` evaluated on the sphere.

Only critical pixels, those with a nonzero coefficient, contribute, so
each pass compacts the grid once to their flat index, float64 coefficient
and offset ``x = X(p) + alpha * <u, p>``, plus their positions when alpha
is nonzero; ``d_values`` is zero at every other pixel.  Sigmoids go
through ``t = tanh(lam * (tau - x) / 2)``: sigmoid = (1 + t) / 2, so the
curve is ``(sum_p c t + sum_p c) / 2``, and sigmoid' = lam (1 - t^2) / 4.
:func:`gradient_check` compacts once too and probes by bumping one offset
or threshold in a copy, or by shifting the offsets for a bumped direction.
Critical pixels are taken in blocks that bound the sigmoid block to
``_BLOCK_ENTRIES`` entries, and the blocks are summed by the block loop
the exact path uses too: ``workers`` threads compute blocks, whose float64
results are added in block order, so every output is bit-identical at
every worker count; input of one block runs on the calling thread.  A
backward block returns its ``d_tau`` and ``d_u`` partials as one array,
so that loop sums both.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .coefficients import CoefficientGrid, _critical_pixels, _fan_out, compute_coefficients
from .grid import EulerCurve, ScalarGrid, ThresholdSet

UNIT_NORM_TOL = 1e-12
# entries per sigmoid block (~16 MB); a block holds at least one pixel column
_BLOCK_ENTRIES = 2_000_000
_GRADCHECK_RTOL = 1e-4


@dataclass(frozen=True)
class SoftEccParams:
    """Sharpness, direction scale, unit direction and thresholds."""

    lam: float
    alpha: float
    u: np.ndarray
    taus: ThresholdSet

    def __post_init__(self):
        if not (np.isfinite(self.lam) and self.lam > 0):
            raise ValueError(f"sharpness must be finite and positive, got {self.lam}")
        u = np.asarray(self.u, dtype=np.float64).ravel()
        if u.size not in (2, 3):
            raise ValueError(f"direction must have 2 or 3 components, got {u.size}")
        _check_tilt(self.alpha, u)
        object.__setattr__(self, "u", u)


@dataclass(frozen=True)
class SoftGradients:
    """Cotangent-weighted gradients of the smoothed curve.

    ``d_values`` has the grid's shape, ``d_tau`` one entry per threshold,
    and ``d_u`` one entry per axis, projected onto the tangent space at u.
    """

    d_values: np.ndarray
    d_tau: np.ndarray
    d_u: np.ndarray


def _axis_coordinates(i: np.ndarray, d: int) -> np.ndarray:
    """Indices i along an axis of extent d mapped into [-1, 1]; 0 when d is 1."""
    return np.zeros(i.shape) if d == 1 else i * (2.0 / (d - 1)) - 1.0


def _positions(dims, flat: np.ndarray) -> np.ndarray:
    """(n, ndim) float64 positions of the pixels at the given flat indices."""
    index = np.unravel_index(flat, dims)
    return np.stack([_axis_coordinates(i, d) for i, d in zip(index, dims)], axis=1)


def effective_field(grid: ScalarGrid, alpha: float, u) -> ScalarGrid:
    """The field X + alpha * <u, p> whose sublevel sets the soft curve probes;
    ``alpha`` and ``u`` are checked as :class:`SoftEccParams` checks them."""
    u = np.asarray(u, dtype=np.float64).ravel()
    _check_direction(grid, u)
    _check_tilt(alpha, u)
    shifted = grid.values.astype(np.float64)  # a float32 copy would round the shift
    for a, d in enumerate(grid.dims):
        # axis a's vector, shaped to broadcast along axis a
        x = _axis_coordinates(np.arange(d), d)
        shifted += (alpha * u[a]) * x.reshape((-1,) + (1,) * (grid.ndim - 1 - a))
    return ScalarGrid._adopt(shifted)


def reparametrize_direction(v) -> np.ndarray:
    """Map a vector of finite norm above 1e-12 onto the unit sphere by normalization."""
    v = np.asarray(v, dtype=np.float64).ravel()
    norm = float(np.linalg.norm(v))
    if not 1e-12 < norm < np.inf:  # NaN fails both: a NaN or infinite entry, or overflow
        raise ValueError(f"direction vector needs a finite norm above 1e-12, got {norm!r}")
    return v / norm


def _check_direction(grid: ScalarGrid, u: np.ndarray):
    if u.size != grid.ndim:
        raise ValueError(f"direction has {u.size} components for a {grid.ndim}D grid")


def _check_tilt(alpha, u: np.ndarray):
    """Raise ``ValueError`` unless ``alpha`` is finite and ``u`` a finite unit vector."""
    if not np.isfinite(alpha):
        raise ValueError(f"direction scale must be finite, got {alpha}")
    if not np.isfinite(u).all():
        raise ValueError("direction must be finite")
    norm = np.linalg.norm(u)
    if abs(norm - 1.0) > UNIT_NORM_TOL:
        raise ValueError(f"direction must be unit length within {UNIT_NORM_TOL}, got norm {norm!r}")


def _critical_set(grid: ScalarGrid, coeffs: CoefficientGrid, alpha: float, u: np.ndarray):
    """Index, float64 offset and coefficient, and position (None at alpha 0) of critical pixels."""
    if coeffs.dims != grid.dims:
        raise ValueError(f"coefficient dims {coeffs.dims} != grid dims {grid.dims}")
    _check_direction(grid, u)
    idx, vals, c = _critical_pixels(grid.values, coeffs.coeffs)
    pos = None if alpha == 0.0 else _positions(grid.dims, idx)
    x = vals.astype(np.float64, copy=False)  # probes bump copies of it, which must not round
    return idx, _offsets(alpha, u, pos, x), c.astype(np.float64), pos


def _offsets(alpha, u, pos, x):
    """``x + alpha * <u, p>`` over the critical pixels at positions ``pos``."""
    return x if pos is None else x + alpha * (pos @ u)


def _tanh_block(taus, lam, x):
    """``tanh(lam/2 * (tau - x))`` per threshold and offset: ``2 * sigmoid - 1``."""
    t = np.subtract.outer(taus, x)
    t *= 0.5 * lam
    return np.tanh(t, out=t)


def _forward_raw(x, c, lam, tau_arr, workers=1):
    """Smoothed curve values of critical pixels with offsets ``x`` and coefficients ``c``."""

    def block(b0, b1):
        return _tanh_block(tau_arr, lam, x[b0:b1]) @ c[b0:b1]

    t_sum = _fan_out(block, c.size, max(1, _BLOCK_ENTRIES // tau_arr.size), workers)
    return 0.5 * (t_sum + c.sum())


def soft_ecc(
    grid: ScalarGrid,
    coeffs: CoefficientGrid,
    params: SoftEccParams,
    workers: int = 1,
) -> EulerCurve:
    """Smoothed Euler characteristic curve at every threshold.

    ``coeffs`` is expected to come from the effective field (see
    :func:`effective_field`); it is accepted explicitly so that callers can
    hold it fixed.
    """
    _, x, c, _ = _critical_set(grid, coeffs, params.alpha, params.u)
    chi = _forward_raw(x, c, params.lam, params.taus.taus, workers)
    return EulerCurve(params.taus.taus, chi)


def soft_ecc_backward(
    grid: ScalarGrid,
    coeffs: CoefficientGrid,
    params: SoftEccParams,
    upstream,
    workers: int = 1,
) -> SoftGradients:
    """Cotangent-weighted gradients of the smoothed curve.

    ``upstream`` holds one weight per threshold.  Writing s' for the
    sigmoid derivative at pixel p and threshold j:

    * ``d_values[p] = -c(p) * sum_j upstream[j] * s'(j, p)``
    * ``d_tau[j]   = upstream[j] * sum_p c(p) * s'(j, p)``
    * ``d_u        = -alpha * sum_{j,p} upstream[j] c(p) s'(j, p) * pos(p)``,
      then projected onto the tangent space at u.

    Coefficients are treated as constants.
    """
    idx, x, c, pos = _critical_set(grid, coeffs, params.alpha, params.u)
    upstream = np.asarray(upstream, dtype=np.float64).ravel()
    ntau = len(params.taus)
    if upstream.size != ntau:
        raise ValueError(f"upstream has {upstream.size} weights for {ntau} thresholds")

    tau_arr = params.taus.taus
    lam, alpha, u = params.lam, params.alpha, params.u
    d_values = np.zeros(grid.size)

    def block(b0, b1):
        """This block's ``d_tau`` partial followed by its ``d_u`` partial."""
        c_blk = c[b0:b1]
        sp = _tanh_block(tau_arr, lam, x[b0:b1])
        np.subtract(1.0, np.square(sp, out=sp), out=sp)
        sp *= 0.25 * lam  # s' = lam * s * (1 - s) = lam/4 * (1 - t^2)
        w = upstream @ sp
        d_values[idx[b0:b1]] = -c_blk * w
        du = np.zeros(u.size) if pos is None else (w * c_blk) @ pos[b0:b1]
        return np.concatenate([sp @ c_blk, du])

    sums = _fan_out(block, c.size, max(1, _BLOCK_ENTRIES // ntau), workers)
    d_tau = upstream * sums[:ntau]
    d_u = -alpha * sums[ntau:]
    d_u = d_u - (d_u @ u) * u
    return SoftGradients(d_values.reshape(grid.dims), d_tau, d_u)


def gradient_check(
    grid: ScalarGrid,
    params: SoftEccParams,
    upstream=None,
    step: float = 1e-4,
    seed: int = 0,
) -> dict:
    """Compare the analytic backward pass against central finite differences.

    Coefficients are computed once from the effective field and held fixed,
    matching the backward pass's constant-coefficient model.  Only critical
    pixels are probed: the curve does not depend on the value of a pixel
    with a zero coefficient, so there the difference quotient is 0, as is
    ``d_values``.  The direction is probed as a free vector and the
    difference quotient is projected onto the tangent space, which is what
    the backward pass reports.

    Differences use the fourth-order central stencil at the given step:
    second-order truncation grows like (sharpness * step)^2 and at
    sharpness 50, step 1e-4 it would drown components that nearly cancel,
    while the fourth-order residual stays near 1e-8.

    Relative errors use ``|a - fd| / max(|a|, |fd|, 1e-4)``; the floor
    turns the comparison absolute (at 1e-8) for components whose sigmoid
    tails are saturated, where a plain ratio would divide by zero.
    Returns per-parameter maxima, the tangency residual, and an overall
    ``pass`` flag: every maximum at most 1e-4 and the residual at most 1e-8.
    A step that is not finite and positive raises ``ValueError``.
    """
    if not 0.0 < step < np.inf:  # NaN fails both comparisons
        raise ValueError(f"step must be finite and positive, got {step}")
    if upstream is None:
        rng = np.random.default_rng(seed)
        upstream = rng.uniform(0.5, 1.5, size=len(params.taus))
    upstream = np.asarray(upstream, dtype=np.float64)

    coeffs = compute_coefficients(effective_field(grid, params.alpha, params.u))
    grads = soft_ecc_backward(grid, coeffs, params, upstream)

    lam, alpha, u, tau_arr = params.lam, params.alpha, params.u, params.taus.taus
    idx, x, c, pos = _critical_set(grid, coeffs, alpha, u)

    def loss(x=x, taus=tau_arr):
        return float(upstream @ _forward_raw(x, c, lam, taus))

    def rel(a, fd):
        return np.abs(a - fd) / np.maximum(np.maximum(np.abs(a), np.abs(fd)), 1e-4)

    def central4(array, i, probe):
        """Fourth-order central difference of ``probe`` in ``array[i]``."""

        def at(offset):
            bumped = array.copy()
            bumped[i] += offset
            return probe(bumped)

        return (-at(2 * step) + 8 * at(step) - 8 * at(-step) + at(-2 * step)) / (12 * step)

    fd_values = np.zeros(grid.size)
    fd_values[idx] = [central4(x, k, lambda v: loss(x=v)) for k in range(idx.size)]
    fd_tau = np.array([central4(tau_arr, j, lambda t: loss(taus=t)) for j in range(tau_arr.size)])
    fd_u = np.array([central4(u, a, lambda w: loss(x=_offsets(alpha, w - u, pos, x)))
                     for a in range(u.size)])
    fd_u_proj = fd_u - (fd_u @ u) * u

    report = {
        "d_values": float(rel(grads.d_values.ravel(), fd_values).max()),
        "d_tau": float(rel(grads.d_tau, fd_tau).max()),
        "d_u": float(rel(grads.d_u, fd_u_proj).max()),
        "tangency": float(abs(grads.d_u @ u)),
    }
    report["pass"] = bool(
        max(report["d_values"], report["d_tau"], report["d_u"]) <= _GRADCHECK_RTOL
        and report["tangency"] <= 1e-8
    )
    return report
