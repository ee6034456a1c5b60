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
each pass compacts the grid to them once and evaluates sigmoids there
alone; ``d_values`` is zero at every other pixel.  Critical pixels are
taken in blocks that bound the sigmoid block to ``_BLOCK_ENTRIES``
entries; each worker accumulates whole blocks in float64, so input of one
block runs on the calling thread, and the worker partials are summed in a
fixed order.  Repeated runs at a fixed worker count are bit-identical;
across worker counts results agree to ~1e-10.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import expit

from .coefficients import CoefficientGrid, _critical_pixels, _fan_out, compute_coefficients
from .grid import EulerCurve, ScalarGrid, ThresholdSet

UNIT_NORM_TOL = 1e-12
# entries per sigmoid block (~16 MB); a block holds at least one pixel column
_BLOCK_ENTRIES = 2_000_000


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
        if not np.isfinite(self.alpha):
            raise ValueError(f"direction scale must be finite, got {self.alpha}")
        u = np.asarray(self.u, dtype=np.float64).ravel()
        if u.size not in (2, 3):
            raise ValueError(f"direction must have 2 or 3 components, got {u.size}")
        if not np.isfinite(u).all():
            raise ValueError("direction must be finite")
        if abs(np.linalg.norm(u) - 1.0) > UNIT_NORM_TOL:
            raise ValueError(
                f"direction must be unit length within {UNIT_NORM_TOL}, "
                f"got norm {np.linalg.norm(u)!r}"
            )
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


def _axis_coordinates(dims) -> list[np.ndarray]:
    """Per axis, the positions of its pixels mapped into [-1, 1].

    Axes of extent 1 map to 0.
    """
    return [
        np.zeros(1) if d == 1 else np.arange(d) * (2.0 / (d - 1)) - 1.0
        for d in dims
    ]


def _positions(dims, flat: np.ndarray) -> np.ndarray:
    """(n, ndim) float64 positions of the pixels at the given flat indices."""
    axes = _axis_coordinates(dims)
    return np.stack([x[i] for x, i in zip(axes, np.unravel_index(flat, dims))], axis=1)


def effective_field(grid: ScalarGrid, alpha: float, u) -> ScalarGrid:
    """The field X + alpha * <u, p> whose sublevel sets the soft curve probes."""
    u = np.asarray(u, dtype=np.float64).ravel()
    _check_direction(grid, u)
    shifted = grid.values.copy()
    for a, x in enumerate(_axis_coordinates(grid.dims)):
        # axis a's vector, shaped to broadcast along axis a
        shifted += (alpha * u[a]) * x.reshape((-1,) + (1,) * (grid.ndim - 1 - a))
    return ScalarGrid(shifted)


def reparametrize_direction(v) -> np.ndarray:
    """Map an unconstrained vector onto the unit sphere by normalization."""
    v = np.asarray(v, dtype=np.float64).ravel()
    norm = float(np.linalg.norm(v))
    if norm <= 1e-12:
        raise ValueError(f"direction vector too close to zero (norm {norm!r})")
    return v / norm


def reparametrize_direction_jvp(v, dv) -> np.ndarray:
    """Jacobian-vector product of :func:`reparametrize_direction` at v."""
    v = np.asarray(v, dtype=np.float64).ravel()
    dv = np.asarray(dv, dtype=np.float64).ravel()
    norm = float(np.linalg.norm(v))
    if norm <= 1e-12:
        raise ValueError(f"direction vector too close to zero (norm {norm!r})")
    u = v / norm
    return (dv - u * (u @ dv)) / norm


def _check_direction(grid: ScalarGrid, u: np.ndarray):
    if u.size != grid.ndim:
        raise ValueError(f"direction has {u.size} components for a {grid.ndim}D grid")


def _check_shapes(grid: ScalarGrid, coeffs: CoefficientGrid, u: np.ndarray):
    if coeffs.dims != grid.dims:
        raise ValueError(f"coefficient dims {coeffs.dims} != grid dims {grid.dims}")
    _check_direction(grid, u)


def _sigmoid_block(taus, lam, field_block):
    z = np.subtract.outer(taus, field_block)
    z *= lam
    return expit(z, out=z)


def _offsets(dims, alpha, u, idx, vals):
    """Offsets ``X(p) + alpha * <u, p>`` and positions (None at alpha 0) of pixels idx."""
    if alpha == 0.0:
        return vals, None
    pos = _positions(dims, idx)
    return vals + alpha * (pos @ u), pos


def _forward_raw(grid, coeffs, lam, alpha, u, taus: ThresholdSet, workers=1):
    """Smoothed curve values for a possibly non-unit direction vector.

    Shared by the public forward and by finite-difference probes, which
    must evaluate at off-sphere directions.
    """
    tau_arr = taus.taus
    idx, vals, c = _critical_pixels(grid.values, coeffs.coeffs)
    step = max(1, _BLOCK_ENTRIES // tau_arr.size)

    def span_sum(start, stop):
        part = np.zeros(tau_arr.size)
        for b0 in range(start * step, min(stop * step, c.size), step):
            b1 = min(c.size, b0 + step)
            x, _ = _offsets(grid.dims, alpha, u, idx[b0:b1], vals[b0:b1])
            part += _sigmoid_block(tau_arr, lam, x) @ c[b0:b1].astype(np.float64)
        return part

    return np.sum(np.stack(_fan_out(span_sum, -(-c.size // step), workers)), axis=0)


def soft_ecc(
    grid: ScalarGrid,
    coeffs: CoefficientGrid,
    params: SoftEccParams,
    workers: int = 1,
) -> EulerCurve:
    """Smoothed Euler characteristic curve at every threshold.

    ``coeffs`` is expected to come from the effective field (see
    :func:`effective_field`); it is accepted explicitly so that callers can
    hold it fixed, e.g. during finite-difference probes.
    """
    _check_shapes(grid, coeffs, params.u)
    chi = _forward_raw(grid, coeffs, params.lam, params.alpha, params.u, params.taus, workers)
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
    _check_shapes(grid, coeffs, params.u)
    upstream = np.asarray(upstream, dtype=np.float64).ravel()
    ntau = len(params.taus)
    if upstream.size != ntau:
        raise ValueError(f"upstream has {upstream.size} weights for {ntau} thresholds")

    tau_arr = params.taus.taus
    lam, alpha, u = params.lam, params.alpha, params.u
    idx, vals, c = _critical_pixels(grid.values, coeffs.coeffs)
    d_values = np.zeros(grid.size)
    step = max(1, _BLOCK_ENTRIES // ntau)

    def span_sums(start, stop):
        dtau_part = np.zeros(ntau)
        du_part = np.zeros(u.size)
        for b0 in range(start * step, min(stop * step, c.size), step):
            b1 = min(c.size, b0 + step)
            x, pos = _offsets(grid.dims, alpha, u, idx[b0:b1], vals[b0:b1])
            c_blk = c[b0:b1].astype(np.float64)
            s = _sigmoid_block(tau_arr, lam, x)
            sp = s * (1.0 - s)
            sp *= lam
            w = upstream @ sp
            d_values[idx[b0:b1]] = -c_blk * w
            dtau_part += sp @ c_blk
            if pos is not None:
                du_part += (w * c_blk) @ pos
        return dtau_part, du_part

    parts = _fan_out(span_sums, -(-c.size // step), workers)
    d_tau = upstream * np.sum(np.stack([p[0] for p in parts]), axis=0)
    d_u = -alpha * np.sum(np.stack([p[1] for p in parts]), axis=0)
    d_u = d_u - (d_u @ u) * u
    return SoftGradients(d_values.reshape(grid.dims), d_tau, d_u)


def gradient_check(
    grid: ScalarGrid,
    params: SoftEccParams,
    upstream=None,
    step: float = 1e-4,
    rtol: float = 1e-4,
    seed: int = 0,
    workers: int = 1,
) -> dict:
    """Compare the analytic backward pass against central finite differences.

    Coefficients are computed once from the effective field and held fixed,
    matching the backward pass's constant-coefficient model.  The direction
    is probed as a free vector and the difference quotient is projected
    onto the tangent space, which is what the backward pass reports.

    Differences use the fourth-order central stencil at the given step:
    second-order truncation grows like (sharpness * step)^2 and at
    sharpness 50, step 1e-4 it would drown components that nearly cancel,
    while the fourth-order residual stays near 1e-8.

    Relative errors use ``|a - fd| / max(|a|, |fd|, 1e-4)``; the floor
    turns the comparison absolute (at rtol * 1e-4) for components whose
    sigmoid tails are saturated, where a plain ratio would divide by zero.
    Returns per-parameter maxima, the tangency residual, and an overall
    ``pass`` flag at ``rtol``.
    """
    if upstream is None:
        rng = np.random.default_rng(seed)
        upstream = rng.uniform(0.5, 1.5, size=len(params.taus))
    upstream = np.asarray(upstream, dtype=np.float64)

    coeffs = compute_coefficients(effective_field(grid, params.alpha, params.u))
    grads = soft_ecc_backward(grid, coeffs, params, upstream, workers)

    lam, alpha, u, taus = params.lam, params.alpha, params.u, params.taus

    def loss(values=None, tau_arr=None, u_vec=None):
        g = grid if values is None else ScalarGrid(values)
        t = taus if tau_arr is None else ThresholdSet(tau_arr)
        vec = u if u_vec is None else u_vec
        return float(upstream @ _forward_raw(g, coeffs, lam, alpha, vec, t, workers))

    floor = 1e-4

    def rel(a, fd):
        return np.abs(a - fd) / np.maximum(np.maximum(np.abs(a), np.abs(fd)), floor)

    def central4(evaluate):
        # evaluate(offset) -> loss with one scalar parameter shifted by offset
        return (
            -evaluate(2 * step)
            + 8 * evaluate(step)
            - 8 * evaluate(-step)
            + evaluate(-2 * step)
        ) / (12 * step)

    fd_values = np.zeros(grid.size)
    base = grid.values.ravel()
    for i in range(grid.size):

        def probe_value(offset, i=i):
            bumped = base.copy()
            bumped[i] += offset
            return loss(values=bumped.reshape(grid.dims))

        fd_values[i] = central4(probe_value)

    fd_tau = np.zeros(len(taus))
    for j in range(len(taus)):

        def probe_tau(offset, j=j):
            bumped = taus.taus.copy()
            bumped[j] += offset
            return loss(tau_arr=bumped)

        fd_tau[j] = central4(probe_tau)

    fd_u = np.zeros(u.size)
    for a in range(u.size):

        def probe_u(offset, a=a):
            bumped = u.copy()
            bumped[a] += offset
            return loss(u_vec=bumped)

        fd_u[a] = central4(probe_u)
    fd_u_proj = fd_u - (fd_u @ u) * u

    report = {
        "d_values": float(rel(grads.d_values.ravel(), fd_values).max()),
        "d_tau": float(rel(grads.d_tau, fd_tau).max()),
        "d_u": float(rel(grads.d_u, fd_u_proj).max()),
        "tangency": float(abs(grads.d_u @ u)),
    }
    report["pass"] = bool(
        max(report["d_values"], report["d_tau"], report["d_u"]) <= rtol
        and report["tangency"] <= 1e-8
    )
    return report
