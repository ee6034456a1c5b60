"""Smoothed curves: forward values, analytic gradients, direction handling."""

import os
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path
from unittest.mock import Mock

import numpy as np
import pytest
from scipy.special import expit

from ecckit import (
    CoefficientGrid,
    ScalarGrid,
    SoftEccParams,
    SyntheticSpec,
    ThresholdSet,
    compute_coefficients,
    compute_ecc,
    effective_field,
    generate_grid,
    gradient_check,
    reparametrize_direction,
    soft_ecc,
    soft_ecc_backward,
    uniform_thresholds,
)
import ecckit.soft
from ecckit.coefficients import _critical_pixels
from ecckit.soft import _forward_raw, _positions

from conftest import random_int_grid


def unit(*parts):
    return reparametrize_direction(np.array(parts, dtype=np.float64))


def midpoint_thresholds(grid):
    distinct = np.unique(grid.values)
    if distinct.size < 2:
        return ThresholdSet([float(distinct[0])])
    return ThresholdSet((distinct[:-1] + distinct[1:]) / 2)


class TestForward:
    def test_sigmoid_midpoint(self):
        g = ScalarGrid([[0.0]])
        c = compute_coefficients(g)
        for lam in (0.5, 4.0, 100.0):
            p = SoftEccParams(lam=lam, alpha=0.0, u=unit(1, 0), taus=ThresholdSet([0.0]))
            assert soft_ecc(g, c, p).values[0] == pytest.approx(0.5, abs=1e-15)

    def test_saturation(self):
        g = ScalarGrid([[0.0]])
        c = compute_coefficients(g)
        p = SoftEccParams(lam=100.0, alpha=0.0, u=unit(1, 0), taus=ThresholdSet([1.0]))
        assert abs(soft_ecc(g, c, p).values[0] - 1.0) <= 1e-12

    def test_sharp_limit_matches_hard_curve(self, rng):
        for _ in range(6):
            g = random_int_grid(rng, 2, 8)
            taus = midpoint_thresholds(g)
            if len(taus) < 2:
                continue
            coeffs = compute_coefficients(g)
            hard = compute_ecc(g, taus).values
            lam = 1e4
            p = SoftEccParams(lam=lam, alpha=0.0, u=unit(1, 1), taus=taus)
            soft = soft_ecc(g, coeffs, p).values
            # thresholds sit >= 0.5 away from every integer grid value
            bound = np.abs(coeffs.coeffs).sum() * np.exp(-lam * 0.5)
            assert np.abs(soft - hard).max() <= max(bound, 1e-6)

    def test_quantitative_convergence_bound(self, rng):
        g = random_int_grid(rng, 2, 8)
        taus = midpoint_thresholds(g)
        coeffs = compute_coefficients(g)
        hard = compute_ecc(g, taus).values
        delta = min(
            abs(float(t) - float(v)) for t in taus.taus for v in np.unique(g.values)
        )
        for lam in (5.0, 20.0, 80.0):
            p = SoftEccParams(lam=lam, alpha=0.0, u=unit(1, 0), taus=taus)
            soft = soft_ecc(g, coeffs, p).values
            bound = np.abs(coeffs.coeffs).sum() * np.exp(-lam * delta)
            assert np.abs(soft - hard).max() <= bound + 1e-12

    def test_linear_in_coefficients(self, rng):
        g = random_int_grid(rng, 2, 6)
        taus = uniform_thresholds(g, 5)
        p = SoftEccParams(lam=3.0, alpha=0.0, u=unit(0, 1), taus=taus)
        a = CoefficientGrid(rng.integers(-3, 2, g.dims).astype(np.int8))
        b = CoefficientGrid(rng.integers(-3, 2, g.dims).astype(np.int8))
        both = CoefficientGrid(a.coeffs + b.coeffs)
        total = soft_ecc(g, both, p).values
        split = soft_ecc(g, a, p).values + soft_ecc(g, b, p).values
        assert np.allclose(total, split, rtol=0, atol=1e-12)

    def test_monotone_when_coefficients_nonnegative(self, rng):
        g = random_int_grid(rng, 2, 6)
        c = CoefficientGrid(rng.integers(0, 2, g.dims).astype(np.int8))
        p = SoftEccParams(lam=2.0, alpha=0.0, u=unit(1, 0),
                          taus=uniform_thresholds(g, 11))
        vals = soft_ecc(g, c, p).values
        assert (np.diff(vals) >= -1e-15).all()

    def test_direction_term_shifts_the_field(self, rng):
        g = random_int_grid(rng, 2, 5)
        u = unit(2, -1)
        alpha = 0.4
        eff = effective_field(g, alpha, u)
        coeffs = compute_coefficients(eff)
        taus = uniform_thresholds(eff, 6)
        p = SoftEccParams(lam=7.0, alpha=alpha, u=u, taus=taus)
        via_direction = soft_ecc(g, coeffs, p).values
        p0 = SoftEccParams(lam=7.0, alpha=0.0, u=u, taus=taus)
        via_field = soft_ecc(eff, coeffs, p0).values
        assert np.allclose(via_direction, via_field, rtol=0, atol=1e-12)

    def test_shape_mismatch_rejected(self, rng):
        g = random_int_grid(rng, 2, 4)
        wrong = CoefficientGrid(np.zeros((g.dims[0] + 1, g.dims[1]), dtype=np.int8))
        p = SoftEccParams(lam=1.0, alpha=0.0, u=unit(1, 0),
                          taus=uniform_thresholds(g, 3))
        with pytest.raises(ValueError):
            soft_ecc(g, wrong, p)


class TestParams:
    def test_lambda_positive(self):
        with pytest.raises(ValueError):
            SoftEccParams(lam=0.0, alpha=0.0, u=np.array([1.0, 0.0]),
                          taus=ThresholdSet([0.0]))

    @pytest.mark.parametrize("lam", [np.inf, np.nan, -np.inf])
    def test_lambda_finite(self, lam):
        with pytest.raises(ValueError):
            SoftEccParams(lam=lam, alpha=0.0, u=np.array([1.0, 0.0]),
                          taus=ThresholdSet([0.0]))

    @pytest.mark.parametrize("alpha", [np.inf, np.nan, -np.inf])
    def test_alpha_finite(self, alpha):
        with pytest.raises(ValueError):
            SoftEccParams(lam=1.0, alpha=alpha, u=np.array([1.0, 0.0]),
                          taus=ThresholdSet([0.0]))

    def test_direction_has_2_or_3_components(self):
        with pytest.raises(ValueError, match="2 or 3 components, got 4"):
            SoftEccParams(lam=1.0, alpha=0.0, u=np.array([0.5, 0.5, 0.5, 0.5]),
                          taus=ThresholdSet([0.0]))

    def test_unit_norm_enforced(self):
        with pytest.raises(ValueError):
            SoftEccParams(lam=1.0, alpha=0.0, u=np.array([1.0, 1.0]),
                          taus=ThresholdSet([0.0]))

    def test_upstream_length_checked(self, rng):
        g = random_int_grid(rng, 2, 4)
        p = SoftEccParams(lam=1.0, alpha=0.0, u=unit(1, 0),
                          taus=uniform_thresholds(g, 4))
        with pytest.raises(ValueError):
            soft_ecc_backward(g, compute_coefficients(g), p, np.ones(3))

    @pytest.mark.parametrize("workers", [0, -1, 2.5])
    def test_workers_checked(self, rng, workers):
        g = random_int_grid(rng, 2, 4)
        p = SoftEccParams(lam=1.0, alpha=0.0, u=unit(1, 0), taus=uniform_thresholds(g, 4))
        coeffs = compute_coefficients(g)
        with pytest.raises(ValueError, match="workers must be an integer >= 1"):
            soft_ecc(g, coeffs, p, workers)
        with pytest.raises(ValueError, match="workers must be an integer >= 1"):
            soft_ecc_backward(g, coeffs, p, np.ones(len(p.taus)), workers)


def linspace_positions(dims):
    """(N, ndim) pixel positions in row-major order from np.linspace and np.meshgrid."""
    axes = [np.linspace(-1.0, 1.0, d) if d > 1 else np.zeros(1) for d in dims]
    return np.stack([m.ravel() for m in np.meshgrid(*axes, indexing="ij")], axis=1)


class TestEffectiveField:
    @pytest.mark.parametrize("dims", [(24, 19), (6, 5, 7), (1, 9), (5, 1, 4)])
    def test_matches_linspace_meshgrid_formula(self, rng, dims):
        grid = ScalarGrid(rng.random(dims))
        u = reparametrize_direction(rng.normal(size=len(dims)))
        want = grid.values.ravel() + 0.3 * (linspace_positions(dims) @ u)
        got = effective_field(grid, 0.3, u).values
        assert got.shape == dims
        assert np.abs(got.ravel() - want).max() <= 1e-15 * np.abs(want).max()

    def test_endpoints(self):
        zero = ScalarGrid(np.zeros((3, 5)))
        rows = effective_field(zero, 1.0, [1.0, 0.0]).values
        cols = effective_field(zero, 1.0, [0.0, 1.0]).values
        assert (rows[0] == -1.0).all() and (rows[-1] == 1.0).all()
        assert (cols[:, 0] == -1.0).all() and (cols[:, -1] == 1.0).all()
        assert rows.min() == -1.0 and rows.max() == 1.0

    def test_singleton_axis_maps_to_zero(self):
        zero = ScalarGrid(np.zeros((1, 4)))
        assert (effective_field(zero, 1.0, [1.0, 0.0]).values == 0.0).all()

    def test_allocates_the_field_once(self):
        grid = generate_grid(SyntheticSpec("gaussian-blobs", (256, 256), seed=7))
        u = unit(3, 4)
        tracemalloc.start()
        try:
            field = effective_field(grid, 0.3, u)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.15 * field.values.nbytes, f"peak {peak / field.values.nbytes:.3f}x the field"
        assert not field.values.flags.writeable
        assert field._range == (float(field.values.min()), float(field.values.max()))

    @pytest.mark.parametrize("dims, u", [((4, 5), unit(1, 2, 2)), ((3, 4, 5), unit(3, 4))])
    def test_direction_length_must_match_grid(self, dims, u):
        with pytest.raises(ValueError, match=f"{len(u)} components for a {len(dims)}D grid"):
            effective_field(ScalarGrid(np.zeros(dims)), 0.3, u)

    @pytest.mark.parametrize("alpha, u, message", [
        (np.nan, [1.0, 0.0], "direction scale must be finite"),
        (np.inf, [1.0, 0.0], "direction scale must be finite"),
        (0.3, [np.nan, 1.0], "direction must be finite"),
        (0.3, [3.0, 4.0], "direction must be unit length"),
        (0.0, [0.0, 0.0], "direction must be unit length"),
    ])
    def test_alpha_and_direction_checked_as_params_check_them(self, alpha, u, message):
        grid = ScalarGrid(np.zeros((4, 5)))
        with pytest.raises(ValueError, match=message):
            effective_field(grid, alpha, u)
        with pytest.raises(ValueError, match=message):
            SoftEccParams(lam=1.0, alpha=alpha, u=u, taus=ThresholdSet([0.0]))


class TestBackwardClosedForm:
    def test_single_pixel(self):
        g = ScalarGrid([[0.0]])
        c = compute_coefficients(g)
        p = SoftEccParams(lam=4.0, alpha=0.0, u=unit(1, 0), taus=ThresholdSet([0.0]))
        grads = soft_ecc_backward(g, c, p, np.ones(1))
        assert grads.d_tau[0] == pytest.approx(1.0, abs=1e-15)  # 4 * 0.25
        assert grads.d_values.ravel()[0] == pytest.approx(-1.0, abs=1e-15)

    def test_alpha_zero_kills_direction_gradient(self, rng):
        g = random_int_grid(rng, 2, 6)
        c = compute_coefficients(g)
        p = SoftEccParams(lam=3.0, alpha=0.0, u=unit(3, 4),
                          taus=uniform_thresholds(g, 5))
        grads = soft_ecc_backward(g, c, p, rng.normal(size=5))
        assert np.array_equal(grads.d_u, np.zeros(2))


def finite_difference_reference(grid, coeffs, params, upstream, step=1e-4):
    """Independent central differences through the forward pass only.

    Every pixel is probed and every probe compacts its bumped grid anew,
    so a nonzero ``d_values`` off the critical set would show.
    """
    lam, alpha, u, taus = params.lam, params.alpha, params.u, params.taus

    def loss(values=grid.values, tau_arr=taus.taus, u_vec=u):
        idx, vals, c = _critical_pixels(values, coeffs.coeffs)
        x = vals if alpha == 0.0 else vals + alpha * (_positions(grid.dims, idx) @ u_vec)
        return float(upstream @ _forward_raw(x, c, lam, tau_arr))

    d_values = np.zeros(grid.size)
    flat = grid.values.ravel()
    for i in range(grid.size):
        plus, minus = flat.copy(), flat.copy()
        plus[i] += step
        minus[i] -= step
        d_values[i] = (loss(values=plus.reshape(grid.dims))
                       - loss(values=minus.reshape(grid.dims))) / (2 * step)

    d_tau = np.zeros(len(taus))
    for j in range(len(taus)):
        plus, minus = taus.taus.copy(), taus.taus.copy()
        plus[j] += step
        minus[j] -= step
        d_tau[j] = (loss(tau_arr=plus) - loss(tau_arr=minus)) / (2 * step)

    d_u = np.zeros(u.size)
    for a in range(u.size):
        plus, minus = u.copy(), u.copy()
        plus[a] += step
        minus[a] -= step
        d_u[a] = (loss(u_vec=plus) - loss(u_vec=minus)) / (2 * step)
    return d_values.reshape(grid.dims), d_tau, d_u - (d_u @ u) * u


def relative_error(a, b, floor=1e-4):
    return np.abs(a - b) / np.maximum(np.maximum(np.abs(a), np.abs(b)), floor)


class TestGradientsAgainstFiniteDifferences:
    @pytest.mark.parametrize("lam", [1.0, 10.0, 50.0])
    @pytest.mark.parametrize("alpha", [0.0, 0.3])
    def test_2d(self, rng, lam, alpha):
        g = ScalarGrid(rng.integers(0, 10, (8, 8)) / 10.0)
        u = reparametrize_direction(rng.normal(size=2))
        taus = uniform_thresholds(effective_field(g, alpha, u), 6)
        params = SoftEccParams(lam=lam, alpha=alpha, u=u, taus=taus)
        coeffs = compute_coefficients(effective_field(g, alpha, u))
        upstream = rng.uniform(0.5, 1.5, size=len(taus))

        grads = soft_ecc_backward(g, coeffs, params, upstream)
        fd_vals, fd_tau, fd_u = finite_difference_reference(g, coeffs, params, upstream)

        assert relative_error(grads.d_values, fd_vals).max() <= 1e-4
        assert relative_error(grads.d_tau, fd_tau).max() <= 1e-4
        assert relative_error(grads.d_u, fd_u).max() <= 1e-4
        assert abs(grads.d_u @ u) <= 1e-8

    def test_3d(self, rng):
        g = ScalarGrid(rng.integers(0, 10, (4, 4, 4)) / 10.0)
        u = reparametrize_direction(rng.normal(size=3))
        alpha = 0.25
        taus = uniform_thresholds(effective_field(g, alpha, u), 5)
        params = SoftEccParams(lam=10.0, alpha=alpha, u=u, taus=taus)
        coeffs = compute_coefficients(effective_field(g, alpha, u))
        upstream = rng.uniform(0.5, 1.5, size=len(taus))

        grads = soft_ecc_backward(g, coeffs, params, upstream)
        fd_vals, fd_tau, fd_u = finite_difference_reference(g, coeffs, params, upstream)
        assert relative_error(grads.d_values, fd_vals).max() <= 1e-4
        assert relative_error(grads.d_tau, fd_tau).max() <= 1e-4
        assert relative_error(grads.d_u, fd_u).max() <= 1e-4

    def test_builtin_harness_agrees(self, rng):
        g = ScalarGrid(rng.integers(0, 10, (6, 6)) / 10.0)
        u = reparametrize_direction(rng.normal(size=2))
        params = SoftEccParams(lam=10.0, alpha=0.3, u=u,
                               taus=uniform_thresholds(g, 5))
        report = gradient_check(g, params, seed=11)
        assert report["pass"]
        assert report["d_values"] <= 1e-4
        assert report["d_tau"] <= 1e-4
        assert report["d_u"] <= 1e-4
        assert report["tangency"] <= 1e-8

    @pytest.mark.parametrize("step", [0.0, -1e-4, np.nan, np.inf])
    def test_builtin_harness_rejects_a_step_not_finite_and_positive(self, rng, step):
        g = ScalarGrid(rng.random((6, 6)))
        params = SoftEccParams(lam=10.0, alpha=0.0, u=np.array([1.0, 0.0]),
                               taus=uniform_thresholds(g, 4))
        with pytest.raises(ValueError, match=f"step must be finite and positive, got {step}"):
            gradient_check(g, params, step=step)

    def test_builtin_harness_on_thresholds_closer_than_the_step(self, rng):
        g = ScalarGrid(rng.random((6, 6)))
        u = reparametrize_direction(rng.normal(size=2))
        taus = ThresholdSet([0.3, 0.3001, 0.5, 0.7])
        report = gradient_check(g, SoftEccParams(lam=10.0, alpha=0.3, u=u, taus=taus))
        assert report["pass"], report

    def test_builtin_harness_probes_critical_pixels_only(self, rng, monkeypatch):
        g = ScalarGrid(rng.integers(0, 10, (12, 10)) / 10.0)
        u = reparametrize_direction(rng.normal(size=2))
        params = SoftEccParams(lam=10.0, alpha=0.3, u=u, taus=uniform_thresholds(g, 7))
        critical = np.count_nonzero(compute_coefficients(effective_field(g, 0.3, u)).coeffs)
        spy = Mock(wraps=_forward_raw)
        monkeypatch.setattr(ecckit.soft, "_forward_raw", spy)
        assert gradient_check(g, params)["pass"]
        assert 0 < critical < g.size
        assert spy.call_count == 4 * (critical + len(params.taus) + g.ndim)


class TestReparametrization:
    def test_three_four_five(self):
        assert np.allclose(reparametrize_direction([3.0, 4.0]), [0.6, 0.8],
                           rtol=0, atol=1e-15)

    def test_idempotent_on_the_sphere(self, rng):
        for _ in range(10):
            u = reparametrize_direction(rng.normal(size=3))
            again = reparametrize_direction(u)
            assert np.abs(again - u).max() <= 1e-15

    @pytest.mark.filterwarnings("ignore:overflow encountered")  # the norm of [1e200, 1e200]
    def test_degenerate_rejected(self):
        # a non-finite norm would carry NaN or zeros into SoftEccParams
        for bad in ([0.0, 0.0], [1e-13, 0.0], [np.inf, 1.0], [np.nan, 1.0], [1e200, 1e200]):
            with pytest.raises(ValueError, match="direction vector needs a finite norm"):
                reparametrize_direction(bad)


class TestDeterminism:
    def test_bit_identical_at_fixed_worker_count(self, rng):
        g = ScalarGrid(rng.random((32, 32)))
        coeffs = compute_coefficients(g)
        p = SoftEccParams(lam=8.0, alpha=0.0, u=unit(1, 2),
                          taus=uniform_thresholds(g, 32))
        for workers in (1, 2, 3):
            a = soft_ecc(g, coeffs, p, workers=workers).values
            b = soft_ecc(g, coeffs, p, workers=workers).values
            assert a.tobytes() == b.tobytes()

    def test_bit_identical_across_worker_counts(self, rng, monkeypatch):
        # blocks of 20 of the ~600 critical pixels: ~30 blocks, more than any worker count
        monkeypatch.setattr(ecckit.soft, "_BLOCK_ENTRIES", 32 * 20)
        g = ScalarGrid(rng.random((32, 32)))
        coeffs = compute_coefficients(g)
        p = SoftEccParams(lam=8.0, alpha=0.2, u=unit(2, -1),
                          taus=uniform_thresholds(g, 32))
        upstream = rng.normal(size=32)

        def outputs(workers):
            grads = soft_ecc_backward(g, coeffs, p, upstream, workers=workers)
            curve = soft_ecc(g, coeffs, p, workers=workers).values
            return [a.tobytes() for a in (curve, grads.d_values, grads.d_tau, grads.d_u)]

        base = outputs(1)
        for workers in (2, 3, 8):
            assert outputs(workers) == base, workers


class TestFloat32Grids:
    """A float32 grid gives the bytes its float64 copy gives."""

    @staticmethod
    def pair(spec):
        g32 = generate_grid(spec)
        assert g32.values.dtype == np.float32
        return g32, ScalarGrid(g32.values.astype(np.float64))

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("alpha", [0.0, 0.3])
    def test_forward_and_backward(self, monkeypatch, workers, alpha):
        monkeypatch.setattr(ecckit.soft, "_BLOCK_ENTRIES", 64)  # several blocks per pass
        u = unit(1, 2)
        outputs = []
        for g in self.pair(SyntheticSpec("uniform-random", (24, 20), seed=3)):
            field = effective_field(g, alpha, u)
            assert field.values.dtype == np.float64
            coeffs = compute_coefficients(field)
            params = SoftEccParams(lam=20.0, alpha=alpha, u=u, taus=uniform_thresholds(g, 16))
            grads = soft_ecc_backward(g, coeffs, params, np.linspace(0.5, 1.5, 16), workers)
            curve = soft_ecc(g, coeffs, params, workers)
            outputs.append([field.values, coeffs.coeffs, curve.values,
                            grads.d_values, grads.d_tau, grads.d_u])
        for a, b in zip(*outputs):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()

    def test_gradient_check(self):
        g32, g64 = self.pair(SyntheticSpec("uniform-random", (16, 16), seed=5))
        params = SoftEccParams(lam=20.0, alpha=0.3, u=unit(1, 2), taus=uniform_thresholds(g64, 8))
        report = gradient_check(g32, params)
        assert report == gradient_check(g64, params)
        assert report["pass"], report


def dense_reference(grid, coeffs, params, upstream):
    """The docstring formulas evaluated at every pixel, zero coefficients included."""
    lam, alpha, u, taus = params.lam, params.alpha, params.u, params.taus.taus
    pos = linspace_positions(grid.dims)
    field = grid.values.ravel() + alpha * (pos @ u)
    c = coeffs.coeffs.ravel().astype(np.float64)
    s = expit(lam * (taus[:, None] - field[None, :]))
    sp = lam * s * (1.0 - s)
    w = upstream @ sp
    d_u = -alpha * ((w * c) @ pos)
    return {
        "curve": s @ c,
        "d_values": (-c * w).reshape(grid.dims),
        "d_tau": upstream * (sp @ c),
        "d_u": d_u - (d_u @ u) * u,
    }


def reference_cases(rng):
    """(name, grid, coefficients, params) over dense, tied and sparse fields.

    The constant grid has one critical pixel and the last case none.
    """
    plateau = rng.random((20, 17))
    plateau[plateau < 0.5] = 0.25
    grids = {
        "random-2d": ScalarGrid(rng.random((24, 19))),
        "random-3d": ScalarGrid(rng.random((6, 5, 7))),
        "tied-plateau": ScalarGrid(plateau),
        "blobs": generate_grid(SyntheticSpec(kind="gaussian-blobs", dims=(48, 40), seed=3)),
        "constant": ScalarGrid(np.full((5, 6), 0.5)),
    }
    for name, grid in grids.items():
        u = reparametrize_direction(rng.normal(size=grid.ndim))
        for alpha in (0.0, 0.3):
            field = effective_field(grid, alpha, u)
            taus = uniform_thresholds(field, 9)
            if len(taus) == 1:
                taus = ThresholdSet([taus.taus[0] - 0.1, taus.taus[0], taus.taus[0] + 0.1])
            params = SoftEccParams(lam=12.0, alpha=alpha, u=u, taus=taus)
            yield name, grid, compute_coefficients(field), params
    zeros = CoefficientGrid(np.zeros(grids["blobs"].dims, dtype=np.int8))
    yield "no-critical-pixels", grids["blobs"], zeros, params


class TestCriticalPixelsMatchDenseFormulas:
    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_forward_and_gradients(self, rng, workers):
        self.check_against_dense(rng, workers)

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_forward_and_gradients_small_blocks(self, rng, monkeypatch, workers):
        # blocks of a few pixels, many per worker
        monkeypatch.setattr(ecckit.soft, "_BLOCK_ENTRIES", 64)
        self.check_against_dense(rng, workers)

    @staticmethod
    def check_against_dense(rng, workers):
        fewest = np.inf
        for name, grid, coeffs, params in reference_cases(rng):
            fewest = min(fewest, np.count_nonzero(coeffs.coeffs))
            upstream = rng.uniform(0.5, 1.5, size=len(params.taus))
            want = dense_reference(grid, coeffs, params, upstream)
            grads = soft_ecc_backward(grid, coeffs, params, upstream, workers)
            got = {
                "curve": soft_ecc(grid, coeffs, params, workers).values,
                "d_values": grads.d_values,
                "d_tau": grads.d_tau,
                "d_u": grads.d_u,
            }
            for key, ref in want.items():
                assert got[key].shape == ref.shape, (name, key)
                scale = max(float(np.abs(ref).max()), 1e-300)
                err = float(np.abs(got[key] - ref).max())
                assert err <= 1e-12 * scale, (name, key, workers, err, scale)
        assert fewest < workers  # some grid has fewer critical pixels than workers


class TestThresholdScaling:
    def test_peak_memory_bounded_with_many_thresholds(self, rng):
        grid = ScalarGrid(rng.random((32, 32)))
        coeffs = compute_coefficients(grid)
        taus = ThresholdSet(np.linspace(0.0, 1.0, 40_000))
        params = SoftEccParams(lam=10.0, alpha=0.2, u=unit(1, 2), taus=taus)
        for run in (
            lambda: soft_ecc(grid, coeffs, params),
            lambda: soft_ecc_backward(grid, coeffs, params, np.ones(len(taus))),
        ):
            tracemalloc.start()
            try:
                run()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 64 * 2**20, f"peak {peak / 2**20:.1f} MiB"

    def test_block_results_are_folded_as_they_come(self, rng):
        # ~5,300 critical pixels in blocks of 50 give ~107 block results of
        # 320 KB: held all at once they would add ~34 MiB to the ~16 MiB
        # sigmoid block, and a second sigmoid block alive would add 16 MiB
        grid = ScalarGrid(rng.random((96, 96)))
        coeffs = compute_coefficients(grid)
        taus = ThresholdSet(np.linspace(0.0, 1.0, 40_000))
        params = SoftEccParams(lam=10.0, alpha=0.2, u=unit(1, 2), taus=taus)
        for workers in (1, 8):
            for run in (
                lambda: soft_ecc(grid, coeffs, params, workers=workers),
                lambda: soft_ecc_backward(grid, coeffs, params, np.ones(len(taus)), workers=workers),
            ):
                tracemalloc.start()
                try:
                    run()
                    peak = tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()
                assert peak < 20 * 2**20, f"peak {peak / 2**20:.1f} MiB at workers {workers}"


class TestFanOut:
    def test_every_block_runs_on_the_calling_thread(self, rng, block_threads):
        grid = ScalarGrid(rng.random((32, 32)))
        coeffs = compute_coefficients(grid)
        caller = threading.get_ident()
        # 20,000 thresholds make blocks of 100 of the ~600 critical pixels
        for ntau, blocks in ((32, 1), (20_000, 6)):
            taus = ThresholdSet(np.linspace(0.0, 1.0, ntau))
            params = SoftEccParams(lam=10.0, alpha=0.2, u=unit(1, 2), taus=taus)
            for workers in (1, 2, 8):
                block_threads.clear()
                soft_ecc(grid, coeffs, params, workers=workers)
                soft_ecc_backward(grid, coeffs, params, np.ones(ntau), workers=workers)
                assert block_threads == [caller] * (2 * blocks), (ntau, workers)


def run_library(code: str):
    """Run ``code`` in a fresh interpreter that imports ecckit from this checkout."""
    env = {**os.environ, "PYTHONPATH": str(Path(ecckit.soft.__file__).resolve().parents[1])}
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr


def test_the_library_needs_no_scipy():
    """scipy is the tests' independent reference, not a dependency of the library."""
    run_library("""
import sys
sys.modules["scipy"] = None  # every scipy import now raises ImportError
import numpy as np
from ecckit import (SoftEccParams, SyntheticSpec, compute_coefficients, effective_field,
                    generate_grid, gradient_check, reparametrize_direction, soft_ecc,
                    soft_ecc_backward, uniform_thresholds)
g = generate_grid(SyntheticSpec("uniform-random", (12, 10), seed=4))
u = reparametrize_direction([1.0, 2.0])
params = SoftEccParams(lam=10.0, alpha=0.3, u=u, taus=uniform_thresholds(g, 6))
coeffs = compute_coefficients(effective_field(g, 0.3, u))
assert np.isfinite(soft_ecc(g, coeffs, params).values).all()
assert np.isfinite(soft_ecc_backward(g, coeffs, params, np.ones(len(params.taus))).d_tau).all()
assert gradient_check(g, params)["pass"]
""")


def test_the_library_needs_no_threads():
    """Every block runs on the calling thread, at every worker count: no thread pool."""
    run_library("""
import sys
sys.modules["concurrent.futures"] = None  # every concurrent.futures import now raises ImportError
import numpy as np
from ecckit import (SoftEccParams, SyntheticSpec, compute_coefficients, compute_ecc,
                    effective_field, generate_grid, gradient_check, reparametrize_direction,
                    soft_ecc, soft_ecc_backward, uniform_thresholds)
g = generate_grid(SyntheticSpec("uniform-random", (12, 10), seed=4))
assert compute_ecc(g, uniform_thresholds(g, 6), workers=2).values[-1] == 1
u = reparametrize_direction([1.0, 2.0])
params = SoftEccParams(lam=10.0, alpha=0.3, u=u, taus=uniform_thresholds(g, 6))
coeffs = compute_coefficients(effective_field(g, 0.3, u))
assert np.isfinite(soft_ecc(g, coeffs, params, workers=2).values).all()
grads = soft_ecc_backward(g, coeffs, params, np.ones(len(params.taus)), workers=2)
assert np.isfinite(grads.d_tau).all()
assert gradient_check(g, params)["pass"]
""")
