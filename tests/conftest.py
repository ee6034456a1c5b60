"""Shared helpers for the test suite."""

import threading

import numpy as np
import pytest

import ecckit.bench
import ecckit.coefficients
import ecckit.hard
import ecckit.soft
from ecckit import Chunked, EulerCurve, ScalarGrid


def random_int_grid(rng, ndim, max_extent, lo=0, hi=9):
    """Random grid with integer-valued floats; plenty of ties."""
    dims = tuple(int(d) for d in rng.integers(1, max_extent + 1, ndim))
    return ScalarGrid(rng.integers(lo, hi + 1, dims).astype(np.float64))


def random_f32_grid(rng, ndim, max_extent):
    """Random grid whose values are exactly float32-representable."""
    dims = tuple(int(d) for d in rng.integers(1, max_extent + 1, ndim))
    return ScalarGrid(rng.random(dims).astype(np.float32).astype(np.float64))


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def block_threads(monkeypatch):
    """Thread ident of each block the library's block loop runs during a test, in order."""
    idents = []
    blocks = ecckit.coefficients._blocks

    def recording(fn, n, step):
        def block(start, stop):
            idents.append(threading.get_ident())
            return fn(start, stop)

        return blocks(block, n, step)

    for module in (ecckit.coefficients, ecckit.hard, ecckit.soft):
        monkeypatch.setattr(module, "_blocks", recording)
    return idents


@pytest.fixture
def diverging_chunked(monkeypatch):
    """Makes the benchmark's ``Chunked`` curves one above the true ones."""
    real_compute = ecckit.bench.compute_ecc

    def corrupted(grid, taus, strategy):
        curve = real_compute(grid, taus, strategy)
        if isinstance(strategy, Chunked):
            return EulerCurve(curve.taus, curve.values + 1)
        return curve

    monkeypatch.setattr(ecckit.bench, "compute_ecc", corrupted)
