"""Shared helpers for the test suite."""

import numpy as np
import pytest

import ecckit.coefficients
from ecckit import ScalarGrid


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
def pool_sizes(monkeypatch):
    """Worker counts of the thread pools the library starts during a test."""
    sizes = []
    pool = ecckit.coefficients.ThreadPoolExecutor

    def counting_pool(max_workers):
        sizes.append(max_workers)
        return pool(max_workers=max_workers)

    monkeypatch.setattr(ecckit.coefficients, "ThreadPoolExecutor", counting_pool)
    return sizes
