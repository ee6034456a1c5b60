"""Seeded synthetic grid generators."""

import tracemalloc
from itertools import product

import numpy as np
import pytest

from ecckit import SyntheticSpec, generate_grid, write_grid


def per_pixel_blobs(spec):
    """Reference blobs: each blob's exp of the summed squared distance, over its peak."""
    dims = spec.dims
    width = max(min(dims) / 8.0, 1.0) if spec.blob_width is None else spec.blob_width
    rng = np.random.default_rng(spec.seed)
    centers = rng.uniform(0, 1, size=(spec.blobs, len(dims))) * (np.array(dims) - 1)
    axes = np.ix_(*(np.arange(d, dtype=np.float64) for d in dims))
    field = np.zeros(dims)
    for c in centers:
        field += np.exp(-sum((x - ci) ** 2 for x, ci in zip(axes, c)) / (2 * width**2))
    if field.max() > 0:
        field /= field.max()
    return field.astype(np.float32)


BLOB_SPECS = [
    SyntheticSpec("gaussian-blobs", dims, seed=seed, blobs=blobs, blob_width=width)
    for seed, (dims, blobs, width) in enumerate(
        product([(96, 80), (40, 36, 32)], [1, 8, 12], [None, 2.5, 7.0]))
] + [
    SyntheticSpec("gaussian-blobs", (1, 30, 20), seed=40),
    SyntheticSpec("gaussian-blobs", (1, 50), seed=41, blobs=3),
    SyntheticSpec("gaussian-blobs", (300, 7), seed=42, blobs=12),
    SyntheticSpec("gaussian-blobs", (64, 64, 64), seed=18, blobs=12, blob_width=2.5),
]


class TestRadialGradient:
    def test_center_zero_corners_one(self):
        g = generate_grid(SyntheticSpec(kind="radial-gradient", dims=(3, 3)))
        assert g.values[1, 1] == 0.0
        for corner in ((0, 0), (0, 2), (2, 0), (2, 2)):
            assert g.values[corner] == 1.0

    def test_3d(self):
        g = generate_grid(SyntheticSpec(kind="radial-gradient", dims=(3, 3, 3)))
        assert g.values[1, 1, 1] == 0.0
        assert g.values[0, 0, 0] == 1.0

    def test_single_pixel(self):
        g = generate_grid(SyntheticSpec(kind="radial-gradient", dims=(1, 1)))
        assert g.values[0, 0] == 0.0


class TestDeterminism:
    @pytest.mark.parametrize("kind", ["uniform-random", "gaussian-blobs", "radial-gradient"])
    def test_same_spec_same_bytes(self, tmp_path, kind):
        spec = SyntheticSpec(kind=kind, dims=(17, 23), seed=99)
        a, b = tmp_path / "a.eccg", tmp_path / "b.eccg"
        write_grid(generate_grid(spec), a)
        write_grid(generate_grid(spec), b)
        assert a.read_bytes() == b.read_bytes()

    def test_different_seeds_differ(self):
        a = generate_grid(SyntheticSpec(kind="uniform-random", dims=(8, 8), seed=1))
        b = generate_grid(SyntheticSpec(kind="uniform-random", dims=(8, 8), seed=2))
        assert not np.array_equal(a.values, b.values)

    def test_values_survive_float32(self):
        g = generate_grid(SyntheticSpec(kind="gaussian-blobs", dims=(9, 9), seed=5))
        assert np.array_equal(g.values, g.values.astype(np.float32).astype(np.float64))


class TestUniformRandom:
    def test_mean_near_half(self):
        g = generate_grid(SyntheticSpec(kind="uniform-random", dims=(128, 128), seed=42))
        assert 0.48 <= g.values.mean() <= 0.52

    def test_range(self):
        g = generate_grid(SyntheticSpec(kind="uniform-random", dims=(32, 32), seed=0))
        assert g.values.min() >= 0.0 and g.values.max() < 1.0


class TestGaussianBlobs:
    def test_normalized_peak(self):
        g = generate_grid(SyntheticSpec(kind="gaussian-blobs", dims=(24, 24), seed=3,
                                        blobs=4, blob_width=3.0))
        assert g.values.min() >= 0.0
        assert g.values.max() == pytest.approx(1.0, abs=1e-7)

    def test_blob_count_changes_field(self):
        a = generate_grid(SyntheticSpec(kind="gaussian-blobs", dims=(16, 16), seed=1, blobs=2))
        b = generate_grid(SyntheticSpec(kind="gaussian-blobs", dims=(16, 16), seed=1, blobs=9))
        assert not np.array_equal(a.values, b.values)

    @pytest.mark.parametrize("spec", BLOB_SPECS, ids=lambda s: "x".join(map(str, s.dims))
                             + f"-blobs{s.blobs}-width{s.blob_width}-seed{s.seed}")
    def test_equals_the_per_pixel_formula(self, spec):
        # products of per-axis factors against exp of each pixel's summed squared distance:
        # one float32 ulp in the normal range, 2**-126 absolute below it
        got, want = generate_grid(spec).values, per_pixel_blobs(spec)
        tiny = np.finfo(np.float32).tiny
        tol = np.where(want < tiny, tiny, np.spacing(want)).astype(np.float64)
        err = np.abs(got.astype(np.float64) - want)
        assert np.all(err <= tol), (int(np.count_nonzero(err > tol)), float(err.max()))


class TestMemory:
    @pytest.mark.parametrize("kind, blobs", [
        ("uniform-random", 8), ("gaussian-blobs", 8), ("radial-gradient", 8),
        ("gaussian-blobs", 200),  # a (64 * 64, 200) product of two factors would be 25 B/px
    ], ids=["uniform-random", "gaussian-blobs", "radial-gradient", "gaussian-blobs-200"])
    def test_the_grid_holds_the_float32_cast_itself(self, kind, blobs):
        # the float64 field plus the float32 grid is 12 bytes per pixel; a second copy
        # of the grid or a full-grid temporary per blob would make it 16 or more
        spec = SyntheticSpec(kind=kind, dims=(64, 64, 64), seed=0, blobs=blobs)
        generate_grid(SyntheticSpec(kind=kind, dims=(2, 2, 2)))  # first use imports numpy.random
        tracemalloc.start()
        try:
            g = generate_grid(spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert g.values.dtype == np.float32 and not g.values.flags.writeable
        assert peak <= 12.5 * spec.size, peak / spec.size


class TestValidation:
    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            SyntheticSpec(kind="perlin", dims=(4, 4))

    def test_bad_dims(self):
        with pytest.raises(ValueError):
            SyntheticSpec(kind="uniform-random", dims=(4,))
        for dims in [(0, 4), (4, -1, 4), (8.7, 8), (8, 8.0), ("8", 8), (8, None)]:
            with pytest.raises(ValueError, match="dims extent"):
                SyntheticSpec(kind="uniform-random", dims=dims)

    def test_capacity_cap(self):
        spec = SyntheticSpec(kind="uniform-random", dims=(1 << 16, 1 << 16))
        with pytest.raises(ValueError):
            generate_grid(spec)

    def test_numpy_integer_extents_are_accepted(self):
        spec = SyntheticSpec("uniform-random", (np.int64(12), np.int32(9)))
        assert spec.dims == (12, 9) and all(type(d) is int for d in spec.dims)

    def test_bad_blob_params(self):
        for blobs in (0, -2, 2.5, "3", None):
            with pytest.raises(ValueError, match="blobs"):
                SyntheticSpec(kind="gaussian-blobs", dims=(4, 4), blobs=blobs)
        with pytest.raises(ValueError):
            SyntheticSpec(kind="gaussian-blobs", dims=(4, 4), blob_width=0.0)
