"""Lower-star coefficients: exactness against the cell-counting oracle."""

import math
import tracemalloc
from itertools import product

import numpy as np
import pytest

import ecckit.coefficients
from ecckit import (
    Chunked,
    CoefficientGrid,
    CorruptionError,
    ScalarGrid,
    ThresholdSet,
    FullSweep,
    compute_coefficients,
    compute_ecc,
    oracle_ecc,
    read_coefficients,
    uniform_thresholds,
    write_coefficients,
)
from ecckit.coefficients import (
    COEFF_RANGE,
    _coefficient_rows,
    _critical_pixels,
    _row_block,
)
from ecckit.hard import _block_rows, _span_bins

from conftest import random_f32_grid, random_int_grid


def ownership_coefficients(values):
    """Brute force: every vertex, edge, square and cube of the cubical
    complex, each counted with its sign at its highest vertex under
    (value, row-major index)."""
    dims = values.shape
    c = np.zeros(dims, dtype=np.int64)
    for spans in product((0, 1), repeat=values.ndim):  # axes the cell extends along
        sign = (-1) ** sum(spans)
        for base in product(*(range(n - e) for n, e in zip(dims, spans))):
            corners = product(*((x, x + e) if e else (x,) for x, e in zip(base, spans)))
            owner = max(corners, key=lambda q: (values[q], np.ravel_multi_index(q, dims)))
            c[owner] += sign
    return c


# extent-1 axes, where a flat neighbor shift would be zero or negative, and
# short trailing axes, across whose edges a flat neighbor wraps into another row
THIN_DIMS = [
    (1, 1), (1, 7), (7, 1), (2, 1), (2, 2), (2, 9), (9, 2), (6, 8),
    (1, 1, 1), (1, 2, 3), (1, 5, 6), (3, 1, 2), (3, 2, 1), (4, 1, 1), (5, 1, 6),
    (5, 6, 1), (7, 1, 9), (9, 2, 1), (2, 2, 2), (2, 5, 4), (5, 2, 4), (4, 5, 2), (5, 6, 4),
]


def thin_values(rng, kind, dims, dtype=np.float64):
    if kind == "tied":
        return rng.integers(0, 3, dims).astype(dtype)
    if kind == "constant":
        return np.full(dims, 2.5, dtype=dtype)
    return rng.random(dims).astype(dtype)


# first-axis block targets: None for the default block, then blocks of at
# most 65,536, 1 and 24 pixels, several rows, one row and a few rows each;
# small blocks put many block edges and halo rows in a grid
BLOCK_TARGETS = [None, 65536, 1, 24]


def use_block_target(monkeypatch, target):
    if target is not None:
        monkeypatch.setattr(ecckit.coefficients, "_row_block", lambda dims: _row_block(dims, target))


# the default chunk of flat pixels per slab-maximum compare, then chunks of 1
# and 5: every grid here is smaller than the default, and the small ones put
# a chunk edge at or near every pixel
CHUNKS = [ecckit.coefficients._CHUNK, 1, 5]


def curve_from_coefficients(grid, coeffs, taus):
    vals = grid.values.ravel()
    return np.array(
        [int(coeffs.coeffs.ravel()[vals <= t].sum()) for t in taus], dtype=np.int64
    )


class TestFixtures:
    def test_single_pixel(self):
        cg = compute_coefficients(ScalarGrid([[5.0]]))
        assert np.array_equal(cg.coeffs, [[1]])

    def test_2x2_constant_tie_break(self):
        # row-major earlier pixel owns each tied cell
        cg = compute_coefficients(ScalarGrid(np.zeros((2, 2))))
        assert np.array_equal(cg.coeffs.ravel(), [1, 0, 0, 0])

    def test_3d_constant_tie_break(self):
        cg = compute_coefficients(ScalarGrid(np.zeros((2, 2, 2))))
        assert cg.coeffs.ravel()[0] == 1
        assert cg.coeffs.sum() == 1

    def test_2d_minimum_attained(self):
        # center lowest of its axis neighbors, diagonals higher: c = 1 - 4
        vals = np.array([[9, 0, 9], [0, 5, 0], [9, 0, 9]], dtype=np.float64)
        cg = compute_coefficients(ScalarGrid(vals))
        assert cg.coeffs[1, 1] == -3

    def test_3d_extremes_attained(self):
        # all 6 axis neighbors lower, everything else higher: c = 1 - 6
        vals = np.full((3, 3, 3), 9.0)
        vals[1, 1, 1] = 5.0
        for axis in range(3):
            for side in (0, 2):
                idx = [1, 1, 1]
                idx[axis] = side
                vals[tuple(idx)] = 0.0
        assert compute_coefficients(ScalarGrid(vals)).coeffs[1, 1, 1] == -5

        # additionally lower the 12 edge midpoints: 1 - 6 + 12
        for a in range(3):
            for b in range(a + 1, 3):
                for sa in (0, 2):
                    for sb in (0, 2):
                        idx = [1, 1, 1]
                        idx[a], idx[b] = sa, sb
                        vals[tuple(idx)] = 0.0
        assert compute_coefficients(ScalarGrid(vals)).coeffs[1, 1, 1] == 7


class TestInvariants:
    def test_sum_is_one(self, rng):
        for trial in range(60):
            g = random_int_grid(rng, 2 if trial % 2 else 3, 10 if trial % 2 else 6)
            assert int(compute_coefficients(g).coeffs.sum()) == 1

    def test_range_bounds(self, rng):
        for trial in range(40):
            nd = 2 if trial % 2 else 3
            g = random_int_grid(rng, nd, 12 if nd == 2 else 6, hi=3)
            lo, hi = COEFF_RANGE[nd]
            c = compute_coefficients(g).coeffs
            assert c.min() >= lo and c.max() <= hi

    def test_exactness_4x4_all_thresholds(self, rng):
        for _ in range(30):
            vals = rng.integers(0, 10, (4, 4)).astype(np.float64)
            g = ScalarGrid(vals)
            taus = ThresholdSet(np.unique(vals))
            cg = compute_coefficients(g)
            got = curve_from_coefficients(g, cg, taus.taus)
            want = oracle_ecc(g, taus).values
            assert np.array_equal(got, want)

    def test_exactness_larger_grids(self, rng):
        for trial in range(16):
            nd = 2 if trial % 2 else 3
            g = random_int_grid(rng, nd, 20 if nd == 2 else 7)
            taus = ThresholdSet(np.unique(g.values))
            got = curve_from_coefficients(g, compute_coefficients(g), taus.taus)
            assert np.array_equal(got, oracle_ecc(g, taus).values)

    def test_locality_under_single_pixel_edits(self, rng):
        for trial in range(20):
            nd = 2 if trial % 2 else 3
            g = random_int_grid(rng, nd, 10 if nd == 2 else 5)
            base = compute_coefficients(g).coeffs
            target = tuple(rng.integers(0, d) for d in g.dims)
            edited = g.values.copy()
            edited[target] = rng.integers(0, 10)
            after = compute_coefficients(ScalarGrid(edited)).coeffs
            changed = np.argwhere(base != after)
            for pix in changed:
                assert max(abs(int(a) - b) for a, b in zip(pix, target)) <= 1

    def test_global_shift_invariance(self, rng):
        g = random_int_grid(rng, 2, 12)
        base = compute_coefficients(g).coeffs
        shifted = compute_coefficients(ScalarGrid(g.values + 17.5)).coeffs
        assert np.array_equal(base, shifted)

    def test_blocked_equals_whole_grid(self, rng, monkeypatch):
        # the public entry point blocks along the first axis; the whole-grid
        # reference is the kernel over all rows in one block.  (11, 128, 128)
        # takes three blocks at the default budget
        all_dims = [(24, 24), (9, 9, 9), (7, 1, 9), (9, 2, 1), (1, 5, 6), (2, 2, 2), (11, 128, 128)]
        kinds = product(BLOCK_TARGETS, ["tied", "constant", "random"], [np.float32, np.float64])
        for target, kind, dtype in kinds:
            use_block_target(monkeypatch, target)
            for dims in all_dims:
                g = ScalarGrid(thin_values(rng, kind, dims, dtype))
                assert np.array_equal(
                    compute_coefficients(g).coeffs, _coefficient_rows(g.values, 0, g.dims[0])
                ), (dims, kind, dtype, target)


class TestOwnershipReference:
    @pytest.mark.parametrize("target", BLOCK_TARGETS)
    @pytest.mark.parametrize("kind", ["tied", "constant", "random"])
    def test_equals_per_cell_ownership(self, rng, monkeypatch, kind, target):
        use_block_target(monkeypatch, target)
        for dims in THIN_DIMS:
            values = thin_values(rng, kind, dims)
            got = compute_coefficients(ScalarGrid(values)).coeffs
            assert np.array_equal(got, ownership_coefficients(values)), (dims, kind)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("kind", ["tied", "constant", "random"])
    def test_every_row_range(self, rng, monkeypatch, kind, dtype):
        # a block at the grid's edge reads a one-sided halo, one in the
        # middle a halo on both sides, and a whole grid none
        for dims in THIN_DIMS:
            values = thin_values(rng, kind, dims, dtype)
            want = ownership_coefficients(values)
            for chunk in CHUNKS:
                monkeypatch.setattr(ecckit.coefficients, "_CHUNK", chunk)
                for r0 in range(dims[0]):
                    for r1 in range(r0 + 1, dims[0] + 1):
                        got = _coefficient_rows(values, r0, r1)
                        assert got.dtype == np.int8 and got.flags.c_contiguous
                        assert np.array_equal(got, want[r0:r1]), (dims, chunk, r0, r1)


# 3D shapes with an extent of 1 on each axis, and taller ones
SLAB_DIMS = [d for d in THIN_DIMS if len(d) == 3] + [(6, 5, 7), (8, 3, 4), (7, 4, 1)]


class TestSlabs:
    @pytest.mark.parametrize("chunk_len", [1, 7, 23])
    def test_chunked_row_blocks(self, rng, chunk_len):
        # Chunked(k) walks the most whole rows within k pixels, one at least,
        # each through the kernel on the grid's rows and a one-row halo; 3
        # evenly spaced thresholds have 14 bucket keys, so a block of 14
        # critical pixels or more is folded into a key histogram first, and
        # any other is binned per pixel
        folded = per_pixel = 0
        for dims in SLAB_DIMS:
            g = ScalarGrid(rng.integers(0, 3, dims).astype(np.float32))
            taus = ThresholdSet([0.5, 1.5, 2.5])
            want, values = compute_coefficients(g).coeffs, g.values
            rows = _block_rows(g, Chunked(chunk_len))
            assert rows == max(1, min(chunk_len // (g.size // dims[0]), dims[0]))
            for r0 in range(0, dims[0], rows):
                r1 = min(dims[0], r0 + rows)
                bins, weights = _span_bins(g, taus, r0, r1)
                span = want[r0:r1].ravel()
                want_bins = taus.bin_indices(values[r0:r1].ravel()[span != 0])
                sums = [np.bincount(b, w, minlength=4) for b, w in ((bins, weights), (want_bins, span[span != 0]))]
                assert np.array_equal(*sums), (dims, r0)
                if np.count_nonzero(span) < 14:  # the per-pixel branch
                    assert np.array_equal(weights, span[span != 0]), (dims, r0)
                    assert np.array_equal(bins, want_bins), (dims, r0)
                    per_pixel += 1
                else:
                    assert weights.dtype == np.float64 and np.all(weights) and bins.size <= 14
                    folded += 1
        assert folded and per_pixel

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_curves_with_many_ties_equal_the_oracle(self, rng, dtype):
        for trial in range(12):
            dims = SLAB_DIMS[trial % len(SLAB_DIMS)] if trial % 2 else (9, 6, 5)
            g = ScalarGrid(rng.integers(0, 4, dims).astype(dtype))
            taus = ThresholdSet(np.arange(-1, 5) + 0.0)
            want = oracle_ecc(g, taus).values
            for strategy in (FullSweep(), Chunked(1), Chunked(7), Chunked(4096)):
                got = compute_ecc(g, taus, strategy).values
                assert got.tobytes() == want.tobytes(), (dims, strategy)


class _PoisonedNumpy:
    """numpy, save that ``empty`` hands out memory filled with ``fill`` and
    keeps each array it hands out in ``handed``."""

    def __init__(self, fill):
        self.fill = fill
        self.handed = []

    def __getattr__(self, name):
        return getattr(np, name)

    def empty(self, shape, dtype=float):
        self.handed.append(np.full(shape, self.fill, dtype=dtype))
        return self.handed[-1]


class TestPaddedBuffer:
    # The kernel compares the grid in place: the only arrays it takes from
    # ``empty`` are its bool comparison masks, whose entries past either end
    # of the rows it reads must be written False (head) or True (tail).
    # NaN and -inf fill a bool array with True, 0.0 with False, so an entry
    # left unwritten at the head or the tail shows under one fill or the other.
    @pytest.mark.parametrize("target", BLOCK_TARGETS)
    @pytest.mark.parametrize("fill", [np.nan, -np.inf, 0.0])
    def test_every_pad_cell_is_written(self, rng, monkeypatch, fill, target):
        use_block_target(monkeypatch, target)
        poisoned = _PoisonedNumpy(fill)
        monkeypatch.setattr(ecckit.coefficients, "np", poisoned)
        for dims in THIN_DIMS:
            for values in (rng.integers(0, 3, dims).astype(np.float64), rng.random(dims)):
                got = compute_coefficients(ScalarGrid(values)).coeffs
                assert np.array_equal(got, ownership_coefficients(values)), (dims, fill)
        assert poisoned.handed
        assert all(cmp.dtype == bool for cmp in poisoned.handed)  # no float copy of the grid


class _CountedMaxima:
    """numpy, save that ``maximum`` counts its calls in ``calls``."""

    def __init__(self):
        self.calls = 0

    def __getattr__(self, name):
        return getattr(np, name)

    def maximum(self, *args, **kwargs):
        self.calls += 1
        return np.maximum(*args, **kwargs)


class TestSlabMaxima:
    # with one chunk per compare, a 3D block builds its 3 distinct maxima, over
    # the corners {0, 1}, {0, line} and {0, 1, line, line + 1}, each once, and
    # a 2D block its one, over {0, 1}
    @pytest.mark.parametrize("dims, calls", [((6, 5, 7), 3), ((6, 35), 1)])
    def test_each_slab_maximum_is_built_once(self, rng, monkeypatch, dims, calls):
        values = rng.random(dims)
        monkeypatch.setattr(ecckit.coefficients, "_CHUNK", values.size)
        spy = _CountedMaxima()
        monkeypatch.setattr(ecckit.coefficients, "np", spy)
        got = _coefficient_rows(values, 2, 4)
        assert spy.calls == calls
        assert np.array_equal(got, ownership_coefficients(values)[2:4])


class TestCriticalPixels:
    @pytest.mark.parametrize("nd", [2, 3])
    def test_equals_flatnonzero(self, rng, nd):
        lo, hi = COEFF_RANGE[nd]
        dims = (9, 11) if nd == 2 else (5, 7, 6)
        coeffs = rng.integers(lo, hi + 1, dims).astype(np.int8)
        coeffs[rng.random(dims) < 0.5] = 0
        assert set(np.unique(coeffs)) == set(range(lo, hi + 1))
        values = rng.random(dims)
        views = [(...,), (slice(None, None, 2),), (slice(1, None), slice(None, None, -3))]
        for view in views:
            c, v = coeffs[view], values[view]
            if view != (...,):
                assert not c.flags.c_contiguous
            idx, vals, cs = _critical_pixels(v, c)
            want = np.flatnonzero(c)
            assert np.array_equal(idx, want)
            assert np.array_equal(vals, v.ravel()[want])
            assert np.array_equal(cs, c.ravel()[want]) and cs.dtype == np.int8

    def test_no_critical_pixel(self):
        idx, vals, cs = _critical_pixels(np.ones((3, 4)), np.zeros((3, 4), dtype=np.int8))
        assert idx.size == vals.size == cs.size == 0


class TestMemory:
    def test_single_block_peak(self, rng):
        g = ScalarGrid(rng.random((256, 256)))
        assert _row_block(g.dims) == g.dims[0]  # one block
        tracemalloc.start()
        try:
            compute_coefficients(g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.5 * g.values.nbytes, f"peak {peak / g.values.nbytes:.2f}x the grid"

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_single_block_peak_per_pixel(self, rng, dtype):
        # the int8 coefficients and bool compares held at once, and a chunk of
        # corner maxima in the values' dtype, set the peak, with the outer slab
        # maximum in 3D: 3.0 bytes per pixel in 2D (5.1 on float64) and 7.3 in
        # 3D (13.6 on float64); a copy of a float64 grid (8 bytes per pixel)
        # would exceed the 2D bound
        for dims, bound in [((256, 256), 7.5), ((16, 64, 64), 21)]:
            g = ScalarGrid(rng.random(dims).astype(dtype))
            assert _row_block(g.dims) == g.dims[0]  # one block
            tracemalloc.start()
            try:
                compute_coefficients(g)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= bound * g.size, f"{dims}: {peak / g.size:.2f} bytes per pixel"

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_3d_block_peak_per_pixel(self, rng, dtype):
        # only the outer slab maximum is held whole, the inner ones a chunk at
        # a time: a one-block 3D call peaks at 7.3 bytes per pixel (13.6 on
        # float64), and a kernel holding a bool mask per cell relation (19.4)
        # would exceed the bound
        g = ScalarGrid(rng.random((16, 64, 64)).astype(dtype))
        assert _row_block(g.dims) == g.dims[0]  # one block
        tracemalloc.start()
        try:
            compute_coefficients(g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 14 * g.size, f"{peak / g.size:.2f} bytes per pixel"

    def test_interior_block_peak_per_pixel(self, rng):
        # a block of the default height between two others, which reads a halo
        # row on each side and widens its row-crossing compares by a row: 9.2
        # bytes per pixel
        values = rng.random((12, 128, 128)).astype(np.float32)
        height = _row_block(values.shape)
        assert height == 5
        tracemalloc.start()
        try:
            _coefficient_rows(values, 5, 5 + height)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        pixels = height * 128 * 128
        assert peak <= 21 * pixels, f"peak {peak / pixels:.2f} bytes per pixel"

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_exact_block_peak_per_pixel(self, rng, dtype):
        # what the block's pixel count divides 1,925,000 bytes by: a
        # default-height block of a uniform-random grid, about 60% of its
        # pixels critical, through the kernel, compaction and binning
        for dims in [(200, 512), (12, 128, 128)]:
            g = ScalarGrid(rng.random(dims).astype(dtype))
            r0, r1 = 2, 2 + _row_block(g.dims)
            taus = uniform_thresholds(g, 256)
            _span_bins(g, taus, r0, r1)  # the bucket table, built once per set
            tracemalloc.start()
            try:
                _span_bins(g, taus, r0, r1)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            pixels = (r1 - r0) * (g.size // g.dims[0])
            assert peak <= 23.4 * pixels, f"{dims}: {peak / pixels:.2f} bytes per pixel"
            assert peak <= 1_925_000

    @pytest.mark.parametrize("dtype, bound", [(np.float32, 18), (np.float64, 20.1)])
    def test_slab_block_peak_per_pixel(self, rng, dtype, bound):
        # a default-height interior 3D block through the kernel, compaction and
        # binning: 10.8 bytes per pixel on float32, set by binning, and 17.2 on
        # float64, set by the kernel's outer slab maximum and a chunk of corner
        # maxima
        g = ScalarGrid(rng.random((12, 128, 128)).astype(dtype))
        r0, r1 = 5, 5 + _row_block(g.dims)
        taus = uniform_thresholds(g, 256)
        _span_bins(g, taus, r0, r1)  # the bucket table, built once per set
        tracemalloc.start()
        try:
            _span_bins(g, taus, r0, r1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        pixels = (r1 - r0) * 128 * 128
        assert peak <= bound * pixels, f"{peak / pixels:.2f} bytes per pixel"

    def test_binning_frees_each_array_at_its_last_use(self, rng):
        # float32, uniform-random, 256 thresholds: an interior default-height
        # 3D block and an 80-row 1024**2 block peak at 10.8 and 10.5 bytes per
        # pixel, with the int8 block freed once the lookup compacts it and the
        # values and hit mask once the keys are built; holding the int8 block
        # and the compacted values through binning took 14.3 and 13.9
        for dims, r0 in [((12, 128, 128), 5), ((1024, 1024), 2)]:
            g = ScalarGrid(rng.random(dims).astype(np.float32))
            r1 = r0 + _row_block(g.dims)
            taus = uniform_thresholds(g, 256)
            _span_bins(g, taus, r0, r1)  # the bucket table, built once per set
            tracemalloc.start()
            try:
                _span_bins(g, taus, r0, r1)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            pixels = (r1 - r0) * (g.size // g.dims[0])
            assert peak <= 11.5 * pixels, f"{dims}: {peak / pixels:.2f} bytes per pixel"

    @pytest.mark.parametrize("dims", [
        (512, 512), (1024, 1024), (6000, 40), (128, 128, 128), (64, 50, 70), (9, 2, 1),
        (4, 4), (3, 4, 5),  # smaller than one block
        (3, 300_000), (2, 300, 400),  # a row larger than the budget
    ])
    @pytest.mark.parametrize("budget", [1_925_000, 10_000])
    def test_row_block_fits_the_budget(self, dims, budget):
        # the tallest block whose rows, at a block's 23.4 bytes per pixel, fit
        # the budget; one row when none fits, the whole grid when all do
        height = _row_block(dims, int(budget // 23.4))
        row = math.prod(dims[1:]) * 23.4
        assert 1 <= height <= dims[0]
        if row > budget:
            assert height == 1
        else:
            assert height * row <= budget
            assert height == dims[0] or (height + 1) * row > budget
        if budget == 1_925_000:
            assert _row_block(dims) == height  # the default block


class TestCoefficientFiles:
    def test_grid_must_be_2d_or_3d(self):
        for shape in ((5,), (2, 2, 2, 2)):
            with pytest.raises(ValueError, match="must be 2D or 3D"):
                CoefficientGrid(np.zeros(shape, dtype=np.int8))

    def test_round_trip(self, tmp_path, rng):
        g = random_f32_grid(rng, 3, 5)
        cg = compute_coefficients(g)
        path = tmp_path / "c.eccg"
        write_coefficients(cg, path)
        assert path.read_bytes()[4] == 2  # version byte
        back = read_coefficients(path)
        assert np.array_equal(back.coeffs, cg.coeffs)

    def test_scalar_reader_rejects_coefficient_files(self, tmp_path, rng):
        from ecckit import FormatError, read_grid

        path = tmp_path / "c.eccg"
        write_coefficients(compute_coefficients(random_f32_grid(rng, 2, 4)), path)
        with pytest.raises(FormatError):
            read_grid(path)

    def test_out_of_range_payload_rejected(self, tmp_path):
        path = tmp_path / "c.eccg"
        cg = compute_coefficients(ScalarGrid(np.zeros((2, 2))))
        write_coefficients(cg, path)
        blob = bytearray(path.read_bytes())
        blob[-4:] = np.array([99], dtype="<i4").tobytes()
        path.write_bytes(bytes(blob))
        with pytest.raises(CorruptionError):
            read_coefficients(path)
