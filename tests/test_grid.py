"""Grid model, thresholds, curve CSV, and file-format round trips."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ecckit import (
    CorruptionError,
    curve_checksum,
    EulerCurve,
    FormatError,
    ScalarGrid,
    SyntheticSpec,
    ThresholdSet,
    generate_grid,
    read_curve,
    read_grid,
    uniform_thresholds,
    write_curve,
    write_grid,
)
from ecckit.grid import MAGIC

from conftest import random_f32_grid


def rounds(ts, dtype):
    """Halving rounds of the bucket table ``ts`` builds for values of ``dtype``."""
    return ts._table(np.dtype(dtype))[4]


def assert_bins_exact(ts, probes):
    """``bin_indices`` equals binary search on the probes in float64 and in float32.

    The probes are repeated to one value per 64 thresholds, so the bucket
    table runs, not the direct search.
    """
    probes = np.asarray(probes, dtype=np.float64)
    probes = np.resize(probes, max(probes.size, -(-len(ts) // 64)))
    with np.errstate(over="ignore"):  # beyond the float32 range is +-inf
        cast = probes.astype(np.float32)
    for values in (probes, cast):
        got = ts.bin_indices(values)
        want = np.searchsorted(ts.taus, values, side="left")
        assert np.array_equal(got, want), (ts, values.dtype, np.flatnonzero(got != want)[:5])


class TestScalarGrid:
    def test_basic(self):
        g = ScalarGrid([[0.0, 1.0], [2.0, 3.0]])
        assert g.dims == (2, 2)
        assert g.ndim == 2
        assert g.size == 4

    def test_values_read_only(self):
        g = ScalarGrid(np.zeros((2, 2)))
        with pytest.raises(ValueError):
            g.values[0, 0] = 1.0

    def test_rejects_1d_and_4d(self):
        with pytest.raises(ValueError):
            ScalarGrid(np.zeros(5))
        with pytest.raises(ValueError):
            ScalarGrid(np.zeros((2, 2, 2, 2)))

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            ScalarGrid([[np.nan, 0.0], [0.0, 0.0]])
        with pytest.raises(ValueError):
            ScalarGrid([[np.inf, 0.0], [0.0, 0.0]])
        for bad in (np.nan, np.inf, -np.inf):  # interior, neither end of the grid
            values = np.arange(60.0).reshape(3, 4, 5)
            values[1, 2, 3] = bad
            with pytest.raises(ValueError):
                ScalarGrid(values)

    def test_finiteness_check_holds_no_pixel_sized_mask(self, rng):
        values = rng.random((256, 256)).astype(np.float32)
        tracemalloc.start()
        try:
            g = ScalarGrid(values)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.05 * g.values.nbytes, f"peak {peak / g.values.nbytes:.3f}x the grid"

    def test_single_pixel_is_2d(self):
        g = ScalarGrid([[5.0]])
        assert g.dims == (1, 1)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64, np.int64])
    def test_keeps_the_range_of_its_finiteness_check(self, rng, dtype):
        values = (rng.normal(0, 1e3, (7, 9, 5))).astype(dtype)
        g = ScalarGrid(values)
        assert g._range == (float(values.min()), float(values.max()))
        assert all(type(end) is float for end in g._range)

    @pytest.mark.parametrize("dtype, kept", [
        (np.float32, np.float32), (np.float64, np.float64), (np.int64, np.float64),
        (np.int8, np.float64), (np.float16, np.float64),
    ])
    def test_float32_stays_float32_every_other_dtype_is_float64(self, dtype, kept):
        g = ScalarGrid(np.arange(12).reshape(3, 4).astype(dtype))
        assert g.values.dtype == kept
        assert np.array_equal(g.values, np.arange(12).reshape(3, 4))
        assert ScalarGrid([[0.5, 1.0]]).values.dtype == np.float64

    def test_mutating_the_source_leaves_the_grid(self):
        a = np.arange(12, dtype=np.float32).reshape(3, 4)
        view = a.view()
        view.flags.writeable = False
        for source in (a, view):
            g = ScalarGrid(source)
            assert not np.shares_memory(g.values, a)
            a[1, 2] = -7.0
            assert g.values[1, 2] == 6.0
            a[1, 2] = 6.0

    def test_a_view_of_immutable_bytes_is_copied_too(self):
        view = np.frombuffer(np.arange(12, dtype=np.float32).tobytes(), dtype=np.float32)
        view = view.reshape(3, 4)
        g = ScalarGrid(view)
        assert g.values.dtype == np.float32
        assert not np.shares_memory(g.values, view)


class TestThresholdSet:
    def test_validation(self):
        with pytest.raises(ValueError):
            ThresholdSet([])
        with pytest.raises(ValueError):
            ThresholdSet([1.0, 1.0])
        with pytest.raises(ValueError):
            ThresholdSet([2.0, 1.0])
        with pytest.raises(ValueError):
            ThresholdSet([0.0, np.inf])

    @pytest.mark.parametrize("where", ["interior nan", "leading -inf", "trailing +inf"])
    def test_any_non_finite_threshold_is_named(self, where):
        taus = np.arange(10.0)
        if where == "interior nan":
            taus[4] = np.nan
        elif where == "leading -inf":
            taus[0] = -np.inf
        else:
            taus[-1] = np.inf
        with pytest.raises(ValueError, match="thresholds must be finite"):
            ThresholdSet(taus)
        with pytest.raises(ValueError, match="thresholds must be finite"):
            ThresholdSet(taus[::-1])  # not increasing either: finiteness is still named

    def test_finiteness_check_holds_no_threshold_sized_mask(self):
        # the padded float64 copy and the strictness check's bool mask (1/8
        # of it) are all a strictly increasing set needs: no bucket table
        # is built before a call bins values
        taus = np.arange(1.0, 2.0**20 + 1) ** 2
        tracemalloc.start()
        try:
            ThresholdSet(taus)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.15 * taus.nbytes, f"peak {peak / taus.nbytes:.3f}x the input"

    def test_strictness_check_holds_no_float_copy(self):
        # an uneven set whose one repeated value sits at the very end: the
        # strictness check must scan all of it, and may not do so through
        # a float copy of the differences
        taus = np.arange(1.0, 2.0**20 + 1) ** 2
        for repeat_last in (False, True):
            if repeat_last:
                taus[-1] = taus[-2]
            tracemalloc.start()
            try:
                if repeat_last:
                    with pytest.raises(ValueError, match="strictly increasing"):
                        ThresholdSet(taus)
                else:
                    ts = ThresholdSet(taus)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 1.25 * taus.nbytes, f"peak {peak / taus.nbytes:.3f}x the input"
            if not repeat_last:
                probes = taus[::4099]
                assert np.array_equal(
                    ts.bin_indices(probes), np.searchsorted(taus, probes, side="left")
                )
                del ts

    def test_bin_indices_match_binary_search(self, rng):
        for _ in range(100):
            taus = np.unique(rng.normal(0, 5, int(rng.integers(1, 30))))
            ts = ThresholdSet(taus)
            probes = np.concatenate(
                [rng.normal(0, 6, 100), taus,
                 np.nextafter(taus, np.inf), np.nextafter(taus, -np.inf)]
            )
            assert np.array_equal(
                ts.bin_indices(probes), np.searchsorted(taus, probes, side="left")
            )
            grid_shaped = probes[:100].reshape(10, 10)
            assert np.array_equal(
                ts.bin_indices(grid_shaped), np.searchsorted(taus, grid_shaped, side="left")
            )

    def test_large_sets_bin_sorted_values_exactly(self, rng):
        taus = np.unique(rng.normal(0, 5, 70_000) ** 3)
        ts = ThresholdSet(taus)
        probes = np.concatenate(
            [rng.normal(0, 6, 5000) ** 3, taus[::7], np.nextafter(taus[::5], np.inf),
             np.nextafter(taus[::5], -np.inf), [-np.inf, np.inf, taus[0], taus[-1]]]
        )
        rng.shuffle(probes)
        for shaped in (probes, probes[:6000].reshape(60, 100)):
            got = ts.bin_indices(shaped)
            assert got.shape == shaped.shape
            assert np.array_equal(got, np.searchsorted(taus, shaped, side="left"))

    def test_uniform_sets_take_the_fast_path(self, rng):
        for _ in range(50):
            g = random_f32_grid(rng, 2, 16)
            ts = uniform_thresholds(g, int(rng.integers(2, 200)))
            got = ts.bin_indices(g.values.ravel())
            assert np.array_equal(
                got, np.searchsorted(ts.taus, g.values.ravel(), side="left")
            )
            assert rounds(ts, np.float32) == 1  # thresholds a float32 ulp apart or more
        for seed in range(3):  # the range of exact-3d-random's grids, 256 thresholds
            g = generate_grid(SyntheticSpec("uniform-random", (32, 32, 32), seed))
            assert rounds(uniform_thresholds(g, 256), np.float32) == 1
        for lo in (np.float32(1.0), np.float32(-7e30), np.float32(3.3e-20)):
            for bins in (1, 7, 256, 1000):
                for ulps in (1, 2, 3):  # the thresholds are ``ulps`` float32 ulps apart
                    hi = lo + np.float32(bins * ulps) * np.spacing(lo)
                    ts = uniform_thresholds(ScalarGrid(np.array([[lo, hi]])), bins)
                    assert len(ts) == bins
                    assert_bins_exact(ts, np.concatenate([ts.taus, np.nextafter(ts.taus, np.inf)]))
                    assert rounds(ts, np.float32) == 1, (lo, bins, ulps)

    def test_extreme_magnitudes_stay_exact(self, rng):
        hostile = [
            np.array([1e15, 1e15 + 1, 1e15 + 2]),
            np.array([-1e300, 0.0, 1e300]),
            np.array([0.0, 1e-300, 2e-300, 1.0]),
            np.array([0.0, 5e-324]),  # the inverse of the span overflows
            np.array([1e-40, 2e-40, 3e-40]),  # and in float32, subnormal there
            np.arange(64.0) * 1e-6 + 5e8,
        ]
        for taus in hostile:
            ts = ThresholdSet(taus)
            probes = np.concatenate(
                [taus, np.nextafter(taus, np.inf), np.nextafter(taus, -np.inf),
                 rng.uniform(-1e10, 1e10, 50), np.array([np.finfo(np.float64).max])]
            )
            assert_bins_exact(ts, probes)

    @given(
        st.floats(allow_nan=False, allow_infinity=False),
        st.floats(allow_nan=False, allow_infinity=False),
        st.integers(1, 40_000),
    )
    @settings(max_examples=300, deadline=None)
    def test_uniform_sets_of_any_range_bin_exactly(self, a, b, bins):
        ts = uniform_thresholds(ScalarGrid([[min(a, b), max(a, b)]]), bins)
        taus = ts.taus
        with np.errstate(over="ignore"):  # past the largest float is inf
            probes = np.concatenate(
                [taus, np.nextafter(taus, np.inf), np.nextafter(taus, -np.inf), [-np.inf, np.inf]]
            )
        assert_bins_exact(ts, probes)

    def test_a_threshold_moved_off_the_even_spacing(self, rng):
        taus = np.linspace(0.0, 1.0, 20_000)
        k = 156  # a tenth of a spacing below its successor, far from either end
        taus[k] = taus[k + 1] - 0.1 * (taus[1] - taus[0])
        ts = ThresholdSet(taus)
        assert_bins_exact(
            ts, np.concatenate([taus, np.nextafter(taus, np.inf), rng.uniform(-0.1, 1.1, 500)])
        )

    def test_clustered_sets_take_several_rounds(self, rng):
        for spread in (1e-3, 1e-9):  # a float64 cluster, and one inside a float32 ulp
            taus = np.unique(np.concatenate(
                [rng.uniform(0.0, 1.0, 200), 0.5 + spread * rng.random(3000)]
            ))
            ts = ThresholdSet(taus)
            probes = np.concatenate(
                [taus, np.nextafter(taus, np.inf), np.nextafter(taus, -np.inf),
                 rng.uniform(-0.5, 1.5, 2000)]
            )
            assert_bins_exact(ts, probes)
            assert rounds(ts, np.float64) > 1 and rounds(ts, np.float32) > 1

    def test_thresholds_closer_than_a_float32_ulp(self):
        # every threshold casts to float32 1.0: one bucket holds them all
        taus = 1.0 + np.arange(-50, 50) * 2.0**-40
        ts = ThresholdSet(taus)
        f32 = np.float32
        probes = np.array([0.0, 1.0, np.nextafter(f32(1), f32(0)), np.nextafter(f32(1), f32(2)), 2.0])
        assert_bins_exact(ts, np.concatenate([taus, np.nextafter(taus, np.inf), probes]))
        assert rounds(ts, np.float32) == 7  # 100 thresholds in one bucket
        assert rounds(ts, np.float64) == 1

    def test_a_single_threshold(self, rng):
        for tau in (0.0, -3.5, 1e300, 5e-324):
            ts = ThresholdSet([tau])
            assert_bins_exact(ts, np.concatenate(
                [[tau, np.nextafter(tau, np.inf), np.nextafter(tau, -np.inf), -np.inf, np.inf],
                 rng.normal(tau, 1.0, 20)]
            ))
            assert rounds(ts, np.float32) == rounds(ts, np.float64) == 1

    def test_values_at_the_infinities_and_the_float_maxima(self):
        top32, top64 = float(np.finfo(np.float32).max), np.finfo(np.float64).max
        ends = [-np.inf, -top64, -top32, 0.0, top32, top64, np.inf]
        for taus in (np.linspace(-1.0, 1.0, 5), [-top32, top32], [-top64, 0.0, top64], [top32]):
            assert_bins_exact(ThresholdSet(taus), ends)

    def test_thresholds_beyond_the_float32_range(self, rng):
        # thresholds are clipped to the float32 range before the float32 map
        big = [-1e300, -4e38, -1.0, 0.0, 1.0, 4e38, 1e300]
        for taus in (big, big[:2], big[-2:], [1e300, 2e300], [-4e38, 1e300]):
            ts = ThresholdSet(taus)
            probes = np.concatenate([
                ts.taus, np.nextafter(ts.taus, np.inf), np.nextafter(ts.taus, -np.inf),
                [-np.inf, np.inf, 3.4e38, -3.4e38], rng.normal(0, 1e38, 50),
            ])
            assert_bins_exact(ts, probes)

    def test_float32_and_float64_values_keep_one_table_each(self, rng):
        ts = ThresholdSet(np.unique(rng.normal(0, 1, 300)))
        probes = rng.normal(0, 1.2, 1000)
        assert_bins_exact(ts, probes)
        assert set(ts._tables) == {np.dtype(np.float32), np.dtype(np.float64)}
        ints = (probes * 2).astype(np.int64)  # binned as float64
        assert np.array_equal(ts.bin_indices(ints), np.searchsorted(ts.taus, ints, side="left"))
        assert set(ts._tables) == {np.dtype(np.float32), np.dtype(np.float64)}

    # one value against 10 thresholds takes the table, against 1000 the direct search
    @pytest.mark.parametrize("n", [10, 1000])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_a_scalar_value_gets_an_index(self, n, dtype):
        ts = ThresholdSet(np.linspace(0.0, 1.0, n))
        for value in (dtype(0.5), dtype(-1.0), dtype(2.0), dtype(ts.taus[3]), float(dtype(0.5))):
            got = ts.bin_indices(value)
            assert np.ndim(got) == 0
            assert got == np.searchsorted(ts.taus, value, side="left"), value

    # against 1000 thresholds, 8 values search directly and 2**12 take the table
    @pytest.mark.parametrize("count", [8, 2**12])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_a_nan_value_raises(self, count, dtype):
        ts = ThresholdSet(np.linspace(0.0, 1.0, 1000))
        values = np.linspace(-0.5, 1.5, count).astype(dtype)
        values[count // 2] = np.nan
        with pytest.raises(ValueError, match="NaN"):
            ts.bin_indices(values)
        with pytest.raises(ValueError, match="NaN"):
            ts.bin_indices(dtype(np.nan))
        assert np.array_equal(ts.bin_indices(values[:0]), [])

    def test_few_values_search_directly_and_many_reuse_the_table(self, rng):
        taus = np.sort(rng.normal(0, 1, 2**20))
        ts = ThresholdSet(taus)
        few = rng.normal(0, 1, 8)
        tracemalloc.start()
        try:
            got = ts.bin_indices(few)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(got, np.searchsorted(taus, few, side="left"))
        assert peak < 64 * 1024, peak
        assert not ts._tables
        many = rng.normal(0, 1, 2**14)  # one value per 64 thresholds: the table
        assert np.array_equal(ts.bin_indices(many), np.searchsorted(taus, many, side="left"))
        table = ts._tables[np.dtype(np.float64)]
        assert np.array_equal(ts.bin_indices(many[::-1]), np.searchsorted(taus, many[::-1], side="left"))
        assert ts._tables[np.dtype(np.float64)] is table


class TestUniformThresholds:
    def test_equal_width_edges(self):
        g = ScalarGrid(np.arange(11.0).reshape(1, 11))
        ts = uniform_thresholds(g, 2)
        assert np.array_equal(ts.taus, [5.0, 10.0])

    def test_constant_grid_collapses(self):
        g = ScalarGrid(np.full((3, 3), 4.25))
        ts = uniform_thresholds(g, 8)
        assert np.array_equal(ts.taus, [4.25])

    def test_single_bin(self, rng):
        g = random_f32_grid(rng, 2, 8)
        ts = uniform_thresholds(g, 1)
        assert np.array_equal(ts.taus, [g.values.max()])

    def test_last_is_exactly_max(self, rng):
        for _ in range(25):
            g = random_f32_grid(rng, 2, 12)
            ts = uniform_thresholds(g, int(rng.integers(1, 64)))
            assert ts.taus[-1] == g.values.max()

    def test_reads_the_range_the_grid_keeps(self, rng, monkeypatch):
        g = random_f32_grid(rng, 2, 12)
        monkeypatch.setattr(g, "_range", (-1.0, 3.0))
        assert np.array_equal(uniform_thresholds(g, 4).taus, [0.0, 1.0, 2.0, 3.0])

    def test_zero_bins_rejected(self):
        for bins in (0, -3, 2.5, 2.0, "4"):  # a fractional count would round up silently
            with pytest.raises(ValueError, match="bins must be an integer >= 1"):
                uniform_thresholds(ScalarGrid(np.zeros((2, 2))), bins)

    def test_finite_spans_keep_the_equal_width_formula(self, rng):
        for _ in range(25):
            g = random_f32_grid(rng, 2, 12)
            bins = int(rng.integers(1, 300))
            lo, hi = float(g.values.min()), float(g.values.max())
            edges = lo + (hi - lo) * (np.arange(1, bins + 1) / bins)
            edges[-1] = hi
            assert uniform_thresholds(g, bins).taus.tobytes() == np.unique(edges).tobytes()

    def test_span_beyond_the_float_range(self):
        top = np.finfo(np.float64).max
        for lo, hi in ((-1e308, 1e308), (-top, top), (-top, 1.0)):
            for bins in (2, 4, 1000):
                ts = uniform_thresholds(ScalarGrid([[lo, hi]]), bins)
                assert np.isfinite(ts.taus).all()
                assert (np.diff(ts.taus) > 0).all()
                assert ts.taus[-1] == hi
                assert np.array_equal(
                    ts.bin_indices([lo, 0.0, hi]),
                    np.searchsorted(ts.taus, [lo, 0.0, hi], side="left"),
                )


class TestGridFiles:
    def test_simple_encoding(self, tmp_path):
        path = tmp_path / "g.eccg"
        write_grid(ScalarGrid([[0.0, 1.0], [2.0, 3.0]]), path)
        g = read_grid(path)
        assert g.dims == (2, 2)
        assert np.array_equal(g.values.ravel(), [0.0, 1.0, 2.0, 3.0])

    def test_header_layout(self, tmp_path):
        path = tmp_path / "g.eccg"
        write_grid(ScalarGrid([[5.0]]), path)
        blob = path.read_bytes()
        assert blob[:4] == MAGIC
        assert blob[4] == 1          # version
        assert blob[5] == 2          # ndim
        assert blob[6:8] == b"\x00\x00"
        assert len(blob) == 8 + 2 * 8 + 4

    def test_3d_row_major_payload(self, tmp_path):
        vals = np.arange(8.0).reshape(2, 2, 2)
        path = tmp_path / "g.eccg"
        write_grid(ScalarGrid(vals), path)
        payload = np.frombuffer(path.read_bytes()[8 + 24:], dtype="<f4")
        assert np.array_equal(payload, np.arange(8.0, dtype=np.float32))

    def test_round_trip_50_random_grids(self, tmp_path, rng):
        for i in range(50):
            g = random_f32_grid(rng, 2 if i % 2 == 0 else 3, 9)
            path = tmp_path / f"g{i}.eccg"
            write_grid(g, path)
            first = path.read_bytes()
            again = read_grid(path)
            assert np.array_equal(again.values, g.values)
            write_grid(again, path)
            assert path.read_bytes() == first

    def test_read_converts_the_payload_once(self, tmp_path, rng):
        g = ScalarGrid(rng.random((64, 64, 64)).astype(np.float32))
        path = tmp_path / "g.eccg"
        write_grid(g, path)
        tracemalloc.start()
        try:
            back = read_grid(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(back.values, g.values)
        # the file bytes plus one float64 grid, with room for the finiteness check
        assert peak < path.stat().st_size + 1.5 * g.values.nbytes, f"peak {peak / 2**20:.2f} MiB"

    def test_read_adopts_the_file_buffer(self, tmp_path, rng):
        g = ScalarGrid(rng.random((64, 64, 64)).astype(np.float32))
        path = tmp_path / "g.eccg"
        write_grid(g, path)
        tracemalloc.start()
        try:
            back = read_grid(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert back.values.dtype == np.float32 and not back.values.flags.writeable
        assert np.array_equal(back.values, g.values)
        # the file bytes alone: the grid is a view of them
        assert peak < path.stat().st_size + 0.1 * g.values.nbytes, f"peak {peak / 2**20:.2f} MiB"

    def test_write_streams_a_float32_payload(self, tmp_path, rng):
        g = ScalarGrid(rng.random((64, 64, 64)).astype(np.float32))
        path = tmp_path / "g.eccg"
        tracemalloc.start()
        try:
            write_grid(g, path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert path.read_bytes()[8 + 24:] == g.values.astype("<f4").tobytes()
        assert peak < 0.1 * g.values.nbytes, f"peak {peak / 2**20:.2f} MiB"

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "g.eccg"
        write_grid(ScalarGrid(np.zeros((2, 2))), path)
        blob = bytearray(path.read_bytes())
        blob[0] ^= 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(FormatError):
            read_grid(path)

    def test_bad_version(self, tmp_path):
        path = tmp_path / "g.eccg"
        write_grid(ScalarGrid(np.zeros((2, 2))), path)
        blob = bytearray(path.read_bytes())
        blob[4] = 9
        path.write_bytes(bytes(blob))
        with pytest.raises(FormatError):
            read_grid(path)

    def test_bad_ndim_byte(self, tmp_path):
        path = tmp_path / "g.eccg"
        write_grid(ScalarGrid(np.zeros((2, 2))), path)
        blob = bytearray(path.read_bytes())
        blob[5] = 4
        path.write_bytes(bytes(blob))
        with pytest.raises(FormatError):
            read_grid(path)

    def test_nonzero_reserved(self, tmp_path):
        path = tmp_path / "g.eccg"
        write_grid(ScalarGrid(np.zeros((2, 2))), path)
        blob = bytearray(path.read_bytes())
        blob[6] = 1
        path.write_bytes(bytes(blob))
        with pytest.raises(FormatError):
            read_grid(path)

    def test_truncated_payload_is_corruption(self, tmp_path):
        path = tmp_path / "g.eccg"
        write_grid(ScalarGrid(np.zeros((4, 4))), path)
        blob = path.read_bytes()
        path.write_bytes(blob[:-4])
        with pytest.raises(CorruptionError):
            read_grid(path)

    def test_dims_payload_mismatch_is_corruption(self, tmp_path):
        path = tmp_path / "g.eccg"
        write_grid(ScalarGrid(np.zeros((2, 2))), path)
        blob = bytearray(path.read_bytes())
        blob[8] = 3  # claim 3 rows, payload still holds 4 values
        path.write_bytes(bytes(blob))
        with pytest.raises(CorruptionError):
            read_grid(path)

    def test_non_finite_payload_rejected(self, tmp_path):
        path = tmp_path / "g.eccg"
        write_grid(ScalarGrid(np.zeros((2, 2))), path)
        blob = bytearray(path.read_bytes())
        blob[-4:] = np.array([np.nan], dtype="<f4").tobytes()
        path.write_bytes(bytes(blob))
        with pytest.raises(ValueError):
            read_grid(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(OSError):
            read_grid(tmp_path / "nope.eccg")


class TestCurveFiles:
    def test_integer_formatting(self, tmp_path):
        path = tmp_path / "c.csv"
        write_curve(EulerCurve([0.5, 1.0], np.array([0, 1], dtype=np.int64)), path)
        assert path.read_text() == "threshold,chi\n0.5,0\n1.0,1\n"

    def test_soft_formatting_9_significant_digits(self, tmp_path):
        path = tmp_path / "c.csv"
        write_curve(EulerCurve([0.5], np.array([1 / 3])), path)
        assert path.read_text() == "threshold,chi\n0.5,0.333333333\n"

    def test_round_trip(self, tmp_path, rng):
        path = tmp_path / "c.csv"
        taus = np.sort(rng.random(12))
        hard = EulerCurve(taus, rng.integers(-40, 40, 12))
        write_curve(hard, path)
        back = read_curve(path)
        assert back.is_integral
        assert np.array_equal(back.values, hard.values)
        assert np.array_equal(back.taus, hard.taus)

        soft = EulerCurve(taus, rng.normal(size=12))
        write_curve(soft, path)
        back = read_curve(path)
        assert not back.is_integral
        assert np.allclose(back.values, soft.values, rtol=1e-8)

    def test_float_curve_with_integral_values_stays_float(self, tmp_path):
        path = tmp_path / "c.csv"
        soft = EulerCurve([0.5, 1.0, 2.0], np.array([1.0, -2.0, 0.0]))
        write_curve(soft, path)
        assert path.read_text() == "threshold,chi\n0.5,1.0\n1.0,-2.0\n2.0,0.0\n"
        back = read_curve(path)
        assert back.values.dtype == np.float64
        assert curve_checksum(back) == curve_checksum(soft)

    def test_header_required(self, tmp_path):
        path = tmp_path / "c.csv"
        path.write_text("tau,chi\n0.5,0\n")
        with pytest.raises(FormatError):
            read_curve(path)
