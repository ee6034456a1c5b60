"""Grid model, thresholds, curve CSV, and file-format round trips."""

import numpy as np
import pytest

from ecckit import (
    CorruptionError,
    curve_checksum,
    EulerCurve,
    FormatError,
    ScalarGrid,
    ThresholdSet,
    read_curve,
    read_grid,
    uniform_thresholds,
    write_curve,
    write_grid,
)
from ecckit.grid import MAGIC

from conftest import random_f32_grid


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

    def test_single_pixel_is_2d(self):
        g = ScalarGrid([[5.0]])
        assert g.dims == (1, 1)


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

    def test_uniform_sets_take_the_fast_path(self, rng):
        for _ in range(50):
            g = random_f32_grid(rng, 2, 16)
            ts = uniform_thresholds(g, int(rng.integers(2, 200)))
            if len(ts) > 1:
                assert ts._affine is not None
            got = ts.bin_indices(g.values.ravel())
            assert np.array_equal(
                got, np.searchsorted(ts.taus, g.values.ravel(), side="left")
            )

    def test_extreme_magnitudes_stay_exact(self, rng):
        # huge offsets and spans defeat the affine certificate; binning
        # must still match binary search bit for bit
        hostile = [
            np.array([1e15, 1e15 + 1, 1e15 + 2]),
            np.array([-1e300, 0.0, 1e300]),
            np.array([0.0, 1e-300, 2e-300, 1.0]),
            np.arange(64.0) * 1e-6 + 5e8,
        ]
        for taus in hostile:
            ts = ThresholdSet(taus)
            probes = np.concatenate(
                [taus, np.nextafter(taus, np.inf), np.nextafter(taus, -np.inf),
                 rng.uniform(-1e10, 1e10, 50), np.array([np.finfo(np.float64).max])]
            )
            assert np.array_equal(
                ts.bin_indices(probes), np.searchsorted(ts.taus, probes, side="left")
            )


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

    def test_zero_bins_rejected(self):
        with pytest.raises(ValueError):
            uniform_thresholds(ScalarGrid(np.zeros((2, 2))), 0)

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
