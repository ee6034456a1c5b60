"""Lower-star coefficients: exactness against the cell-counting oracle."""

import numpy as np
import pytest

from ecckit import (
    COEFF_RANGE,
    CorruptionError,
    ScalarGrid,
    ThresholdSet,
    compute_coefficients,
    oracle_ecc,
    read_coefficients,
    write_coefficients,
)
from ecckit.coefficients import _lower_star_coefficients

from conftest import random_f32_grid, random_int_grid


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

    def test_blocked_equals_whole_grid(self, rng):
        # the public entry point blocks along the first axis; the raw
        # kernel does not
        for trial in range(10):
            nd = 2 if trial % 2 else 3
            g = random_int_grid(rng, nd, 24 if nd == 2 else 9)
            assert np.array_equal(
                compute_coefficients(g).coeffs, _lower_star_coefficients(g.values)
            )


class TestCoefficientFiles:
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
