"""Brute-force cell counting: fixtures with hand-checked cell totals."""

import numpy as np
import pytest

from ecckit import (
    CellCounts,
    ScalarGrid,
    ThresholdSet,
    count_cells,
    oracle_ecc,
    uniform_thresholds,
)
from ecckit.oracle import sublevel_mask


class TestSublevelMask:
    def test_below_min_empty(self, rng):
        g = ScalarGrid(rng.random((5, 4)))
        assert not sublevel_mask(g, g.values.min() - 1).any()

    def test_at_max_full(self, rng):
        g = ScalarGrid(rng.random((5, 4)))
        assert sublevel_mask(g, g.values.max()).all()

    def test_inclusive(self):
        g = ScalarGrid([[0.0, 1.0], [2.0, 3.0]])
        assert sublevel_mask(g, 1.0).sum() == 2

    def test_popcount_matches_linear_scan(self, rng):
        vals = rng.random(100)
        g = ScalarGrid(vals.reshape(10, 10))
        tau = float(np.median(vals))
        want = sum(1 for v in vals if v <= tau)
        assert sublevel_mask(g, tau).sum() == want

    def test_compares_in_float64(self):
        v = np.float32(0.1)  # 0.100000001490116..., just above the double 0.1
        assert float(np.nextafter(v, np.float32(0))) < 0.1 < float(v)
        for dtype in (np.float32, np.float64):
            g = ScalarGrid(np.full((2, 2), v, dtype=dtype))
            assert not sublevel_mask(g, 0.1).any()
            assert sublevel_mask(g, float(v)).all()
        g = ScalarGrid(np.full((2, 2), v))
        assert np.array_equal(oracle_ecc(g, ThresholdSet([0.1, float(v)])).values, [0, 1])


class TestCountCells:
    def test_ring(self):
        mask = np.ones((3, 3), dtype=bool)
        mask[1, 1] = False
        cc = count_cells(mask)
        assert cc == CellCounts(8, 8, 0, 0)
        assert cc.euler_characteristic == 0

    def test_solid_square(self):
        cc = count_cells(np.ones((2, 2), dtype=bool))
        assert cc == CellCounts(4, 4, 1, 0)
        assert cc.euler_characteristic == 1

    def test_solid_cube(self):
        cc = count_cells(np.ones((3, 3, 3), dtype=bool))
        assert cc == CellCounts(27, 54, 36, 8)
        assert cc.euler_characteristic == 1

    def test_shell_is_a_sphere(self):
        mask = np.ones((3, 3, 3), dtype=bool)
        mask[1, 1, 1] = False
        cc = count_cells(mask)
        assert cc == CellCounts(26, 48, 24, 0)
        assert cc.euler_characteristic == 2

    def test_empty_mask(self):
        cc = count_cells(np.zeros((4, 5), dtype=bool))
        assert cc == CellCounts(0, 0, 0, 0)

    def test_two_isolated_points(self):
        mask = np.zeros((1, 3), dtype=bool)
        mask[0, 0] = mask[0, 2] = True
        assert count_cells(mask).euler_characteristic == 2

    def test_rejects_other_ranks(self):
        with pytest.raises(ValueError):
            count_cells(np.ones(4, dtype=bool))

    def test_additive_over_separated_components(self, rng):
        # components separated by >= 2 empty rows share no cells
        for _ in range(20):
            nd = int(rng.integers(2, 4))
            top = rng.random(tuple(rng.integers(1, 5, nd))) < 0.6
            bot = rng.random(tuple(rng.integers(1, 5, nd))) < 0.6
            width = max(top.shape[1], bot.shape[1])
            depth = (max(top.shape[2], bot.shape[2]),) if nd == 3 else ()
            shape = (top.shape[0] + bot.shape[0] + 2, width) + depth
            mask = np.zeros(shape, dtype=bool)
            mask[tuple(slice(0, s) for s in top.shape)] = top
            mask[tuple(
                slice(shape[0] - bot.shape[0], shape[0])
                if a == 0 else slice(0, s)
                for a, s in enumerate(bot.shape)
            )] = bot
            assert (
                count_cells(mask).euler_characteristic
                == count_cells(top).euler_characteristic
                + count_cells(bot).euler_characteristic
            )


class TestOracleEcc:
    def test_constant_grid(self):
        g = ScalarGrid(np.full((4, 4), 2.5))
        curve = oracle_ecc(g, uniform_thresholds(g, 8))
        assert np.array_equal(curve.taus, [2.5])
        assert np.array_equal(curve.values, [1])

    def test_center_peak(self):
        vals = np.zeros((3, 3))
        vals[1, 1] = 1.0
        curve = oracle_ecc(ScalarGrid(vals), ThresholdSet([0.0, 1.0]))
        assert np.array_equal(curve.values, [0, 1])

    def test_monotone_transform_invariance(self, rng):
        vals = rng.integers(0, 6, (6, 7)).astype(np.float64)
        taus = np.unique(vals)
        base = oracle_ecc(ScalarGrid(vals), ThresholdSet(taus))

        def warp(x):
            return np.exp(x) + 3 * x

        warped = oracle_ecc(ScalarGrid(warp(vals)), ThresholdSet(warp(taus)))
        assert np.array_equal(base.values, warped.values)
