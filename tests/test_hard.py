"""Histogram accumulation: strategies, worker fan-out and oracle equivalence."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ecckit.hard
from ecckit import (
    Chunked,
    FullSweep,
    ScalarGrid,
    ThresholdSet,
    compute_ecc,
    oracle_ecc,
    parse_strategy,
    uniform_thresholds,
)

from conftest import random_f32_grid, random_int_grid


class TestFixtures:
    def test_center_peak_2d(self):
        vals = np.zeros((3, 3))
        vals[1, 1] = 1.0
        curve = compute_ecc(ScalarGrid(vals), ThresholdSet([0.0, 1.0]))
        assert np.array_equal(curve.values, [0, 1])

    def test_center_peak_3d_shell(self):
        vals = np.zeros((3, 3, 3))
        vals[1, 1, 1] = 1.0
        curve = compute_ecc(ScalarGrid(vals), ThresholdSet([0.0, 1.0]))
        assert np.array_equal(curve.values, [2, 1])

    def test_threshold_below_min_gives_zero(self, rng):
        g = random_f32_grid(rng, 2, 8)
        taus = ThresholdSet([g.values.min() - 1.0, g.values.max()])
        curve = compute_ecc(g, taus)
        assert curve.values[0] == 0
        assert curve.values[-1] == 1

    def test_tail_is_one_at_max(self, rng):
        for _ in range(10):
            g = random_int_grid(rng, 2, 10)
            curve = compute_ecc(g, uniform_thresholds(g, 7))
            assert curve.values[-1] == 1


class TestStrategyEquivalence:
    def test_bit_identical_across_strategies_and_workers(self, rng):
        for trial in range(12):
            nd = 2 if trial % 2 else 3
            g = random_int_grid(rng, nd, 14 if nd == 2 else 6)
            taus = uniform_thresholds(g, 9)
            row_len = g.dims[-1]
            reference = compute_ecc(g, taus, FullSweep(), 1)
            for strategy in (FullSweep(), Chunked(1), Chunked(7), Chunked(64), Chunked(row_len)):
                for workers in (1, 2, 8):
                    curve = compute_ecc(g, taus, strategy, workers)
                    assert curve.values.dtype == np.int64
                    assert np.array_equal(curve.values, reference.values)

    def test_oracle_equivalence_random_grids(self, rng):
        for trial in range(24):
            nd = 2 if trial % 2 else 3
            g = random_int_grid(rng, nd, 16 if nd == 2 else 7)
            taus = ThresholdSet(np.unique(g.values))
            want = oracle_ecc(g, taus).values
            assert np.array_equal(compute_ecc(g, taus, FullSweep(), 2).values, want)
            assert np.array_equal(compute_ecc(g, taus, Chunked(5)).values, want)

    def test_float_values_with_ties(self, rng):
        vals = rng.random((9, 9)).astype(np.float32).astype(np.float64)
        vals[vals < 0.4] = 0.25  # large tied plateau
        g = ScalarGrid(vals)
        taus = ThresholdSet(np.unique(vals))
        want = oracle_ecc(g, taus).values
        for strategy in (FullSweep(), Chunked(10)):
            assert np.array_equal(compute_ecc(g, taus, strategy).values, want)

    @given(
        st.lists(st.integers(1, 4), min_size=2, max_size=3),
        st.data(),
    )
    @settings(max_examples=75, deadline=None)
    def test_oracle_equivalence_is_a_property(self, dims, data):
        # arbitrary float32-representable values, adversarial ties included
        n = int(np.prod(dims))
        values = data.draw(
            st.lists(
                st.floats(allow_nan=False, allow_infinity=False, width=32),
                min_size=n,
                max_size=n,
            )
        )
        g = ScalarGrid(np.array(values, dtype=np.float64).reshape(dims))
        taus = ThresholdSet(np.unique(g.values))
        want = oracle_ecc(g, taus).values
        assert np.array_equal(compute_ecc(g, taus, FullSweep()).values, want)
        assert np.array_equal(compute_ecc(g, taus, Chunked(3)).values, want)


class TestCompaction:
    def test_blocks_on_both_sides_of_the_compaction_rule(self, rng, monkeypatch):
        # 256 columns make 256-row blocks: rows [0, 300) are constant, so
        # their coefficients vanish and those blocks are compacted; the
        # random rows are ~60% critical and are binned whole
        vals = np.full((512, 256), 4.5)
        vals[300:] = rng.integers(0, 10, (212, 256))
        g = ScalarGrid(vals)
        taus = ThresholdSet(np.unique(vals))
        want = oracle_ecc(g, taus).values

        blocks, compacted = [], []  # list.append is atomic across worker threads
        block_counts, critical = ecckit.hard._block_counts, ecckit.hard._critical_pixels

        def counting_block_counts(*args):
            blocks.append(1)
            return block_counts(*args)

        def counting_critical(*args):
            compacted.append(1)
            return critical(*args)

        monkeypatch.setattr(ecckit.hard, "_block_counts", counting_block_counts)
        monkeypatch.setattr(ecckit.hard, "_critical_pixels", counting_critical)
        for strategy in (FullSweep(), Chunked(4096)):
            for workers in (1, 2, 8):
                blocks.clear()
                compacted.clear()
                got = compute_ecc(g, taus, strategy, workers).values
                assert got.tobytes() == want.tobytes(), (strategy, workers)
                assert 0 < len(compacted) < len(blocks), (strategy, workers)


class TestFanOut:
    def test_pool_only_for_more_than_one_block(self, rng, pool_sizes):
        # 256 columns make 256-row blocks
        for rows, want in ((256, []), (512, [2])):
            g = ScalarGrid(rng.integers(0, 10, (rows, 256)).astype(np.float64))
            pool_sizes.clear()
            compute_ecc(g, uniform_thresholds(g, 9), FullSweep(), workers=8)
            assert pool_sizes == want, rows


class TestValidation:
    def test_bad_workers(self, rng):
        g = random_int_grid(rng, 2, 4)
        with pytest.raises(ValueError):
            compute_ecc(g, uniform_thresholds(g, 2), FullSweep(), 0)

    def test_bad_chunk_len(self):
        with pytest.raises(ValueError):
            Chunked(0)

    def test_parse_strategy(self):
        assert parse_strategy("fullsweep") == FullSweep()
        assert parse_strategy("chunked:64") == Chunked(64)
        with pytest.raises(ValueError):
            parse_strategy("sideways")
        with pytest.raises(ValueError):
            parse_strategy("chunked:0")
