"""Histogram accumulation: strategies, merging, and oracle equivalence."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ecckit.hard
from ecckit import (
    Chunked,
    FullSweep,
    HistogramBins,
    ScalarGrid,
    ThresholdSet,
    accumulate_histogram,
    bin_index,
    compute_ecc,
    merge_histograms,
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


class TestBinIndex:
    def test_first_threshold_inclusive(self):
        ts = ThresholdSet([1.0, 2.0, 3.0])
        assert bin_index(1.0, ts) == 0

    def test_above_last_is_none(self):
        ts = ThresholdSet([1.0, 2.0, 3.0])
        assert bin_index(3.0 + 1e-12, ts) is None

    def test_interior(self):
        ts = ThresholdSet([1.0, 2.0, 3.0])
        assert bin_index(1.5, ts) == 1
        assert bin_index(0.0, ts) == 0

    def test_matches_linear_scan(self, rng):
        taus = np.unique(rng.normal(0, 2, 17))
        ts = ThresholdSet(taus)
        for x in rng.normal(0, 3, 1000):
            want = next((j for j, t in enumerate(taus) if x <= t), None)
            assert bin_index(x, ts) == want


class TestMergeHistograms:
    @staticmethod
    def _hist(taus, bins, overflow=0):
        return HistogramBins(np.asarray(taus, float), np.asarray(bins, np.int64), overflow)

    def test_identity_element(self, rng):
        taus = np.sort(rng.random(5))
        h = self._hist(taus, rng.integers(-9, 9, 5), 3)
        zero = self._hist(taus, np.zeros(5, np.int64), 0)
        merged = merge_histograms([h, zero])
        assert np.array_equal(merged.bins, h.bins)
        assert merged.overflow == h.overflow

    @given(st.lists(st.lists(st.integers(-50, 50), min_size=4, max_size=4),
                    min_size=1, max_size=6), st.randoms())
    @settings(max_examples=100, deadline=None)
    def test_permutation_invariance(self, rows, shuffler):
        taus = np.array([0.0, 1.0, 2.0, 3.0])
        parts = [self._hist(taus, row, i) for i, row in enumerate(rows)]
        base = merge_histograms(parts)
        shuffled = list(parts)
        shuffler.shuffle(shuffled)
        again = merge_histograms(shuffled)
        assert np.array_equal(base.bins, again.bins)
        assert base.overflow == again.overflow

    def test_partitioned_equals_whole(self, rng):
        g = random_int_grid(rng, 2, 16)
        taus = uniform_thresholds(g, 6)
        whole = accumulate_histogram(g, taus, FullSweep(), workers=1)
        parts = accumulate_histogram(g, taus, FullSweep(), workers=4)
        assert np.array_equal(whole.bins, parts.bins)
        assert whole.overflow == parts.overflow

    def test_mismatched_bin_counts_rejected(self):
        a = self._hist([0.0, 1.0], [1, 2])
        b = self._hist([0.0], [1])
        with pytest.raises(ValueError):
            merge_histograms([a, b])

    def test_mismatched_taus_rejected(self):
        a = self._hist([0.0, 1.0], [1, 2])
        b = self._hist([0.0, 2.0], [1, 2])
        with pytest.raises(ValueError):
            merge_histograms([a, b])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            merge_histograms([])


class TestHistogramInvariant:
    def test_total_mass_is_one(self, rng):
        for trial in range(20):
            g = random_int_grid(rng, 2 if trial % 2 else 3, 10 if trial % 2 else 5)
            hi = float(g.values.max())
            # drop the top of the range so some pixels overflow
            taus = ThresholdSet([hi / 3, hi / 2]) if hi > 0 else ThresholdSet([0.0])
            h = accumulate_histogram(g, taus)
            assert int(h.bins.sum()) + h.overflow == 1


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
