"""Histogram accumulation: strategies, worker fan-out and oracle equivalence."""

import sys
import time
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ecckit.coefficients
import ecckit.hard
from ecckit import (
    Chunked,
    FullSweep,
    ScalarGrid,
    ThresholdSet,
    compute_coefficients,
    compute_ecc,
    oracle_ecc,
    parse_strategy,
    uniform_thresholds,
)
from ecckit.coefficients import _fan_out
from ecckit.hard import _span_counts
from ecckit.soft import SoftEccParams, soft_ecc, soft_ecc_backward

from conftest import random_f32_grid, random_int_grid


def dense_reference(g, taus):
    """Curve from a dense weighted count of whole-grid coefficients, binned by binary search."""
    coeffs = compute_coefficients(g).coeffs.ravel()
    bins = np.searchsorted(taus.taus, g.values.ravel(), side="left")
    counts = np.bincount(bins, weights=coeffs, minlength=len(taus) + 1)
    return np.cumsum(counts[:-1].astype(np.int64))


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
        # 256 columns make 256-row blocks, two here: each call gets a fresh
        # set, so workers meet its bucket table on first use
        g = ScalarGrid(rng.random((512, 256)).astype(np.float32))
        uneven = np.unique(np.quantile(g.values, np.linspace(0.0, 1.0, 300) ** 2))
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # interleave the workers' first builds
        try:
            for make in (lambda: ThresholdSet(uneven), lambda: ThresholdSet(np.unique(g.values))):
                want = dense_reference(g, make()).tobytes()
                for strategy, workers in ((FullSweep(), 1), (FullSweep(), 2), (FullSweep(), 8),
                                          (Chunked(97), 1)):
                    taus = make()
                    assert compute_ecc(g, taus, strategy, workers).values.tobytes() == want
                    if isinstance(strategy, FullSweep):
                        assert taus._tables, (len(taus), workers)  # the table, not a direct search
        finally:
            sys.setswitchinterval(switch)

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
        # their coefficients vanish; the random rows are ~60% critical.
        # Every block, of either kind, is compacted to its critical pixels
        vals = np.full((512, 256), 4.5)
        vals[300:] = rng.integers(0, 10, (212, 256))
        g = ScalarGrid(vals)
        taus = ThresholdSet(np.unique(vals))
        want = oracle_ecc(g, taus).values

        blocks, compacted = [], []
        span_counts, critical = ecckit.hard._span_counts, ecckit.hard._critical_pixels

        def counting_span_counts(*args):
            blocks.append(1)
            return span_counts(*args)

        def counting_critical(*args):
            compacted.append(1)
            return critical(*args)

        monkeypatch.setattr(ecckit.hard, "_span_counts", counting_span_counts)
        monkeypatch.setattr(ecckit.hard, "_critical_pixels", counting_critical)
        for strategy in (FullSweep(), Chunked(4096)):
            for workers in (1, 2, 8):
                blocks.clear()
                compacted.clear()
                got = compute_ecc(g, taus, strategy, workers).values
                assert got.tobytes() == want.tobytes(), (strategy, workers)
                assert 0 < len(compacted) == len(blocks), (strategy, workers)


class TestStepAssembly:
    def test_a_million_uneven_thresholds(self, rng):
        # 300 columns make 218-row blocks, three of them, each with fewer
        # pixels than thresholds
        g = ScalarGrid(rng.random((512, 300)).astype(np.float32).astype(np.float64))
        extra = rng.uniform(-0.5, 1.5, 1_000_000) ** 3
        taus = ThresholdSet(np.unique(np.concatenate([g.values.ravel()[::2], extra])))
        assert len(taus) >= 10**6
        want = dense_reference(g, taus)
        for strategy in (FullSweep(), Chunked(4096)):
            for workers in (1, 2, 8):
                got = compute_ecc(g, taus, strategy, workers).values
                assert got.dtype == np.int64
                assert got.tobytes() == want.tobytes(), (strategy, workers)

    def test_sparse_pairs_and_dense_counts_both_run(self, rng, monkeypatch):
        # 256 columns make 256-row blocks: rows [0, 300) are a plateau with
        # one dip, fewer critical pixels than thresholds; the random rows
        # hold more critical pixels than thresholds
        vals = np.full((512, 256), 4.5)
        vals[100, 100] = 3.0
        vals[300:] = rng.integers(0, 1000, (212, 256))
        g = ScalarGrid(vals)
        taus = ThresholdSet(np.unique(vals))
        want = dense_reference(g, taus)

        kinds = []
        span_counts = ecckit.hard._span_counts

        def spy(*args):
            pairs = span_counts(*args)
            # sparse pairs carry the int8 coefficients, dense ones float64 counts
            kinds.append(pairs[0][1].dtype.kind)
            return pairs

        monkeypatch.setattr(ecckit.hard, "_span_counts", spy)
        for strategy in (FullSweep(), Chunked(4096)):
            for workers in (1, 2, 8):
                kinds.clear()
                got = compute_ecc(g, taus, strategy, workers).values
                assert got.tobytes() == want.tobytes(), (strategy, workers)
                assert sorted(set(kinds)) == ["f", "i"], (strategy, workers)

    def test_dense_count_and_sorted_steps_agree(self, rng):
        # blocks of 218 rows hold fewer pixels than either set has thresholds,
        # so every critical pixel is one pair: at least a quarter of every
        # distinct value (dense count), under a quarter of nine times as many
        g = ScalarGrid(rng.random((512, 300)).astype(np.float32).astype(np.float64))
        critical = np.count_nonzero(compute_coefficients(g).coeffs)
        distinct = np.unique(g.values)
        padded = np.unique(np.concatenate([distinct, rng.uniform(-1.0, 2.0, 8 * distinct.size)]))
        assert 4 * critical >= distinct.size and 4 * critical < padded.size
        for taus in (ThresholdSet(distinct), ThresholdSet(padded)):
            want = dense_reference(g, taus)
            for strategy, workers in ((FullSweep(), 1), (FullSweep(), 8), (Chunked(4096), 1)):
                got = compute_ecc(g, taus, strategy, workers).values
                assert got.dtype == np.int64
                assert got.tobytes() == want.tobytes(), (len(taus), strategy, workers)

    def test_small_chunks_hold_merged_pairs(self, rng):
        # one pixel per chunk: held one pair per chunk, 1,024 pairs of
        # arrays would take about 0.5 MiB
        g = ScalarGrid(rng.random((32, 32)))
        taus = uniform_thresholds(g, 256)
        tracemalloc.start()
        try:
            got = compute_ecc(g, taus, Chunked(1)).values
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got.tobytes() == dense_reference(g, taus).tobytes()
        assert peak < 0.2 * 2**20, peak

    def test_thresholds_below_the_grid_and_single_thresholds(self, rng):
        # 300 rows of 256 columns make two blocks
        g = ScalarGrid(rng.random((300, 256)).astype(np.float32).astype(np.float64))
        lo, hi = g.values.min(), g.values.max()
        middle = ThresholdSet([np.median(g.values)])
        cases = [
            (ThresholdSet(lo - np.arange(5.0, 0.0, -1.0)), np.zeros(5)),  # all in overflow
            (ThresholdSet([lo - 1.0]), [0]),
            (ThresholdSet([hi]), [1]),
            (middle, dense_reference(g, middle)),
        ]
        for taus, want in cases:
            for strategy, workers in ((FullSweep(), 1), (FullSweep(), 2), (Chunked(1000), 1)):
                got = compute_ecc(g, taus, strategy, workers).values
                assert got.dtype == np.int64
                assert np.array_equal(got, want), (taus, strategy, workers)


class TestFanOut:
    def test_pool_only_for_more_than_one_block(self, rng, pool_sizes):
        # 256 columns make 256-row blocks; every exact block runs on the
        # calling thread, at any worker count
        cases = ((256, FullSweep(), []), (512, FullSweep(), []), (512, Chunked(64), []))
        for rows, strategy, want in cases:
            g = ScalarGrid(rng.integers(0, 10, (rows, 256)).astype(np.float64))
            pool_sizes.clear()
            compute_ecc(g, uniform_thresholds(g, 9), strategy, workers=8)
            assert pool_sizes == want, (rows, strategy)

    def test_one_task_per_block_summed_in_block_order(self, monkeypatch):
        tasks = []

        class RecordingPool(ThreadPoolExecutor):
            def map(self, fn, starts):
                tasks.extend(starts)
                return super().map(fn, starts)

        def block(start, stop):  # later blocks finish first; the sum lists the blocks
            time.sleep((30 - start) * 1e-3)
            return [(start, stop)]

        monkeypatch.setattr(ecckit.coefficients, "ThreadPoolExecutor", RecordingPool)
        spans = [(start, min(30, start + 4)) for start in range(0, 30, 4)]
        assert _fan_out(block, 30, 4, 1) == spans and tasks == []
        assert _fan_out(block, 30, 4, 3) == spans and tasks == [start for start, _ in spans]


def dense_counts(pairs, taus):
    """Float64 coefficient total per bin, overflow last, of ``(bins, weights)`` pairs."""
    hist = np.zeros(len(taus) + 1)
    for bins, weights in pairs:
        np.add.at(hist, bins, weights)
    return hist


class TestSpanCounts:
    def test_equals_counts_of_whole_grid_coefficients(self, rng):
        for trial in range(80):
            g = random_int_grid(rng, 2 + trial % 2, 6, hi=3)
            taus = uniform_thresholds(g, 5)
            values = g.values.ravel()
            coeffs = compute_coefficients(g).coeffs.ravel()
            n, line, plane = g.size, g.dims[-1], g.size // g.dims[0]
            spans = [(0, n)]
            for _ in range(4):
                start = int(rng.integers(0, n))
                spans.append((start, start + 1))
                for extent in (line, plane):  # within the last-axis line or first-axis row
                    lo = start - start % extent
                    spans.append(tuple(sorted(rng.integers(lo, lo + extent + 1, 2))))
                spans.append((start, int(rng.integers(start, n)) + 1))
                if g.dims[0] > 1:  # from one first-axis row into a later one
                    first = int(rng.integers(0, n - plane))
                    spans.append((first, int(rng.integers(first - first % plane + plane, n)) + 1))
            for start, stop in spans:
                if start == stop:
                    continue
                bins = taus.bin_indices(values[start:stop])
                want = dense_counts([(bins, coeffs[start:stop])], taus)
                got = dense_counts(_span_counts(g, taus, start, stop), taus)
                assert got.tobytes() == want.tobytes(), (g.dims, start, stop)


class TestValidation:
    def test_bad_workers(self, rng):
        g = random_int_grid(rng, 2, 4)
        with pytest.raises(ValueError):
            compute_ecc(g, uniform_thresholds(g, 2), FullSweep(), 0)

    def test_bad_chunk_len(self):
        with pytest.raises(ValueError):
            Chunked(0)

    @pytest.mark.parametrize("bad", [2.5, 2.0, np.float64(2.0), "2", None],
                             ids=["float", "integral-float", "numpy-float", "str", "none"])
    def test_non_integer_workers_and_chunk_len(self, rng, bad):
        with pytest.raises(ValueError, match="chunk_len must be an integer"):
            Chunked(bad)
        for rows in (8, 512):  # one block, and two of 256 rows
            g = ScalarGrid(rng.random((rows, 256)))
            with pytest.raises(ValueError, match="workers must be an integer"):
                compute_ecc(g, uniform_thresholds(g, 9), FullSweep(), bad)
        coeffs = compute_coefficients(g)
        params = SoftEccParams(lam=5.0, alpha=0.0, u=np.array([1.0, 0.0]),
                               taus=uniform_thresholds(g, 9))
        with pytest.raises(ValueError, match="workers must be an integer"):
            soft_ecc(g, coeffs, params, bad)
        with pytest.raises(ValueError, match="workers must be an integer"):
            soft_ecc_backward(g, coeffs, params, np.ones(9), bad)

    def test_integer_types_are_accepted(self, rng):
        g = ScalarGrid(rng.random((512, 256)))
        taus = uniform_thresholds(g, 9)
        want = compute_ecc(g, taus).values
        for strategy, workers in ((Chunked(np.int64(4096)), np.int32(2)), (FullSweep(), True)):
            assert compute_ecc(g, taus, strategy, workers).values.tobytes() == want.tobytes()

    def test_parse_strategy(self):
        assert parse_strategy("fullsweep") == FullSweep()
        assert parse_strategy("chunked:64") == Chunked(64)
        with pytest.raises(ValueError):
            parse_strategy("sideways")
        with pytest.raises(ValueError):
            parse_strategy("chunked:0")
