"""Histogram accumulation: strategies, the block loop and oracle equivalence."""

import hashlib
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ecckit.coefficients
import ecckit.grid
import ecckit.hard
from ecckit import (
    Chunked,
    FullSweep,
    ScalarGrid,
    SyntheticSpec,
    ThresholdSet,
    compute_coefficients,
    compute_ecc,
    curve_checksum,
    generate_grid,
    oracle_ecc,
    parse_strategy,
    uniform_thresholds,
)
from ecckit.coefficients import _blocks, _row_block
from ecckit.hard import _block_rows, _span_bins
from ecckit.soft import SoftEccParams, soft_ecc, soft_ecc_backward

from conftest import random_f32_grid, random_int_grid


@pytest.fixture
def row_blocks(monkeypatch):
    """Pins FullSweep's block height, for a test laid out around block edges;
    ``Chunked(k)`` keeps the most whole rows within ``k`` pixels."""

    def pin(rows):
        monkeypatch.setattr(ecckit.hard, "_row_block",
                            lambda dims, pixels=None: rows if pixels is None else _row_block(dims, pixels))

    return pin


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
    def test_bit_identical_across_strategies_and_workers(self, rng, row_blocks):
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
        # blocks of 256 rows, two here: each call gets a fresh set, so
        # workers meet its bucket table on first use
        row_blocks(256)
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
    def test_blocks_on_both_sides_of_the_compaction_rule(self, rng, monkeypatch, row_blocks):
        # blocks of 256 rows: rows [0, 300) are constant, so
        # their coefficients vanish; the random rows are ~60% critical.
        # Every block, of either kind, is compacted to its critical pixels
        # by the lookup, which returns no zero weight
        row_blocks(256)
        vals = np.full((512, 256), 4.5)
        vals[300:] = rng.integers(0, 10, (212, 256))
        g = ScalarGrid(vals)
        taus = ThresholdSet(np.unique(vals))
        want = oracle_ecc(g, taus).values

        blocks, returned = [], []
        span_bins, bin_pairs = ecckit.hard._span_bins, ThresholdSet._bin_pairs

        def counting_span_bins(*args):
            blocks.append(1)
            return span_bins(*args)

        def spy_pairs(self, v, weights=None):
            pair = bin_pairs(self, v, weights)
            returned.append(pair[1])
            return pair

        monkeypatch.setattr(ecckit.hard, "_span_bins", counting_span_bins)
        monkeypatch.setattr(ThresholdSet, "_bin_pairs", spy_pairs)
        for strategy in (FullSweep(), Chunked(4096)):
            for workers in (1, 2, 8):
                blocks.clear()
                returned.clear()
                got = compute_ecc(g, taus, strategy, workers).values
                assert got.tobytes() == want.tobytes(), (strategy, workers)
                assert 0 < len(returned) == len(blocks), (strategy, workers)
                assert all(w is not None and w.all() for w in returned), (strategy, workers)

    def test_no_flat_index_is_held_while_binning(self):
        # 1024**2 uniform-random float32, 256 thresholds: blocks of 80 rows,
        # ~58% critical; the int64 index of the critical pixels, held while
        # they were binned, took the peak from 1.15 to 1.52 MiB
        g = ScalarGrid(np.random.default_rng(1).random((1024, 1024)).astype(np.float32))
        taus = uniform_thresholds(g, 256)
        compute_ecc(g, taus)  # builds the set's bucket table first
        tracemalloc.start()
        try:
            compute_ecc(g, taus)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.3 * 2**20, peak / 2**20


class TestBlockHistograms:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_histogram_and_per_pixel_blocks_in_one_call(self, rng, monkeypatch, row_blocks, dtype):
        # blocks of 12 rows or, under Chunked(4096), 16 rows: random rows
        # [0, 12) give blocks of more critical pixels than the 2(2T + 1)
        # bucket keys of T = 7 or 256 evenly spaced thresholds, which are
        # folded into key histograms; a plateau in rows [12, 36), with three
        # dips in rows [24, 36), gives blocks of fewer, binned per pixel.
        # Chunked(1) and Chunked(7) walk one 256-pixel row at a time, folded
        # where a random row holds 30 keys' worth (T = 7) and binned per
        # pixel otherwise
        row_blocks(12)
        binned, folded = [], []
        bin_pairs, bincount = ThresholdSet._bin_pairs, np.bincount

        def spy_pairs(self, v, weights=None):
            binned.append(weights is not None)
            return bin_pairs(self, v, weights)

        class SpyingNumpy:  # numpy, with the bincount that folds keys spied on
            def __getattr__(self, name):
                return getattr(np, name)

            @staticmethod
            def bincount(keys, weights=None, minlength=0):
                folded.append(keys.size)
                return bincount(keys, weights, minlength)

        for dims in ((36, 16, 16), (36, 256)):
            vals = np.full(dims, 0.5)
            vals[:12] = rng.random((12, *dims[1:]))
            vals[24:].flat[rng.integers(0, vals[24:].size, 3)] = rng.random(3) * 0.4
            g = ScalarGrid(vals.astype(dtype))
            for taus in (uniform_thresholds(g, 7), uniform_thresholds(g, 256)):
                want = dense_reference(g, taus)
                compute_ecc(g, taus)  # builds the set's bucket table first
                assert taus._tables[g.values.dtype][4] == 1  # one round: keys
                keys = 2 * (2 * len(taus) + 1)
                critical = np.count_nonzero(compute_coefficients(g).coeffs.reshape(36, -1), axis=1)
                for strategy in (FullSweep(), Chunked(1), Chunked(7), Chunked(4096)):
                    with monkeypatch.context() as m:
                        m.setattr(ThresholdSet, "_bin_pairs", spy_pairs)
                        m.setattr(ecckit.grid, "np", SpyingNumpy())
                        binned.clear()
                        folded.clear()
                        got = compute_ecc(g, taus, strategy).values
                    assert got.tobytes() == want.tobytes(), (dims, len(taus), strategy)
                    per_block = np.add.reduceat(critical, range(0, 36, _block_rows(g, strategy)))
                    assert all(binned) and len(binned) == per_block.size
                    assert all(size >= keys for size in folded)
                    assert len(folded) == np.count_nonzero(per_block >= keys), (dims, strategy)
                    if strategy in (FullSweep(), Chunked(4096)) or len(taus) == 7:
                        assert 0 < len(folded) < len(binned), (dims, len(taus), strategy)
                    else:
                        assert not folded, (dims, len(taus), strategy)


class TestStepAssembly:
    def test_a_million_uneven_thresholds(self, rng, row_blocks):
        # blocks of 218 rows, three of them, each with fewer pixels than
        # thresholds
        row_blocks(218)
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

    def test_sparse_pairs_and_dense_counts_both_run(self, rng, monkeypatch, row_blocks):
        # blocks of 64 rows or 16-row chunks against n = 1001 evenly spaced
        # thresholds (a one-round table): rows [0, 300) are a plateau with one
        # dip, fewer critical pixels than thresholds; rows [300, 400) are
        # random in 40 columns, fewer per chunk but more over three chunks,
        # and more than n but fewer than the 4n + 2 bucket keys in rows
        # [320, 384), a pair per critical pixel; rows [400, 512) are random,
        # so each 16-row chunk gives more than n pairs, and each 64-row block
        # a block-local key histogram of fewer than n nonzero keys
        row_blocks(64)
        vals = np.full((512, 256), 4.5)
        vals[100, 100] = 3.0
        vals[300:400, :40] = rng.integers(0, 1000, (100, 40))
        vals[400:] = rng.integers(0, 1000, (112, 256))
        g = ScalarGrid(vals)
        taus = ThresholdSet(np.unique(vals))
        n = len(taus)
        want = dense_reference(g, taus)

        # each block's pairs, the histograms made and the pairs counted into
        # one, in call order
        events = []
        span_bins = ecckit.hard._span_bins

        def spy(*args):
            pair = span_bins(*args)
            events.append(("block", pair[0].size))
            folded.append(pair[1].dtype == np.float64)  # key sums, not int8 coefficients
            return pair

        class CountingNumpy:
            def __getattr__(self, name):
                return getattr(np, name)

            def zeros(self, shape):
                events.append(("histogram", shape))
                return np.zeros(shape)

            class add:
                @staticmethod
                def at(hist, bins, weights):
                    events.append(("count", bins.size))
                    np.add.at(hist, bins, weights)

        monkeypatch.setattr(ecckit.hard, "_span_bins", spy)
        monkeypatch.setattr(ecckit.hard, "np", CountingNumpy())
        folded = []
        for strategy in (FullSweep(), Chunked(4096)):
            for workers in (1, 2, 8):
                events.clear()
                folded.clear()
                got = compute_ecc(g, taus, strategy, workers).values
                assert got.tobytes() == want.tobytes(), (strategy, workers)
                assert any(folded) == isinstance(strategy, FullSweep) and not all(folded), strategy
                # one histogram of n + 1 bins, made before the first count
                assert [e for e in events if e[0] == "histogram"] == [("histogram", n + 1)]
                assert events.index(("histogram", n + 1)) < [e[0] for e in events].index("count")
                # after each block, the held pairs are counted before the next
                # block is computed once they number at least n, and only then;
                # the last block's remainder is counted into the histogram
                segments = []  # [pairs of a block, pairs counted right after it]
                for kind, size in events:
                    if kind == "block":
                        segments.append([size, 0])
                    elif kind == "count":
                        segments[-1][1] += size
                sizes = [size for size, _ in segments]
                assert min(sizes) < n <= max(sizes), (strategy, sizes)
                held = 0
                for i, (size, counted) in enumerate(segments):
                    held += size
                    last = i == len(segments) - 1
                    assert counted == (held if held >= n or last else 0), (strategy, i)
                    held -= counted
                assert any(counted > size for size, counted in segments), strategy  # several blocks
                counts = sum(1 for _, counted in segments if counted)
                assert counts <= sum(sizes) // n + 1, (strategy, counts)

    def test_dense_count_and_sorted_steps_agree(self, rng, row_blocks):
        # blocks of 218 rows hold fewer pixels than either set has thresholds,
        # so every critical pixel is one pair: at least a quarter of every
        # distinct value (dense count), under a quarter of nine times as many
        row_blocks(218)
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

    def test_small_chunks_hold_merged_pairs(self, rng, monkeypatch):
        # one 2-pixel row per block: about 1,975 pairs, fewer than the
        # 2,048 thresholds, are held to the end, and held one pair of arrays
        # per block they took 0.51 MiB; merged once more than 64 are held, 0.07
        g = ScalarGrid(rng.random((2048, 2)))
        taus = uniform_thresholds(g, 2048)
        span_bins, blocks = ecckit.hard._span_bins, [0]

        def counting_span_bins(*args):
            blocks[0] += 1
            return span_bins(*args)

        monkeypatch.setattr(ecckit.hard, "_span_bins", counting_span_bins)
        tracemalloc.start()
        try:
            got = compute_ecc(g, taus, Chunked(1)).values
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert blocks == [2048]
        assert got.tobytes() == dense_reference(g, taus).tobytes()
        assert peak < 0.2 * 2**20, peak

    def test_many_thresholds_fold_into_one_histogram(self):
        # 1024**2 uniform-random float32: 610,648 critical pixels, about
        # 47,000 per FullSweep block and 2,400 per chunk, against 100,000
        # thresholds; holding every pair to the end peaked at 15.9 MiB
        g = ScalarGrid(np.random.default_rng(3).random((1024, 1024)).astype(np.float32))
        taus = uniform_thresholds(g, 100_000)
        want = dense_reference(g, taus)
        for strategy in (FullSweep(), Chunked(4096)):
            compute_ecc(g, taus, strategy)  # builds the set's bucket table first
            tracemalloc.start()
            try:
                got = compute_ecc(g, taus, strategy).values
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert got.tobytes() == want.tobytes(), strategy
            assert peak <= 4 * 2**20, (strategy, peak / 2**20)

    def test_thresholds_below_the_grid_and_single_thresholds(self, rng, row_blocks):
        # 300 rows in blocks of 256 make two blocks
        row_blocks(256)
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
    def test_every_block_runs_on_the_calling_thread(self, rng, block_threads, row_blocks):
        # blocks of 256 rows, at every worker count
        row_blocks(256)
        caller = threading.get_ident()
        cases = ((256, FullSweep(), 1), (512, FullSweep(), 2), (512, Chunked(64 * 256), 8))
        for rows, strategy, blocks in cases:
            g = ScalarGrid(rng.integers(0, 10, (rows, 256)).astype(np.float64))
            for workers in (1, 2, 8):
                block_threads.clear()
                compute_ecc(g, uniform_thresholds(g, 9), strategy, workers)
                assert block_threads == [caller] * blocks, (rows, strategy, workers)
        g = ScalarGrid(rng.random((1100, 256)))  # the byte budget makes blocks of 321 rows
        block_threads.clear()
        compute_coefficients(g)
        assert block_threads == [caller] * 4

    def test_one_task_per_block_summed_in_block_order(self):
        # one call per block, each made when its result is asked for, and
        # the results in block order, for the caller to fold
        tasks = []

        def block(start, stop):
            tasks.append(start)
            return start, stop

        spans = [(start, min(30, start + 4)) for start in range(0, 30, 4)]
        blocks = _blocks(block, 30, 4)
        assert tasks == []
        assert list(blocks) == spans and tasks == [start for start, _ in spans]
        assert list(_blocks(block, 0, 4)) == [(0, 0)]  # empty input is one empty block

    def test_one_worker_runs_each_block_when_asked(self):
        ran = []

        def block(start, stop):
            ran.append(start)
            return start

        blocks = _blocks(block, 30, 4)
        assert ran == []
        assert next(blocks) == 0 and ran == [0]
        assert next(blocks) == 4 and ran == [0, 4]
        assert list(blocks) == list(range(8, 30, 4)) and ran == list(range(0, 30, 4))


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
            rows = g.dims[0]
            values = g.values.reshape(rows, -1)
            coeffs = compute_coefficients(g).coeffs.reshape(rows, -1)
            spans = [(0, rows), *((r, r + 1) for r in range(rows))]  # the grid, each row
            for _ in range(4):  # a run of rows
                spans.append(tuple(sorted(rng.choice(rows + 1, 2, replace=False))))
            for r0, r1 in spans:
                bins = taus.bin_indices(values[r0:r1].ravel())
                want = dense_counts([(bins, coeffs[r0:r1].ravel())], taus)
                got = dense_counts([_span_bins(g, taus, r0, r1)], taus)
                assert got.tobytes() == want.tobytes(), (g.dims, r0, r1)

    @pytest.mark.parametrize("dims", [(300, 64), (8, 80, 80)])
    def test_every_block_reads_the_grid_in_place(self, rng, monkeypatch, dims):
        # each block's kernel and lookup read the grid's own rows, with no
        # copy; the 3D grid's 6,400-pixel planes are wider than 4,096 pixels
        g = ScalarGrid(rng.random(dims).astype(np.float32))
        taus = uniform_thresholds(g, 16)
        want = dense_reference(g, taus).tobytes()
        lines, bin_pairs, reads = ecckit.coefficients._lines, ThresholdSet._bin_pairs, []

        def spy_lines(flat, i0, shape, slabs, shift=0):
            if len(slabs) == len(shape) - 1:  # the kernel's outermost level: the block's rows
                reads.append(("kernel", np.shares_memory(flat, g.values)))
            return lines(flat, i0, shape, slabs, shift)

        def spy_pairs(self, v, weights=None):
            reads.append(("values", np.shares_memory(v, g.values)))
            return bin_pairs(self, v, weights)

        monkeypatch.setattr(ecckit.coefficients, "_lines", spy_lines)
        monkeypatch.setattr(ThresholdSet, "_bin_pairs", spy_pairs)
        for strategy in (FullSweep(), Chunked(4096), Chunked(1)):
            reads.clear()
            assert compute_ecc(g, taus, strategy).values.tobytes() == want, strategy
            blocks = -(-g.dims[0] // _block_rows(g, strategy))
            assert reads == [("kernel", True), ("values", True)] * blocks, strategy


#: sha256 of :class:`TestPinnedCurves`' curve checksums: a change to the
#: coefficient kernel, binning or fold must leave every exact curve
#: bit-identical, so only a change of the curves' checksum format moves it.
PINNED_CURVES = "2f3a25f1934891eda1257a1650d6bcee371d5c6a6c955cdd8e9d4a84e27a5def"


class TestPinnedCurves:
    def test_curves_are_bit_identical_to_the_pinned_digest(self):
        # uniform-random and tie-heavy grids, 2D and 3D, each spanning 3 FullSweep
        # blocks; float64 values no float32 holds.  No gaussian blobs: their exp
        # can differ by an ulp between libm builds.
        digest = hashlib.sha256()
        for dims in [(400, 512), (20, 96, 96)]:
            assert _row_block(dims) < dims[0] / 2
            base = generate_grid(SyntheticSpec("uniform-random", dims, seed=29)).values
            for v in (base, np.floor(8 * base)):
                for values in (v, v.astype(np.float64) * np.pi - 0.1):
                    g = ScalarGrid(values)
                    for taus in (uniform_thresholds(g, 7), uniform_thresholds(g, 256),
                                 ThresholdSet(np.unique(values))):
                        for strategy in (FullSweep(), Chunked(4096)):
                            digest.update(curve_checksum(compute_ecc(g, taus, strategy)).encode())
        assert digest.hexdigest() == PINNED_CURVES


class TestValidation:
    def test_bad_workers(self, rng):
        g = random_int_grid(rng, 2, 4)
        with pytest.raises(ValueError):
            compute_ecc(g, uniform_thresholds(g, 2), FullSweep(), 0)

    def test_unknown_strategy_is_a_type_error(self, rng):
        g = random_int_grid(rng, 2, 4)
        with pytest.raises(TypeError, match="unknown strategy 'fullsweep'"):
            compute_ecc(g, uniform_thresholds(g, 2), "fullsweep")

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
