"""Acceptance suite: one test per release criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion with the measured numbers.  Criteria 1-6 and 8 are exact or
tolerance-pinned; criterion 7 reports wall-clock measurements taken on
this machine and asserts only the qualitative relationships.
"""

import time

import numpy as np
import pytest

from ecckit import (
    CellCounts,
    Chunked,
    CorruptionError,
    FormatError,
    FullSweep,
    ScalarGrid,
    SoftEccParams,
    SyntheticSpec,
    ThresholdSet,
    compute_coefficients,
    compute_ecc,
    count_cells,
    effective_field,
    generate_grid,
    gradient_check,
    oracle_ecc,
    read_grid,
    reparametrize_direction,
    soft_ecc,
    uniform_thresholds,
    write_grid,
)

SEED = 987654321


def report(criterion, detail):
    print(f"\nACCEPTANCE {criterion} PASS: {detail}")


def random_grids(rng, count, ndim, max_extent, lo=0, hi=9):
    for _ in range(count):
        dims = tuple(int(d) for d in rng.integers(1, max_extent + 1, ndim))
        yield ScalarGrid(rng.integers(lo, hi + 1, dims).astype(np.float64))


def test_criterion_1_oracle_equivalence():
    """200 seeded random grids: both strategies equal the oracle, exactly."""
    rng = np.random.default_rng(SEED)
    start = time.perf_counter()
    checked = 0
    for ndim, max_extent in ((2, 32), (3, 8)):
        for grid in random_grids(rng, 100, ndim, max_extent):
            taus = ThresholdSet(np.unique(grid.values))
            want = oracle_ecc(grid, taus).values
            full = compute_ecc(grid, taus, FullSweep()).values
            chunk = compute_ecc(grid, taus, Chunked(7)).values
            assert np.array_equal(full, want), f"fullsweep != oracle on {grid.dims}"
            assert np.array_equal(chunk, want), f"chunked != oracle on {grid.dims}"
            checked += 1
    elapsed = time.perf_counter() - start
    assert checked == 200
    assert elapsed < 60.0
    report(1, f"200 grids, every distinct value, integer-exact ({elapsed:.1f} s)")


def test_criterion_2_coefficient_identity_and_locality():
    """Coefficients sum to 1 and react only inside the local neighborhood."""
    rng = np.random.default_rng(SEED + 1)
    for ndim, max_extent in ((2, 32), (3, 8)):
        for grid in random_grids(rng, 25, ndim, max_extent):
            assert int(compute_coefficients(grid).coeffs.sum()) == 1

    perturbed = 0
    for ndim, max_extent in ((2, 16), (3, 7)):
        for grid in random_grids(rng, 25, ndim, max_extent):
            base = compute_coefficients(grid).coeffs
            target = tuple(int(rng.integers(0, d)) for d in grid.dims)
            edited = grid.values.copy()
            edited[target] = float(rng.integers(0, 10))
            after = compute_coefficients(ScalarGrid(edited)).coeffs
            for pix in np.argwhere(base != after):
                offset = max(abs(int(a) - b) for a, b in zip(pix, target))
                assert offset <= 1, f"coefficient changed {offset} pixels away"
            perturbed += 1
    assert perturbed == 50
    report(2, "sum(c)=1 on 100 grids; locality held on 50 perturbation trials")


def test_criterion_3_canonical_topology_fixtures():
    """Ring, solid square, spherical shell, solid cube."""
    ring = np.ones((3, 3), dtype=bool)
    ring[1, 1] = False
    assert count_cells(ring).euler_characteristic == 0

    assert count_cells(np.ones((2, 2), dtype=bool)).euler_characteristic == 1

    shell = np.ones((3, 3, 3), dtype=bool)
    shell[1, 1, 1] = False
    assert count_cells(shell).euler_characteristic == 2

    solid = count_cells(np.ones((3, 3, 3), dtype=bool))
    assert solid == CellCounts(n_vertices=27, n_edges=54, n_faces=36, n_cubes=8)
    assert solid.euler_characteristic == 1

    # the same shapes through the fast path
    peak2 = np.zeros((3, 3))
    peak2[1, 1] = 1.0
    assert np.array_equal(
        compute_ecc(ScalarGrid(peak2), ThresholdSet([0.0, 1.0])).values, [0, 1]
    )
    peak3 = np.zeros((3, 3, 3))
    peak3[1, 1, 1] = 1.0
    assert np.array_equal(
        compute_ecc(ScalarGrid(peak3), ThresholdSet([0.0, 1.0])).values, [2, 1]
    )
    report(3, "ring chi=0, square chi=1, shell chi=2, cube chi=1 (27-54+36-8)")


def test_criterion_4_gradient_checks():
    """Analytic gradients match finite differences on 16^2 grids."""
    rng = np.random.default_rng(SEED + 2)
    start = time.perf_counter()
    worst = {"d_values": 0.0, "d_tau": 0.0, "d_u": 0.0, "tangency": 0.0}
    runs = 0
    for g in range(20):
        grid = ScalarGrid(rng.integers(0, 10, (16, 16)) / 10.0)
        u = reparametrize_direction(rng.normal(size=2))
        for lam in (1.0, 10.0, 50.0):
            for alpha in (0.0, 0.3):
                taus = uniform_thresholds(effective_field(grid, alpha, u), 8)
                params = SoftEccParams(lam=lam, alpha=alpha, u=u, taus=taus)
                result = gradient_check(grid, params, step=1e-4, seed=g)
                for key in worst:
                    worst[key] = max(worst[key], result[key])
                assert result["d_values"] <= 1e-4, (g, lam, alpha, result)
                assert result["d_tau"] <= 1e-4, (g, lam, alpha, result)
                assert result["d_u"] <= 1e-4, (g, lam, alpha, result)
                assert result["tangency"] <= 1e-8, (g, lam, alpha, result)
                runs += 1
    elapsed = time.perf_counter() - start
    assert runs == 120
    assert elapsed < 120.0
    report(
        4,
        f"120 configs; worst rel err d_values {worst['d_values']:.2e}, "
        f"d_tau {worst['d_tau']:.2e}, d_u {worst['d_u']:.2e}, "
        f"tangency {worst['tangency']:.2e} ({elapsed:.1f} s)",
    )


def test_criterion_5_sharpness_convergence():
    """lam = 1e4 at midpoint thresholds: soft within 1e-6 of hard."""
    rng = np.random.default_rng(SEED + 3)
    worst = 0.0
    for _ in range(20):
        # values on a 0.01 lattice: consecutive distinct gaps >= 0.01
        grid = ScalarGrid(rng.integers(0, 101, (16, 16)) / 100.0)
        distinct = np.unique(grid.values)
        if distinct.size < 2:
            continue
        taus = ThresholdSet((distinct[:-1] + distinct[1:]) / 2)
        coeffs = compute_coefficients(grid)
        hard = compute_ecc(grid, taus).values
        params = SoftEccParams(
            lam=1e4, alpha=0.0, u=np.array([1.0, 0.0]), taus=taus
        )
        soft = soft_ecc(grid, coeffs, params).values
        gap = float(np.abs(soft - hard).max())
        worst = max(worst, gap)
        assert gap <= 1e-6
    report(5, f"20 grids, per-threshold |soft - hard| <= {worst:.2e} (limit 1e-6)")


def test_criterion_6_determinism():
    """Hard path bit-identical everywhere; soft path reproducible."""
    rng = np.random.default_rng(SEED + 4)
    for dims in ((37, 23), (9, 8, 7)):
        grid = ScalarGrid(rng.integers(0, 10, dims).astype(np.float64))
        taus = uniform_thresholds(grid, 16)
        reference = compute_ecc(grid, taus, FullSweep(), 1).values
        for strategy in (FullSweep(), Chunked(11), Chunked(4096)):
            for workers in (1, 2, 8):
                got = compute_ecc(grid, taus, strategy, workers).values
                assert got.tobytes() == reference.tobytes()

    grid = ScalarGrid(rng.random((48, 48)))
    coeffs = compute_coefficients(grid)
    params = SoftEccParams(
        lam=12.0, alpha=0.25,
        u=reparametrize_direction(rng.normal(size=2)),
        taus=uniform_thresholds(grid, 24),
    )
    base = {}
    for workers in (1, 2, 8):
        a = soft_ecc(grid, coeffs, params, workers=workers).values
        b = soft_ecc(grid, coeffs, params, workers=workers).values
        assert a.tobytes() == b.tobytes(), f"soft not reproducible at workers={workers}"
        base[workers] = a
    drift = max(
        float(np.abs(base[w] - base[1]).max()) for w in (2, 8)
    )
    assert drift <= 1e-10
    report(6, f"hard bit-identical over 2 grids x 3 strategies x {{1,2,8}} workers; "
              f"soft bit-identical per worker count, drift {drift:.1e} across counts")


def test_criterion_7_performance():
    """Qualitative speed relationships, measured on this machine."""
    import gc

    bins = 256

    def once_ms(fn):
        t0 = time.perf_counter()
        fn()
        return (time.perf_counter() - t0) * 1e3

    def best_ms(fn, reps):
        # scheduler noise only ever adds time, so the minimum over repeats
        # is the robust estimate of a deterministic computation's cost
        fn()  # warm-up
        gc.collect()
        return min(once_ms(fn) for _ in range(reps))

    def fullsweep_ms(dims, reps=9):
        grid = generate_grid(SyntheticSpec(kind="uniform-random", dims=dims, seed=11))
        taus = uniform_thresholds(grid, bins)
        ms = best_ms(lambda: compute_ecc(grid, taus, FullSweep(), 1), reps)
        return ms, grid, taus

    t256, _, _ = fullsweep_ms((256, 256))
    t512, g512, taus512 = fullsweep_ms((512, 512))
    g1024 = generate_grid(SyntheticSpec(kind="uniform-random", dims=(1024, 1024), seed=11))
    taus1024 = uniform_thresholds(g1024, bins)
    t4096, _, _ = fullsweep_ms((4096, 4096), reps=3)

    c512 = best_ms(lambda: compute_ecc(g512, taus512, Chunked(4096), 1), 5)
    c1024 = best_ms(lambda: compute_ecc(g1024, taus1024, Chunked(4096), 1), 5)

    # A shared CPU can hold one of two speeds for seconds at a time: longer
    # than a batch of sweeps, shorter than this loop.  Sampling the oracle
    # and the 1024^2 sweep in alternation and keeping each one's minimum
    # over all rounds lets both minima come from the same, faster state.
    fast = lambda: compute_ecc(g1024, taus1024, FullSweep(), 1)
    slow = lambda: oracle_ecc(g1024, taus1024)
    assert np.array_equal(slow().values, fast().values)
    gc.collect()
    t1024 = oracle_ms = float("inf")
    for _ in range(6):
        oracle_ms = min(oracle_ms, once_ms(slow))
        t1024 = min(t1024, *(once_ms(fast) for _ in range(3)))

    speedup_512 = c512 / t512
    speedup_1024 = c1024 / t1024
    oracle_ratio = oracle_ms / t1024
    scale_ratio = t4096 / t256
    pixel_ratio = (4096 * 4096) / (256 * 256)

    assert speedup_512 > 1.0, f"chunked {c512:.2f} ms vs fullsweep {t512:.2f} ms at 512^2"
    assert speedup_1024 > 1.0, f"chunked {c1024:.2f} ms vs fullsweep {t1024:.2f} ms at 1024^2"
    assert oracle_ratio >= 50.0, f"oracle {oracle_ms:.0f} ms vs fullsweep {t1024:.2f} ms"
    assert scale_ratio <= 1.5 * pixel_ratio, (
        f"256^2 -> 4096^2 time grew {scale_ratio:.0f}x vs {pixel_ratio:.0f}x pixels"
    )
    report(
        7,
        f"fullsweep ms 256^2/512^2/1024^2/4096^2 = "
        f"{t256:.2f}/{t512:.2f}/{t1024:.2f}/{t4096:.1f}; "
        f"vs chunked:4096 {speedup_512:.1f}x @512^2, {speedup_1024:.1f}x @1024^2; "
        f"vs oracle {oracle_ratio:.0f}x @1024^2 (oracle {oracle_ms:.0f} ms); "
        f"scaling {scale_ratio:.0f}x time for {pixel_ratio:.0f}x pixels",
    )


def test_criterion_8_file_format_round_trip(tmp_path):
    """50 random grids survive write -> read bit-exactly; bad files rejected."""
    rng = np.random.default_rng(SEED + 5)
    for i in range(50):
        ndim = 2 if i % 2 == 0 else 3
        dims = tuple(int(d) for d in rng.integers(1, 10, ndim))
        grid = ScalarGrid(rng.random(dims).astype(np.float32).astype(np.float64))
        path = tmp_path / f"grid{i}.eccg"
        write_grid(grid, path)
        first_bytes = path.read_bytes()
        back = read_grid(path)
        assert np.array_equal(back.values, grid.values)
        write_grid(back, path)
        assert path.read_bytes() == first_bytes

    good = tmp_path / "good.eccg"
    write_grid(ScalarGrid(np.zeros((3, 3))), good)
    blob = bytearray(good.read_bytes())

    bad_magic = tmp_path / "bad_magic.eccg"
    corrupted = bytearray(blob)
    corrupted[:4] = b"JUNK"
    bad_magic.write_bytes(bytes(corrupted))
    with pytest.raises(FormatError):
        read_grid(bad_magic)

    bad_ndim = tmp_path / "bad_ndim.eccg"
    corrupted = bytearray(blob)
    corrupted[5] = 7
    bad_ndim.write_bytes(bytes(corrupted))
    with pytest.raises(FormatError):
        read_grid(bad_ndim)

    short = tmp_path / "short.eccg"
    short.write_bytes(bytes(blob[:-8]))
    with pytest.raises(CorruptionError):
        read_grid(short)

    report(8, "50 grids round-tripped bit-exactly; malformed headers rejected")
