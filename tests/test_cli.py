"""End-to-end command line exercises."""

import json

import numpy as np
import pytest

from ecckit import (
    SoftEccParams,
    compute_coefficients,
    effective_field,
    read_coefficients,
    read_curve,
    read_grid,
    reparametrize_direction,
    soft_ecc,
    uniform_thresholds,
    write_curve,
)
from ecckit.cli import main


def run(*argv):
    return main([str(a) for a in argv])


@pytest.fixture
def grid_file(tmp_path):
    path = tmp_path / "g.eccg"
    assert run("generate", "--kind", "gaussian-blobs", "--dims", "24x20",
               "--seed", "7", "--output", path) == 0
    return path


class TestGenerate:
    def test_writes_readable_grid(self, grid_file):
        g = read_grid(grid_file)
        assert g.dims == (24, 20)

    def test_3d_dims(self, tmp_path):
        out = tmp_path / "g3.eccg"
        assert run("generate", "--kind", "uniform-random", "--dims", "6x5x4",
                   "--seed", "1", "--output", out) == 0
        assert read_grid(out).dims == (6, 5, 4)

    def test_seed_reproducible(self, tmp_path):
        a, b = tmp_path / "a.eccg", tmp_path / "b.eccg"
        run("generate", "--dims", "9x9", "--seed", "3", "--output", a)
        run("generate", "--dims", "9x9", "--seed", "3", "--output", b)
        assert a.read_bytes() == b.read_bytes()


class TestCompute:
    def test_curve_and_timing(self, grid_file, tmp_path):
        out = tmp_path / "curve.csv"
        timing = tmp_path / "timing.json"
        assert run("compute", "--input", grid_file, "--bins", "32",
                   "--strategy", "fullsweep",
                   "--output", out, "--emit-timing", timing) == 0
        curve = read_curve(out)
        assert curve.is_integral
        assert curve.values[-1] == 1
        record = json.loads(timing.read_text())
        assert sorted(record) == [
            "bin_rounds", "bins", "block_pixels", "blocks", "dims", "strategy", "wall_ms"
        ]
        assert record["strategy"] == "fullsweep"
        assert record["dims"] == [24, 20]
        assert record["bins"] == 32
        assert record["bin_rounds"] == 1  # evenly spaced: keyed block histograms
        assert record["wall_ms"] > 0

    def test_timing_reports_bin_rounds(self, grid_file, tmp_path):
        # 0 for a direct search, 1 for keyed block histograms, the halving
        # rounds of the set's table otherwise
        out, timing, taus = tmp_path / "curve.csv", tmp_path / "t.json", tmp_path / "taus.csv"
        clustered = np.concatenate([np.linspace(0.0, 0.4, 50), 0.5 + 1e-6 * np.arange(100)])
        taus.write_text("threshold\n" + "\n".join(map(repr, clustered.tolist())) + "\n")
        cases = [
            (["--bins", "8"], 1),
            (["--bins", "100000"], 0),  # 480 pixels: fewer than one per 64 thresholds
            (["--taus", taus], 7),  # 100 thresholds in one bucket
        ]
        for option, rounds in cases:
            assert run("compute", "--input", grid_file, *option, "--output", out,
                       "--emit-timing", timing) == 0
            assert json.loads(timing.read_text())["bin_rounds"] == rounds, option

    @pytest.mark.parametrize("dims, strategy, block_pixels, blocks", [
        ("24x20", "fullsweep", 480, 1),  # the grid fits one block
        ("12x128x128", "fullsweep", 5 * 128 * 128, 3),  # five 16,384-pixel rows fit the budget
        ("24x20", "chunked:64", 60, 8),  # three 20-pixel rows fit 64 pixels
        ("12x128x128", "chunked:4096", 128 * 128, 12),  # a chunk within a row is one row
        ("24x20", "chunked:1000", 480, 1),  # a chunk past the grid is the grid
    ])
    def test_timing_reports_blocks(self, tmp_path, dims, strategy, block_pixels, blocks):
        grid, out, timing = tmp_path / "g.eccg", tmp_path / "curve.csv", tmp_path / "t.json"
        run("generate", "--kind", "uniform-random", "--dims", dims, "--output", grid)
        assert run("compute", "--input", grid, "--bins", "8", "--strategy", strategy,
                   "--output", out, "--emit-timing", timing) == 0
        record = json.loads(timing.read_text())
        assert (record["block_pixels"], record["blocks"]) == (block_pixels, blocks)

    def test_workers_option_is_gone(self, grid_file, tmp_path, capsys):
        # exact blocks run on the calling thread, so a worker count would change nothing
        with pytest.raises(SystemExit) as exc:
            run("compute", "--input", grid_file, "--bins", "8", "--workers", "2",
                "--output", tmp_path / "curve.csv")
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "usage:" in err and "unrecognized arguments: --workers" in err

    def test_chunked_strategy_matches(self, grid_file, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run("compute", "--input", grid_file, "--bins", "16", "--output", a)
        run("compute", "--input", grid_file, "--bins", "16",
            "--strategy", "chunked:64", "--output", b)
        assert a.read_bytes() == b.read_bytes()

    def test_taus_file(self, grid_file, tmp_path):
        taus_file = tmp_path / "taus.csv"
        taus_file.write_text("threshold\n0.25\n0.5\n0.75\n")
        out = tmp_path / "curve.csv"
        assert run("compute", "--input", grid_file, "--taus", taus_file,
                   "--output", out) == 0
        curve = read_curve(out)
        assert np.array_equal(curve.taus, [0.25, 0.5, 0.75])
        # uneven thresholds, some below and some above the grid's range
        values = read_grid(grid_file).values
        lo, hi = float(values.min()), float(values.max())
        inside = np.quantile(values, np.linspace(0.0, 1.0, 40) ** 3)
        taus = np.unique(np.concatenate([[lo - 1.0, lo - 1e-3], inside, [hi + 1e-3, hi + 5.0]]))
        taus_file.write_text("threshold\n" + "\n".join(repr(t) for t in taus.tolist()) + "\n")
        exact, oracle = tmp_path / "exact.csv", tmp_path / "oracle.csv"
        assert run("compute", "--input", grid_file, "--taus", taus_file, "--output", exact) == 0
        assert run("oracle", "--input", grid_file, "--taus", taus_file, "--output", oracle) == 0
        curve = read_curve(exact)
        assert np.array_equal(curve.taus, taus)
        assert curve.values[:2].tolist() == [0, 0] and curve.values[-2:].tolist() == [1, 1]
        assert exact.read_bytes() == oracle.read_bytes()

    def test_bins_and_taus_mutually_exclusive(self, grid_file, tmp_path):
        with pytest.raises(SystemExit):
            run("compute", "--input", grid_file, "--bins", "4",
                "--taus", "x.csv", "--output", tmp_path / "c.csv")

    @pytest.mark.parametrize("strategy", ["chunked:x", "chunked:0", "sideways"])
    def test_bad_strategy_is_a_usage_error(self, grid_file, tmp_path, strategy, capsys):
        with pytest.raises(SystemExit) as exc:
            run("compute", "--input", grid_file, "--bins", "4", "--strategy", strategy,
                "--output", tmp_path / "c.csv")
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "--strategy" in err and "fullsweep or chunked:<k>" in err

    def test_malformed_input_fails_cleanly(self, tmp_path, capsys):
        bad = tmp_path / "bad.eccg"
        bad.write_bytes(b"NOPE" + bytes(20))
        code = run("compute", "--input", bad, "--bins", "4",
                   "--output", tmp_path / "c.csv")
        assert code == 2
        assert "error" in capsys.readouterr().err


class TestOracle:
    def test_diffable_against_compute(self, grid_file, tmp_path):
        a, b = tmp_path / "fast.csv", tmp_path / "slow.csv"
        run("compute", "--input", grid_file, "--bins", "8", "--output", a)
        assert run("oracle", "--input", grid_file, "--bins", "8", "--output", b) == 0
        assert a.read_bytes() == b.read_bytes()


class TestSoft:
    def test_writes_float_curve(self, grid_file, tmp_path):
        out = tmp_path / "soft.csv"
        assert run("soft", "--input", grid_file, "--bins", "12",
                   "--lambda", "25", "--output", out) == 0
        curve = read_curve(out)
        assert not curve.is_integral
        assert len(curve) == 12

    def test_direction_accepted(self, grid_file, tmp_path):
        out = tmp_path / "soft.csv"
        assert run("soft", "--input", grid_file, "--bins", "6", "--lambda", "10",
                   "--alpha", "0.4", "--direction", "3,4", "--output", out) == 0
        assert len(read_curve(out)) == 6

    def test_curve_is_the_library_curve(self, grid_file, tmp_path):
        out, want = tmp_path / "soft.csv", tmp_path / "want.csv"
        assert run("soft", "--input", grid_file, "--bins", "6", "--lambda", "10",
                   "--alpha", "0.4", "--direction", "3,4", "--output", out) == 0
        grid = read_grid(grid_file)
        u = reparametrize_direction([3.0, 4.0])
        params = SoftEccParams(lam=10.0, alpha=0.4, u=u, taus=uniform_thresholds(grid, 6))
        coeffs = compute_coefficients(effective_field(grid, 0.4, u))
        for workers in (1, 2):
            write_curve(soft_ecc(grid, coeffs, params, workers), want)
            assert out.read_bytes() == want.read_bytes(), workers

    def test_workers_option_is_gone(self, grid_file, tmp_path, capsys):
        # sigmoid blocks run on the calling thread, so a worker count would change nothing
        with pytest.raises(SystemExit) as exc:
            run("soft", "--input", grid_file, "--bins", "6", "--lambda", "10",
                "--workers", "2", "--output", tmp_path / "soft.csv")
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "usage:" in err and "unrecognized arguments: --workers" in err

    def test_bad_direction_is_a_usage_error(self, grid_file, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            run("soft", "--input", grid_file, "--bins", "6", "--lambda", "10",
                "--direction", "1,x", "--output", tmp_path / "soft.csv")
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "usage:" in err and "bad direction '1,x'" in err

    def test_direction_of_wrong_length_rejected(self, grid_file, tmp_path, capsys):
        code = run("soft", "--input", grid_file, "--bins", "6", "--lambda", "10",
                   "--direction", "1,0,0", "--output", tmp_path / "soft.csv")
        assert code == 2
        assert "direction has 3 components for a 2D grid" in capsys.readouterr().err


class TestGradcheck:
    def test_report_contents(self, tmp_path):
        grid = tmp_path / "g.eccg"
        run("generate", "--dims", "6x6", "--seed", "2", "--output", grid)
        report_path = tmp_path / "report.json"
        code = run("gradcheck", "--input", grid, "--lambda", "10",
                   "--alpha", "0.3", "--bins", "5", "--seed", "4",
                   "--report", report_path)
        assert code == 0
        report = json.loads(report_path.read_text())
        assert report["pass"] is True
        for key in ("d_values", "d_tau", "d_u", "tangency"):
            assert report[key] <= 1e-4


class TestCoeffs:
    def test_dump(self, grid_file, tmp_path):
        out = tmp_path / "c.eccg"
        assert run("coeffs", "--input", grid_file, "--output", out) == 0
        cg = read_coefficients(out)
        assert cg.dims == (24, 20)
        assert int(cg.coeffs.sum()) == 1


class TestBench:
    def test_small_run(self, tmp_path, capsys):
        report = tmp_path / "bench.json"
        csv_path = tmp_path / "bench.csv"
        code = run("bench", "--sizes", "12x12,6x6x6", "--bins", "8",
                   "--strategies", "fullsweep,chunked:50",
                   "--repeats", "2", "--seed", "3",
                   "--report", report, "--csv", csv_path)
        assert code == 0
        printed = capsys.readouterr().out
        assert "fullsweep" in printed and "chunked:50" in printed
        payload = json.loads(report.read_text())
        assert len(payload["rows"]) == 4
        assert all("workers" not in row for row in payload["rows"])
        assert csv_path.read_text().startswith("dims,bins,strategy,repeats,")

    def test_diverging_curves_exit_3(self, diverging_chunked, capsys):
        code = run("bench", "--sizes", "6x6", "--bins", "4",
                   "--strategies", "fullsweep,chunked:9", "--repeats", "1")
        assert code == 3
        assert "error: curves diverged" in capsys.readouterr().err

    def test_workers_option_is_gone(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run("bench", "--sizes", "8x8", "--workers", "1")
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "usage:" in err and "unrecognized arguments: --workers" in err

    @pytest.mark.parametrize("sizes", ["12x", "12", "axb", "8x8x8x8", "12x12,7"])
    def test_bad_size_is_a_usage_error(self, sizes, capsys):
        with pytest.raises(SystemExit) as exc:
            run("bench", "--sizes", sizes)
        assert exc.value.code == 2
        assert "usage:" in capsys.readouterr().err

    @pytest.mark.parametrize("option, text, form", [
        ("--strategies", "chunked:x", "fullsweep or chunked:<k>"),
        ("--strategies", "fullsweep,chunked:", "fullsweep or chunked:<k>"),
    ])
    def test_bad_strategy_or_workers_is_a_usage_error(self, option, text, form, capsys):
        with pytest.raises(SystemExit) as exc:
            run("bench", "--sizes", "8x8", option, text)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "usage:" in err and option in err and form in err
