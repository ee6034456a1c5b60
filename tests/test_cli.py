"""End-to-end command line exercises."""

import json

import numpy as np
import pytest

from ecckit import read_coefficients, read_curve, read_grid
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
                   "--strategy", "fullsweep", "--workers", "2",
                   "--output", out, "--emit-timing", timing) == 0
        curve = read_curve(out)
        assert curve.is_integral
        assert curve.values[-1] == 1
        record = json.loads(timing.read_text())
        assert record["strategy"] == "fullsweep"
        assert record["workers"] == 2
        assert record["dims"] == [24, 20]
        assert record["bins"] == 32
        assert record["wall_ms"] > 0

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

    def test_bins_and_taus_mutually_exclusive(self, grid_file, tmp_path):
        with pytest.raises(SystemExit):
            run("compute", "--input", grid_file, "--bins", "4",
                "--taus", "x.csv", "--output", tmp_path / "c.csv")

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
                   "--strategies", "fullsweep,chunked:50", "--workers", "1,2",
                   "--repeats", "2", "--seed", "3",
                   "--report", report, "--csv", csv_path)
        assert code == 0
        printed = capsys.readouterr().out
        assert "fullsweep" in printed and "chunked:50" in printed
        payload = json.loads(report.read_text())
        assert len(payload["rows"]) == 8
        assert csv_path.read_text().startswith("dims,")
