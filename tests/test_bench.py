"""Benchmark harness: timing records and the correctness gate."""

import csv
import hashlib
import json

import numpy as np
import pytest

import ecckit.bench as bench_mod
from ecckit import (
    ChecksumMismatch,
    Chunked,
    EulerCurve,
    FullSweep,
    curve_checksum,
    run_benchmark,
    write_report_csv,
    write_report_json,
)


def tiny_report():
    return run_benchmark(
        sizes=[(12, 12), (8, 8, 8)],
        bins=16,
        strategies=[FullSweep(), Chunked(37)],
        repeats=3,
        seed=5,
    )


class TestRunBenchmark:
    def test_rows_and_checksums(self):
        report = tiny_report()
        assert len(report.rows) == 2 * 2
        for dims in [(12, 12), (8, 8, 8)]:
            digests = {r.checksum for r in report.rows if r.dims == dims}
            assert len(digests) == 1
        for row in report.rows:
            assert row.repeats == 3
            assert row.wall_ms > 0

    def test_median_not_mean(self, monkeypatch):
        # pretend the three repeats took 3 s, 100 s, 4 s: median 4 s
        class FakeTime:
            ticks = iter([0.0, 3.0, 3.0, 103.0, 103.0, 107.0])

            @classmethod
            def perf_counter(cls):
                return next(cls.ticks)

        monkeypatch.setattr(bench_mod, "time", FakeTime)
        report = run_benchmark([(4, 4)], 4, [FullSweep()], repeats=3)
        assert report.rows[0].wall_ms == pytest.approx(4.0 * 1e3)

    def test_gate_aborts_on_divergence(self, diverging_chunked):
        with pytest.raises(ChecksumMismatch):
            run_benchmark([(6, 6)], 4, [FullSweep(), Chunked(9)], repeats=1)

    def test_bad_repeats(self):
        for repeats in (0, -1, 2.5, "3", None):
            with pytest.raises(ValueError, match="repeats"):
                run_benchmark([(4, 4)], 4, [FullSweep()], repeats=repeats)


class TestChecksum:
    def test_sensitive_to_values_and_taus(self):
        taus = np.array([0.0, 1.0])
        a = curve_checksum(EulerCurve(taus, np.array([0, 1], dtype=np.int64)))
        b = curve_checksum(EulerCurve(taus, np.array([1, 1], dtype=np.int64)))
        c = curve_checksum(EulerCurve(taus + 1, np.array([0, 1], dtype=np.int64)))
        assert len({a, b, c}) == 3

    @staticmethod
    def copying_checksum(curve):
        # the formula before hashing without copies: astype, then tobytes
        h = hashlib.sha256()
        h.update(curve.taus.astype("<f8").tobytes())
        wire = "<i8" if curve.is_integral else "<f8"
        h.update(wire.encode())
        h.update(curve.values.astype(wire).tobytes())
        return h.hexdigest()

    def test_matches_copying_formula(self):
        rng = np.random.default_rng(0)
        taus = np.sort(rng.random(41))
        curves = [
            EulerCurve(taus, rng.integers(-50, 50, 41)),  # int curve
            EulerCurve(taus, rng.normal(size=41)),  # float curve
            EulerCurve(taus[::2], rng.integers(-5, 5, 21)),  # non-contiguous taus view
            EulerCurve(taus.astype(">f8"), rng.normal(size=41).astype(">f8")),  # big-endian
            EulerCurve(taus.astype(">f8"), rng.integers(-5, 5, 41).astype(">i8")),
        ]
        assert not curves[2].taus.flags.c_contiguous
        assert not curves[3].values.dtype.isnative and not curves[4].values.dtype.isnative
        for curve in curves:
            assert curve_checksum(curve) == self.copying_checksum(curve)

    def test_stable(self):
        taus = np.array([0.25, 0.5])
        a = curve_checksum(EulerCurve(taus, np.array([2, 1], dtype=np.int64)))
        b = curve_checksum(EulerCurve(taus.copy(), np.array([2, 1], dtype=np.int64)))
        assert a == b


class TestReportWriters:
    def test_json(self, tmp_path):
        report = tiny_report()
        path = tmp_path / "bench.json"
        write_report_json(report, path)
        payload = json.loads(path.read_text())
        assert payload["meta"]["repeats"] == 3
        assert len(payload["rows"]) == len(report.rows)
        row = payload["rows"][0]
        assert list(row) == ["dims", "bins", "strategy", "repeats", "wall_ms", "checksum"]

    def test_csv(self, tmp_path):
        report = tiny_report()
        path = tmp_path / "bench.csv"
        write_report_csv(report, path)
        with open(path) as f:
            rows = list(csv.DictReader(f))
        assert len(rows) == len(report.rows)
        assert list(rows[0]) == ["dims", "bins", "strategy", "repeats", "wall_ms", "checksum"]
        assert rows[0]["dims"] == "12x12"
        assert rows[0]["strategy"] in ("fullsweep", "chunked:37")
        float(rows[0]["wall_ms"])
