"""Benchmark harness for the accumulation strategies.

Times are wall-clock medians over a number of repeats after one unmeasured
warm-up run.  Before any timing is reported, the curves produced by every
strategy on the same grid must agree checksum-for-checksum; a benchmark of
a wrong answer is meaningless, so divergence aborts the report.
"""

from __future__ import annotations

import csv
import hashlib
import json
import os
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from .grid import EulerCurve, ScalarGrid, _positive_int, uniform_thresholds
from .hard import Strategy, compute_ecc
from .synthetic import SyntheticSpec, generate_grid


class ChecksumMismatch(RuntimeError):
    """Strategies produced different curves for the same grid."""


def curve_checksum(curve: EulerCurve) -> str:
    """Order-sensitive digest of a curve's thresholds and values."""
    h = hashlib.sha256()
    h.update(np.ascontiguousarray(curve.taus, "<f8"))
    wire = "<i8" if curve.is_integral else "<f8"
    h.update(wire.encode())
    h.update(np.ascontiguousarray(curve.values, wire))
    return h.hexdigest()


@dataclass(frozen=True)
class BenchRow:
    """One timed (grid, strategy) combination."""

    dims: tuple[int, ...]
    bins: int
    strategy: str
    repeats: int
    wall_ms: float
    checksum: str


@dataclass
class BenchReport:
    rows: list[BenchRow] = field(default_factory=list)
    meta: dict = field(default_factory=dict)


def time_compute(grid: ScalarGrid, taus, strategy: Strategy, repeats: int):
    """Median wall time (ms) of end-to-end curve computation, plus the curve."""
    curve = compute_ecc(grid, taus, strategy)  # warm-up, result reused
    samples = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        compute_ecc(grid, taus, strategy)
        samples.append(time.perf_counter() - t0)
    return float(np.median(samples) * 1e3), curve


def run_benchmark(
    sizes,
    bins: int,
    strategies,
    repeats: int = 5,
    kind: str = "uniform-random",
    seed: int = 0,
) -> BenchReport:
    """Time every (size, strategy) combination on one grid per size.

    Raises :class:`ChecksumMismatch` before reporting if any strategy
    disagrees on the curve for a given grid.
    """
    repeats = _positive_int("repeats", repeats)
    report = BenchReport(
        meta={
            "kind": kind,
            "seed": seed,
            "bins": bins,
            "repeats": repeats,
            "cpu_count": os.cpu_count(),
        }
    )
    for dims in sizes:
        grid = generate_grid(SyntheticSpec(kind=kind, dims=tuple(dims), seed=seed))
        taus = uniform_thresholds(grid, bins)
        seen: dict[str, str] = {}
        for strategy in strategies:
            wall_ms, curve = time_compute(grid, taus, strategy, repeats)
            digest = seen[str(strategy)] = curve_checksum(curve)
            report.rows.append(
                BenchRow(
                    dims=tuple(dims),
                    bins=len(taus),
                    strategy=str(strategy),
                    repeats=repeats,
                    wall_ms=wall_ms,
                    checksum=digest,
                )
            )
        if len(set(seen.values())) > 1:
            detail = ", ".join(f"{k}: {v[:12]}" for k, v in seen.items())
            raise ChecksumMismatch(f"curves diverged on dims {tuple(dims)}: {detail}")
    return report


def write_report_json(report: BenchReport, path) -> None:
    payload = {"meta": report.meta, "rows": [asdict(r) for r in report.rows]}
    with open(path, "w") as f:
        json.dump(payload, f, indent=2)
        f.write("\n")


def write_report_csv(report: BenchReport, path) -> None:
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["dims", "bins", "strategy", "repeats", "wall_ms", "checksum"])
        for r in report.rows:
            writer.writerow(
                ["x".join(map(str, r.dims)), r.bins, r.strategy,
                 r.repeats, f"{r.wall_ms:.6g}", r.checksum]
            )
