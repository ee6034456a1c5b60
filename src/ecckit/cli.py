"""Command line interface.

Subcommands::

    ecc generate   synthesize a seeded grid file
    ecc compute    exact curve via histogram accumulation
    ecc oracle     exact curve via brute-force cell counting
    ecc soft       smoothed (differentiable) curve
    ecc gradcheck  finite-difference validation of the analytic gradients
    ecc coeffs     dump per-pixel coefficients (version-2 grid file)
    ecc bench      timing study across strategies
"""

from __future__ import annotations

import argparse
import json
import sys
import time

import numpy as np

from . import bench as bench_mod
from .coefficients import compute_coefficients, write_coefficients
from .grid import (
    ScalarGrid,
    ThresholdSet,
    read_grid,
    uniform_thresholds,
    write_curve,
    write_grid,
)
from .hard import _block_rows, compute_ecc, parse_strategy
from .oracle import oracle_ecc
from .soft import (
    SoftEccParams,
    effective_field,
    gradient_check,
    reparametrize_direction,
    soft_ecc,
)
from .synthetic import KINDS, SyntheticSpec, generate_grid


def _parse_dims(text: str) -> tuple[int, ...]:
    try:
        dims = tuple(int(p) for p in text.lower().split("x"))
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad dims {text!r}, expected e.g. 512x512")
    if len(dims) not in (2, 3):
        raise argparse.ArgumentTypeError(f"dims must have 2 or 3 extents, got {text!r}")
    return dims


def _parse_sizes(text: str) -> list[tuple[int, ...]]:
    return [_parse_dims(s) for s in text.split(",")]


def _parse_strategy(text: str):
    try:
        return parse_strategy(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not fullsweep or chunked:<k>")


def _parse_strategies(text: str) -> list:
    return [_parse_strategy(s) for s in text.split(",")]


def _parse_direction(text: str) -> np.ndarray:
    try:
        return np.array([float(p) for p in text.split(",")], dtype=np.float64)
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad direction {text!r}, expected e.g. 0.6,0.8")


def _read_taus_file(path) -> ThresholdSet:
    values = []
    with open(path) as f:
        for line in f:
            cell = line.split(",")[0].strip()
            if not cell or cell.lower() == "threshold":
                continue
            values.append(float(cell))
    return ThresholdSet(values)


def _thresholds(grid: ScalarGrid, args) -> ThresholdSet:
    if getattr(args, "taus", None):
        return _read_taus_file(args.taus)
    return uniform_thresholds(grid, args.bins)


def _add_thresholds(p: argparse.ArgumentParser) -> None:
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--bins", type=int,
                       help="uniform thresholds over the input grid's value range")
    group.add_argument("--taus", help="CSV file with one threshold per line")


def _direction(grid: ScalarGrid, raw) -> np.ndarray:
    if raw is None:
        axis = np.zeros(grid.ndim)
        axis[0] = 1.0
        return axis
    return reparametrize_direction(raw)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="ecc", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="synthesize a seeded grid file")
    p.add_argument("--kind", choices=KINDS, default="uniform-random")
    p.add_argument("--dims", type=_parse_dims, required=True, metavar="HxW[xD]")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--blobs", type=int, default=8, help="gaussian-blobs: bump count")
    p.add_argument("--blob-width", type=float, default=None, help="gaussian-blobs: bump width in pixels")
    p.add_argument("--output", required=True)

    p = sub.add_parser("compute", help="exact curve via histogram accumulation")
    p.add_argument("--input", required=True)
    _add_thresholds(p)
    p.add_argument("--strategy", type=_parse_strategy, default="fullsweep",
                   help="fullsweep or chunked:<k>")
    p.add_argument("--output", required=True)
    p.add_argument("--emit-timing", metavar="JSON", default=None)

    p = sub.add_parser("oracle", help="exact curve via brute-force cell counting")
    p.add_argument("--input", required=True)
    _add_thresholds(p)
    p.add_argument("--output", required=True)

    p = sub.add_parser("soft", help="smoothed (differentiable) curve")
    p.add_argument("--input", required=True)
    _add_thresholds(p)
    p.add_argument("--lambda", dest="lam", type=float, required=True, help="sigmoid sharpness")
    p.add_argument("--alpha", type=float, default=0.0, help="direction scale")
    p.add_argument("--direction", type=_parse_direction, default=None,
                   help="direction components, normalized internally")
    p.add_argument("--output", required=True)

    p = sub.add_parser("gradcheck", help="finite-difference gradient validation")
    p.add_argument("--input", required=True)
    p.add_argument("--lambda", dest="lam", type=float, required=True)
    p.add_argument("--alpha", type=float, default=0.0)
    p.add_argument("--bins", type=int, default=16,
                   help="uniform thresholds over the input grid's value range")
    p.add_argument("--seed", type=int, default=0, help="seeds the direction and cotangent")
    p.add_argument("--report", required=True, metavar="JSON")

    p = sub.add_parser("coeffs", help="dump per-pixel coefficients")
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True)

    p = sub.add_parser("bench", help="timing study with a correctness gate")
    p.add_argument("--sizes", type=_parse_sizes, required=True,
                   help="comma-separated dims, e.g. 128x128,256x256")
    p.add_argument("--bins", type=int, default=256)
    p.add_argument("--strategies", type=_parse_strategies, default="fullsweep,chunked:4096",
                   help="comma-separated fullsweep or chunked:<k>")
    p.add_argument("--repeats", type=int, default=5)
    p.add_argument("--kind", choices=KINDS, default="uniform-random")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--report", default=None, metavar="JSON")
    p.add_argument("--csv", default=None)
    return parser


def _cmd_generate(args) -> int:
    spec = SyntheticSpec(kind=args.kind, dims=args.dims, seed=args.seed,
                         blobs=args.blobs, blob_width=args.blob_width)
    write_grid(generate_grid(spec), args.output)
    return 0


def _cmd_compute(args) -> int:
    grid = read_grid(args.input)
    taus = _thresholds(grid, args)
    t0 = time.perf_counter()
    curve = compute_ecc(grid, taus, args.strategy)
    wall_ms = (time.perf_counter() - t0) * 1e3
    write_curve(curve, args.output)
    if args.emit_timing:
        rows = _block_rows(grid, args.strategy)
        table = taus._tables.get(grid.values.dtype)  # none: a direct search
        payload = {
            "strategy": str(args.strategy),
            "dims": list(grid.dims),
            "bins": len(taus),
            "block_pixels": rows * (grid.size // grid.dims[0]),
            "blocks": -(-grid.dims[0] // rows),
            "bin_rounds": table[4] if table else 0,
            "wall_ms": wall_ms,
        }
        with open(args.emit_timing, "w") as f:
            json.dump(payload, f, indent=2)
            f.write("\n")
    return 0


def _cmd_oracle(args) -> int:
    grid = read_grid(args.input)
    write_curve(oracle_ecc(grid, _thresholds(grid, args)), args.output)
    return 0


def _cmd_soft(args) -> int:
    grid = read_grid(args.input)
    params = SoftEccParams(
        lam=args.lam,
        alpha=args.alpha,
        u=_direction(grid, args.direction),
        taus=_thresholds(grid, args),
    )
    coeffs = compute_coefficients(effective_field(grid, params.alpha, params.u))
    write_curve(soft_ecc(grid, coeffs, params), args.output)
    return 0


def _cmd_gradcheck(args) -> int:
    grid = read_grid(args.input)
    rng = np.random.default_rng(args.seed)
    u = reparametrize_direction(rng.normal(size=grid.ndim))
    params = SoftEccParams(lam=args.lam, alpha=args.alpha, u=u,
                           taus=uniform_thresholds(grid, args.bins))
    report = gradient_check(grid, params, seed=args.seed)
    with open(args.report, "w") as f:
        json.dump(report, f, indent=2)
        f.write("\n")
    status = "pass" if report["pass"] else "FAIL"
    print(f"gradcheck {status}: d_values {report['d_values']:.3g}  "
          f"d_tau {report['d_tau']:.3g}  d_u {report['d_u']:.3g}  "
          f"tangency {report['tangency']:.3g}")
    return 0 if report["pass"] else 1


def _cmd_coeffs(args) -> int:
    write_coefficients(compute_coefficients(read_grid(args.input)), args.output)
    return 0


def _cmd_bench(args) -> int:
    try:
        report = bench_mod.run_benchmark(
            args.sizes, args.bins, args.strategies,
            repeats=args.repeats, kind=args.kind, seed=args.seed,
        )
    except bench_mod.ChecksumMismatch as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    for row in report.rows:
        dims = "x".join(map(str, row.dims))
        print(f"{dims:>14}  {row.strategy:>14}  {row.wall_ms:10.3f} ms")
    if args.report:
        bench_mod.write_report_json(report, args.report)
    if args.csv:
        bench_mod.write_report_csv(report, args.csv)
    return 0


_COMMANDS = {
    "generate": _cmd_generate,
    "compute": _cmd_compute,
    "oracle": _cmd_oracle,
    "soft": _cmd_soft,
    "gradcheck": _cmd_gradcheck,
    "coeffs": _cmd_coeffs,
    "bench": _cmd_bench,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
