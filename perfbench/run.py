"""Benchmark entry point.

    python3 perfbench/run.py --workload exact-3d-random --seed 1 --seconds 15 --trace 0

Prints a short report, then, as the last line, one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0`` and the per-layer metrics with ``--trace 1``.
A traced run also writes its spans to ``.perfbench-out/`` at the
repository root.  The library is imported from the repository's ``src/``;
without it the program exits with code 1 and prints no result.
"""

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# The plain single-threaded baseline: one caller, library workers=1 and one
# BLAS thread.  Must be set before numpy loads OpenBLAS.
for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"


def load_library():
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import ecckit
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import ecckit from {src}: {exc}")
    if src.resolve() not in Path(ecckit.__file__).resolve().parents:
        sys.exit(f"perfbench: ecckit was imported from {ecckit.__file__}, not {src}")


def main(argv=None):
    load_library()
    import harness

    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(harness.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    wl = harness.WORKLOADS[args.workload]
    out_dir = ROOT / ".perfbench-out"
    out = harness.run(wl, args.seed, args.seconds, bool(args.trace), out_dir)
    result, report = out["result"], out["report"]

    print(f"perfbench {wl.name} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print("meta " + json.dumps(report["meta"]))
    for problem in report["problems"]:
        print(f"SET-UP CHECK FAILED: {problem}")
    op = report["op_ms"]
    print(f"ops n={op['n']} p50={op['p50']:.3f} ms p90={op['p90']:.3f} ms "
          f"({op['beyond_p90']} samples beyond p90)")
    print(f"fail_ratio {result['failed'] / result['attempted']:.6g} "
          f"({result['failed']}/{result['attempted']})")
    for name, m in result["metrics"].items():
        print(f"{name:32s} {m['value']:14.6g} {m['unit']}")
    if args.trace:
        out_dir.mkdir(parents=True, exist_ok=True)
        path = out_dir / f"trace-{wl.name}-seed{args.seed}.json"
        path.write_text(json.dumps({**report, "result": result}) + "\n")
        print(f"spans written to {path.relative_to(ROOT)}")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
