"""Accumulation strategy timing study at desk scale.

Compares the single-sweep strategy against the chunked baseline, which
walks the same whole first-axis rows in smaller blocks, at most 4,096
pixels or one row each, and so pays each numpy call's fixed cost more
often.  Checksums of the resulting curves gate the timings: a divergence
aborts the run.

Run:  python demos/03_benchmark_scaling.py  (a few seconds)
"""

from ecckit import Chunked, FullSweep, run_benchmark, write_report_csv, write_report_json

report = run_benchmark(
    sizes=[(128, 128), (256, 256), (512, 512), (1024, 1024), (64, 64, 64)],
    bins=256,
    strategies=[FullSweep(), Chunked(4096)],
    repeats=5,
    kind="uniform-random",
    seed=7,
)

print(f"bins={report.meta['bins']}, repeats={report.meta['repeats']} "
      f"(median reported), cpus={report.meta['cpu_count']}\n")
print(f"{'dims':>14} {'strategy':>14} {'wall ms':>12}")
by_dims = {}
for row in report.rows:
    print(f"{'x'.join(map(str, row.dims)):>14} {row.strategy:>14} {row.wall_ms:12.3f}")
    by_dims.setdefault(row.dims, {})[row.strategy] = row.wall_ms

print("\nspeedup of fullsweep over chunked:4096:")
for dims, times in by_dims.items():
    if len(times) == 2:
        ratio = times["chunked:4096"] / times["fullsweep"]
        print(f"  {'x'.join(map(str, dims)):>14}: {ratio:5.1f}x")

write_report_json(report, "bench.json")
write_report_csv(report, "bench.csv")
print("\nwrote bench.json and bench.csv")
