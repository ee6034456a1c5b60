"""Closed-loop benchmark of ecckit's exact and soft paths.

One process, one caller, library ``workers=1``: each op starts only after
the previous one has returned and been checked.  Inputs are generated from
the workload seed, written as a grid file, and the op receives only that
file's path.

An untraced run reports the end-to-end metrics.  A traced run records
spans (name, start, end, parent, op id) around every public call the
benchmark makes, plus "probes": timed sibling calls on the same inputs,
outside the op, for layers the op does not call directly.  Per-layer
times are medians of span self times.  Memory is measured with
``tracemalloc`` on separate, untimed calls only.
"""

from __future__ import annotations

import os
import sys
import time
import tracemalloc
import traceback
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy
from scipy.special import expit

import ecckit as ek

SETUP_REPEATS = 5
WARMUP_OPS = 3
PROBE_REPEATS = 5
SPOT_THRESHOLDS = 8
CHUNK_LEN = 4096
# Largest allowed |soft output - dense reference|, as a share of the
# largest |reference| entry of that output.
SOFT_RTOL = 1e-9
MIB = float(1 << 20)

# Soft-path parameters: the README training step.
LAM = 25.0
ALPHA = 0.3


def no_span(name):
    return nullcontext()


class Tracer:
    """Spans kept in memory: name, start and end (ns), parent index, op id."""

    def __init__(self):
        self.spans: list[dict] = []
        self.op = None
        self._open: list[int] = []

    @contextmanager
    def span(self, name):
        rec = {
            "name": name,
            "start": time.perf_counter_ns(),
            "end": None,
            "parent": self._open[-1] if self._open else None,
            "op": self.op,
        }
        self.spans.append(rec)
        self._open.append(len(self.spans) - 1)
        try:
            yield
        finally:
            rec["end"] = time.perf_counter_ns()
            self._open.pop()

    def with_self_times(self) -> list[dict]:
        """Spans with ``self_ns``: duration minus the time covered by children."""
        child_ns = [0] * len(self.spans)
        for s in self.spans:
            if s["parent"] is not None:
                child_ns[s["parent"]] += s["end"] - s["start"]
        return [
            dict(s, self_ns=s["end"] - s["start"] - c)
            for s, c in zip(self.spans, child_ns)
        ]


def peak_mib(fn) -> float:
    """tracemalloc peak of one call, in MiB above what was live before it."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / MIB
    finally:
        tracemalloc.stop()


def spot_indices(n: int) -> np.ndarray:
    return np.unique(np.linspace(0, n - 1, SPOT_THRESHOLDS).round().astype(int))


def direction(ndim: int) -> np.ndarray:
    """The unit direction proportional to (2, 1) in 2D and (2, 1, 1) in 3D."""
    return ek.reparametrize_direction(np.array([2.0] + [1.0] * (ndim - 1)))


def positions(dims) -> np.ndarray:
    """Pixel positions mapped per axis into [-1, 1], as (pixels, ndim)."""
    axes = [np.linspace(-1.0, 1.0, d) if d > 1 else np.zeros(1) for d in dims]
    return np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, len(dims))


def close(x, ref) -> bool:
    x = np.asarray(x, dtype=np.float64)
    ref = np.asarray(ref, dtype=np.float64)
    if x.shape != ref.shape:
        return False
    scale = max(float(np.abs(ref).max(initial=0.0)), 1e-300)
    return bool(np.abs(x - ref).max(initial=0.0) <= SOFT_RTOL * scale)


@dataclass
class LayerInputs:
    """What the per-layer probes and memory calls run on, for one workload.

    ``exact_grid`` is the field the exact path sees (the grid itself, or
    the effective field in the soft step); ``params`` uses the op's
    thresholds in the soft step and the spot thresholds elsewhere, so the
    dense sigmoid blocks of the soft probes stay small.
    """

    grid: ek.ScalarGrid
    exact_grid: ek.ScalarGrid
    taus: ek.ThresholdSet
    soft_coeffs: ek.CoefficientGrid
    params: ek.SoftEccParams

    @property
    def upstream(self):
        return np.ones(len(self.params.taus))


@dataclass(frozen=True)
class ExactWorkload:
    """op = read_grid -> thresholds -> compute_ecc(FullSweep(), workers=1)."""

    name: str
    kind: str
    dims: tuple
    bins: int | None  # None: one threshold at every distinct grid value

    def thresholds(self, grid):
        if self.bins is None:
            return ek.ThresholdSet(np.unique(grid.values))
        return ek.uniform_thresholds(grid, self.bins)

    def op(self, path, span):
        with span("grid.read"):
            grid = ek.read_grid(path)
        with span("grid.thresholds"):
            taus = self.thresholds(grid)
        with span("hard.compute_ecc"):
            return ek.compute_ecc(grid, taus, ek.FullSweep(), 1)

    def reference(self, grid, span):
        """Checksum of the FullSweep curve, cross-checked at set-up."""
        taus = self.thresholds(grid)
        curve = ek.compute_ecc(grid, taus, ek.FullSweep(), 1)
        ref = ek.curve_checksum(curve)
        problems = []
        idx = spot_indices(len(taus))
        with span("oracle.spot"):
            slow = ek.oracle_ecc(grid, ek.ThresholdSet(taus.taus[idx]))
        if not np.array_equal(slow.values, curve.values[idx]):
            problems.append("oracle disagrees at the spot thresholds")
        if curve.values[-1] != 1:
            problems.append(f"curve ends at {curve.values[-1]}, not 1")
        return ref, problems

    def cross_check(self, grid, ref) -> list[str]:
        """Once per run, outside the timed set-up: Chunked must match bit for bit.

        Kept out of ``setup_s`` because Chunked is a baseline the op never
        runs; its time is the per-layer ``hard.chunked_ms``.
        """
        taus = self.thresholds(grid)
        if ek.curve_checksum(ek.compute_ecc(grid, taus, ek.Chunked(CHUNK_LEN), 1)) != ref:
            return [f"Chunked({CHUNK_LEN}) curve differs from FullSweep"]
        return []

    def check(self, curve, ref) -> bool:
        return ek.curve_checksum(curve) == ref

    def layer_inputs(self, grid) -> LayerInputs:
        taus = self.thresholds(grid)
        u = direction(grid.ndim)
        field = ek.effective_field(grid, ALPHA, u)
        spot = ek.ThresholdSet(taus.taus[spot_indices(len(taus))])
        params = ek.SoftEccParams(LAM, ALPHA, u, spot)
        return LayerInputs(grid, grid, taus, ek.compute_coefficients(field), params)


@dataclass(frozen=True)
class SoftWorkload:
    """op = one training step: read_grid -> effective_field ->
    compute_coefficients -> soft_ecc -> soft_ecc_backward(upstream=1)."""

    name: str
    kind: str
    dims: tuple
    bins: int

    def op(self, path, span):
        with span("grid.read"):
            grid = ek.read_grid(path)
        with span("grid.thresholds"):
            taus = ek.uniform_thresholds(grid, self.bins)
        u = direction(grid.ndim)
        with span("soft.effective_field"):
            field = ek.effective_field(grid, ALPHA, u)
        with span("coefficients.compute"):
            coeffs = ek.compute_coefficients(field)
        params = ek.SoftEccParams(LAM, ALPHA, u, taus)
        with span("soft.forward"):
            curve = ek.soft_ecc(grid, coeffs, params, 1)
        with span("soft.backward"):
            grads = ek.soft_ecc_backward(grid, coeffs, params, np.ones(len(taus)), 1)
        return curve, grads

    def reference(self, grid, span):
        """Dense NumPy/expit evaluation of the formulas in soft.py's docstrings.

        Coefficients come from the library, checked against the oracle: the
        exact curve they give must match oracle_ecc at the spot thresholds.
        """
        taus = ek.uniform_thresholds(grid, self.bins)
        u = direction(grid.ndim)
        pos = positions(grid.dims)
        field = grid.values.ravel() + ALPHA * (pos @ u)
        # Coefficients of the library's own effective field, as in the op:
        # a one-ulp difference in the field could reorder two pixels.
        lib_field = ek.effective_field(grid, ALPHA, u)
        c = ek.compute_coefficients(lib_field).coeffs.ravel()
        problems = []
        if not close(lib_field.values.ravel(), field):
            problems.append("effective_field differs from X + alpha * <u, p>")
        if int(c.sum(dtype=np.int64)) != 1:
            problems.append(f"coefficients sum to {int(c.sum())}, not 1")
        flat = lib_field.values.ravel()
        spot = np.unique(np.sort(flat)[spot_indices(flat.size)])
        with span("oracle.spot"):
            slow = ek.oracle_ecc(lib_field, ek.ThresholdSet(spot))
        fast = [int(c[flat <= t].sum(dtype=np.int64)) for t in slow.taus]
        if fast != slow.values.tolist():
            problems.append("coefficients disagree with the oracle at the spot thresholds")

        upstream = np.ones(len(taus))
        s = expit(LAM * (taus.taus[:, None] - field[None, :]))
        sp = LAM * s * (1.0 - s)
        w = upstream @ sp
        d_u = -ALPHA * ((w * c) @ pos)
        ref = {
            "curve": s @ c,
            "d_values": (-c * w).reshape(grid.dims),
            "d_tau": upstream * (sp @ c),
            "d_u": d_u - (d_u @ u) * u,
        }
        return ref, problems

    def cross_check(self, grid, ref) -> list[str]:
        return []  # the set-up checks cover the soft reference

    def check(self, out, ref) -> bool:
        curve, grads = out
        return (
            close(curve.values, ref["curve"])
            and close(grads.d_values, ref["d_values"])
            and close(grads.d_tau, ref["d_tau"])
            and close(grads.d_u, ref["d_u"])
        )

    def layer_inputs(self, grid) -> LayerInputs:
        taus = ek.uniform_thresholds(grid, self.bins)
        u = direction(grid.ndim)
        field = ek.effective_field(grid, ALPHA, u)
        coeffs = ek.compute_coefficients(field)
        return LayerInputs(grid, field, taus, coeffs, ek.SoftEccParams(LAM, ALPHA, u, taus))


# Why each workload was chosen is recorded in BENCHMARK.json and README.md.
WORKLOADS = {
    w.name: w
    for w in (
        ExactWorkload("exact-2d-blobs-alltaus", "gaussian-blobs", (512, 512), None),
        ExactWorkload("exact-3d-random", "uniform-random", (128, 128, 128), 256),
        SoftWorkload("soft-2d-blobs-step", "gaussian-blobs", (256, 256), 64),
    )
}


def probes(li: LayerInputs):
    """Every probe as (span name, call); run only for names the op lacks."""
    g, taus, p = li.exact_grid, li.taus, li.params
    return [
        ("grid.bin_indices", lambda: taus.bin_indices(g.values)),
        ("coefficients.compute", lambda: ek.compute_coefficients(g)),
        ("hard.compute_ecc", lambda: ek.compute_ecc(g, taus, ek.FullSweep(), 1)),
        ("hard.compute_ecc_w2", lambda: ek.compute_ecc(g, taus, ek.FullSweep(), 2)),
        ("hard.chunked", lambda: ek.compute_ecc(g, taus, ek.Chunked(CHUNK_LEN), 1)),
        ("soft.effective_field", lambda: ek.effective_field(li.grid, p.alpha, p.u)),
        ("soft.forward", lambda: ek.soft_ecc(li.grid, li.soft_coeffs, p, 1)),
        ("soft.backward", lambda: ek.soft_ecc_backward(li.grid, li.soft_coeffs, p, li.upstream, 1)),
        ("soft.forward_w2", lambda: ek.soft_ecc(li.grid, li.soft_coeffs, p, 2)),
        ("soft.backward_w2", lambda: ek.soft_ecc_backward(li.grid, li.soft_coeffs, p, li.upstream, 2)),
    ]


def set_up(wl, seed: int, path: Path, tracer: Tracer):
    """Generate the input file and the reference the ops are checked against."""
    with tracer.span("setup"):
        with tracer.span("synthetic.generate"):
            grid = ek.generate_grid(ek.SyntheticSpec(wl.kind, wl.dims, seed=seed))
        ek.write_grid(grid, path)
        return wl.reference(ek.read_grid(path), tracer.span)


def closed_loop(wl, path, ref, seconds: float, tracer: Tracer | None = None):
    """Run ops back to back for `seconds`; every op is checked.

    Returns per-op seconds and the number of failed ops.  An op that
    raises or returns a wrong result counts as failed.  With a tracer,
    every odd-numbered op is traced, so traced and untraced ops see the
    same machine state and their difference is the tracing overhead.
    """
    times, failed = [], 0
    min_ops = 1 if tracer is None else 2
    deadline = time.perf_counter() + seconds
    while len(times) < min_ops or time.perf_counter() < deadline:
        traced = tracer is not None and len(times) % 2 == 1
        span = tracer.span if traced else no_span
        if traced:
            tracer.op = len(tracer.spans)  # the index of this op's span
        t0 = time.perf_counter()
        try:
            with span("op"):
                out = wl.op(path, span)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            out = None
        times.append(time.perf_counter() - t0)
        if traced:
            tracer.op = None
        if out is None or not wl.check(out, ref):
            failed += 1
    return np.array(times), failed


def median_ms(spans, name) -> float:
    return float(np.median([s["self_ns"] for s in spans if s["name"] == name])) / 1e6


def run_metadata() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "python": sys.version.split()[0],
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
    }


def run(wl, seed: int, seconds: float, trace: bool, workdir: Path) -> dict:
    """One benchmark run; returns the result object plus a report for humans."""
    workdir.mkdir(parents=True, exist_ok=True)
    path = workdir / f"{wl.name}-seed{seed}-{os.getpid()}.eccg"
    setup_tracer = Tracer()
    tracer = Tracer() if trace else None
    try:
        ref, problems = set_up(wl, seed, path, setup_tracer)
        grid = ek.read_grid(path)
        file_bytes = path.stat().st_size
        problems += wl.cross_check(grid, ref)
        op_peak = peak_mib(lambda: wl.op(path, no_span))
        for _ in range(WARMUP_OPS):
            wl.op(path, no_span)

        # The loop runs in segments with a set-up after each, so the timed
        # set-ups sample the machine across the whole run, not one moment.
        # A set-up that is not deterministic makes the following ops fail.
        segments, failed = [], 0
        for _ in range(SETUP_REPEATS - 1):
            seg, seg_failed = closed_loop(wl, path, ref, seconds / (SETUP_REPEATS - 1), tracer)
            segments.append(seg)
            failed += seg_failed
            problems += [p for p in set_up(wl, seed, path, setup_tracer)[1] if p not in problems]
        times = np.concatenate(segments)
        report = {"seed": seed, "workload": wl.name, "meta": run_metadata(), "problems": problems}
        if not trace:
            metrics = end_to_end(times, grid.size, op_peak, setup_tracer)
        else:
            untraced = np.concatenate([seg[0::2] for seg in segments])
            traced = np.concatenate([seg[1::2] for seg in segments])
            metrics = per_layer(wl, grid, file_bytes, tracer, setup_tracer, untraced, traced)
            report["spans"] = setup_tracer.with_self_times() + tracer.with_self_times()
    finally:
        path.unlink(missing_ok=True)

    p50, p90 = np.percentile(times * 1e3, [50, 90])
    report["op_ms"] = {"n": int(times.size), "p50": float(p50), "p90": float(p90),
                       "beyond_p90": int((times * 1e3 > p90).sum())}
    result = {
        "correct": not problems and failed == 0,
        "attempted": int(times.size),
        "failed": int(failed),
        "metrics": metrics,
    }
    return {"result": result, "report": report}


def metric(value, unit):
    return {"value": float(value), "unit": unit}


def end_to_end(times, pixels, op_peak, setup_tracer) -> dict:
    setup_ns = [s["end"] - s["start"] for s in setup_tracer.spans if s["name"] == "setup"]
    return {
        "op_ms_p90": metric(np.percentile(times, 90) * 1e3, "ms"),
        "mpix_per_s": metric(times.size * pixels / times.sum() / 1e6, "Mpix/s"),
        "op_peak_mib": metric(op_peak, "MiB"),
        "setup_s": metric(np.median(setup_ns) / 1e9, "s"),
    }


def per_layer(wl, grid, file_bytes, tracer, setup_tracer, untraced_times, traced_times) -> dict:
    """Per-layer metrics from the traced ops, probes and untimed memory calls."""
    li = wl.layer_inputs(grid)
    in_op = {s["name"] for s in tracer.spans if s["op"] is not None}
    for name, call in probes(li):
        if name not in in_op:
            for _ in range(PROBE_REPEATS):
                with tracer.span(name):
                    call()

    spans = tracer.with_self_times()
    setup_spans = setup_tracer.with_self_times()
    op_ns = {s["op"]: s["end"] - s["start"] for s in spans if s["name"] == "op"}
    hard_share = dict.fromkeys(op_ns, 0.0)
    for s in spans:
        if s["name"] == "hard.compute_ecc" and s["op"] is not None:
            hard_share[s["op"]] = s["self_ns"] / op_ns[s["op"]]

    ms = {name: median_ms(spans, name) for name, _ in probes(li)}
    ms.update({name: median_ms(spans, name) for name in ("grid.read", "grid.thresholds")})
    coeffs = ek.compute_coefficients(li.exact_grid).coeffs
    nonzero = int(np.count_nonzero(coeffs))
    p = li.params

    return {
        "grid.read_ms": metric(ms["grid.read"], "ms"),
        "grid.read_mib": metric((file_bytes + 8 * grid.size) / MIB, "MiB"),
        "grid.thresholds_ms": metric(ms["grid.thresholds"], "ms"),
        "grid.n_thresholds": metric(len(li.taus), "count"),
        "grid.bin_indices_ms": metric(ms["grid.bin_indices"], "ms"),
        "coefficients.compute_ms": metric(ms["coefficients.compute"], "ms"),
        "coefficients.peak_mib": metric(peak_mib(lambda: ek.compute_coefficients(li.exact_grid)), "MiB"),
        "coefficients.nonzero": metric(nonzero, "count"),
        "coefficients.nonzero_share": metric(nonzero / coeffs.size, "ratio"),
        "hard.compute_ecc_ms": metric(ms["hard.compute_ecc"], "ms"),
        "hard.compute_ecc_share": metric(np.median(list(hard_share.values())), "ratio"),
        "hard.peak_mib": metric(
            peak_mib(lambda: ek.compute_ecc(li.exact_grid, li.taus, ek.FullSweep(), 1)), "MiB"),
        "hard.chunked_ms": metric(ms["hard.chunked"], "ms"),
        "hard.chunked_over_fullsweep": metric(ms["hard.chunked"] / ms["hard.compute_ecc"], "ratio"),
        "hard.compute_ecc_w2_ms": metric(ms["hard.compute_ecc_w2"], "ms"),
        "hard.w2_speedup": metric(ms["hard.compute_ecc"] / ms["hard.compute_ecc_w2"], "ratio"),
        "soft.effective_field_ms": metric(ms["soft.effective_field"], "ms"),
        "soft.forward_ms": metric(ms["soft.forward"], "ms"),
        "soft.backward_ms": metric(ms["soft.backward"], "ms"),
        "soft.sigmoid_evals": metric(len(p.taus) * grid.size, "count"),
        "soft.forward_peak_mib": metric(
            peak_mib(lambda: ek.soft_ecc(li.grid, li.soft_coeffs, p, 1)), "MiB"),
        "soft.backward_peak_mib": metric(
            peak_mib(lambda: ek.soft_ecc_backward(li.grid, li.soft_coeffs, p, li.upstream, 1)), "MiB"),
        "soft.forward_w2_ms": metric(ms["soft.forward_w2"], "ms"),
        "soft.backward_w2_ms": metric(ms["soft.backward_w2"], "ms"),
        "synthetic.generate_ms": metric(median_ms(setup_spans, "synthetic.generate"), "ms"),
        "oracle.spot_ms": metric(median_ms(setup_spans, "oracle.spot"), "ms"),
        "trace.overhead_pct": metric(
            (np.median(traced_times) / np.median(untraced_times) - 1.0) * 100.0, "%"),
    }
