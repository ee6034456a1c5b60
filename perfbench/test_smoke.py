"""Smoke test of the benchmark at tiny grid sizes.

    python3 -m pytest -q perfbench/test_smoke.py
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import harness  # noqa: E402  (pytest puts this file's directory on sys.path)

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY = {
    "exact-2d-blobs-alltaus": (12, 10),
    "exact-3d-random": (6, 5, 4),
    "soft-2d-blobs-step": (9, 11),
}


def tiny(name):
    return dataclasses.replace(harness.WORKLOADS[name], dims=TINY[name])


def test_workloads_match_benchmark_json():
    assert sorted(w["name"] for w in SPEC["workloads"]) == sorted(harness.WORKLOADS)


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", sorted(TINY))
def test_every_named_metric_is_emitted_with_its_unit(name, trace, tmp_path):
    result = harness.run(tiny(name), 3, 0.05, trace, tmp_path)["result"]
    assert result["correct"]
    assert result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {k: m["unit"] for k, m in result["metrics"].items()} == expected
    assert all(np.isfinite(m["value"]) for m in result["metrics"].values())


@pytest.mark.parametrize("name", sorted(TINY))
def test_wrong_reference_shows_in_failures(name, tmp_path):
    wl = tiny(name)
    path = tmp_path / "grid.eccg"
    ref, problems = harness.set_up(wl, 3, path, harness.Tracer())
    assert problems == []
    if isinstance(ref, str):
        wrong = ref[::-1]
    else:
        wrong = {**ref, "d_tau": ref["d_tau"] + 1.0}
    times, failed = harness.closed_loop(wl, path, wrong, 0.05)
    assert times.size >= 1
    assert failed == times.size


def test_without_the_library_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        SPEC["command"] + ["--workload", "soft-2d-blobs-step", "--seed", "1",
                           "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
