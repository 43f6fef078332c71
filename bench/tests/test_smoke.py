"""Smoke test of the benchmark at the shortest run length; no timing assertions.

Run with `python3 -m pytest -q bench/tests` from the repository root.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(workload, trace, cwd=ROOT, seed=0):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300)
    return proc


def result_of(proc):
    assert proc.returncode == 0, proc.stderr[-2000:]
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2])["context"], json.loads(lines[-1])


def assert_metrics(result, wanted):
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        entry = result["metrics"][m["name"]]
        assert entry["unit"] == m["unit"]
        assert isinstance(entry["value"], (int, float))


# fwd_spectra is runnable but not gated in BENCHMARK.json (see bench/README.md)
@pytest.mark.parametrize("workload", ["fwd_spectra", "hl_roundtrip", "inv_moments"])
def test_end_to_end_metrics(workload):
    ctx, result = result_of(run(workload, 0))
    assert_metrics(result, SPEC["end_to_end"])
    assert ctx["checked"] == result["attempted"]
    assert 0 < result["metrics"]["max_rel_err"]["value"] <= 1e-3
    assert ctx["raw_op_times"]["calibration"]["samples"] >= 2


def test_traced_counters_repeat():
    runs = [result_of(run("inv_moments", 1)) for _ in range(2)]
    for ctx, result in runs:
        assert_metrics(result, SPEC["per_layer"])
        assert ctx["checked"] == result["attempted"]
        assert ctx["work_counters_repeat"]
        assert (ROOT / ctx["spans_file"]).is_file()
    counts = [{k: v["value"] for k, v in result["metrics"].items()
               if v["unit"] in ("count", "bytes")} for _, result in runs]
    assert counts[0] == counts[1]
    assert counts[0]["reconstruct.solve_moment.calls"] > 0


def test_fails_without_package_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run("inv_moments", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
