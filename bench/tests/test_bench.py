"""Runs every benchmark workload at a tiny size and checks its output
against BENCHMARK.json."""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
# counts that must repeat exactly for one seed
EXACT = ("autodiff.nodes", "encoders.items", "transfer.index_builds",
         "objectives.occ_per_unique", "gradcheck.contexts_per_eval")
ENV_KEYS = ("nproc", "python", "numpy", "blas", "blas_version", "blas_threads",
            "git_commit", "seed", "tracing")


def bench(cwd, workload, trace, seed=3):
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed",
         str(seed), "--seconds", "0.1", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=300)


def run(workload, trace):
    out = bench(ROOT, workload, trace)
    assert out.returncode == 0, out.stderr
    report, line = out.stdout.strip().splitlines()[-2:]
    return json.loads(report), json.loads(line)


def check_line(line, specs):
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True
    assert line["failed"] == 0 and line["attempted"] >= 1
    assert set(line["metrics"]) == {m["name"] for m in specs}
    for m in specs:
        metric = line["metrics"][m["name"]]
        assert metric["unit"] == m["unit"], m["name"]
        assert math.isfinite(metric["value"]), m["name"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_reports_every_metric(workload):
    report, line = run(workload, 0)
    check_line(line, SPEC["end_to_end"])
    for name in SPEC["end_to_end"]:
        assert line["metrics"][name["name"]]["value"] > 0, name
    assert report["also"]["fail_frac"] == 0.0
    assert "op_ms.p90" in report["also"]
    assert report["end_to_end"]["op_ms.p50"]["samples"] == line["attempted"]
    assert set(ENV_KEYS) <= set(report["env"])
    assert report["env"]["tracing"] is False

    traced = [run(workload, 1) for _ in range(2)]
    for report, line in traced:
        check_line(line, SPEC["per_layer"])
        assert report["env"]["tracing"] is True
    first, second = (line["metrics"] for _, line in traced)
    for name in EXACT:
        assert first[name]["value"] == second[name]["value"], name


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = bench(tmp_path, WORKLOADS[0], 0)
    assert out.returncode != 0
    assert out.stdout == ""
