import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "pairs.py"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_one_tiny_pair_gives_a_summary_per_end_to_end_metric(tmp_path):
    if subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                      capture_output=True).returncode != 0:
        pytest.skip("needs a git checkout with a commit to compare against")
    out = tmp_path / "BENCH.json"
    run = subprocess.run(
        [sys.executable, str(TOOL), "HEAD", str(out), "--change", "this checkout",
         "--pairs", "1", "--workload", "gradcheck=3", "--seconds", "0.1", "--tiny"],
        capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    report = json.loads(out.read_text())
    assert report["change"] == "this checkout" and report["claimed"] is None
    (entry,) = report["workloads"].values()
    assert entry["pairs"] == 1 and entry["seeds"] == [3] and entry["first"] == ["parent"]
    assert entry["all_correct"] and entry["failed_ops"] == {"parent": 0, "change": 0}
    assert set(entry["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    for name, m in entry["metrics"].items():
        assert len(m["parent_runs"]) == len(m["change_runs"]) == 1, name
        assert m["parent_q1"] == m["parent_median"] == m["parent_q3"], name
        assert m["change_wins"] + m["change_losses"] <= 1, name
        assert m["worse_than_bound"] == (f"gradcheck {name}:" in report["result"]), name
    assert not (ROOT / ".bench_build" / "parent").exists()
    assert not (ROOT / ".bench_build" / "change").exists()


def test_a_claim_is_judged_against_the_parents_spread(tmp_path):
    if subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                      capture_output=True).returncode != 0:
        pytest.skip("needs a git checkout with a commit to compare against")
    out = tmp_path / "BENCH.json"
    run = subprocess.run(
        [sys.executable, str(TOOL), "HEAD", str(out), "--change", "this checkout",
         "--pairs", "2", "--workload", "gradcheck=3", "--seconds", "0.1", "--tiny",
         "--claim", "gradcheck:op_ms.p50"],
        capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    report = json.loads(out.read_text())
    claimed = report["claimed"]
    e = report["workloads"]["gradcheck"]["metrics"]["op_ms.p50"]
    assert (claimed["workload"], claimed["metric"]) == ("gradcheck", "op_ms.p50")
    assert claimed["margin"] == round(e["parent_median"] - e["change_median"], 4)
    assert claimed["parent_iqr"] == round(e["parent_q3"] - e["parent_q1"], 4)
    assert claimed["change_beat_parent"] == (claimed["margin"] > 0)
    assert (claimed["change_wins"], claimed["pairs"]) == (e["change_wins"], 2)
    assert claimed["met"] == (claimed["margin"] > claimed["parent_iqr"]
                              and claimed["change_wins"] == 2)
    verdict = "holds" if claimed["met"] else "does not hold"
    assert f"claimed gradcheck op_ms.p50: the change's median" in report["result"]
    assert report["result"].endswith(f"the claim {verdict}")
    assert run.stdout.strip() == report["result"]


@pytest.mark.parametrize("bad", ["rank:op_ms.p50", "gradcheck:op_ms", "gradcheck"])
def test_a_claim_names_a_measured_workload_and_an_end_to_end_metric(bad, tmp_path):
    run = subprocess.run(
        [sys.executable, str(TOOL), "HEAD", str(tmp_path / "B.json"), "--change", "x",
         "--pairs", "1", "--workload", "gradcheck=3", "--claim", bad],
        capture_output=True, text=True, timeout=60)
    assert run.returncode == 2 and "--claim takes WORKLOAD:METRIC" in run.stderr
    assert not (tmp_path / "B.json").exists()
