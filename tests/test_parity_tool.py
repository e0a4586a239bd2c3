import json
import os
import subprocess
import sys

import numpy as np
import pytest

import mmrec

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(mmrec.__file__)))
TOOL = os.path.join(ROOT, "tools", "parity.py")


def parity(*args):
    return subprocess.run([sys.executable, TOOL, *map(str, args)],
                          capture_output=True, text=True)


@pytest.fixture(scope="module")
def digests(tmp_path_factory):
    """The tool's digests of this checkout, and the gradients beside them."""
    out = tmp_path_factory.mktemp("parity") / "a.json"
    assert parity(ROOT, out).returncode == 0
    return out


def test_compare_passes_on_itself_and_fails_on_one_altered_digest(digests, tmp_path):
    out = digests
    assert parity("--compare", out, out).returncode == 0
    report = json.loads(out.read_text())
    key = sorted(report["digests"])[0]
    report["digests"][key] = "0" * 64
    altered = tmp_path / "b.json"
    altered.write_text(json.dumps(report))
    result = parity("--compare", out, altered)
    assert result.returncode == 1
    assert key in result.stdout


def test_compare_reports_how_far_a_differing_gradient_moved(digests, tmp_path):
    report = json.loads(digests.read_text())
    with np.load(digests.with_suffix(".npz")) as f:
        arrays = dict(f)
    grads = sorted(k for k in report["digests"] if k.startswith("grad/"))
    assert sorted(arrays) == sorted(k for k in report["digests"]
                                    if k.startswith(("grad/", "prefixes/")))
    # move the smallest gradient of one loss by 1e-3 of that loss's largest
    # entry, and give it a new digest
    loss = grads[0].rsplit("/", 1)[0]
    of_loss = [k for k in grads if k.startswith(loss + "/")]
    scale = max(np.abs(arrays[k]).max() for k in of_loss)
    key = min(of_loss, key=lambda k: np.abs(arrays[k]).max())
    arrays[key].reshape(-1)[0] += 1e-3 * scale
    report["digests"][key] = "0" * 64
    altered = tmp_path / "b.json"
    altered.write_text(json.dumps(report))
    np.savez(tmp_path / "b.npz", **arrays)
    result = parity("--compare", digests, altered)
    assert result.returncode == 1
    lines = result.stdout.splitlines()
    at = lines.index(next(line for line in lines if key in line))
    move = float(lines[at + 1].rsplit(":", 1)[1])
    assert move == pytest.approx(1e-3, rel=1e-2)
    assert f"largest gradient move: {lines[at + 1].rsplit(':', 1)[1].strip()}" in result.stdout


def test_digests_cover_every_contrastive_variant(digests):
    # nicl is a part of the total; vcl and icl are written alone, each with
    # its own gradients
    report = json.loads(digests.read_text())["digests"]
    seeds = sorted({k.split("/")[1] for k in report if k.startswith("loss/")})
    assert len(seeds) == 3
    for seed in seeds:
        for variant in ("nicl", "vcl", "icl"):
            assert f"loss/{seed}/{variant}" in report
        for variant in ("vcl", "icl"):
            assert any(k.startswith(f"grad/{variant}/{seed}/") for k in report)


def test_digests_cover_a_two_block_user_encoder(digests, tmp_path):
    # with two user blocks, block 0 is a full block over every position of
    # the read path's prefixes; their states are kept, and a move of one is
    # reported against its largest entry
    report = json.loads(digests.read_text())
    for kind in ("valid", "test", "cold"):
        assert f"prefixes/ub2/{kind}" in report["digests"]
        assert f"rank/ub2/{kind}" in report["digests"]
    with np.load(digests.with_suffix(".npz")) as f:
        arrays = dict(f)
    key = "prefixes/ub2/valid"
    arrays[key].reshape(-1)[0] += 1e-13 * np.abs(arrays[key]).max()
    report["digests"][key] = "0" * 64
    altered = tmp_path / "b.json"
    altered.write_text(json.dumps(report))
    np.savez(tmp_path / "b.npz", **arrays)
    result = parity("--compare", digests, altered)
    assert result.returncode == 1
    summary = next(line for line in result.stdout.splitlines()
                   if line.startswith("largest state move:"))
    assert float(summary.split()[3]) == pytest.approx(1e-13, rel=1e-2)
    assert summary.endswith(f"({key})")
