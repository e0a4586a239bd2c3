import json
import os
import subprocess
import sys

import mmrec

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(mmrec.__file__)))
TOOL = os.path.join(ROOT, "tools", "parity.py")


def parity(*args):
    return subprocess.run([sys.executable, TOOL, *map(str, args)],
                          capture_output=True, text=True)


def test_compare_passes_on_itself_and_fails_on_one_altered_digest(tmp_path):
    out = tmp_path / "a.json"
    assert parity(ROOT, out).returncode == 0
    assert parity("--compare", out, out).returncode == 0
    report = json.loads(out.read_text())
    key = sorted(report["digests"])[0]
    report["digests"][key] = "0" * 64
    altered = tmp_path / "b.json"
    altered.write_text(json.dumps(report))
    result = parity("--compare", out, altered)
    assert result.returncode == 1
    assert key in result.stdout
