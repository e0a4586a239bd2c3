"""Alternating parent/change benchmark pairs, summarised in a BENCH_<n>.json.

    python tools/pairs.py PARENT OUT.json --change TEXT --pairs N \\
        --workload pretrain=9101 [--workload rank=9201 ...] [--seconds S] [--tiny]
        [--claim WORKLOAD:METRIC]

PARENT is a git revision. Its `src/` is unpacked with `git archive` into
`.bench_build/parent/`, and the working tree's `src/` is copied into
`.bench_build/change/`. Each side gets a copy of the working tree's
`bench/`, so both run one harness, and both are removed at the end.

Pair i of a workload runs seed FIRST_SEED + i on both sides with
`bench/run.py --trace 0` for S seconds (BENCHMARK.json's `run_seconds` by
default). The parent runs first in pairs 1, 3, 5, ... and the change first
in the others. OUT.json holds, per workload and end-to-end metric, both
sides' runs, their medians and quartiles, the ratio of the medians
(change / parent), and the pairs the change won and lost; a tie counts for
neither. A metric whose change median is worse than the parent's by more
than its BENCHMARK.json bound is named in `result`. TEXT describes the
change.

With --claim, OUT.json's `claimed` names the end-to-end metric the change
claims to improve on one of the workloads, and `result` states whether the
change's median beat the parent's, by how much against the parent's
interquartile range, and in how many pairs. The claim holds when the
median is better by more than that range and the change won at least nine
tenths of the pairs.
"""

import argparse
import io
import json
import shutil
import statistics
import subprocess
import sys
import tarfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build"
SIDES = ("parent", "change")
# environment keys that differ between runs, left out of OUT.json's environment
PER_RUN = ("git_commit", "seed", "seconds", "tiny", "tracing")


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", help="git revision of the parent")
    ap.add_argument("out", type=Path, help="the BENCH_<n>.json to write")
    ap.add_argument("--change", required=True, help="one line describing the change")
    ap.add_argument("--pairs", type=int, required=True)
    ap.add_argument("--workload", action="append", required=True,
                    metavar="NAME=FIRST_SEED")
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--tiny", action="store_true", help="bench/run.py's tiny inputs")
    ap.add_argument("--claim", metavar="WORKLOAD:METRIC",
                    help="the end-to-end metric the change claims to improve")
    args = ap.parse_args(argv)
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")
    try:
        args.workload = [(name, int(seed)) for name, seed in
                         (w.split("=") for w in args.workload)]
    except ValueError:
        ap.error("--workload takes NAME=FIRST_SEED")
    if args.claim is not None:
        metrics = {m["name"] for m in json.loads(
            (ROOT / "BENCHMARK.json").read_text())["end_to_end"]}
        workload, _, metric = args.claim.partition(":")
        if workload not in {name for name, _ in args.workload} or metric not in metrics:
            ap.error(f"--claim takes WORKLOAD:METRIC with a --workload name and one "
                     f"of {', '.join(sorted(metrics))}, not {args.claim!r}")
        args.claim = (workload, metric)
    return args


def git(*args):
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True,
                          check=True).stdout


def build(parent):
    """The parent's and the working tree's `src/`, each beside a copy of the
    working tree's `bench/`; returns {side: its root}."""
    roots = {side: BUILD / side for side in SIDES}
    for side, root in roots.items():
        shutil.rmtree(root, ignore_errors=True)
        shutil.copytree(ROOT / "bench", root / "bench",
                        ignore=shutil.ignore_patterns("__pycache__"))
    with tarfile.open(fileobj=io.BytesIO(git("archive", "--format=tar", parent, "src"))) as t:
        t.extractall(roots["parent"], filter="data")
    shutil.copytree(ROOT / "src", roots["change"] / "src",
                    ignore=shutil.ignore_patterns("__pycache__"))
    return roots


def clean():
    for side in SIDES:
        shutil.rmtree(BUILD / side, ignore_errors=True)
    try:
        BUILD.rmdir()
    except OSError:
        pass  # a benchmark run from the checkout still uses it


def bench(root, workload, seed, seconds, tiny):
    """The full report and the result line of one `bench/run.py` run."""
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0", *(["--tiny"] if tiny else [])]
    out = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    if out.returncode != 0:
        sys.exit(f"pairs: {' '.join(cmd[1:])} in {root} failed:\n{out.stderr}")
    report, line = out.stdout.strip().splitlines()[-2:]
    return json.loads(report), json.loads(line)


def quartiles(runs):
    if len(runs) == 1:
        return runs[0], runs[0]
    q1, _, q3 = statistics.quantiles(runs, n=4, method="inclusive")
    return q1, q3


def summary(spec, runs):
    """One metric's entry: both sides' medians and quartiles, the ratio and
    the change's wins and losses over the pairs."""
    sign = 1 if spec["better"] == "lower" else -1
    entry = {"better": spec["better"], "bound": spec["bound"]}
    for side in SIDES:
        entry[f"{side}_median"] = statistics.median(runs[side])
        entry[f"{side}_q1"], entry[f"{side}_q3"] = quartiles(runs[side])
    entry["ratio"] = entry["change_median"] / entry["parent_median"]
    deltas = [sign * (c - p) for p, c in zip(runs["parent"], runs["change"])]
    entry["change_wins"] = sum(d < 0 for d in deltas)
    entry["change_losses"] = sum(d > 0 for d in deltas)
    entry = {k: round(v, 4) if isinstance(v, float) else v for k, v in entry.items()}
    entry.update({f"{side}_runs": [round(v, 4) for v in runs[side]] for side in SIDES})
    entry["worse_than_bound"] = sign * (entry["ratio"] - 1) > spec["bound"]
    return entry


def measure(roots, name, first_seed, args, specs, seconds):
    """One workload's pairs, as OUT.json's entry, and the environment of
    its first change run."""
    seeds = [first_seed + i for i in range(args.pairs)]
    first = [SIDES[i % 2] for i in range(args.pairs)]
    lines, env = {side: [] for side in SIDES}, None
    for seed, lead in zip(seeds, first):
        for side in sorted(SIDES, key=lambda s: s != lead):
            report, line = bench(roots[side], name, seed, seconds, args.tiny)
            lines[side].append(line)
            if env is None and side == "change":
                env = report["env"]
    entry = {
        "pairs": args.pairs,
        "seeds": seeds,
        "first": first,
        "failed_ops": {s: sum(l["failed"] for l in lines[s]) for s in SIDES},
        "attempted_ops": {s: sum(l["attempted"] for l in lines[s]) for s in SIDES},
        "all_correct": all(l["correct"] for s in SIDES for l in lines[s]),
        "run_seconds": seconds,
        "metrics": {spec["name"]: summary(spec, {
            s: [l["metrics"][spec["name"]]["value"] for l in lines[s]] for s in SIDES})
            for spec in specs},
    }
    return entry, env


def claim(workload, metric, entry):
    """OUT.json's `claimed` for `metric` on `workload`, whose OUT.json entry
    is `entry`: the change's margin over the parent's median against the
    parent's interquartile range, its wins, and whether the claim holds."""
    e = entry["metrics"][metric]
    sign = 1 if e["better"] == "lower" else -1
    margin = sign * (e["parent_median"] - e["change_median"])
    iqr = e["parent_q3"] - e["parent_q1"]
    return {
        "workload": workload, "metric": metric,
        "change_beat_parent": margin > 0,
        "margin": round(margin, 4), "parent_iqr": round(iqr, 4),
        "margin_over_iqr": round(margin / iqr, 2) if iqr else None,
        "change_wins": e["change_wins"], "pairs": entry["pairs"],
        "met": margin > iqr and 10 * e["change_wins"] >= 9 * entry["pairs"],
    }


def main(argv):
    args = parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    parent = git("rev-parse", "--short", args.parent).decode().strip()
    try:
        roots = build(args.parent)
        workloads, env = {}, None
        for name, first_seed in args.workload:
            workloads[name], first_env = measure(roots, name, first_seed, args,
                                                 spec["end_to_end"], seconds)
            env = env or first_env
    finally:
        clean()
    worse = [f"{w} {m}: {e['ratio']}x (bound {e['bound']})"
             for w, entry in workloads.items() for m, e in entry["metrics"].items()
             if e["worse_than_bound"]]
    seeds = "; ".join(f"{w} {e['seeds'][0]}-{e['seeds'][-1]}" for w, e in workloads.items())
    claimed = args.claim and claim(*args.claim, workloads[args.claim[0]])
    verdict = ("no end-to-end metric is worse than its bound" if not worse else
               "worse than the bound: " + "; ".join(worse))
    if claimed:
        verdict += (f"; claimed {claimed['workload']} {claimed['metric']}: the change's "
                    f"median {'beat' if claimed['change_beat_parent'] else 'did not beat'} "
                    f"the parent's by {claimed['margin']} against a parent IQR of "
                    f"{claimed['parent_iqr']}, and won {claimed['change_wins']} of "
                    f"{claimed['pairs']} pairs: the claim "
                    f"{'holds' if claimed['met'] else 'does not hold'}")
    result = {
        "change": args.change,
        "parent": parent,
        "claimed": claimed,
        "method": (f"tools/pairs.py: bench/run.py --trace 0, --seconds {seconds:g} on "
                   f"both sides{', --tiny' if args.tiny else ''}; parent (git archive "
                   f"of {parent}) and change (the working tree's src/), each beside a "
                   "copy of the working tree's bench/; pairs alternate which side runs "
                   f"first, the parent first in pair 1; seeds {seeds}"),
        "environment": {k: v for k, v in env.items() if k not in PER_RUN},
        "workloads": workloads,
        "result": verdict,
    }
    args.out.write_text(json.dumps(result, indent=1) + "\n")
    print(result["result"])
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
