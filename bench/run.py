"""Benchmark for mmrec: one closed-loop, single-process workload per run.

Usage, from the root of a source checkout:

    python3 bench/run.py --workload {pretrain,rank,gradcheck} --seed N \
        --seconds S --trace {0,1} [--tiny]

The program is imported from ``src/`` of the checkout the script sits in.
With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics; with ``--trace 1`` it carries the per-layer
metrics of a traced run. The line before it is a full report: the
environment, every metric with its sample count, and the output checks.
``--tiny`` shrinks every input so the benchmark's own test runs quickly.
See bench/README.md for the workloads and the metrics.
"""

import os
import sys
import time

_PROCESS_T0 = time.perf_counter()

# BLAS reads its thread count once, when numpy is first imported, so the pin
# has to happen before any import that pulls numpy in.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
                    "NUMEXPR_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("pretrain", "rank", "gradcheck"))
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="tiny inputs, for the benchmark's own test")
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    if not args.seconds > 0:
        ap.error("--seconds must be > 0")
    return args


def import_program():
    """Import mmrec from this checkout's src/, never from an installed copy."""
    if not (SRC / "mmrec" / "__init__.py").is_file():
        sys.exit(f"bench: no program source at {SRC / 'mmrec'}")
    sys.path.insert(0, str(SRC))
    import mmrec
    if Path(mmrec.__file__).resolve().parent != (SRC / "mmrec").resolve():
        sys.exit(f"bench: imported mmrec from {mmrec.__file__}, not from {SRC}")


def main(argv=None):
    args = parse_args(argv)
    import_program()
    import harness  # imports numpy and mmrec, so only after the pin and the path

    report, line = harness.run(args, ROOT, _PROCESS_T0)
    print(json.dumps(report, sort_keys=True))
    print(json.dumps(line, sort_keys=True))


if __name__ == "__main__":
    main()
