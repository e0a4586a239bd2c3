"""Runs one workload: repeated set-up, the timed phase, the output checks,
and the metrics. A traced run adds a traced set-up and a traced phase after
an untraced one, so that it can report the tracing overhead."""

import ctypes
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback

import numpy as np

import tracing
import workloads

# set-up is repeated and its median reported, so that work moved into
# set-up shows; a cheap set-up is repeated until it adds up to a second
SETUP_MIN_REPEATS = 3
SETUP_MIN_SECONDS = 1.0
SETUP_MAX_REPEATS = 100
P90_MIN_OPS = 100  # at least ten samples beyond the 90th percentile
COVERAGE_MIN_PCT = 90.0
COVERAGE_WORKLOADS = ("pretrain", "rank")
WORKDIR = ".bench_build"  # under the checkout; removed when the run ends

END_TO_END_UNITS = {"setup_s": "s", "throughput": "1/s", "op_ms.p50": "ms",
                    "peak_rss_mb": "MB"}


def timed_phase(wl, st, ops, seconds):
    """Run whole units until their total is nearest to `seconds`."""
    t0 = time.perf_counter()
    while True:
        u0 = time.perf_counter()
        n0 = len(ops)
        try:
            wl.unit(st, ops)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            ops.abort()
            if len(ops) == n0:  # the unit failed before its first op
                ops.begin()
                ops.finish(False)
        now = time.perf_counter()
        if now - t0 + (now - u0) / 2 >= seconds:
            return now - t0


def run_phase(wl, st, ops, seconds, tracer=None):
    patches = tracing.Patches()
    try:
        if tracer is not None:
            tracer.ops = ops
            tracer.install(patches)
        wl.hook(patches, ops)  # outermost, so an op encloses its spans
        return timed_phase(wl, st, ops, seconds)
    finally:
        patches.restore()


def phase_metrics(ops, elapsed):
    lat = ops.latencies_ms()
    return {
        "throughput": ops.work / elapsed,
        "op_ms.p50": statistics.median(lat) if lat else math.nan,
        "op_ms.p90": (float(np.percentile(lat, 90))
                      if len(lat) >= P90_MIN_OPS else None),
        "ops": len(ops),
        "work": ops.work,
        "elapsed_s": elapsed,
        "fail_frac": ops.failed() / max(1, len(ops)),
    }


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run(args, root, process_t0):
    """Returns (full report, result line) for one run."""
    wl = workloads.WORKLOADS[args.workload](args.tiny)
    base = root / WORKDIR
    base.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{wl.name}-", dir=base)
    run_patches = tracing.Patches()
    try:
        wl.shrink(run_patches)
        if args.trace:
            report = traced_run(wl, args, workdir)
        else:
            report = untraced_run(wl, args, workdir, process_t0)
    finally:
        run_patches.restore()
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            base.rmdir()
        except OSError:
            pass  # another run still uses it
    report["workload"] = wl.name
    report["work_unit"] = wl.work_unit
    report["env"] = environment(args, root)
    metrics = report["per_layer"] if args.trace else report["end_to_end"]
    line = {
        "correct": report["correct"],
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {k: {"value": v["value"], "unit": v["unit"]}
                    for k, v in metrics.items()},
    }
    return report, line


def set_up(wl, args, workdir, times, min_repeats):
    """Set up at least `min_repeats` times and for SETUP_MIN_SECONDS, adding
    each set-up's duration to `times`; returns the last state."""
    st = None
    spent = 0.0
    n = 0
    while n < min_repeats or (spent < SETUP_MIN_SECONDS
                              and n < SETUP_MAX_REPEATS):
        st = None  # release the previous set-up before building the next
        t0 = time.perf_counter()
        st = wl.setup(args.seed, workdir)
        times.append(time.perf_counter() - t0)
        spent += times[-1]
        n += 1
    return st


def untraced_run(wl, args, workdir, process_t0):
    setups = []
    st = set_up(wl, args, workdir, setups, SETUP_MIN_REPEATS)
    to_first_op = time.perf_counter() - process_t0
    ops = workloads.Ops()
    elapsed = run_phase(wl, st, ops, args.seconds)
    checks = wl.verify(st)
    st = None
    # more set-ups after the phase, so that the median samples the machine
    # at two moments and not in one burst
    set_up(wl, args, workdir, setups, 1)
    pm = phase_metrics(ops, elapsed)
    values = {"setup_s": statistics.median(setups),
              "throughput": pm["throughput"], "op_ms.p50": pm["op_ms.p50"],
              "peak_rss_mb": peak_rss_mb()}
    end_to_end = {k: {"value": v, "unit": END_TO_END_UNITS[k]}
                  for k, v in values.items()}
    end_to_end["setup_s"].update(samples=len(setups),
                                 process_start_to_first_op_s=to_first_op)
    end_to_end["op_ms.p50"]["samples"] = len(ops.latencies_ms())
    failed = ops.failed()
    return {
        "correct": failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "end_to_end": end_to_end,
        "also": {"op_ms.p90": pm["op_ms.p90"], "fail_frac": pm["fail_frac"],
                 "ops": pm["ops"], "work": pm["work"],
                 "elapsed_s": pm["elapsed_s"]},
        "checks": checks,
    }


def traced_run(wl, args, workdir):
    tracer = tracing.Tracer(workloads.Ops())
    patches = tracing.Patches()
    try:
        tracer.install(patches)
        st = wl.setup(args.seed, workdir)
    finally:
        patches.restore()
    setup_trace = tracer.collect()

    untraced = workloads.Ops()
    elapsed_u = run_phase(wl, st, untraced, args.seconds)
    traced = workloads.Ops()
    elapsed_t = run_phase(wl, st, traced, args.seconds, tracer)
    phase_trace = tracer.collect()
    checks = wl.verify(st)

    pm_u = phase_metrics(untraced, elapsed_u)
    pm_t = phase_metrics(traced, elapsed_t)
    layer = tracing.per_layer(setup_trace, phase_trace, traced,
                              pm_u["throughput"], pm_t["throughput"])
    per_layer = {k: {"value": v, "unit": u} for k, (v, u) in layer.items()}
    coverage = layer["trace.coverage_pct"][0]
    checks["coverage_ok"] = (wl.name not in COVERAGE_WORKLOADS
                             or coverage >= COVERAGE_MIN_PCT)
    failed = untraced.failed() + traced.failed()
    return {
        "correct": failed == 0 and checks["coverage_ok"],
        "attempted": len(untraced) + len(traced),
        "failed": failed,
        "per_layer": per_layer,
        "also": {"untraced": pm_u, "traced": pm_t, "spans": len(phase_trace[0])},
        "checks": checks,
    }


# ---------------------------------------------------------------------------
# environment
# ---------------------------------------------------------------------------

def blas_info():
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return blas.get("name", "unknown"), blas.get("version", "unknown")
    except (AttributeError, KeyError, TypeError):
        return "unknown", "unknown"


def blas_threads():
    """Threads the loaded OpenBLAS will use, asked from the library itself."""
    try:
        with open("/proc/self/maps") as f:
            libs = sorted({line.split()[-1] for line in f
                           if "openblas" in line and ".so" in line})
    except OSError:
        return None
    for lib in libs:
        try:
            dll = ctypes.CDLL(lib)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(dll, sym, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def git_commit(root):
    """HEAD of the checkout, read from .git without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(args, root):
    name, version = blas_info()
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu": cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": name,
        "blas_version": version,
        "blas_threads": blas_threads(),
        "openblas_num_threads_env": os.environ.get("OPENBLAS_NUM_THREADS"),
        "git_commit": git_commit(root),
        "seed": args.seed,
        "seconds": args.seconds,
        "tiny": args.tiny,
        "tracing": bool(args.trace),
    }
