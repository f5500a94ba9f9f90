"""bflow benchmark: one workload per run, end-to-end or traced.

    python3 perfbench/run.py --workload train-strings --seed 1 --seconds 15 --trace 0

Run from the root of a source checkout; the program is imported from
``src/`` of that checkout.  The BLAS thread count is fixed at 1 before
numpy loads.  ``--trace 0`` measures the end-to-end metrics with no
wrappers installed, scaled to reference host speed (see ``calibrate.py``);
``--trace 1`` measures the per-layer metrics (see ``layers.py``).  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  A full record of the
run (environment, load average, the workload's own values, failures) is written
to ``.bench_out/`` in the checkout, with the spans of a traced run.
"""

import time

_T0 = time.perf_counter()

import os  # noqa: E402

BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import importlib.util  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402

import bflow  # noqa: E402

if not os.path.abspath(bflow.__file__).startswith(os.path.join(ROOT, "src", "")):
    raise SystemExit(f"bflow imported from {bflow.__file__}, not from this checkout's src/")

from bflow import kernels  # noqa: E402

import calibrate  # noqa: E402
import layers  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer  # noqa: E402

IMPORT_S = time.perf_counter() - _T0
OUT_DIR = os.path.join(ROOT, ".bench_out")


def loadavg():
    try:
        with open("/proc/loadavg", encoding="ascii") as fh:
            return fh.read().split()[:3]
    except OSError:
        return None


def environment():
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "kernels_numba_enabled": getattr(kernels, "NUMBA_ENABLED", False),
        "kernel_path": "numba" if getattr(kernels, "NUMBA_ENABLED", False) else "numpy",
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
    }


def declared_metrics(kind):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


def set_up(wl, seed, workdir):
    """Repeat the workload's set-up, calibrating before and after.

    Returns (state, set-up seconds, the same at reference host speed,
    set-up layer timings).
    """
    timings = {}
    times = []
    before = calibrate.seconds()
    for _ in range(workloads.SETUP_REPEATS):
        t0 = time.perf_counter()
        state = wl.setup(seed, workdir, timings)
        times.append(time.perf_counter() - t0)
    speed = (before + calibrate.seconds()) / (2.0 * calibrate.REF_S)
    setup_s = IMPORT_S + statistics.median(times)
    return state, setup_s, setup_s / speed, timings


def run_untraced(wl, state, seconds, checks):
    """Time units of work with no wrappers installed, calibrating between them.

    A workload with ``pass_units`` runs exactly one pass of that many
    unequal units and reports its total rate; any other repeats its unit
    until ``seconds`` have passed and reports the median rate.  Returns
    (ops/s, ops/s at reference host speed, unit seconds, host speed factors,
    output of the first unit).
    """
    ops, times, speeds, first = [], [], [], None
    before = calibrate.seconds()
    start = time.perf_counter()
    rep = 0
    while True:
        t0 = time.perf_counter()
        n, out = wl.unit(state, rep)
        dt = time.perf_counter() - t0
        after = calibrate.seconds()
        wl.check(state, out, checks)
        ops.append(n)
        times.append(dt)
        speeds.append((before + after) / (2.0 * calibrate.REF_S))
        before = after
        if first is None:
            first = out
        rep += 1
        if rep == wl.pass_units or (wl.pass_units is None and time.perf_counter() - start >= seconds):
            break
    ops, times, speeds = np.array(ops), np.array(times), np.array(speeds)
    if wl.pass_units:
        rate, ref_rate = ops.sum() / times.sum(), ops.sum() / (times / speeds).sum()
    else:
        rate, ref_rate = np.median(ops / times), np.median(ops / times * speeds)
    return float(rate), float(ref_rate), times, speeds, first


def run_traced(wl, state, checks, tracer):
    """Run each unit untraced, then traced on the same inputs.

    Returns the traced outputs and (untraced seconds, traced seconds, ops).
    """
    untraced_s = traced_s = 0.0
    ops_total = 0
    outputs = []
    for rep in range(wl.pass_units or workloads.TRACED_REPEATS):
        t0 = time.perf_counter()
        ops, base = wl.unit(state, rep)
        untraced_s += time.perf_counter() - t0
        workloads.install(tracer)
        try:
            t0 = time.perf_counter()
            _, traced = wl.unit(state, rep)
            traced_s += time.perf_counter() - t0
        finally:
            tracer.restore()
        ops_total += ops
        checks.expect(wl.same_output(base, traced), f"traced unit {rep} differs from the untraced one")
        wl.check(state, traced, checks)
        outputs.append(traced)
    return outputs, (untraced_s, traced_s, ops_total)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"],
                    help="'all' runs every workload in turn, each in its own process")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if args.workload == "all":
        codes = [
            subprocess.run([sys.executable, os.path.abspath(__file__), "--workload", name,
                            "--seed", str(args.seed), "--seconds", str(args.seconds),
                            "--trace", str(args.trace)], check=False).returncode
            for name in workloads.WORKLOADS
        ]
        return max(codes)

    wl = workloads.WORKLOADS[args.workload]
    record = {"workload": wl.name, "seed": args.seed, "trace": args.trace, "seconds": args.seconds,
              "environment": environment(), "loadavg_before": loadavg()}
    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = os.path.join(OUT_DIR, f"work-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    checks = workloads.Checks()
    try:
        state, setup_wall_s, setup_s, timings = set_up(wl, args.seed, workdir)
        if args.trace:
            tracer = Tracer()
            outputs, overhead = run_traced(wl, state, checks, tracer)
            reports = [r for out in outputs for r in out] if wl.name == "verify" else None
            metrics = layers.metrics(tracer, timings, reports, overhead)
            kind = "per_layer"
            record["spans"] = len(tracer.start)
            record["trace_points_missing"] = sorted(tracer.missing)
            tracer.save(os.path.join(OUT_DIR, f"spans-{wl.name}-seed{args.seed}.npz"))
        else:
            ops_per_s, ops_per_ref_s, unit_times, speeds, first = run_untraced(wl, state, args.seconds, checks)
            metrics = {
                "setup_s": (setup_s, "s"),
                "ops_per_ref_s": (ops_per_ref_s, "1/s"),
                "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
            }
            kind = "end_to_end"
            details = {"setup_s": (setup_s, "s"), "setup_wall_s": (setup_wall_s, "s"),
                       "import_s": (IMPORT_S, "s"),
                       "ops_per_s": (ops_per_s, "1/s"),
                       "peak_rss_mb": metrics["peak_rss_mb"], "units_timed": (len(unit_times), "count"),
                       "host_speed_factor": (float(np.median(speeds)), "ratio")}
            details.update(wl.summary(state, first, ops_per_s, unit_times))
            details["error_rate"] = (checks.failed / max(checks.attempted, 1), "failed/attempted")
            record["details"] = details
            for name, (value, unit) in details.items():
                print(f"{name:<28} {value} {unit}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    record["loadavg_after"] = loadavg()

    declared = declared_metrics(kind)
    produced = {name: unit for name, (_, unit) in metrics.items()}
    if produced != declared:
        raise SystemExit(f"metrics differ from BENCHMARK.json {kind}: "
                         f"{sorted(set(produced.items()) ^ set(declared.items()))}")
    record["failures"] = checks.failures
    record["metrics"] = {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}
    with open(os.path.join(OUT_DIR, f"result-{wl.name}-seed{args.seed}-trace{args.trace}.json"),
              "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, default=str)
    print("environment", json.dumps(record["environment"]))
    print("loadavg before", record["loadavg_before"], "after", record["loadavg_after"])
    for failure in checks.failures:
        print("FAILED:", failure)
    result = {
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": record["metrics"],
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
