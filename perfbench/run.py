"""The repository benchmark: end-to-end metrics, or per-layer metrics from a traced run.

Run from the repository root:

    python3 perfbench/run.py --workload flagship --seed 42 --seconds 38 --trace 0
    python3 perfbench/run.py --workload all          # table of every workload

The last line of a single-workload run is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  See README.md.
"""
from __future__ import annotations

import argparse
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

MIN_SETUPS = 3
MAX_SETUPS = 25
SETUP_SECONDS = 1.5   # keep setting up until this much time is spent (up to MAX_SETUPS)
RUN_LIMIT_S = 170.0   # the whole run, set-up included, ends within this

BYTES_NOTE = ("bytes are computed from array sizes, not measured; with 80 MB K x N "
              "arrays against a shared L3 no bandwidth roofline ratio is claimed")


def load_program():
    """Import cvarpath from this checkout's src/, or return None."""
    sys.path.insert(0, str(SRC))
    try:
        import cvarpath
    except ImportError:
        return None
    if Path(cvarpath.__file__).resolve().parent != SRC / "cvarpath":
        return None
    return cvarpath


def _read(path):
    try:
        return Path(path).read_text()
    except OSError:
        return ""


def _blas_threads():
    """Thread count of the OpenBLAS library loaded into this process, if any."""
    import ctypes

    maps = _read("/proc/self/maps")
    libs = sorted({line.split()[-1] for line in maps.splitlines() if "openblas" in line})
    for lib in libs:
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def machine_record():
    import platform

    import numpy as np

    model = re.search(r"^model name\s*:\s*(.+)$", _read("/proc/cpuinfo"), re.M)
    caches = {}
    for index in range(4):
        base = f"/sys/devices/system/cpu/cpu0/cache/index{index}/"
        level = _read(base + "level").strip()
        if level in ("2", "3"):
            caches[f"l{level}"] = _read(base + "size").strip()
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": len(os.sched_getaffinity(0)),
            "cpu": model.group(1) if model else platform.processor(),
            "l2": caches.get("l2"), "l3": caches.get("l3"),
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": _blas_threads(),
            "note": BYTES_NOTE}


def timed_setups(workloads, workload, seed, workdir):
    """Repeat the set-up; returns (setup times, generate times, last matrix)."""
    setups, generates = [], []
    while len(setups) < MIN_SETUPS or (sum(setups) < SETUP_SECONDS
                                        and len(setups) < MAX_SETUPS):
        matrix = None  # free the previous inputs before making new ones
        t0 = perf_counter()
        matrix, generate_s = workloads.setup(workload, seed, workdir)
        setups.append(perf_counter() - t0)
        generates.append(generate_s)
    return setups, generates, matrix


def run_worker(job, workdir, timeout):
    job_path = workdir / "job.json"
    job_path.write_text(json.dumps(job))
    proc = subprocess.run([sys.executable, str(HERE / "worker.py"), str(job_path)],
                          capture_output=True, text=True, timeout=timeout)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"worker exited {proc.returncode}")
    return json.loads(lines[-1])


def measure(workload, seed, seconds, trace, work_root=WORK):
    """Set up, run the worker and return the result object plus a summary."""
    import workloads  # imports cvarpath, so only after load_program()

    started = perf_counter()
    work_root.mkdir(parents=True, exist_ok=True)
    workdir = work_root / f"{workload.name}-seed{seed}-{os.getpid()}"
    workdir.mkdir()
    try:
        setups, generates, matrix = timed_setups(workloads, workload, seed, workdir)
        workloads.save_inputs(workload, matrix, workdir)
        del matrix
        reference = workloads.reference_for(workload, seed)
        trace_path = work_root / f"trace-{workload.name}-seed{seed}.tsv"
        job = {"workload": vars(workload), "workdir": str(workdir), "src": str(SRC),
               "reference": str(reference) if reference else None,
               "seconds": seconds, "trace": trace, "trace_path": str(trace_path)}
        out = run_worker(job, workdir, RUN_LIMIT_S - (perf_counter() - started))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if not out["times"]:
        raise RuntimeError("no call completed: " + "; ".join(out["failures"]))
    if trace:
        metrics = dict(out["layers"] or {})
        metrics["data.generate.s"] = {"value": statistics.median(generates), "unit": "s"}
    else:
        metrics = {"wall_s": {"value": statistics.median(out["times"]), "unit": "s"},
                   "setup_s": {"value": statistics.median(setups), "unit": "s"},
                   "peak_rss_mib": {"value": out["peak_rss_mib"], "unit": "MiB"}}
    result = {"correct": out["failed"] == 0, "attempted": out["attempted"],
              "failed": out["failed"], "metrics": metrics}
    summary = {"wall_s_samples": out["times"], "setup_s_samples": setups,
               "fail_ratio": out["failed"] / out["attempted"],
               "failures": out["failures"], "absent_spans": out["absent"],
               "reference": str(reference.relative_to(ROOT)) if reference else None,
               "trace_file": str(trace_path) if trace and out["layers"] else None}
    return result, summary


def print_run(workload, seed, seconds, trace, work_root=WORK):
    """Measure one workload and print every metric with its unit, then the result line."""
    result, summary = measure(workload, seed, seconds, trace, work_root)
    print(f"workload={workload.name} seed={seed} seconds={seconds} trace={trace}")
    print("machine: " + json.dumps(machine_record()))
    print("summary: " + json.dumps(summary))
    for name, metric in result["metrics"].items():
        print(f"{name} = {metric['value']!r} {metric['unit']}")
    print(f"fail_ratio = {summary['fail_ratio']!r} ratio "
          f"({result['failed']}/{result['attempted']})")
    print(json.dumps(result))
    return result


def run_all(args):
    """Each workload in a process of its own, so peak memory is per workload."""
    import workloads

    print(f"{'workload':10} {'metric':13} {'value':>14} unit")
    ok = True
    for name in workloads.WORKLOADS:
        proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", name,
                               "--seed", str(args.seed), "--seconds", str(args.seconds),
                               "--trace", "0"], capture_output=True, text=True)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name:10} failed to run (exit {proc.returncode})")
            ok = False
            continue
        result = json.loads(lines[-1])
        rows = [(m, v["value"], v["unit"]) for m, v in result["metrics"].items()]
        rows.append(("fail_ratio", result["failed"] / result["attempted"], "ratio"))
        for metric, value, unit in rows:
            print(f"{name:10} {metric:13} {value:14.6g} {unit}")
        ok = ok and result["correct"]
    return 0 if ok else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        help="flagship, large_k, cli_wide, or all")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=38.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if load_program() is None:
        print(f"cannot import cvarpath from {SRC}", file=sys.stderr)
        return 2
    import workloads

    if args.workload == "all":
        return run_all(args)
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}")
    print_run(workloads.WORKLOADS[args.workload], args.seed, args.seconds, args.trace)
    return 0


if __name__ == "__main__":
    sys.exit(main())
