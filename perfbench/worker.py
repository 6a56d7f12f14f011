"""Makes the timed calls of one workload in a process of its own.

The set-up runs in the parent, so this process's peak resident memory is the
workload's: the loaded inputs plus what the timed calls allocate.

Usage: python3 perfbench/worker.py JOB_JSON   (written by run.py)
Prints one JSON object as its last line.
"""
from __future__ import annotations

import json
import resource
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

MIN_CALLS = 2
MAX_MESSAGES = 5  # failure messages passed on; all failures are counted


def peak_rss_mib():
    """Peak resident memory of this process.

    ``ru_maxrss`` of a process started by exec also holds the peak of the
    process that started it, so prefer the kernel's VmHWM, which does not.
    """
    try:
        status = Path("/proc/self/status").read_text()
    except OSError:
        status = ""
    for line in status.splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def timed_calls(timed, seconds, reserved):
    """Untraced calls, at least MIN_CALLS, while they end within ``seconds``.

    ``reserved`` more calls of median length are left room for at the end.
    Returns the call times, the number attempted and one message per failure.
    """
    times, failures = [], []
    attempted = 0
    start = perf_counter()
    while True:
        attempted += 1
        try:
            t0 = perf_counter()
            outcome = timed.call()
            times.append(perf_counter() - t0)
            problems = timed.check(outcome)
            if problems:
                failures.append("; ".join(problems))
        except Exception:  # a raising call is a failed attempt, not a crash
            failures.append(traceback.format_exc())
        expected = statistics.median(times) if times else 0.0
        if (attempted >= MIN_CALLS
                and perf_counter() - start + (1 + reserved) * expected > seconds):
            return times, attempted, failures


def traced_call(timed, untraced_median, job, tracing):
    """One call with every layer wrapped.

    Returns the failure message or None, the layer metrics (None if the call
    raised) and the span names whose attribute is missing.
    """
    tracer = tracing.Tracer()
    try:
        with tracer.installed() as missing:
            t0 = perf_counter()
            with tracer.span(timed.root_span):
                outcome = timed.call()
            wall = perf_counter() - t0
        problems = timed.check(outcome)
    except Exception:
        return traceback.format_exc(), None, []
    result = tracer.last_run_result if timed.workload.via_cli else outcome
    scenarios = Path(job["workdir"]) / "scenarios.csv"
    layers = tracing.layer_metrics(tracer, result, wall, untraced_median,
                                   timed.workload.n_scenarios, timed.workload.n_groups,
                                   scenarios.stat().st_size if scenarios.exists() else 0)
    tracer.write(job["trace_path"])
    return "; ".join(problems) or None, layers, missing


def main(job_path):
    job = json.loads(Path(job_path).read_text())
    sys.path.insert(0, job["src"])
    import tracing
    import workloads

    workload = workloads.Workload(**job["workload"])
    reference = Path(job["reference"]) if job["reference"] else None
    timed = workloads.Timed(workload, job["workdir"], reference)
    times, attempted, failures = timed_calls(timed, job["seconds"], job["trace"])
    out = {"times": times, "attempted": attempted, "failed": len(failures),
           "failures": failures[:MAX_MESSAGES], "layers": None, "absent": []}
    if job["trace"] and times:
        failure, out["layers"], out["absent"] = traced_call(
            timed, statistics.median(times), job, tracing)
        out["attempted"] += 1
        if failure:
            out["failed"] += 1
            out["failures"].append(failure)
    out["peak_rss_mib"] = peak_rss_mib()
    print(json.dumps(out))


if __name__ == "__main__":
    main(sys.argv[1])
