"""Span tracing from outside the package, and the per-layer metrics read from it.

The traced run replaces the module attributes that the layers look up at call
time with wrappers that record a span (name, start, end, parent) in memory.
Nothing is wrapped in an untraced run. A span's self time is its duration
minus the durations of its direct children.
"""
from __future__ import annotations

import contextlib
import functools
import importlib
import sys
from time import perf_counter_ns

# (module whose attribute the caller looks up, attribute, span name).  The
# span name is the layer that implements the call, then the function.
TARGETS = (
    ("cvarpath.continuation", "report", "risk.report"),
    ("cvarpath.continuation", "select_coefficients", "projection.select_coefficients"),
    ("cvarpath.continuation", "constants", "projection.constants"),
    ("cvarpath.continuation", "extremum_kappas", "projection.extremum_kappas"),
    ("cvarpath.continuation", "solve_step", "projection.solve_step"),
    ("cvarpath.continuation", "apply_step", "continuation.apply_step"),
    ("cvarpath.continuation", "rescale_fixed_risk", "continuation.rescale_fixed_risk"),
    ("cvarpath.risk", "tail_split", "risk.tail_split"),
    ("cvarpath.risk", "cvar", "risk.cvar"),
    ("cvarpath.risk", "scaled_group_losses", "risk.scaled_group_losses"),
    ("cvarpath.cli", "parse_run_config", "data.parse_run_config"),
    ("cvarpath.cli", "read_scenario_file", "data.read_scenario_file"),
    ("cvarpath.cli", "write_path", "data.write_path"),
    ("cvarpath.cli", "run", "continuation.run"),
)

RUN_SPAN = "continuation.run"

# K x N float64 arrays one seed ``report`` call reads or writes: the loss
# table and the scaled matrix it writes, then the scaled matrix again for the
# row sum, the tail matmul and the standalone columns.
REPORT_ARRAYS_TOUCHED = 5


class Tracer:
    """Records spans in memory; ``installed`` wraps and always restores."""

    def __init__(self):
        self.names = []
        self.parents = []
        self.starts = []
        self.ends = []
        self.last_run_result = None
        self._stack = []

    def _open(self, name):
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(0)
        self._stack.append(idx)
        self.starts.append(perf_counter_ns())
        return idx

    def _close(self, idx):
        self.ends[idx] = perf_counter_ns()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name):
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if name == RUN_SPAN:
                self.last_run_result = out
            return out
        return traced

    @contextlib.contextmanager
    def installed(self, targets=TARGETS):
        """Wrap every target that exists; yield the span names of those that do not."""
        originals = []
        missing = []
        try:
            for module_name, attr, span_name in targets:
                fn = getattr(_import(module_name), attr, None)
                if not callable(fn):
                    missing.append(span_name)
                    continue
                module = sys.modules[module_name]
                originals.append((module, attr, fn))
                setattr(module, attr, self.wrap(span_name, fn))
            yield missing
        finally:
            for module, attr, fn in reversed(originals):
                setattr(module, attr, fn)

    def write(self, path):
        """One span per line: id, parent id, name, start ns, end ns."""
        with open(path, "w") as handle:
            handle.write("id\tparent\tname\tstart_ns\tend_ns\n")
            for i, (name, parent, start, end) in enumerate(
                    zip(self.names, self.parents, self.starts, self.ends)):
                handle.write(f"{i}\t{parent}\t{name}\t{start}\t{end}\n")


def _import(module_name):
    """The module, or None if a refactor removed it."""
    try:
        return importlib.import_module(module_name)
    except ImportError:
        return None


def span_totals(tracer):
    """Per span name: calls, inclusive seconds and self seconds.

    ``risk.tail_split`` counts only spans whose parent is ``risk.report``; the
    standalone calls sit inside ``risk.cvar``.
    """
    n = len(tracer.names)
    duration = [tracer.ends[i] - tracer.starts[i] for i in range(n)]
    children = [0] * n
    for i, parent in enumerate(tracer.parents):
        if parent >= 0:
            children[parent] += duration[i]
    totals = {}
    for i, name in enumerate(tracer.names):
        parent = tracer.parents[i]
        if name == "risk.tail_split" and (parent < 0 or tracer.names[parent] != "risk.report"):
            continue
        calls, incl, self_ns = totals.get(name, (0, 0, 0))
        totals[name] = (calls + 1, incl + duration[i], self_ns + duration[i] - children[i])
    return {name: {"calls": calls, "s": incl * 1e-9, "self_s": self_ns * 1e-9}
            for name, (calls, incl, self_ns) in totals.items()}


def deep_size(obj):
    """Computed size of an object and, for tuples and lists, of what they hold."""
    if isinstance(obj, (tuple, list)):
        return sys.getsizeof(obj) + sum(deep_size(item) for item in obj)
    return sys.getsizeof(obj)


# Spans whose (self) times together cover the whole timed call.
_ACCOUNTED_INCLUSIVE = ("risk.cvar", "risk.tail_split", "risk.scaled_group_losses",
                        "projection.select_coefficients", "projection.constants",
                        "projection.extremum_kappas", "projection.solve_step",
                        "continuation.apply_step", "continuation.rescale_fixed_risk",
                        "data.parse_run_config", "data.read_scenario_file",
                        "data.write_path")
_ACCOUNTED_SELF = ("risk.report", "continuation.run", "cli.main")


def layer_metrics(tracer, result, traced_wall_s, untraced_median_s, n_scenarios,
                  n_groups, scenario_bytes):
    """The per-layer metrics of one traced call, keyed by metric name."""
    totals = span_totals(tracer)

    def total(name, key):
        return totals.get(name, {}).get(key, 0)

    records = result.records if result is not None else []
    steps = records[-1].step if records else 0
    signatures = [getattr(rec, "tail_signature", None) for rec in records]
    unchanged = sum(a == b for a, b in zip(signatures, signatures[1:]))
    report_calls = total("risk.report", "calls")
    run_calls = total(RUN_SPAN, "calls")
    read_s = total("data.read_scenario_file", "s")
    accounted = (sum(total(name, "s") for name in _ACCOUNTED_INCLUSIVE)
                 + sum(total(name, "self_s") for name in _ACCOUNTED_SELF))

    metrics = {
        "risk.report.calls": (report_calls, "count"),
        "risk.report.self_s": (total("risk.report", "self_s"), "s"),
        # the initial report of each run is not a step
        "risk.report.calls_per_step": ((report_calls - run_calls) / steps if steps else 0.0,
                                       "count"),
        "risk.report.bytes_computed": (report_calls * REPORT_ARRAYS_TOUCHED * n_scenarios
                                       * n_groups * 8, "B"),
        "risk.cvar.calls": (total("risk.cvar", "calls"), "count"),
        "risk.cvar.s": (total("risk.cvar", "s"), "s"),
        "risk.tail_split.calls": (total("risk.tail_split", "calls"), "count"),
        "risk.tail_split.s": (total("risk.tail_split", "s"), "s"),
        "risk.scaled_group_losses.s": (total("risk.scaled_group_losses", "s"), "s"),
        "risk.tail_set_unchanged_ratio": (unchanged / steps if steps else 0.0, "ratio"),
    }
    for fn in ("select_coefficients", "constants", "extremum_kappas", "solve_step"):
        metrics[f"projection.{fn}.calls"] = (total(f"projection.{fn}", "calls"), "count")
        metrics[f"projection.{fn}.s"] = (total(f"projection.{fn}", "s"), "s")
    for fn in ("apply_step", "rescale_fixed_risk"):
        metrics[f"continuation.{fn}.calls"] = (total(f"continuation.{fn}", "calls"), "count")
        metrics[f"continuation.{fn}.s"] = (total(f"continuation.{fn}", "s"), "s")
    metrics.update({
        "continuation.run.self_s": (total(RUN_SPAN, "self_s"), "s"),
        "continuation.steps": (steps, "count"),
        "continuation.frozen": (records[-1].frozen_count if records else 0, "count"),
        "continuation.record_sig_bytes": (sum(deep_size(s) for s in signatures), "B"),
        "data.read_scenario_file.s": (read_s, "s"),
        "data.read_scenario_file.mb_per_s": (scenario_bytes / 1e6 / read_s if read_s else 0.0,
                                             "MB/s"),
        "data.parse_run_config.s": (total("data.parse_run_config", "s"), "s"),
        "data.write_path.s": (total("data.write_path", "s"), "s"),
        "cli.main.self_s": (total("cli.main", "self_s"), "s"),
        "trace.wall_s": (traced_wall_s, "s"),
        "trace.overhead_s": (traced_wall_s - untraced_median_s, "s"),
        "trace.unaccounted_s": (traced_wall_s - accounted, "s"),
    })
    return {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}
