"""Tests of the benchmark itself, at tiny sizes (N=5, K=50, M=5)."""
import dataclasses
import importlib
import json

import numpy as np
import pytest

import cvarpath
import run
import tracing
import workloads

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def tiny(name):
    return dataclasses.replace(workloads.WORKLOADS[name], n_groups=5, n_scenarios=50,
                               steps=5)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_workload_prints_every_metric_with_its_unit(name, trace, tmp_path, capsys):
    result = run.print_run(tiny(name), seed=1, seconds=0.0, trace=trace, work_root=tmp_path)
    lines = capsys.readouterr().out.strip().splitlines()
    assert json.loads(lines[-1]) == result
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for metric in declared:
        unit = result["metrics"][metric["name"]]["unit"]
        assert unit == metric["unit"]
        assert any(line.startswith(f"{metric['name']} = ") and line.endswith(f" {unit}")
                   for line in lines)
    assert any(line.startswith("fail_ratio = 0.0 ratio") for line in lines)


def test_perturbed_path_table_fails_the_check():
    reference = workloads.REFERENCE_DIR / "large_k-seed42.csv"
    header, table = workloads.read_path_table(reference)
    workload = workloads.WORKLOADS["large_k"]
    assert workloads.check_path(workload, header, table, "budget", reference) == []

    perturbed = table.copy()
    perturbed[7, header.index("cvar_rel")] *= 1.0 + 1e-10
    problems = workloads.check_path(workload, header, perturbed, "budget", reference)
    assert len(problems) == 1 and "cvar_rel differs at row 7" in problems[0]

    short = workloads.check_path(workload, header, table[:-1], "steady-state", reference)
    assert len(short) == 3


def test_tracing_restores_every_wrapped_attribute():
    def current():
        return {(m, a): getattr(importlib.import_module(m), a)
                for m, a, _ in tracing.TARGETS}

    originals = current()
    tracer = tracing.Tracer()
    targets = tracing.TARGETS + (("cvarpath.risk", "no_such_layer", "risk.gone"),)
    with pytest.raises(RuntimeError):
        with tracer.installed(targets) as missing:
            assert missing == ["risk.gone"]
            assert all(current()[key] is not fn for key, fn in originals.items())
            raise RuntimeError("workload failed")
    assert all(current()[key] is fn for key, fn in originals.items())


@pytest.mark.parametrize("fixed_total_risk, expected", [(True, 2.0), (False, 1.0)])
def test_report_calls_per_step(fixed_total_risk, expected):
    workload = tiny("flagship")
    matrix = cvarpath.generate(workloads.spec(workload, 1))
    state = cvarpath.initial_state(matrix, *workloads.returns_and_costs(workload))
    config = dataclasses.replace(workloads.run_config(workload),
                                 fixed_total_risk=fixed_total_risk)
    tracer = tracing.Tracer()
    with tracer.installed():
        with tracer.span(tracing.RUN_SPAN):
            result = cvarpath.continuation.run(matrix, state, config)
    layers = tracing.layer_metrics(tracer, result, 1.0, 1.0, workload.n_scenarios,
                                   workload.n_groups, 0)
    assert result.terminal_record.step == workload.steps
    assert layers["risk.report.calls_per_step"]["value"] == expected
    assert layers["continuation.rescale_fixed_risk.calls"]["value"] == (
        workload.steps if fixed_total_risk else 0)
    # the listed spans' times add up to the root span
    root_s = (tracer.ends[0] - tracer.starts[0]) * 1e-9
    assert np.isclose(1.0 - layers["trace.unaccounted_s"]["value"], root_s, rtol=1e-9)
