"""Tests of the benchmark itself, at tiny size (``python -m pytest perfbench``)."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from dataclasses import replace

import pytest

import run

run.use_checkout_source()

import bench  # noqa: E402
import checks  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
from voilab import analytics, model, quadrature, sim  # noqa: E402
from workloads import ANALYTIC, CLOSED_FORM, WORKLOADS, build_rows  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
_runs: dict = {}


def tiny_run(workload: str, trace: bool) -> bench.Result:
    key = (workload, trace)
    if key not in _runs:
        _runs[key] = bench.run_workload(workload, 3, 0.0, trace, size="tiny", probes=1)
    return _runs[key]


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    res = tiny_run(workload, trace)
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m: u for m, (_, u) in res.metrics.items()} == {m["name"]: m["unit"] for m in wanted}
    assert res.correct and res.failed == 0 and res.attempted > 0
    if not trace:
        assert all(v > 0 for v, _ in res.metrics.values())


def test_checker_marks_perturbed_analytic_value_as_failed():
    rows = [r for r in build_rows("analytic-sweep", 5, "tiny")
            if r.label == "uniform-log" and r.scenario.discipline == "M/GI/1/1" and r.engine != "simulate"]
    assert [r.engine for r in rows] == [ANALYTIC, CLOSED_FORM]
    outs = [bench.run_row(r) for r in rows]
    digests = [[checks.digest(o.report)] for o in outs]
    assert checks.run_checks(rows, outs, digests).correct

    a = outs[0].report
    outs[0] = replace(outs[0], report=replace(a, avg_voi=a.avg_voi * (1.0 + 1e-5)))
    res = checks.run_checks(rows, outs, digests)
    assert not res.correct
    assert [c.name for c in res.failed] == ["compare_engines"]


def test_sim_linear_trace_bypasses_quadrature_and_restores_modules():
    m = tiny_run("sim-linear", True).metrics
    assert m["quadrature.calls"][0] == 0
    assert m["sim.calls"][0] > 0
    assert analytics.integrate is quadrature.integrate and model.integrate is quadrature.integrate
    assert sim.q_area_batch is model.q_area_batch
    assert not any(hasattr(fn, "__wrapped__") for fn in (analytics.analyze, sim.simulate, model.mgf_service))


def test_integrand_time_is_charged_to_the_layer_that_built_it():
    # analyze -> integrate (integrand 60 ns) -> {nested integrate (integrand 20 ns), mgf_service}
    spans = [
        ["analytics", "analyze", 0, 100, -1, False, 0],
        ["quadrature", "integrate", 10, 90, 0, False, 60],
        ["quadrature", "integrate", 20, 50, 1, False, 20],
        ["model", "mgf_service", 55, 60, 1, False, 0],
    ]
    s = tracing.summarise(spans)
    assert s["layer_self"] == {"quadrature": 30, "model": 5, "analytics": 65, "sim": 0}
    assert sum(s["layer_self"].values()) == s["top_level"] == 100
    assert s["quad_busy"] == 80 and s["fn_calls"]["integrate"] == 2


def test_speed_correction_uses_the_probes_near_the_timed_call():
    log = speed.SpeedLog()
    log.at = [0.0, 0.5, 10.0, 10.5, 11.0]
    log.took = [1e-3, 1e-3, 4e-3, 4e-3, 2e-3]
    assert log.scale(0.2, 0.1) == pytest.approx(speed.PROBE_REF_S / 1e-3)
    # Within WINDOW_S (1 s) of [10.2, 10.3]: the probes at 10.0, 10.5 and 11.0, not the early ones.
    assert log.scale(10.2, 0.1) == pytest.approx(speed.PROBE_REF_S / 4e-3)
    fresh = speed.SpeedLog()
    fresh.probe(blocks=2)
    assert len(fresh.took) == 2 and min(fresh.took) > 0


def test_same_seed_gives_same_report_digest():
    a = bench.run_workload("sim-linear", 11, 0.0, False, size="tiny", probes=1)
    b = bench.run_workload("sim-linear", 11, 0.0, False, size="tiny", probes=1)
    digest = [line for line in a.lines if line.startswith("report digest")]
    assert digest and digest == [line for line in b.lines if line.startswith("report digest")]


def test_exits_nonzero_without_a_result_when_the_source_is_missing(tmp_path):
    shutil.copytree(run.ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sim-linear", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
