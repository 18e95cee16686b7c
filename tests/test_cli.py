import csv
import os

import pytest

from voilab.cli import MAX_GRID_POINTS, UsageError, main, parse_lambda_grid, worker_count


def _run_config(tmp_path, text):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(text)
    return main(["run", "--config", str(cfg), "--out", str(tmp_path / "out.csv")])


_BASE = "preset = binary\nengines = analytic\nlambda_grid = 1\n"


@pytest.mark.parametrize(
    "line",
    [
        "n_packets = abc",
        "seed = 1.5",
        "jobs = x",
        "mu_independent = -1",
        "n_packets = 0",
        "lambda_grid = -1",
    ],
)
def test_bad_numeric_config_value_is_a_usage_error(tmp_path, line, capsys):
    assert _run_config(tmp_path, _BASE + line + "\n") == 2
    assert "error:" in capsys.readouterr().err
    assert not (tmp_path / "out.csv").exists()


_SCENARIO_BASE = (
    "engines = analytic\n"
    "lambda_grid = 1\n"
    "scenario.value_dist = uniform(0,10)\n"
    "scenario.service = independent-deterministic(1)\n"
    "scenario.descend = linear(3)\n"
)


@pytest.mark.parametrize(
    "line",
    [
        "scenario.service = independent-deterministic(inf)",
        "scenario.value_dist = uniform(0,inf)",
        "scenario.descend = linear(inf)",
        "lambda_grid = inf",
    ],
)
def test_non_finite_model_parameter_is_a_usage_error(tmp_path, line, capsys):
    # The later line replaces the base's value for the same key.
    assert _run_config(tmp_path, _SCENARIO_BASE + line + "\n") == 2
    assert "error:" in capsys.readouterr().err
    assert not (tmp_path / "out.csv").exists()


def test_worker_count_is_capped_by_cores_and_tasks():
    cores = os.cpu_count() or 1
    assert worker_count(5000, 10_000) == cores
    assert worker_count(5000, 1) == 1
    assert worker_count(1, 10_000) == 1
    assert worker_count(2, 3) == min(2, cores)


def test_large_rate_with_underflowing_mgf_runs(tmp_path):
    text = (
        "lambda_grid = 10000\n"
        "engines = analytic\n"
        "scenario.value_dist = uniform(0,10)\n"
        "scenario.service = independent-deterministic(3)\n"
        "scenario.discipline = M/GI/1/2,M/GI/1/2*\n"
    )
    assert _run_config(tmp_path, text) == 0
    with open(tmp_path / "out.csv", newline="") as fh:
        rows = list(csv.DictReader(ln for ln in fh if not ln.startswith("#")))
    assert len(rows) == 2
    for row in rows:
        probs = [float(row[k]) for k in ("p_idle", "p_busy1", "p_busy2")]
        assert sum(probs) == pytest.approx(1.0)
        assert float(row["avg_voi"]) >= 0.0


def test_oversized_lambda_range_exits_before_building_it(tmp_path, capsys):
    # 0.1:5:1e-300 would be ~5e300 points; the count is checked first.
    assert _run_config(tmp_path, _BASE.replace("lambda_grid = 1", "lambda_grid = 0.1:5:1e-300")) == 2
    assert "more than" in capsys.readouterr().err
    assert not (tmp_path / "out.csv").exists()


def test_lambda_range_point_cap():
    assert len(parse_lambda_grid(f"1:{MAX_GRID_POINTS}:1")) == MAX_GRID_POINTS
    for text in (f"1:{MAX_GRID_POINTS + 1}:1", "0.1:5:1e-6", "0:1:5e-324"):
        with pytest.raises(UsageError):
            parse_lambda_grid(text)
