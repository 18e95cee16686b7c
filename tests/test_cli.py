import csv
import os

import pytest

from voilab.cli import main, worker_count


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
