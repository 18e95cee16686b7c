import csv
import os

import pytest

from voilab import cli
from voilab.cli import (
    MAX_GRID_POINTS,
    PRESETS,
    UsageError,
    build_config,
    load_preset,
    main,
    parse_lambda_grid,
    worker_count,
)


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
        "mu_independent = 1.5",
        "seed = -1",
        "seed = 18446744073709551616",
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


@pytest.mark.parametrize(
    "lines",
    [
        "scenario.service = dependent-identity(5)",
        "scenario.value_dist = binary(0.4,1.33,0.8)\nscenario.service = class-exponential(1,2,3)",
        "scenario.service = dependent-log-shift(2,7)",
    ],
)
def test_model_with_wrong_argument_count_is_a_usage_error(tmp_path, lines, capsys):
    assert _run_config(tmp_path, _SCENARIO_BASE + lines + "\n") == 2
    assert "arguments" in capsys.readouterr().err
    assert not (tmp_path / "out.csv").exists()


def test_seed_range_ends_are_accepted():
    for seed in (0, 2**64 - 1):
        assert build_config({"preset": "binary", "seed": str(seed)}).seed == seed


def test_negative_seed_flag_is_a_usage_error(tmp_path, capsys):
    out = tmp_path / "out.csv"
    assert main(["run", "--preset", "binary", "--seed", "-1", "--out", str(out)]) == 2
    assert "seed" in capsys.readouterr().err
    assert not out.exists()


def _csv_text(path):
    return path.read_text().splitlines()


def test_flags_beat_the_config_file(tmp_path):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("preset = binary\nengines = analytic\nlambda_grid = 1\nseed = 5\nout = ignored.csv\n")
    out = tmp_path / "out.csv"
    argv = ["run", "--config", str(cfg), "--preset", "uniform-log", "--seed", "7", "--out", str(out)]
    assert main(argv) == 0
    head = [ln for ln in _csv_text(out) if ln.startswith("#")]
    assert "# experiment = uniform-log" in head
    assert "# seed = 7" in head
    assert "# engines = analytic" in head
    assert not (tmp_path / "ignored.csv").exists()


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_process_pool_sweep_matches_serial_rows(tmp_path, name):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(f"preset = {name}\nlambda_grid = 0.5,2\n")
    tables = []
    for jobs in ("1", "2"):
        out = tmp_path / f"jobs{jobs}.csv"
        assert main(["run", "--config", str(cfg), "--packets", "300", "--jobs", jobs, "--out", str(out)]) == 0
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(ln for ln in fh if not ln.startswith("#")))
        for row in rows:
            del row["runtime_ms"]
        tables.append(([ln for ln in _csv_text(out) if ln.startswith("#")], rows))
    assert tables[0] == tables[1]
    preset = load_preset(name)
    assert len(tables[0][1]) == 2 * len(preset.variants) * len(preset.engines)


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


_CSV = (
    "# experiment = hand-written\n"
    "lambda,discipline,policy,engine,avg_voi,avg_aoi,stderr,p_idle,p_busy1,p_busy2,seed,runtime_ms\n"
    "1,M/GI/1/1,serve-all,analytic,0.5,,,0.5,0.5,0,1,1\n"
    "1,M/GI/1/1,serve-all,simulate,0.51,2.0,0.01,0.5,0.5,0,1,1\n"
)


def _verify_text(tmp_path, text):
    path = tmp_path / "sweep.csv"
    path.write_text(text)
    return main(["verify", str(path)])


def test_verify_well_formed_csv_passes(tmp_path, capsys):
    assert _verify_text(tmp_path, _CSV) == 0
    assert "1 pass, 0 fail" in capsys.readouterr().out


@pytest.mark.parametrize(
    "old, new, where",
    [
        # The header sits on line 2, below one comment line.
        (",policy,", ",", "line 2: missing column 'policy'"),
        (",avg_voi,", ",voi,", "line 2: missing column 'avg_voi'"),
        (",0.51,", ",abc,", "line 4: column 'avg_voi': 'abc' is not a number"),
        (",0.01,", ",x,", "line 4: column 'stderr': 'x' is not a number"),
        (",0.5,,,", ",unsupported,,abc,", "line 3: column 'stderr': 'abc' is not a number"),
        ("serve-all,simulate,0.51,2.0,0.01,0.5,0.5,0,1,1", "serve-all,simulate,0.51", "line 4: column 'stderr': missing cell"),
        (",0.51,", ",unsupported,", "line 4: column 'avg_voi': 'unsupported' on a 'simulate' row"),
    ],
)
def test_verify_malformed_csv_is_a_usage_error(tmp_path, capsys, old, new, where):
    assert old in _CSV
    assert _verify_text(tmp_path, _CSV.replace(old, new, 1)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and where in err


@pytest.mark.parametrize("stderr", ["inf", "nan", "-0.01"])
def test_verify_fails_a_row_whose_stderr_is_not_a_finite_non_negative_number(tmp_path, capsys, stderr):
    assert _verify_text(tmp_path, _CSV.replace(",0.01,", f",{stderr},", 1)) == 3
    line = capsys.readouterr().out.splitlines()[0]
    assert line.startswith("lambda=1 M/GI/1/1 serve-all analytic vs simulate: ")
    assert f"stderr {stderr} is not a finite number >= 0" in line and line.endswith(" FAIL")


def test_verify_prints_rel_only_for_a_nonzero_analytic_value(tmp_path, capsys):
    assert _verify_text(tmp_path, _CSV) == 0
    assert " rel=2.000% |z|=1.00 PASS" in capsys.readouterr().out
    assert _verify_text(tmp_path, _CSV.replace(",analytic,0.5,", ",analytic,0,", 1).replace(",0.51,", ",0.02,", 1)) == 0
    out = capsys.readouterr().out
    assert "0 vs 0.02±0.01 |z|=2.00 PASS" in out and "rel=" not in out


_MISS = (
    "2,M/GI/1/1,serve-all,analytic,0.5,,,0.5,0.5,0,1,1\n"
    "2,M/GI/1/1,serve-all,simulate,0.54,2.0,0.01,0.5,0.5,0,1,1\n"
)


@pytest.mark.parametrize(
    "text, code, totals, worst",
    [
        (_CSV + _MISS, 3, "1 pass, 1 fail, 0 skipped", "worst |z| = 4.00 at lambda=2 M/GI/1/1 serve-all analytic"),
        (_CSV, 0, "1 pass, 0 fail, 0 skipped", "worst |z| = 1.00 at lambda=1 M/GI/1/1 serve-all analytic"),
        (
            _CSV.replace(",simulate,0.51,2.0,0.01,", ",closed-form,0.5,,,"),
            0,
            "1 pass, 0 fail, 2 skipped",
            "worst |z|: no check against a simulated standard error",
        ),
    ],
    ids=["misses", "no-misses", "no-simulate-rows"],
)
def test_verify_ends_with_the_worst_z_and_its_row(tmp_path, capsys, text, code, totals, worst):
    assert _verify_text(tmp_path, text) == code
    assert capsys.readouterr().out.splitlines()[-2:] == [totals, worst]
    # The worst |z| is a field, not a check line: every line is a check or SKIPPED.
    summary = cli.compare_engines(cli.read_csv(tmp_path / "sweep.csv"))
    assert len(summary.lines) == summary.n_pass + summary.n_fail + summary.n_skipped
    if summary.worst is None:
        assert worst.startswith("worst |z|: no check")
    else:
        assert worst == f"worst |z| = {summary.worst[0]:.2f} at {summary.worst[1]}"


def test_out_of_memory_run_is_a_usage_error(tmp_path, monkeypatch, capsys):
    # The simulator is replaced, so nothing is allocated.
    def out_of_memory(config):
        raise MemoryError

    monkeypatch.setattr(cli, "simulate", out_of_memory)
    text = _BASE.replace("engines = analytic", "engines = simulate") + "n_packets = 1000000000000\n"
    assert _run_config(tmp_path, text) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: out of memory") and "n_packets" in err and len(err.splitlines()) == 1
    assert not (tmp_path / "out.csv").exists()


def test_verify_csv_without_header_is_a_usage_error(tmp_path, capsys):
    assert _verify_text(tmp_path, "# experiment = empty\n") == 2
    assert "no header line" in capsys.readouterr().err


@pytest.mark.parametrize(
    "line, repeat",
    [
        ("lambda_grid = 1,1", "lambda grid value '1'"),
        ("lambda_grid = 1,1.00000000001", "lambda grid value '1'"),
        ("engines = analytic,simulate,analytic", "engine 'analytic'"),
        ("scenario.discipline = M/GI/1/1,M/GI/1/1", "scenario variant 'serve-all M/GI/1/1'"),
    ],
)
def test_repeated_sweep_row_key_is_a_usage_error(tmp_path, capsys, line, repeat):
    # verify pairs rows by their key columns, so a repeat would drop a check.
    assert _run_config(tmp_path, _SCENARIO_BASE + line + "\n") == 2
    assert f"repeated {repeat}" in capsys.readouterr().err
    assert not (tmp_path / "out.csv").exists()


@pytest.mark.parametrize("name", ["", "a/b"])
def test_name_that_is_not_a_file_name_is_a_usage_error(tmp_path, monkeypatch, capsys, name):
    # Without --out the name is the output file.
    monkeypatch.chdir(tmp_path)
    (tmp_path / "exp.cfg").write_text(_BASE + f"name = {name}\n")
    assert main(["run", "--config", "exp.cfg"]) == 2
    assert "experiment name" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["exp.cfg"]


def test_verify_repeated_row_is_a_usage_error(tmp_path, capsys):
    last = _CSV.splitlines()[-1]
    assert _verify_text(tmp_path, _CSV + last + "\n") == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "line 5: repeats the lambda, discipline, policy, engine of line 4" in err


def test_lcfs_analytic_rows_hold_at_high_arrival_rates(tmp_path):
    # The M/GI/1/2* residual integral has a boundary layer of width 1/lam, and
    # exponential service puts no kink in it; as lam grows the discipline
    # tends to the bufferless one.
    text = (
        "engines = analytic\n"
        "lambda_grid = 1e5,1e7\n"
        "scenario.value_dist = exponential(1.5)\n"
        "scenario.service = dependent-identity\n"
        "scenario.descend = linear(3)\n"
        "scenario.discipline = M/GI/1/1,M/GI/1/2*\n"
    )
    assert _run_config(tmp_path, text) == 0
    voi = {(r["lambda"], r["discipline"]): float(r["avg_voi"]) for r in cli.read_csv(str(tmp_path / "out.csv"))}
    for lam in ("100000", "10000000"):
        assert voi[lam, "M/GI/1/2*"] == pytest.approx(voi[lam, "M/GI/1/1"], rel=1e-4)


def test_new_and_old_csv_files_both_verify(tmp_path, capsys):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(_SCENARIO_BASE.replace("analytic", "analytic,simulate") + "n_packets = 2000\n")
    new = tmp_path / "new.csv"
    assert main(["run", "--config", str(cfg), "--out", str(new)]) == 0
    lines = new.read_text().splitlines(True)
    provenance = [ln for ln in lines if ln.startswith(("# voilab = ", "# numpy = ", "# python = "))]
    assert len(provenance) == 3
    # A file written before the version lines existed.
    old = tmp_path / "old.csv"
    old.write_text("".join(ln for ln in lines if ln not in provenance))
    capsys.readouterr()
    for path in (new, old):
        assert main(["verify", str(path)]) == 0
        assert "1 pass, 0 fail" in capsys.readouterr().out


_TINY_RATE = (
    "n_packets = 500\n"
    "engines = simulate\n"
    "scenario.value_dist = uniform(0,10)\n"
    "scenario.service = dependent-log-shift(1.0)\n"
    "scenario.discipline = M/GI/1/1,M/GI/1/2,M/GI/1/2*\n"
)


def test_simulated_age_stays_finite_at_a_tiny_rate(tmp_path):
    # Arrival times of order n / lam = 5e302: their squares would overflow.
    assert _run_config(tmp_path, _TINY_RATE + "lambda_grid = 1e-200,1e-300\n") == 0
    rows = cli.read_csv(str(tmp_path / "out.csv"))
    assert len(rows) == 6
    for row in rows:
        aoi = float(row["avg_aoi"])
        assert 0.0 < aoi < float("inf")
        assert aoi * float(row["lambda"]) == pytest.approx(1.0, rel=0.5)
        assert 0.0 <= float(row["stderr"]) < float("inf")


def test_arrival_time_overflow_is_a_numeric_failure(tmp_path, capsys):
    assert _run_config(tmp_path, _TINY_RATE + "lambda_grid = 1e-307\n") == 4
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("numeric failure: arrival times overflow")
    assert not (tmp_path / "out.csv").exists()


def test_preset_list_names_every_preset(capsys):
    assert main(["preset", "list"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == len(PRESETS) == 5
    assert [line.split()[0] for line in lines] == sorted(PRESETS)


@pytest.mark.parametrize(
    "argv, message",
    [
        (["run"], "run needs --preset or --config"),
        (["run", "--preset", "no-such-preset"], "unknown preset 'no-such-preset'"),
    ],
)
def test_run_without_a_known_experiment_is_a_usage_error(tmp_path, capsys, argv, message):
    assert main([*argv, "--out", str(tmp_path / "out.csv")]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and message in err[0]
    assert not (tmp_path / "out.csv").exists()
