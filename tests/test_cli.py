import csv
import os
import sys
from dataclasses import replace

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
        # Each .10g cell is off by at most half a unit in its tenth digit.
        assert sum(probs) == pytest.approx(1.0, rel=0.0, abs=1e-10)
        assert float(row["avg_voi"]) >= 0.0


def test_closed_form_sweep_verifies_at_the_top_of_the_rate_range(tmp_path):
    # lam^2 overflows from 1.34e154 on: the M/M/1/2 closed form wrote a
    # 0,...,nan row there and verify failed it against the analytic row.
    text = "preset = mm12-closed\nengines = closed-form,analytic\nlambda_grid = 1e100,1e200,1e300\n"
    assert _run_config(tmp_path, text) == 0
    rows = cli.read_csv(str(tmp_path / "out.csv"))
    assert len(rows) == 6
    assert "nan" not in {row[k] for row in rows for k in ("avg_voi", "p_idle", "p_busy1", "p_busy2")}
    assert main(["verify", str(tmp_path / "out.csv")]) == 0


def test_largest_rates_write_no_nan_cell(tmp_path):
    # lam E[S] overflows at 1.7e308: probabilities were inf / inf.
    assert _run_config(tmp_path, "preset = uniform-log\nengines = analytic\nlambda_grid = 1.7e308\n") == 0
    with open(tmp_path / "out.csv", newline="") as fh:
        assert "nan" not in fh.read()


_LONG_DEADLINE = {
    # expm1(D / a) overflowed in the uniform-log closed form (exit 4).
    "uniform-log": ("lambda_grid = 0.5,1,4", "engines = closed-form,analytic", "scenario.value_dist = uniform(0,10)",
                    "scenario.service = dependent-log-shift(1.0)", "scenario.descend = linear(1000)",
                    "scenario.discipline = M/GI/1/1"),
    # 1 - cdf cancelled in the M/GI/1/2* busy area (QuadratureError, exit 4).
    "lcfs": ("lambda_grid = 0.01", "engines = analytic", "scenario.value_dist = exponential(1.5)",
             "scenario.service = dependent-identity", "scenario.descend = linear(300)",
             "scenario.discipline = M/GI/1/2*"),
    # (D mu)^2 overflowed in the M/M/1/2 closed form: a nan cell and exit 0.
    "mm12": ("lambda_grid = 1", "engines = closed-form", "scenario.value_dist = exponential(1.5)",
             "scenario.service = dependent-identity", "scenario.descend = linear(1e200)",
             "scenario.discipline = M/GI/1/2"),
}


@pytest.mark.parametrize("name", sorted(_LONG_DEADLINE))
def test_long_deadline_rows_are_finite(tmp_path, name):
    assert _run_config(tmp_path, "\n".join(_LONG_DEADLINE[name]) + "\n") == 0
    rows = cli.read_csv(str(tmp_path / "out.csv"))
    assert rows and all(float(row["avg_voi"]) < float("inf") for row in rows)
    assert main(["verify", str(tmp_path / "out.csv")]) == 0


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
        # compare_engines would skip these rows without a word.
        (",simulate,", ",simulat,", "line 4: column 'engine': 'simulat' is not one of analytic, closed-form, simulate"),
        ("1,M/GI/1/1,serve-all,simulate,", "1,M/GI/1/l,serve-all,simulate,",
         "line 4: column 'discipline': 'M/GI/1/l' is not one of M/GI/1/1, M/GI/1/2, M/GI/1/2*"),
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


@pytest.mark.parametrize("jobs", ["1", "2"])
@pytest.mark.parametrize("flag", [False, True], ids=["config", "flag"])
@pytest.mark.parametrize("n", [2**60, 2**62, 2**63 - 1, 10**29])
def test_packet_count_past_the_array_limit_is_a_usage_error(tmp_path, monkeypatch, capsys, n, flag, jobs):
    # numpy refuses a float64 array of n values with a ValueError (a traceback, exit 1).
    # The config is checked before any row runs; the simulator is replaced all the same,
    # so that nothing is allocated.
    def allocates(config):
        raise AssertionError("simulate ran")

    monkeypatch.setattr(cli, "simulate", allocates)
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(_BASE.replace("engines = analytic", "engines = simulate") + ("" if flag else f"n_packets = {n}\n"))
    argv = ["run", "--config", str(cfg), "--out", str(tmp_path / "out.csv"), "--jobs", jobs]
    assert main(argv + (["--packets", str(n)] if flag else [])) == 2
    err = capsys.readouterr().err
    assert err == f"error: n_packets must lie in [1, {sys.maxsize // 8}], got {n}\n"
    assert not (tmp_path / "out.csv").exists()


def test_array_limit_admits_its_largest_packet_count():
    # 2**60 - 1 on a 64-bit build, where that run ends in MemoryError (exit 2).
    n = sys.maxsize // 8
    assert replace(load_preset("exponential"), n_packets=n).n_packets == n


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
        assert voi[lam, "M/GI/1/2*"] == pytest.approx(voi[lam, "M/GI/1/1"], rel=1e-4, abs=0.0)


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
        assert aoi * float(row["lambda"]) == pytest.approx(1.0, rel=0.5, abs=0.0)
        assert 0.0 <= float(row["stderr"]) < float("inf")


def test_arrival_time_overflow_is_a_numeric_failure(tmp_path, capsys):
    assert _run_config(tmp_path, _TINY_RATE + "lambda_grid = 1e-307\n") == 4
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("numeric failure: arrival times overflow")
    assert not (tmp_path / "out.csv").exists()


# The true VoI exceeds DBL_MAX: every discipline's value areas sum to inf and
# their batch errors to nan.
_HUGE_VOI = (
    "lambda_grid = 452\n"
    "engines = simulate\n"
    "n_packets = 20000\n"
    "scenario.value_dist = uniform(34.7,3.47e101)\n"
    "scenario.service = dependent-log-shift(3478)\n"
    "scenario.descend = linear(3.4e266)\n"
    "scenario.discipline = M/GI/1/1,M/GI/1/2,M/GI/1/2*\n"
)


def test_non_finite_row_is_a_numeric_failure_naming_the_row(tmp_path, capsys):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(_HUGE_VOI)
    out = tmp_path / "out.csv"
    # The overflow warns in the serial run; pool workers warn in their own
    # processes.
    with pytest.warns(RuntimeWarning):
        codes = [main(["run", "--config", str(cfg), "--out", str(out), "--jobs", jobs]) for jobs in ("1", "2")]
    assert codes == [4, 4]
    err = capsys.readouterr().err.splitlines()
    failures = [line for line in err if line.startswith("numeric failure: ")]
    want = "numeric failure: avg_voi is inf (row lambda = 452, M/GI/1/1, serve-all, simulate)"
    assert failures == [want, want]
    assert not out.exists()


def test_numeric_failure_in_a_row_names_the_row(tmp_path, monkeypatch, capsys):
    def divide_by_zero(config):
        return 1.0 / 0.0

    monkeypatch.setattr(cli, "simulate", divide_by_zero)
    assert _run_config(tmp_path, "preset = uniform-log\nengines = simulate\nlambda_grid = 0.5\n") == 4
    err = capsys.readouterr().err.splitlines()
    assert err == ["numeric failure: float division by zero (row lambda = 0.5, M/GI/1/1, serve-all, simulate)"]
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


# ---------------------------------------------------------------------------
# Input bytes that are not a well-formed file end in exit 2, not a traceback
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("command", ["run", "verify"])
def test_undecodable_input_file_is_a_usage_error(tmp_path, capsys, command):
    path = tmp_path / "bad.txt"
    path.write_bytes((_BASE if command == "run" else _CSV).encode() + b"\xff\n")
    argv = ["run", "--config", str(path), "--out", str(tmp_path / "out.csv")] if command == "run" else ["verify", str(path)]
    assert main(argv) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: {path}: ") and "0xff" in err[0]
    assert not (tmp_path / "out.csv").exists()


def test_verify_cell_over_the_csv_field_limit_is_a_usage_error(tmp_path, capsys):
    assert _verify_text(tmp_path, _CSV.replace(",serve-all,simulate,", f",{'x' * 200_000},simulate,", 1)) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and "line 4: field larger than field limit" in err[0]


def test_verify_nul_byte_in_a_row_is_a_usage_error(tmp_path, capsys):
    # Before Python 3.11 the csv module rejects the line; from 3.11 on it
    # reads the cell, which is not a number.  Either way line 4 is named.
    assert _verify_text(tmp_path, _CSV.replace(",0.51,", ",0.51\0,", 1)) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and ", line 4: " in err[0]
