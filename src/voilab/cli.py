"""Command-line harness: sweep arrival rates, run engines, emit CSV.

Subcommands:
    run     --preset NAME | --config PATH  [--out --seed --packets --jobs]
    verify  CSV            pair analytic/closed-form rows with simulation rows
    preset  list           show shipped experiment presets

Config files are flat ``key = value`` text with dotted scenario keys, e.g.::

    preset = exponential
    lambda_grid = 0.1:5:0.25
    engines = analytic,simulate
    scenario.value_dist = uniform(0,10)
    scenario.service = dependent-log-shift(1.0)
    scenario.descend = linear(3)
    scenario.discipline = M/GI/1/1,M/GI/1/2
    scenario.admission = serve-all

Plain keys: preset, name (a file name without a directory), lambda_grid
('start:stop:step' inclusive, a comma list or one value), engines (comma list
of analytic, closed-form, simulate), n_packets, seed (an integer in
[0, 2**64)), out (default NAME.csv) and jobs. No lambda value, engine or
discipline may repeat: ``verify`` pairs rows by them.
Scenario keys, with ``[x]`` optional and defaults in braces::

    scenario.value_dist   uniform(v_min,v_max) | exponential(rate) | binary(v1,v2,p)
    scenario.service      dependent-identity | dependent-log-shift[(a)] | class-exponential
                          | independent-exponential(rate) | independent-deterministic(s0)
    scenario.descend      linear(deadline) | power-concave(shape,deadline)
                          | power-convex(shape,deadline)                    {linear(3)}
    scenario.discipline   comma list of M/GI/1/1, M/GI/1/2, M/GI/1/2*      {M/GI/1/1}
    scenario.admission    serve-all | class-only(1) | class-only(2)        {serve-all}

A scenario key replaces the preset's variants with one per discipline, and
value_dist and service are then required. A ``run`` flag (--preset, --seed,
--packets for n_packets, --jobs, --out) beats the config file, which beats the
preset. There is no mu_independent key: the presets fix the independent
service rate at 1.5.

Exit codes: 0 success, 2 usage error (also when a run is out of memory: lower
n_packets; and when n_packets is past sys.maxsize // 8, the most float64
values one numpy array holds), 3 verification failure, 4 numeric failure
(also when a number a row would write is not finite, so no cell holds inf or
nan; the message names the row).  Memory grows with n_packets and with
--jobs, since each worker holds one simulated row at a time.
"""

from __future__ import annotations

import argparse
import csv
import math
import os
import platform
import re
import sys
import time
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from . import __version__
from .analytics import UnsupportedAnalyticsError, analyze, closed_form_report
from .model import (
    BinaryValue,
    ClassExponentialService,
    DependentService,
    DescendFunction,
    DISCIPLINES,
    ExponentialValue,
    IndependentDeterministicService,
    IndependentExponentialService,
    MG11,
    MG12,
    Scenario,
    UniformValue,
)
from .sim import SimConfig, simulate

ENGINES = ("analytic", "closed-form", "simulate")
CSV_COLUMNS = (
    "lambda",
    "discipline",
    "policy",
    "engine",
    "avg_voi",
    "avg_aoi",
    "stderr",
    "p_idle",
    "p_busy1",
    "p_busy2",
    "seed",
    "runtime_ms",
)
# The columns ``compare_engines`` reads: the keys that pair rows, and the
# numeric cells with the one text each may hold instead of a number.
_VERIFY_KEY_COLUMNS = ("lambda", "discipline", "policy", "engine")
_VERIFY_NUMBER_COLUMNS = {"avg_voi": "unsupported", "stderr": ""}
DEFAULT_SEED = 123456789
DEFAULT_GRID = tuple(float(x) for x in np.geomspace(0.1, 5.0, 20))
# Most points a 'start:stop:step' lambda range may expand to.
MAX_GRID_POINTS = 100_000


class UsageError(ValueError):
    """Bad preset/config/flag input; maps to exit code 2."""


def _fmt(x: float) -> str:
    return format(float(x), ".10g")


@dataclass(frozen=True)
class ExperimentConfig:
    name: str
    variants: tuple[tuple[str, Scenario], ...]  # (policy label, scenario template)
    lambda_grid: tuple[float, ...] = DEFAULT_GRID
    engines: tuple[str, ...] = ("analytic", "simulate")
    n_packets: int = 1_000_000
    seed: int = DEFAULT_SEED
    out: str | None = None
    jobs: int = 1

    def __post_init__(self) -> None:
        # The name is the default output file, written in the working directory.
        if not self.name or os.path.basename(self.name) != self.name:
            raise UsageError(f"experiment name must be a non-empty file name, got {self.name!r}")
        if not self.lambda_grid:
            raise UsageError("lambda grid must not be empty")
        if not all(0.0 < lam < math.inf for lam in self.lambda_grid):
            raise UsageError("lambda grid values must be finite and > 0")
        if not self.engines:
            raise UsageError("at least one engine required")
        for e in self.engines:
            if e not in ENGINES:
                raise UsageError(f"unknown engine {e!r} (choose from {ENGINES})")
        if not self.variants:
            raise UsageError("experiment needs at least one scenario variant")
        # ``verify`` pairs rows by (lambda, discipline, policy, engine) as
        # written to the CSV, so a repeat there would hide a row.
        for what, keys in (
            ("lambda grid value", [_fmt(lam) for lam in self.lambda_grid]),
            ("engine", self.engines),
            ("scenario variant", [f"{label} {sc.discipline}" for label, sc in self.variants]),
        ):
            repeats = [key for key, count in Counter(keys).items() if count > 1]
            if repeats:
                raise UsageError(f"repeated {what} {repeats[0]!r}")
        if self.jobs < 1:
            raise UsageError("--jobs must be >= 1")
        if not 1 <= self.n_packets <= sys.maxsize // 8:  # numpy's limit for a float64 array
            raise UsageError(f"n_packets must lie in [1, {sys.maxsize // 8}], got {self.n_packets}")
        if not 0 <= self.seed < 2**64:
            raise UsageError(f"seed must lie in [0, 2**64), got {self.seed}")


# ---------------------------------------------------------------------------
# Presets reproducing the reference parameter sets (deadline fixed at 3,
# independent service rate 1.5)
# ---------------------------------------------------------------------------

_LINEAR3 = DescendFunction.linear(3.0)
_EXP_VALUE = ExponentialValue(1.5)
_IDENTITY = DependentService("identity")
_INDEPENDENT = IndependentExponentialService(1.5)


def _serve_all(dist, service, disciplines=DISCIPLINES) -> tuple[tuple[str, Scenario], ...]:
    return tuple(("serve-all", Scenario(1.0, dist, service, _LINEAR3, d)) for d in disciplines)


# name -> (experiment, one-line description)
PRESETS = {
    cfg.name: (cfg, about)
    for cfg, about in (
        (
            ExperimentConfig("uniform-log", _serve_all(UniformValue(0.0, 10.0), DependentService("log-shift", 1.0))),
            "uniform values 0..10, log service map, all disciplines",
        ),
        (
            ExperimentConfig("exponential", (
                ("dependent", Scenario(1.0, _EXP_VALUE, _IDENTITY, _LINEAR3, MG11)),
                ("independent", Scenario(1.0, _EXP_VALUE, _INDEPENDENT, _LINEAR3, MG11)),
            )),
            "exponential values, dependent vs independent service",
        ),
        (
            ExperimentConfig("binary", tuple(
                (f"{stag}/{ptag}", Scenario(1.0, BinaryValue(0.4, 1.33, 0.8), svc, _LINEAR3, MG11, adm))
                for stag, svc in (("dep", ClassExponentialService()), ("ind", _INDEPENDENT))
                for ptag, adm in (("serve-all", "serve-all"), ("class-1", "class-only(1)"), ("class-2", "class-only(2)"))
            )),
            "two-class values, three admission policies, dep/ind service",
        ),
        (
            ExperimentConfig("aoi-voi", _serve_all(_EXP_VALUE, _IDENTITY)),
            "exponential-identity scenario, AoI and VoI, all disciplines",
        ),
        (
            ExperimentConfig(
                "mm12-closed", _serve_all(_EXP_VALUE, _IDENTITY, (MG12,)), engines=("closed-form", "analytic", "simulate")
            ),
            "one-buffer FCFS closed form vs quadrature vs simulation",
        ),
    )
}


def load_preset(name: str) -> ExperimentConfig:
    if name not in PRESETS:
        raise UsageError(f"unknown preset {name!r} (try: {', '.join(sorted(PRESETS))})")
    return PRESETS[name][0]


# ---------------------------------------------------------------------------
# Config file parsing
# ---------------------------------------------------------------------------

_CALL_RE = re.compile(r"^([a-z\-]+)\s*(?:\(([^)]*)\))?$")

# Model syntax: scenario key -> (what it names, {kind: (constructor, allowed
# argument counts)}). Arguments are numbers, passed in order.
_MODELS = {
    "scenario.value_dist": ("value distribution", {
        "uniform": (UniformValue, (2,)),
        "exponential": (ExponentialValue, (1,)),
        "binary": (BinaryValue, (3,)),
    }),
    "scenario.service": ("service model", {
        "dependent-identity": (DependentService, (0,)),
        "dependent-log-shift": (partial(DependentService, "log-shift"), (0, 1)),
        "independent-exponential": (IndependentExponentialService, (1,)),
        "independent-deterministic": (IndependentDeterministicService, (1,)),
        "class-exponential": (ClassExponentialService, (0,)),
    }),
    "scenario.descend": ("descend function", {
        "linear": (DescendFunction.linear, (1,)),
        "power-concave": (DescendFunction.power_concave, (2,)),
        "power-convex": (DescendFunction.power_convex, (2,)),
    }),
}


def _parse_model(key: str, text: str):
    """The model that ``text``, written as ``kind`` or ``kind(a,b,...)``, names for ``key``."""
    what, kinds = _MODELS[key]
    m = _CALL_RE.match(text.strip().lower())
    if not m:
        raise UsageError(f"cannot parse {what}: {text!r}")
    kind, arg_text = m.groups()
    if kind not in kinds:
        raise UsageError(f"unknown {what} {text!r} (choose from {', '.join(kinds)})")
    make, counts = kinds[kind]
    try:
        args = [float(x) for x in arg_text.split(",")] if arg_text else []
    except ValueError as exc:
        raise UsageError(f"bad numeric argument in {what}: {text!r}") from exc
    if len(args) not in counts:
        raise UsageError(f"{what} {kind!r} takes {' or '.join(map(str, counts))} arguments, got {text!r}")
    try:
        return make(*args)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def parse_lambda_grid(text: str) -> tuple[float, ...]:
    """Grid syntax: 'start:stop:step' (inclusive), comma list, or one value."""
    text = text.strip()
    try:
        if ":" in text:
            start_s, stop_s, step_s = text.split(":")
            start, stop, step = float(start_s), float(stop_s), float(step_s)
            if step <= 0.0 or stop < start:
                raise UsageError(f"bad lambda range {text!r}")
            steps = (stop - start) / step + 1e-9
            if not steps < MAX_GRID_POINTS:  # also false for inf and nan
                raise UsageError(f"lambda range {text!r} has more than {MAX_GRID_POINTS} points")
            count = int(math.floor(steps)) + 1
            return tuple(start + k * step for k in range(count))
        return tuple(float(x) for x in text.split(","))
    except UsageError:
        raise
    except ValueError as exc:
        raise UsageError(f"cannot parse lambda grid {text!r}") from exc


def parse_config_text(text: str) -> dict[str, str]:
    raw: dict[str, str] = {}
    for ln, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise UsageError(f"line {ln}: expected 'key = value', got {line!r}")
        key, _, value = line.partition("=")
        raw[key.strip()] = value.strip()
    return raw


# Plain keys: each sets the ExperimentConfig field of its name to its parsed text.
_FIELDS = {
    "name": str,
    "lambda_grid": parse_lambda_grid,
    "engines": lambda text: tuple(e.strip() for e in text.split(",")),
    "n_packets": int,
    "seed": int,
    "out": str,
    "jobs": int,
}
_KNOWN_KEYS = {"preset", *_FIELDS, *_MODELS, "scenario.discipline", "scenario.admission"}


def build_config(raw: dict[str, str]) -> ExperimentConfig:
    """Assemble an ExperimentConfig from raw key/value pairs.

    ``raw['preset']`` supplies the base; explicit scenario.* keys replace its
    variants outright, plain keys override field by field.
    """
    for key in raw:
        if key not in _KNOWN_KEYS:
            raise UsageError(f"unknown config key {key!r}")
    cfg = load_preset(raw["preset"]) if "preset" in raw else None

    if cfg is None or any(key.startswith("scenario.") for key in raw):
        if "scenario.value_dist" not in raw or "scenario.service" not in raw:
            raise UsageError("config must name a preset or define scenario.value_dist and scenario.service")
        dist = _parse_model("scenario.value_dist", raw["scenario.value_dist"])
        service = _parse_model("scenario.service", raw["scenario.service"])
        descend = _parse_model("scenario.descend", raw.get("scenario.descend", "linear(3)"))
        admission = raw.get("scenario.admission", "serve-all")
        try:
            variants = tuple(
                (admission, Scenario(1.0, dist, service, descend, d.strip(), admission))
                for d in raw.get("scenario.discipline", MG11).split(",")
            )
        except ValueError as exc:
            raise UsageError(str(exc)) from exc
        cfg = ExperimentConfig("custom", variants) if cfg is None else replace(cfg, variants=variants)

    fields = {}
    for key, parse in _FIELDS.items():
        if key in raw:
            try:
                fields[key] = parse(raw[key])
            except ValueError as exc:
                raise UsageError(f"{key}: {exc}") from exc
    return replace(cfg, **fields)


# ---------------------------------------------------------------------------
# Running an experiment
# ---------------------------------------------------------------------------

def _run_row(task: tuple) -> dict[str, str]:
    """One CSV row.  A number that is not finite is a numeric failure rather
    than an inf or nan cell, and every numeric failure names its row."""
    lam, label, scenario, engine, n_packets, seed = task
    sc = replace(scenario, lam=lam)
    row = dict.fromkeys(CSV_COLUMNS, "")
    row.update({"lambda": _fmt(lam), "discipline": sc.discipline, "policy": label, "engine": engine, "seed": str(seed)})
    start = time.perf_counter()
    try:
        numbers = _row_numbers(sc, engine, n_packets, seed)
        for column, x in (numbers or {}).items():
            if not math.isfinite(x):
                raise ArithmeticError(f"{column} is {x}")
    except ArithmeticError as exc:
        # A suffix, so the message still starts with what went wrong.
        exc.args = (f"{exc} (row lambda = {row['lambda']}, {sc.discipline}, {label}, {engine})",)
        raise
    if numbers is None:
        row["avg_voi"] = "unsupported"
    else:
        row.update((column, _fmt(x)) for column, x in numbers.items())
    row["runtime_ms"] = str(int((time.perf_counter() - start) * 1000.0))
    return row


def _row_numbers(sc: Scenario, engine: str, n_packets: int, seed: int) -> dict[str, float] | None:
    """The numeric cells of one row; None where the engine does not cover the scenario."""
    if engine == "simulate":
        rep = simulate(SimConfig(sc, n_packets=n_packets, seed=seed))
        p_idle, p_busy1, p_busy2 = rep.occupancy
        return dict(
            avg_voi=rep.avg_voi, avg_aoi=rep.avg_aoi, stderr=rep.stderr_voi, p_idle=p_idle, p_busy1=p_busy1, p_busy2=p_busy2
        )
    try:
        rep = analyze(sc) if engine == "analytic" else closed_form_report(sc)
    except UnsupportedAnalyticsError:
        rep = None
    return None if rep is None else dict(avg_voi=rep.avg_voi, p_idle=rep.p_idle, p_busy1=rep.p_busy1, p_busy2=rep.p_busy2)


def worker_count(jobs: int, n_tasks: int) -> int:
    """Worker processes for a sweep: ``--jobs`` capped by the cores and the
    task count (a process pool starts all its workers at once)."""
    return max(1, min(jobs, os.cpu_count() or 1, n_tasks))


def run_experiment(config: ExperimentConfig) -> list[dict[str, str]]:
    """Execute the sweep and write the CSV artifact (if an output path is set).

    Rows appear in deterministic grid order (lambda, variant, engine) no
    matter how many worker processes are used.
    """
    tasks = [
        (lam, label, scenario, engine, config.n_packets, config.seed)
        for lam in config.lambda_grid
        for (label, scenario) in config.variants
        for engine in config.engines
    ]
    workers = worker_count(config.jobs, len(tasks))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(_run_row, tasks, chunksize=1))
    else:
        rows = [_run_row(t) for t in tasks]
    if config.out:
        write_csv(config, rows, config.out)
    return rows


def write_csv(config: ExperimentConfig, rows: list[dict[str, str]], path: str) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(f"# experiment = {config.name}\n")
        fh.write(f"# lambda_grid = {','.join(_fmt(x) for x in config.lambda_grid)}\n")
        fh.write(f"# engines = {','.join(config.engines)}\n")
        fh.write(f"# n_packets = {config.n_packets}\n")
        fh.write(f"# seed = {config.seed}\n")
        fh.write(f"# voilab = {__version__}\n")
        fh.write(f"# numpy = {np.__version__}\n")
        fh.write(f"# python = {platform.python_version()}\n")
        if any(isinstance(sc.service, ClassExponentialService) for _, sc in config.variants):
            fh.write("# service-interpretation = exponential with mean equal to the class value\n")
        writer = csv.DictWriter(fh, fieldnames=CSV_COLUMNS)
        writer.writeheader()
        writer.writerows(rows)


def read_csv(path: str) -> list[dict[str, str]]:
    """Rows of a sweep CSV, skipping '#' lines.

    A column that ``compare_engines`` reads and the header lacks, or a cell
    of a numeric one that holds neither a number nor its allowed text, is a
    UsageError naming the line of the file and the column; only analytic
    and closed-form rows may hold 'unsupported'.  So is a discipline or an
    engine unknown to ``compare_engines``, which would skip its row.  So is
    a second row with the same key columns, which ``compare_engines`` would
    let overwrite the first; that error names both lines.  So are bytes that
    do not decode (naming the file) and a line the csv module rejects.
    """
    try:
        with open(path, newline="") as fh:
            numbered = [(ln, text) for ln, text in enumerate(fh, 1) if not text.startswith("#")]
    except UnicodeDecodeError as exc:
        raise UsageError(f"{path}: {exc}") from None
    reader = csv.DictReader(text for _, text in numbered)

    def line() -> int:
        # The csv reader counts only the lines it was given, one it rejects included.
        return numbered[reader.reader.line_num - 1][0]

    def where() -> str:
        return f"{path}, line {line()}"

    rows = []
    first_line: dict[tuple, int] = {}
    try:
        if reader.fieldnames is None:
            raise UsageError(f"{path}: no header line")
        for col in (*_VERIFY_KEY_COLUMNS, *_VERIFY_NUMBER_COLUMNS):
            if col not in reader.fieldnames:
                raise UsageError(f"{where()}: missing column {col!r}")
        for row in reader:
            for col, known in (("discipline", DISCIPLINES), ("engine", ENGINES)):
                if row[col] not in known:
                    raise UsageError(f"{where()}: column {col!r}: {row[col]!r} is not one of {', '.join(known)}")
            key = tuple(row[col] for col in _VERIFY_KEY_COLUMNS)
            if key in first_line:
                raise UsageError(f"{where()}: repeats the {', '.join(_VERIFY_KEY_COLUMNS)} of line {first_line[key]}")
            first_line[key] = line()
            for col, allowed in _VERIFY_NUMBER_COLUMNS.items():
                cell = row[col]
                if cell is None:
                    raise UsageError(f"{where()}: column {col!r}: missing cell")
                if cell != allowed:
                    try:
                        float(cell)
                    except ValueError:
                        raise UsageError(f"{where()}: column {col!r}: {cell!r} is not a number") from None
            if row["avg_voi"] == "unsupported" and row["engine"] not in ("analytic", "closed-form"):
                raise UsageError(f"{where()}: column 'avg_voi': 'unsupported' on a {row['engine']!r} row")
            rows.append(row)
    except csv.Error as exc:
        raise UsageError(f"{where()}: {exc}") from None
    return rows


# ---------------------------------------------------------------------------
# Engine comparison
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class VerifySummary:
    n_pass: int
    n_fail: int
    n_skipped: int
    lines: tuple[str, ...]
    # The largest |z| of an engine-vs-simulate check and the row it names, or
    # None when no check has a positive standard error.  Kept out of ``lines``,
    # which holds checks only.
    worst: tuple[float, str] | None = None

    @property
    def ok(self) -> bool:
        return self.n_fail == 0


def compare_engines(rows: list[dict[str, str]], sigma: float = 3.0) -> VerifySummary:
    """Pair analytic/closed-form rows with their simulation counterparts.

    Analytic vs simulation passes within ``sigma`` simulation standard
    errors, and fails when the standard error is not a finite number >= 0;
    closed form vs analytic passes at 1e-6 relative.
    """
    groups: dict[tuple[str, str, str], dict[str, dict]] = {}
    for row in rows:
        key = (row["lambda"], row["discipline"], row["policy"])
        groups.setdefault(key, {})[row["engine"]] = row
    n_pass = n_fail = n_skipped = 0
    lines: list[str] = []
    worst = None

    def describe(key) -> str:
        return f"lambda={key[0]} {key[1]} {key[2]}"

    for key in groups:
        engines = groups[key]
        sim = engines.get("simulate")
        for engine in ("analytic", "closed-form"):
            row = engines.get(engine)
            if row is None:
                continue
            if row["avg_voi"] == "unsupported":
                n_skipped += 1
                lines.append(f"{describe(key)} {engine}: unsupported, SKIPPED")
                continue
            a = float(row["avg_voi"])
            if sim is None:
                n_skipped += 1
                lines.append(f"{describe(key)} {engine}: no simulation counterpart, SKIPPED")
                continue
            s = float(sim["avg_voi"])
            se = float(sim["stderr"]) if sim["stderr"] else 0.0
            dev = abs(a - s)
            head = f"{describe(key)} {engine} vs simulate: {a:.6g} vs {s:.6g}"
            if not 0.0 <= se < math.inf:  # also false for nan
                ok = False
                lines.append(f"{head}, stderr {sim['stderr']} is not a finite number >= 0 FAIL")
            elif se > 0.0:
                z = dev / se
                ok = z <= sigma
                if worst is None or z > worst[0]:
                    worst = (z, f"{describe(key)} {engine}")
                rel = f" rel={dev / abs(a):.3%}" if a != 0.0 else ""
                lines.append(f"{head}±{se:.2g}{rel} |z|={z:.2f} {'PASS' if ok else 'FAIL'}")
            else:
                ok = dev <= 1e-12
                lines.append(f"{head} (zero spread) {'PASS' if ok else 'FAIL'}")
            n_pass += ok
            n_fail += not ok
        cf, an = engines.get("closed-form"), engines.get("analytic")
        if cf and an and cf["avg_voi"] != "unsupported" and an["avg_voi"] != "unsupported":
            a, c = float(an["avg_voi"]), float(cf["avg_voi"])
            rel = abs(a - c) / max(abs(a), 1e-300)
            ok = rel <= 1e-6
            n_pass += ok
            n_fail += not ok
            lines.append(
                f"{describe(key)} closed-form vs analytic: rel={rel:.3e} {'PASS' if ok else 'FAIL'}"
            )
    return VerifySummary(n_pass, n_fail, n_skipped, tuple(lines), worst)


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

# The ``run`` flags, by the config key each sets.
_FLAG_KEYS = ("preset", "seed", "n_packets", "jobs", "out")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="voi-lab", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run an experiment sweep and write CSV")
    run_p.add_argument("--config", metavar="PATH", help="flat key=value config file")
    run_p.add_argument("--preset", metavar="NAME", help="named preset experiment")
    run_p.add_argument("--out", metavar="PATH", help="CSV output path")
    run_p.add_argument("--seed", metavar="N", help="RNG seed override")
    run_p.add_argument("--packets", metavar="N", dest="n_packets", help="packets per simulation")
    run_p.add_argument("--jobs", metavar="N", help="concurrent sweep workers")

    verify_p = sub.add_parser("verify", help="check analytic rows against simulation rows")
    verify_p.add_argument("csv", metavar="CSV", help="sweep output to verify")

    preset_p = sub.add_parser("preset", help="inspect shipped presets")
    preset_p.add_argument("action", choices=["list"])
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)

    try:
        if args.command == "preset":
            for name in sorted(PRESETS):
                print(f"{name:12s}  {PRESETS[name][1]}")
            return 0

        if args.command == "verify":
            summary = compare_engines(read_csv(args.csv))
            for line in summary.lines:
                print(line)
            print(
                f"{summary.n_pass} pass, {summary.n_fail} fail, {summary.n_skipped} skipped"
            )
            if summary.worst is None:
                print("worst |z|: no check against a simulated standard error")
            else:
                print(f"worst |z| = {summary.worst[0]:.2f} at {summary.worst[1]}")
            return 0 if summary.ok else 3

        # run: a flag beats the config file, which beats the preset.
        if not args.config and not args.preset:
            raise UsageError("run needs --preset or --config")
        raw: dict[str, str] = {}
        if args.config:
            with open(args.config) as fh:
                try:
                    raw = parse_config_text(fh.read())
                except UnicodeDecodeError as exc:
                    raise UsageError(f"{args.config}: {exc}") from None
        raw.update((key, value) for key in _FLAG_KEYS if (value := getattr(args, key)) is not None)
        config = build_config(raw)
        if config.out is None:
            config = replace(config, out=f"{config.name}.csv")
        try:
            rows = run_experiment(config)
        except MemoryError:
            raise UsageError(f"out of memory at n_packets = {config.n_packets}; lower it (--packets)") from None
        print(f"wrote {len(rows)} rows to {config.out}")
        return 0
    except (UsageError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ArithmeticError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    raise SystemExit(main())
