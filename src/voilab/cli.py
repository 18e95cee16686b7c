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

Exit codes: 0 success, 2 usage error, 3 verification failure, 4 numeric failure.
"""

from __future__ import annotations

import argparse
import csv
import math
import os
import re
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .analytics import UnsupportedAnalyticsError, analyze, closed_form_report
from .model import (
    ADMISSIONS,
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
DEFAULT_SEED = 123456789
SEED_ENV_VAR = "VOI_LAB_SEED"
DEFAULT_GRID = tuple(float(x) for x in np.geomspace(0.1, 5.0, 20))
# Most points a 'start:stop:step' lambda range may expand to.
MAX_GRID_POINTS = 100_000


class UsageError(ValueError):
    """Bad preset/config/flag input; maps to exit code 2."""


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
        if self.jobs < 1:
            raise UsageError("--jobs must be >= 1")
        if self.n_packets < 1:
            raise UsageError("n_packets must be >= 1")


# ---------------------------------------------------------------------------
# Presets reproducing the reference parameter sets (deadline fixed at 3)
# ---------------------------------------------------------------------------

def _linear3() -> DescendFunction:
    return DescendFunction.linear(3.0)


def _preset_uniform_log(mu_independent: float) -> ExperimentConfig:
    variants = tuple(
        (
            "serve-all",
            Scenario(1.0, UniformValue(0.0, 10.0), DependentService("log-shift", 1.0), _linear3(), d),
        )
        for d in DISCIPLINES
    )
    return ExperimentConfig("uniform-log", variants)


def _preset_exponential(mu_independent: float) -> ExperimentConfig:
    dist = ExponentialValue(1.5)
    variants = (
        ("dependent", Scenario(1.0, dist, DependentService("identity"), _linear3(), MG11)),
        (
            "independent",
            Scenario(1.0, dist, IndependentExponentialService(mu_independent), _linear3(), MG11),
        ),
    )
    return ExperimentConfig("exponential", variants)


def _preset_binary(mu_independent: float) -> ExperimentConfig:
    dist = BinaryValue(0.4, 1.33, 0.8)
    services = (("dep", ClassExponentialService()), ("ind", IndependentExponentialService(mu_independent)))
    policies = (("serve-all", "serve-all"), ("class-1", "class-only(1)"), ("class-2", "class-only(2)"))
    variants = tuple(
        (f"{stag}/{ptag}", Scenario(1.0, dist, svc, _linear3(), MG11, adm))
        for stag, svc in services
        for ptag, adm in policies
    )
    return ExperimentConfig("binary", variants)


def _preset_aoi_voi(mu_independent: float) -> ExperimentConfig:
    variants = tuple(
        ("serve-all", Scenario(1.0, ExponentialValue(1.5), DependentService("identity"), _linear3(), d))
        for d in DISCIPLINES
    )
    return ExperimentConfig("aoi-voi", variants)


def _preset_mm12_closed(mu_independent: float) -> ExperimentConfig:
    variants = (
        ("serve-all", Scenario(1.0, ExponentialValue(1.5), DependentService("identity"), _linear3(), MG12)),
    )
    return ExperimentConfig(
        "mm12-closed", variants, engines=("closed-form", "analytic", "simulate")
    )


PRESETS = {
    "uniform-log": (_preset_uniform_log, "uniform values 0..10, log service map, all disciplines"),
    "exponential": (_preset_exponential, "exponential values, dependent vs independent service"),
    "binary": (_preset_binary, "two-class values, three admission policies, dep/ind service"),
    "aoi-voi": (_preset_aoi_voi, "exponential-identity scenario, AoI and VoI, all disciplines"),
    "mm12-closed": (_preset_mm12_closed, "one-buffer FCFS closed form vs quadrature vs simulation"),
}


def load_preset(name: str, mu_independent: float = 1.5) -> ExperimentConfig:
    if name not in PRESETS:
        raise UsageError(f"unknown preset {name!r} (try: {', '.join(sorted(PRESETS))})")
    try:
        return PRESETS[name][0](mu_independent)
    except ValueError as exc:
        raise UsageError(f"preset {name!r}: {exc}") from exc


# ---------------------------------------------------------------------------
# Config file parsing
# ---------------------------------------------------------------------------

_CALL_RE = re.compile(r"^([a-z\-]+)\s*(?:\(([^)]*)\))?$")


def _parse_call(text: str, what: str) -> tuple[str, list[float]]:
    m = _CALL_RE.match(text.strip().lower())
    if not m:
        raise UsageError(f"cannot parse {what}: {text!r}")
    args = []
    if m.group(2):
        try:
            args = [float(x) for x in m.group(2).split(",")]
        except ValueError as exc:
            raise UsageError(f"bad numeric argument in {what}: {text!r}") from exc
    return m.group(1), args


def _parse_value_dist(text: str):
    kind, args = _parse_call(text, "value distribution")
    try:
        if kind == "uniform" and len(args) == 2:
            return UniformValue(*args)
        if kind == "exponential" and len(args) == 1:
            return ExponentialValue(args[0])
        if kind == "binary" and len(args) == 3:
            return BinaryValue(*args)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    raise UsageError(f"unknown value distribution {text!r}")


def _parse_service(text: str):
    kind, args = _parse_call(text, "service model")
    try:
        if kind == "dependent-identity":
            return DependentService("identity")
        if kind == "dependent-log-shift":
            return DependentService("log-shift", args[0] if args else 1.0)
        if kind == "independent-exponential" and len(args) == 1:
            return IndependentExponentialService(args[0])
        if kind == "independent-deterministic" and len(args) == 1:
            return IndependentDeterministicService(args[0])
        if kind == "class-exponential":
            return ClassExponentialService()
    except (ValueError, IndexError) as exc:
        raise UsageError(str(exc)) from exc
    raise UsageError(f"unknown service model {text!r}")


def _parse_descend(text: str):
    kind, args = _parse_call(text, "descend function")
    try:
        if kind == "linear" and len(args) == 1:
            return DescendFunction.linear(args[0])
        if kind == "power-concave" and len(args) == 2:
            return DescendFunction.power_concave(args[0], args[1])
        if kind == "power-convex" and len(args) == 2:
            return DescendFunction.power_convex(args[0], args[1])
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    raise UsageError(f"unknown descend function {text!r}")


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


def _parse_number(text: str, key: str, kind: type = int):
    """``int(text)`` or ``float(text)``, with a bad value reported as a usage error."""
    try:
        return kind(text)
    except ValueError as exc:
        raise UsageError(f"{key} must be {'an integer' if kind is int else 'a number'}, got {text!r}") from exc


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


_KNOWN_KEYS = {
    "preset",
    "name",
    "lambda_grid",
    "engines",
    "n_packets",
    "seed",
    "out",
    "jobs",
    "mu_independent",
    "scenario.value_dist",
    "scenario.service",
    "scenario.descend",
    "scenario.discipline",
    "scenario.admission",
}


def build_config(raw: dict[str, str], preset: str | None = None) -> ExperimentConfig:
    """Assemble an ExperimentConfig from raw key/value pairs.

    A preset (from ``raw['preset']`` or the ``preset`` argument) supplies the
    base; explicit scenario.* keys replace its variants outright, other keys
    override field by field.
    """
    for key in raw:
        if key not in _KNOWN_KEYS:
            raise UsageError(f"unknown config key {key!r}")
    mu_independent = _parse_number(raw.get("mu_independent", "1.5"), "mu_independent", float)
    preset_name = raw.get("preset", preset)
    if preset_name is not None:
        cfg = load_preset(preset_name, mu_independent)
    else:
        cfg = None

    scenario_keys = [k for k in raw if k.startswith("scenario.")]
    if scenario_keys or cfg is None:
        if "scenario.value_dist" not in raw or "scenario.service" not in raw:
            raise UsageError("config must name a preset or define scenario.value_dist and scenario.service")
        dist = _parse_value_dist(raw["scenario.value_dist"])
        service = _parse_service(raw["scenario.service"])
        descend = _parse_descend(raw.get("scenario.descend", "linear(3)"))
        admission = raw.get("scenario.admission", "serve-all")
        if admission not in ADMISSIONS:
            raise UsageError(f"unknown admission policy {admission!r}")
        disciplines = [d.strip() for d in raw.get("scenario.discipline", MG11).split(",")]
        for d in disciplines:
            if d not in DISCIPLINES:
                raise UsageError(f"unknown discipline {d!r} (choose from {DISCIPLINES})")
        try:
            variants = tuple(
                (admission, Scenario(1.0, dist, service, descend, d, admission))
                for d in disciplines
            )
        except ValueError as exc:
            raise UsageError(str(exc)) from exc
        base_name = raw.get("name", preset_name or "custom")
        cfg = ExperimentConfig(base_name, variants)
        if preset_name is not None:
            cfg = replace(cfg, engines=load_preset(preset_name, mu_independent).engines)

    overrides: dict = {}
    if "name" in raw:
        overrides["name"] = raw["name"]
    if "lambda_grid" in raw:
        overrides["lambda_grid"] = parse_lambda_grid(raw["lambda_grid"])
    if "engines" in raw:
        overrides["engines"] = tuple(e.strip() for e in raw["engines"].split(","))
    for key in ("n_packets", "seed", "jobs"):
        if key in raw:
            overrides[key] = _parse_number(raw[key], key)
    if "out" in raw:
        overrides["out"] = raw["out"]
    try:
        return replace(cfg, **overrides)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


# ---------------------------------------------------------------------------
# Running an experiment
# ---------------------------------------------------------------------------

def _fmt(x) -> str:
    if x is None or x == "":
        return ""
    if isinstance(x, str):
        return x
    return format(float(x), ".10g")


def _run_row(task: tuple) -> dict[str, str]:
    lam, label, scenario, engine, n_packets, seed = task
    sc = replace(scenario, lam=lam)
    row = {
        "lambda": _fmt(lam),
        "discipline": sc.discipline,
        "policy": label,
        "engine": engine,
        "avg_voi": "",
        "avg_aoi": "",
        "stderr": "",
        "p_idle": "",
        "p_busy1": "",
        "p_busy2": "",
        "seed": str(seed),
        "runtime_ms": "",
    }
    start = time.perf_counter()
    if engine == "simulate":
        rep = simulate(SimConfig(sc, n_packets=n_packets, seed=seed))
        row.update(
            avg_voi=_fmt(rep.avg_voi),
            avg_aoi=_fmt(rep.avg_aoi),
            stderr=_fmt(rep.stderr_voi),
            p_idle=_fmt(rep.occupancy[0]),
            p_busy1=_fmt(rep.occupancy[1]),
            p_busy2=_fmt(rep.occupancy[2]),
        )
    else:
        try:
            rep = analyze(sc) if engine == "analytic" else closed_form_report(sc)
        except UnsupportedAnalyticsError:
            rep = None
        if rep is None:
            row["avg_voi"] = "unsupported"
        else:
            row.update(
                avg_voi=_fmt(rep.avg_voi),
                p_idle=_fmt(rep.p_idle),
                p_busy1=_fmt(rep.p_busy1),
                p_busy2=_fmt(rep.p_busy2),
            )
    row["runtime_ms"] = str(int((time.perf_counter() - start) * 1000.0))
    return row


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
        if any(isinstance(sc.service, ClassExponentialService) for _, sc in config.variants):
            fh.write("# service-interpretation = exponential with mean equal to the class value\n")
        writer = csv.DictWriter(fh, fieldnames=CSV_COLUMNS)
        writer.writeheader()
        writer.writerows(rows)


def read_csv(path: str) -> list[dict[str, str]]:
    with open(path, newline="") as fh:
        lines = [ln for ln in fh if not ln.startswith("#")]
    return list(csv.DictReader(lines))


# ---------------------------------------------------------------------------
# Engine comparison
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class VerifySummary:
    n_pass: int
    n_fail: int
    n_skipped: int
    lines: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return self.n_fail == 0


def compare_engines(rows: list[dict[str, str]], sigma: float = 3.0) -> VerifySummary:
    """Pair analytic/closed-form rows with their simulation counterparts.

    Analytic vs simulation passes within ``sigma`` simulation standard
    errors; closed form vs analytic passes at 1e-6 relative.
    """
    groups: dict[tuple[str, str, str], dict[str, dict]] = {}
    for row in rows:
        key = (row["lambda"], row["discipline"], row["policy"])
        groups.setdefault(key, {})[row["engine"]] = row
    n_pass = n_fail = n_skipped = 0
    lines: list[str] = []

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
            rel = dev / max(abs(a), 1e-300)
            if se > 0.0:
                z = dev / se
                ok = z <= sigma
                verdict = "PASS" if ok else "FAIL"
                lines.append(
                    f"{describe(key)} {engine} vs simulate: {a:.6g} vs {s:.6g}±{se:.2g}"
                    f" rel={rel:.3%} |z|={z:.2f} {verdict}"
                )
            else:
                ok = dev <= 1e-12
                verdict = "PASS" if ok else "FAIL"
                lines.append(
                    f"{describe(key)} {engine} vs simulate: {a:.6g} vs {s:.6g}"
                    f" (zero spread) {verdict}"
                )
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
    return VerifySummary(n_pass, n_fail, n_skipped, tuple(lines))


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="voi-lab", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run an experiment sweep and write CSV")
    run_p.add_argument("--config", metavar="PATH", help="flat key=value config file")
    run_p.add_argument("--preset", metavar="NAME", help="named preset experiment")
    run_p.add_argument("--out", metavar="PATH", help="CSV output path")
    run_p.add_argument("--seed", metavar="N", type=int, help="RNG seed override")
    run_p.add_argument("--packets", metavar="N", type=int, help="packets per simulation")
    run_p.add_argument("--jobs", metavar="N", type=int, help="concurrent sweep workers")

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
            return 0 if summary.ok else 3

        # run
        raw: dict[str, str] = {}
        if args.config:
            with open(args.config) as fh:
                raw = parse_config_text(fh.read())
        if not args.config and not args.preset and "preset" not in raw:
            raise UsageError("run needs --preset or --config")
        config = build_config(raw, preset=args.preset)
        overrides: dict = {}
        if args.seed is not None:
            overrides["seed"] = args.seed
        elif "seed" not in raw and SEED_ENV_VAR in os.environ:
            overrides["seed"] = _parse_number(os.environ[SEED_ENV_VAR], SEED_ENV_VAR)
        if args.packets is not None:
            overrides["n_packets"] = args.packets
        if args.jobs is not None:
            overrides["jobs"] = args.jobs
        if args.out is not None:
            overrides["out"] = args.out
        elif config.out is None and "out" not in raw:
            overrides["out"] = f"{config.name}.csv"
        config = replace(config, **overrides)
        rows = run_experiment(config)
        print(f"wrote {len(rows)} rows to {config.out}")
        return 0
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ArithmeticError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 4
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
