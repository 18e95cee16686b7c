"""Correctness checks on one run's row outputs, made outside the timed region.

Deterministic checks (a row completed, its report repeats bit for bit
across passes, probabilities are finite and sum to one, closed form agrees
with quadrature to 1e-6 relative) decide whether the run is correct.
Statistical checks (simulation within 3 standard errors of its reference)
fail at their nominal rate, about 0.27% per check, even when the program is
right; they are listed and counted in ``checks_ok_frac``, but a miss does
not mark the output incorrect.
"""

from __future__ import annotations

import hashlib
import math
import time
from dataclasses import dataclass, fields

from voilab import cli

from workloads import ANALYTIC, CLOSED_FORM, SIMULATE

SIGMA = 3.0     # the gate `voi-lab verify` applies
PROB_TOL = 1e-9  # probabilities are assembled algebraically; only rounding separates the sum from 1


@dataclass(frozen=True)
class Check:
    what: str
    name: str
    ok: bool
    statistical: bool
    detail: str = ""


def digest(report) -> str:
    """Hash of every compared field of a report; equal iff the fields are bit-identical."""
    if report is None:
        return "none"
    values = tuple(getattr(report, f.name) for f in fields(report) if f.compare)
    return hashlib.sha256(repr(values).encode()).hexdigest()[:16]


def digest_rows(digests: list[str]) -> str:
    """One hash over every row's digest, to compare whole runs of the same seed."""
    return hashlib.sha256(",".join(digests).encode()).hexdigest()[:16]


def describe(row) -> str:
    sc = row.scenario
    return f"{row.engine} {row.label} {sc.discipline} lambda={sc.lam:.6g}"


def _row_dict(row, report) -> dict[str, str]:
    """The row as `voi-lab run` writes it, at full float precision."""
    d = {
        "lambda": repr(row.scenario.lam),
        "discipline": row.scenario.discipline,
        "policy": row.label,
        "engine": row.engine,
        "avg_voi": "unsupported" if report is None else repr(report.avg_voi),
        "stderr": "",
    }
    if row.engine == SIMULATE and report is not None:
        d["stderr"] = repr(report.stderr_voi)
    return d


def _z(value: float, ref: float, se: float) -> float:
    if se > 0.0:
        return abs(value - ref) / se
    return 0.0 if abs(value - ref) <= 1e-12 else math.inf


def _analytic_checks(what, rep) -> list[Check]:
    probs = (rep.p_idle, rep.p_busy, rep.p_busy1, rep.p_busy2)
    finite = all(math.isfinite(p) and -PROB_TOL <= p <= 1.0 + PROB_TOL for p in probs)
    sums = (
        finite
        and abs(rep.p_idle + rep.p_busy - 1.0) <= PROB_TOL
        and abs(rep.p_busy1 + rep.p_busy2 - rep.p_busy) <= PROB_TOL
    )
    return [
        Check(what, "probabilities", sums, False, f"p={probs}"),
        Check(what, "voi", math.isfinite(rep.avg_voi) and rep.avg_voi >= 0.0, False, f"avg_voi={rep.avg_voi!r}"),
    ]


def _sim_checks(what, rep, ref) -> tuple[list[Check], list[float]]:
    occ_ok = abs(sum(rep.occupancy) - 1.0) <= PROB_TOL and all(math.isfinite(p) for p in rep.occupancy)
    counts_ok = 0 <= rep.n_expired <= rep.n_delivered <= rep.n_generated
    out = [
        Check(what, "occupancy", occ_ok, False, f"occupancy={rep.occupancy}"),
        Check(what, "counts", counts_ok, False, f"{rep.n_generated}/{rep.n_delivered}/{rep.n_expired}"),
        Check(what, "voi", math.isfinite(rep.avg_voi) and rep.avg_voi >= 0.0, False, f"avg_voi={rep.avg_voi!r}"),
    ]
    zs = []
    if ref is not None:
        z = _z(rep.occupancy[0], ref.p_idle, rep.occupancy_stderr[0])
        zs.append(z)
        out.append(Check(what, "p_idle-z", z <= SIGMA, True, f"|z|={z:.2f}"))
    if rep.sampled_voi_mean is not None:
        z = _z(rep.sampled_voi_mean, rep.avg_voi, rep.stderr_voi)
        zs.append(z)
        out.append(Check(what, "sampled-z", z <= SIGMA, True, f"|z|={z:.2f}"))
    return out, zs


@dataclass
class CheckResult:
    checks: list[Check]
    verify_seconds: float   # wall time of cli.compare_engines
    z_values: list[float]   # every statistical |z| of the run
    cf_rel_errors: list[float]

    @property
    def failed(self) -> list[Check]:
        return [c for c in self.checks if not c.ok]

    @property
    def correct(self) -> bool:
        return not any(not c.ok and not c.statistical for c in self.checks)


def run_checks(rows, outcomes, digests) -> CheckResult:
    """Check each row's first outcome; ``digests[i]`` holds row i's digest from every pass."""
    checks: list[Check] = []
    zs: list[float] = []
    dicts = []
    for i, (row, out) in enumerate(zip(rows, outcomes)):
        what = describe(row)
        checks.append(Check(what, "completed", out.error is None, False, out.error or ""))
        if out.error is not None:
            continue
        if len(digests[i]) > 1:
            same = len(set(digests[i])) == 1
            checks.append(Check(what, "repeatable", same, False, ",".join(digests[i])))
        rep = out.report
        dicts.append(_row_dict(row, rep))
        if rep is None:
            continue
        if row.engine in (ANALYTIC, CLOSED_FORM):
            checks.extend(_analytic_checks(what, rep))
        else:
            ref = outcomes[row.ref].report if row.ref is not None else None
            more, z = _sim_checks(what, rep, ref)
            checks.extend(more)
            zs.extend(z)
            if ref is not None and rows[row.ref].label == row.label:
                zs.append(_z(rep.avg_voi, ref.avg_voi, rep.stderr_voi))

    start = time.perf_counter()
    summary = cli.compare_engines(dicts, sigma=SIGMA)
    verify_seconds = time.perf_counter() - start
    for line in summary.lines:
        if line.endswith("SKIPPED"):
            continue
        checks.append(Check(line.split(":")[0], "compare_engines", line.endswith("PASS"), " vs simulate" in line, line))

    cf_rel = []
    by_key = {}
    for row, out in zip(rows, outcomes):
        if row.engine in (ANALYTIC, CLOSED_FORM) and out.report is not None:
            by_key.setdefault((row.label, row.scenario), {})[row.engine] = out.report.avg_voi
    for pair in by_key.values():
        if len(pair) == 2:
            a, c = pair[ANALYTIC], pair[CLOSED_FORM]
            cf_rel.append(abs(a - c) / max(abs(a), 1e-300))
    return CheckResult(checks, verify_seconds, zs, cf_rel)
