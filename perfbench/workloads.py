"""Workload definitions: the sweep rows each benchmark workload runs.

A row is one (lambda, scenario, engine) triple, the unit ``voi-lab run``
produces.  Rows with role ``sweep`` are the workload's own timed work;
rows with role ``reference`` are the other engine's view of the same
scenarios, used to check the sweep rows (and timed separately, so every
end-to-end metric has a value on every workload).

Every random choice comes from the seed: the lambda points (stratified
log-uniform in [0.1, 5], one point per stratum and scenario, so the cost of
a sweep barely depends on which seed is drawn) and the per-row simulation
seeds.  The engines receive only the generated scenarios.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from voilab.model import (
    MG11,
    MG12,
    MG12_STAR,
    BinaryValue,
    ClassExponentialService,
    DependentService,
    DescendFunction,
    ExponentialValue,
    Scenario,
    UniformValue,
)

LAMBDA_LO = 0.1
LAMBDA_HI = 5.0
DEADLINE = 3.0

ANALYTIC = "analytic"
CLOSED_FORM = "closed-form"
SIMULATE = "simulate"
SWEEP = "sweep"
REFERENCE = "reference"

WORKLOADS = ("analytic-sweep", "sim-linear", "sim-decay")

# Points per scenario and packets per simulate row.  "full" is what the
# benchmark measures; "tiny" exercises the same rows at test size.
SIZES = {
    "full": {
        "analytic-sweep": {"points": 3, "packets": 100_000},
        "sim-linear": {"points": 4, "packets": 300_000},
        "sim-decay": {"points": 8, "packets": 3_000},
    },
    "tiny": {
        "analytic-sweep": {"points": 1, "packets": 2_000},
        "sim-linear": {"points": 1, "packets": 5_000},
        "sim-decay": {"points": 1, "packets": 300},
    },
}


@dataclass(frozen=True)
class Row:
    label: str
    scenario: Scenario
    engine: str
    role: str
    n_packets: int = 0
    sim_seed: int = 0
    sample_every: Optional[float] = None
    ref: Optional[int] = None  # index of the analytic row this simulate row is checked against


def _linear() -> DescendFunction:
    return DescendFunction.linear(DEADLINE)


def _families():
    """The three scenario families of the reference parameter sets."""
    return {
        "exp-identity": (ExponentialValue(1.5), DependentService("identity"), "serve-all"),
        "uniform-log": (UniformValue(0.0, 10.0), DependentService("log-shift", 1.0), "serve-all"),
        "binary-class1": (BinaryValue(0.4, 1.33, 0.8), ClassExponentialService(), "class-only(1)"),
    }


def stratified_lambdas(rng: np.random.Generator, points: int) -> list[float]:
    """One log-uniform draw from each of ``points`` equal strata of [0.1, 5]."""
    lo, hi = math.log(LAMBDA_LO), math.log(LAMBDA_HI)
    u = rng.random(points)
    return [math.exp(lo + (k + u[k]) / points * (hi - lo)) for k in range(points)]


def _sim_seed(rng: np.random.Generator) -> int:
    return int(rng.integers(0, 2**63 - 1))


def _analytic_sweep(rng, points, packets):
    fam = _families()
    scenarios = [
        (name, Scenario(1.0, dist, svc, _linear(), disc, adm))
        for name, (dist, svc, adm) in fam.items()
        for disc in (MG11, MG12, MG12_STAR)
    ]
    rows: list[Row] = []
    offset = int(rng.integers(points))
    for i, (label, base) in enumerate(scenarios):
        lams = stratified_lambdas(rng, points)
        # One simulation cross-check per scenario, spread evenly over the strata.
        check_k = (i + offset) % points
        for k, lam in enumerate(lams):
            sc = replace(base, lam=lam)
            rows.append(Row(label, sc, ANALYTIC, SWEEP))
            rows.append(Row(label, sc, CLOSED_FORM, SWEEP))
            if k == check_k:
                rows.append(
                    Row(label, sc, SIMULATE, REFERENCE, packets, _sim_seed(rng), ref=len(rows) - 2)
                )
    return rows


def _sim_linear(rng, points, packets):
    fam = _families()
    dist, svc, adm = fam["uniform-log"]
    scenarios = [("uniform-log", Scenario(1.0, dist, svc, _linear(), d, adm)) for d in (MG11, MG12, MG12_STAR)]
    dist, svc, adm = fam["binary-class1"]
    scenarios.append(("binary-class1", Scenario(1.0, dist, svc, _linear(), MG11, adm)))
    rows: list[Row] = []
    for label, base in scenarios:
        for lam in stratified_lambdas(rng, points):
            sc = replace(base, lam=lam)
            rows.append(Row(label, sc, ANALYTIC, REFERENCE))
            rows.append(Row(label, sc, SIMULATE, SWEEP, packets, _sim_seed(rng), ref=len(rows) - 1))
    return rows


def _sim_decay(rng, points, packets):
    dist, svc, adm = _families()["uniform-log"]
    decays = (
        ("power-convex(1.5)", DescendFunction.power_convex(1.5, DEADLINE)),
        ("power-concave(2.5)", DescendFunction.power_concave(2.5, DEADLINE)),
    )
    rows: list[Row] = []
    for tag, descend in decays:
        for disc in (MG11, MG12_STAR):
            label = f"uniform-log/{tag}"
            for lam in stratified_lambdas(rng, points):
                sc = Scenario(lam, dist, svc, descend, disc, adm)
                # The analytic engine covers the linear law only, but server
                # occupancy does not depend on the decay law: the linear
                # companion is the reference for the simulated occupancy.
                # Its own label keeps compare_engines from pairing VoI values.
                rows.append(Row(f"{label}/linear-companion", replace(sc, descend=_linear()), ANALYTIC, REFERENCE))
                # Sample a quarter of the shorter of the mean interarrival
                # time and the deadline, so the grid resolves every packet's decay.
                every = min(1.0 / lam, DEADLINE) / 4.0
                rows.append(
                    Row(label, sc, SIMULATE, SWEEP, packets, _sim_seed(rng), every, ref=len(rows) - 1)
                )
    return rows


_BUILDERS = {"analytic-sweep": _analytic_sweep, "sim-linear": _sim_linear, "sim-decay": _sim_decay}


def build_rows(workload: str, seed: int, size: str = "full") -> list[Row]:
    """All rows of one run of ``workload``, generated from ``seed``."""
    if workload not in _BUILDERS:
        raise ValueError(f"unknown workload {workload!r} (choose from {', '.join(WORKLOADS)})")
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    return _BUILDERS[workload](rng, **SIZES[size][workload])
