"""One benchmark run: timed passes over a workload's rows, checks, metrics.

Untraced runs (``trace=False``) repeat passes over every row until the time
budget is spent, time a speed probe between rows (see ``speed``), and
report end-to-end metrics from each row's median corrected latency over the
passes.  Traced runs compute the reference rows once, then alternate
untraced and traced passes over the sweep rows and report per-layer metrics
from the traced pass with the median sweep time.
"""

from __future__ import annotations

import gc
import math
import resource
import statistics
import subprocess
import sys
import time
import tracemalloc
from dataclasses import dataclass
from pathlib import Path

from voilab import analytics, sim
from voilab.sim import SimConfig

import checks
import speed
import tracing
from workloads import ANALYTIC, CLOSED_FORM, REFERENCE, SIMULATE, SWEEP, build_rows

HERE = Path(__file__).resolve().parent
SETUP_PROBES = 9


@dataclass
class Outcome:
    seconds: float
    start: float
    report: object = None   # None when the engine does not cover the row, or raised
    error: str | None = None


@dataclass
class Result:
    correct: bool
    attempted: int
    failed: int
    metrics: dict[str, tuple[float, str]]
    lines: list[str]


def run_row(row) -> Outcome:
    """Call the row's engine once, timed the way `voi-lab run` times a row."""
    start = time.perf_counter()
    report = error = None
    try:
        if row.engine == SIMULATE:
            config = SimConfig(row.scenario, n_packets=row.n_packets, seed=row.sim_seed,
                               sample_voi_every=row.sample_every)
            report = sim.simulate(config)
        elif row.engine == ANALYTIC:
            report = analytics.analyze(row.scenario)
        else:
            report = analytics.closed_form_report(row.scenario)
    except analytics.UnsupportedAnalyticsError:
        pass
    except Exception as exc:  # a raising row is a failed check, not the end of the run
        error = f"{type(exc).__name__}: {exc}"
    return Outcome(time.perf_counter() - start, start, report, error)


def measure_setup(workload: str, seed: int, size: str, probes: int, log: speed.SpeedLog) -> list[float]:
    """Corrected time from starting a fresh interpreter to its first row being ready."""
    cmd = [sys.executable, str(HERE / "run.py"), "--setup-probe", "--workload", workload,
           "--seed", str(seed), "--size", size]
    walls = []
    log.probe()
    for _ in range(probes):
        start = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, cwd=HERE.parent) as proc:
            line = proc.stdout.readline()
            walls.append((start, time.perf_counter() - start))
            proc.stdout.read()
            proc.wait(timeout=120)
        if proc.returncode != 0 or line.strip() != b"ready":
            raise RuntimeError(f"setup probe failed with exit code {proc.returncode}")
        log.probe()
    return [wall * log.scale(start, wall) for start, wall in walls]


def _passes(seconds: float, kinds, run_pass) -> None:
    """Run passes (cycling through ``kinds``) until the next one would overrun ``seconds``.

    Every kind runs at least once.
    """
    took: dict[str, list[float]] = {k: [] for k in kinds}
    start = time.perf_counter()
    i = 0
    while True:
        kind = kinds[i % len(kinds)]
        t = time.perf_counter()
        run_pass(kind)
        took[kind].append(time.perf_counter() - t)
        i += 1
        nxt = took[kinds[i % len(kinds)]] or took[kind]
        if all(took.values()) and time.perf_counter() - start + statistics.median(nxt) > seconds:
            return


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 size: str = "full", probes: int = SETUP_PROBES, span_dir: Path | None = None) -> Result:
    rows = build_rows(workload, seed, size)
    n = len(rows)
    sweep = [i for i, r in enumerate(rows) if r.role == SWEEP]
    lat: list[list[Outcome]] = [[] for _ in rows]
    dig: list[list[str]] = [[] for _ in rows]
    first: list[Outcome | None] = [None] * n

    def record(i: int, out: Outcome) -> None:
        lat[i].append(out)
        dig[i].append(checks.digest(out.report))
        if first[i] is None:
            first[i] = out

    if not trace:
        log = speed.SpeedLog()
        setup = measure_setup(workload, seed, size, probes, log)

        def run_pass(_) -> None:
            for i in range(n):
                # Start each row from a collected heap, so no row pays for
                # the cyclic garbage the row before it left.
                gc.collect()
                log.probe()
                record(i, run_row(rows[i]))
            log.probe()

        _passes(seconds, ["all"], run_pass)
        result = checks.run_checks(rows, first, dig)
        corrected = [statistics.median(o.seconds * log.scale(o.start, o.seconds) for o in outs) for outs in lat]
        metrics = _end_to_end(rows, corrected, setup, result)
        wall = sum(statistics.median(o.seconds for o in outs) for r, outs in zip(rows, lat) if r.role == SWEEP)
        lines = [f"setup probes: {len(setup)}; passes: {len(lat[0])}; rows: {n} ({len(sweep)} sweep)",
                 f"speed probes: {len(log.took)}, median {log.median_ms():.3f} ms (reference "
                 f"{speed.PROBE_REF_S * 1e3:g} ms); uncorrected median sweep {wall:.4f} s"]
    else:
        start = time.perf_counter()
        for i in range(n):
            if rows[i].role == REFERENCE:
                record(i, run_row(rows[i]))
        tracer = tracing.Tracer()
        plain: list[float] = []
        traced: list[tuple[float, dict, int, list]] = []

        def run_pass(kind: str) -> None:
            total = 0.0
            for i in sweep:
                tracer.recording = kind == "traced"
                out = run_row(rows[i])
                tracer.recording = False
                record(i, out)
                total += out.seconds
            if kind == "traced":
                spans, evals = tracer.take()
                traced.append((total, tracing.summarise(spans), evals, spans))
            else:
                plain.append(total)

        with tracer:
            _passes(seconds - (time.perf_counter() - start), ["untraced", "traced"], run_pass)
        peak = _peak_traced_mb(rows, sweep, record)
        result = checks.run_checks(rows, first, dig)
        traced.sort(key=lambda t: t[0])
        chosen = traced[(len(traced) - 1) // 2]
        if span_dir is not None:
            tracing.write_spans(chosen[3], span_dir / f"spans-{workload}-seed{seed}.csv.gz")
        metrics = _per_layer(rows, first, sweep, chosen, statistics.median(plain), peak, result)
        lines = [f"passes: {len(plain)} untraced, {len(traced)} traced; spans in reported pass: {chosen[1]['spans']}"]

    exact = [c for c in result.checks if not c.statistical]
    exact_failed = sum(not c.ok for c in exact)
    stat_failed = len(result.failed) - exact_failed
    lines.append(f"checks: {len(exact)} deterministic ({exact_failed} failed), "
                 f"{len(result.checks) - len(exact)} statistical ({stat_failed} outside {checks.SIGMA:g} sigma)")
    lines += [f"FAILED {c.name} [{'statistical' if c.statistical else 'deterministic'}] {c.what}: {c.detail}"
              for c in result.failed]
    run_digest = checks.digest_rows([d[0] for d in dig])
    lines.append(f"report digest: {run_digest}")
    # attempted/failed count the deterministic checks, which fail only on a
    # defect; statistical misses are listed above and counted in checks_ok_frac.
    return Result(result.correct, len(exact), exact_failed, metrics, lines)


def _peak_traced_mb(rows, sweep, record) -> float:
    """tracemalloc peak of the first simulate sweep row, re-run untimed."""
    sims = [i for i in sweep if rows[i].engine == SIMULATE]
    if not sims:
        return 0.0
    tracemalloc.start()
    try:
        record(sims[0], run_row(rows[sims[0]]))
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def _end_to_end(rows, row_s, setup, result) -> dict[str, tuple[float, str]]:
    """End-to-end metrics from each row's corrected latency ``row_s``."""
    sweep = sum(b for r, b in zip(rows, row_s) if r.role == SWEEP)
    ana = [b for r, b in zip(rows, row_s) if r.engine in (ANALYTIC, CLOSED_FORM)]
    ana_only = [b for r, b in zip(rows, row_s) if r.engine == ANALYTIC]
    sim_t = sum(b for r, b in zip(rows, row_s) if r.engine == SIMULATE)
    sim_pk = sum(r.n_packets for r in rows if r.engine == SIMULATE)
    attempted = len(result.checks)
    return {
        "setup_s": (statistics.median(setup), "s"),
        "sweep_s": (sweep, "s"),
        "analytic_pts_per_s": (len(ana) / sum(ana), "1/s"),
        "analytic_ms_gmean": (1e3 * math.exp(statistics.fmean(math.log(m) for m in ana_only)), "ms"),
        "sim_mpkt_per_s": (sim_pk / sim_t / 1e6, "Mpkt/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "checks_ok_frac": ((attempted - len(result.failed)) / attempted, "frac"),
    }


def _per_layer(rows, first, sweep, chosen, plain_s, peak_mb, result) -> dict[str, tuple[float, str]]:
    traced_s, s, evals, _ = chosen
    sims = [first[i].report for i in sweep if rows[i].engine == SIMULATE and first[i].report is not None]
    pkts = sum(rows[i].n_packets for i in sweep if rows[i].engine == SIMULATE)
    gen = sum(r.n_generated for r in sims)
    delivered = sum(r.n_delivered for r in sims)
    calls, fself, fincl, lself = s["fn_calls"], s["fn_self"], s["fn_incl"], s["layer_self"]
    qcalls = calls.get("integrate", 0)
    unsupported = sum(1 for i in sweep if rows[i].engine != SIMULATE and first[i].report is None
                      and first[i].error is None)

    def per_pkt(ns: float) -> float:
        return ns / pkts if pkts else 0.0

    ns = 1e-9
    return {
        "quadrature.calls": (qcalls, "count"),
        "quadrature.evals": (evals, "count"),
        "quadrature.evals_per_call": (evals / qcalls if qcalls else 0.0, "count"),
        "quadrature.busy_s": (s["quad_busy"] * ns, "s"),
        "quadrature.self_s": (lself["quadrature"] * ns, "s"),
        "quadrature.errors": (s["quad_errors"], "count"),
        "model.self_s": (lself["model"] * ns, "s"),
        "model.transform_s": (sum(fself.get(f, 0) for f in tracing.TRANSFORMS) * ns, "s"),
        "model.q_area_ns_per_pkt": (per_pkt(fself.get("q_area_batch", 0)), "ns/pkt"),
        "model.sample_ns_per_pkt": (per_pkt(fself.get("sample_service_times", 0)), "ns/pkt"),
        "analytics.calls": (calls.get("analyze", 0) + calls.get("closed_form_report", 0), "count"),
        "analytics.self_s": (lself["analytics"] * ns, "s"),
        "analytics.stationary_ms": (sum(fincl.get(f, 0) for f in tracing.STATIONARY) * 1e-6, "ms"),
        "analytics.unsupported": (unsupported, "count"),
        "analytics.cf_max_rel_err": (max(result.cf_rel_errors, default=0.0), "rel"),
        "sim.calls": (calls.get("simulate", 0), "count"),
        "sim.self_s": (lself["sim"] * ns, "s"),
        "sim.self_ns_per_pkt": (per_pkt(lself["sim"]), "ns/pkt"),
        "sim.peak_traced_mb": (peak_mb, "MB"),
        "sim.delivered_frac": (delivered / gen if gen else 0.0, "frac"),
        "sim.expired_frac": (sum(r.n_expired for r in sims) / delivered if delivered else 0.0, "frac"),
        "sim.max_abs_z": (max((z for z in result.z_values if math.isfinite(z)), default=0.0), "sigma"),
        "cli.verify_ms": (result.verify_seconds * 1e3, "ms"),
        "trace.sweep_s": (traced_s, "s"),
        "trace.glue_s": (traced_s - s["top_level"] * ns, "s"),
        "trace.overhead_frac": (traced_s / plain_s - 1.0, "frac"),
        "trace.spans": (s["spans"], "count"),
    }
