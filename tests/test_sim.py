import math
import sys
import tracemalloc
from fractions import Fraction
from dataclasses import replace

import numpy as np
import pytest

from voilab.analytics import (
    analyze,
    closed_form_mm12_exp,
    stationary_mg12,
)
from voilab.model import (
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
    MG12_STAR,
    Scenario,
    UniformValue,
    sample_service_times,
    service_law,
)
from voilab import sim
from voilab.sim import (
    SimConfig,
    _batch_stderrs,
    _next_arrivals,
    _grid_length,
    _samples_below,
    _serve,
    _serve_bufferless,
    rng_stream,
    simulate,
)

from test_analytics import _rescaled, _value_scales, residual_ccdf_oracle

LIN3 = DescendFunction.linear(3.0)
SEED = 20260809


def mm12(lam=1.0):
    return Scenario(lam, ExponentialValue(1.5), DependentService("identity"), LIN3, MG12)


def uniflog(lam=1.0, disc=MG11):
    return Scenario(lam, UniformValue(0.0, 10.0), DependentService("log-shift", 1.0), LIN3, disc)


@pytest.fixture(scope="module")
def mm12_run():
    return simulate(SimConfig(mm12(1.0), n_packets=1_000_000, seed=SEED))


@pytest.fixture(scope="module")
def uniflog_mg12_trace():
    return simulate(SimConfig(uniflog(1.0, MG12), n_packets=1_000_000, seed=SEED + 1, trace=True))


def _z(a, b, se):
    return abs(a - b) / se


# ---------------------------------------------------------------------------
# Determinism and bookkeeping
# ---------------------------------------------------------------------------

def test_identical_seed_gives_identical_report():
    cfg = SimConfig(mm12(0.8), n_packets=100_000, seed=42)
    assert simulate(cfg) == simulate(cfg)


def test_different_seed_gives_different_report():
    a = simulate(SimConfig(mm12(0.8), n_packets=100_000, seed=42))
    b = simulate(SimConfig(mm12(0.8), n_packets=100_000, seed=43))
    assert a.avg_voi != b.avg_voi
    assert a.seed == 42 and b.seed == 43


def test_report_invariants(mm12_run):
    rep = mm12_run
    assert rep.n_generated == 1_000_000
    assert rep.n_delivered <= rep.n_generated
    assert rep.n_expired <= rep.n_delivered
    assert rep.avg_voi >= 0.0
    assert sum(rep.occupancy) == pytest.approx(1.0, abs=1e-9)


def test_config_validation():
    with pytest.raises(ValueError):
        SimConfig(mm12(), n_packets=0)
    for bad in (0.0, math.nan, math.inf):
        with pytest.raises(ValueError):
            SimConfig(mm12(), sample_voi_every=bad)
    for bad in (-1, 2**64):
        with pytest.raises(ValueError):
            SimConfig(mm12(), seed=bad)
    assert SimConfig(mm12(), seed=2**64 - 1).seed == 2**64 - 1


@pytest.mark.parametrize("field", ["n_packets", "seed"])
@pytest.mark.parametrize("bad", [1000.0, 1.5, True, np.float64(7.0), np.bool_(True), "7", None])
def test_config_rejects_a_count_or_seed_that_is_not_an_integer(field, bad):
    # A float seed ran with its integer part as the key while the report
    # showed the float, True ran as seed 1, and a float packet count passed
    # validation to fail inside numpy.
    with pytest.raises(ValueError, match=f"{field} must be an integer"):
        SimConfig(mm12(), **{field: bad})


@pytest.mark.parametrize("bad", [True, np.bool_(True), "0.25", 0.25j, np.complex128(0.25), [0.25]])
def test_config_rejects_a_sampling_step_that_is_not_real(bad):
    # True ran as step 1, and a str or complex step raised TypeError.
    with pytest.raises(ValueError, match="sample_voi_every must be a real number"):
        SimConfig(mm12(), sample_voi_every=bad)


def test_config_runs_a_real_sampling_step_as_its_float():
    for step in (1, np.float32(0.25), np.int64(2), Fraction(1, 4)):
        got = SimConfig(mm12(), sample_voi_every=step).sample_voi_every
        assert type(got) is float and got == step
    with pytest.raises(ValueError, match="finite"):
        SimConfig(mm12(), sample_voi_every=10**400)


def test_largest_packet_count_is_out_of_memory():
    # The CLI accepts this count and turns MemoryError into exit 2; the run's
    # workspace of four rows cannot exist, so it fails before touching memory.
    with pytest.raises(MemoryError):
        simulate(SimConfig(mm12(), n_packets=sys.maxsize // 8, seed=1))


def test_departures_past_dbl_max_are_a_numeric_failure():
    sc = Scenario(1.0, UniformValue(0.0, 10.0), IndependentDeterministicService(1e308), LIN3, MG12)
    with pytest.raises(ArithmeticError, match="^departure times overflow at lambda = 1 over 200 packets$"):
        simulate(SimConfig(sc, n_packets=200, seed=1))


def test_config_accepts_numpy_integers():
    want = simulate(SimConfig(mm12(), n_packets=50, seed=3))
    got = simulate(SimConfig(mm12(), n_packets=np.int64(50), seed=np.uint64(3)))
    assert got == want
    # perfbench's checks.digest hashes the repr of the fields, seed among them.
    assert repr(got) == repr(want)


@pytest.mark.parametrize("seed", [0, 1, SEED, 2**64 - 1])
def test_rng_stream_is_philox_keyed_by_seed_and_stream(seed):
    for stream in range(3):
        key = np.array([seed, stream], dtype=np.uint64)
        want = np.random.Generator(np.random.Philox(key=key))
        got = sim.rng_stream(seed, stream)
        assert repr(got.bit_generator.state) == repr(want.bit_generator.state)
        assert np.array_equal(got.exponential(1.0, 1000), want.exponential(1.0, 1000))


def _pairs(seed):
    """Two fresh generators of each stream of ``seed``."""
    return [(rng_stream(seed, k), rng_stream(seed, k)) for k in range(3)]


@pytest.mark.parametrize("n", [1, 2, 3000])
def test_in_place_draws_equal_numpys_array_draws(n):
    # A run draws each stream straight into a workspace row.  That rests on
    # numpy drawing exponential(scale) as scale * a standard exponential and
    # uniform(lo, hi) as lo + (hi - lo) * a double: an upgrade that changes
    # either must fail here.
    for seed in (1, 7, SEED):
        for lam in (1e-300, 1e-3, 0.1, 1.0, 5.0, 1e3, 1e300):
            (a, b), (va, vb), (sa, sb) = _pairs(seed)
            t = a.standard_exponential(out=np.empty(n))
            t *= 1.0 / lam  # the arrivals, as simulate draws them
            assert np.array_equal(t, b.exponential(1.0 / lam, n))
            got, classes = ExponentialValue(lam).sample(va, np.empty(n))
            assert classes is None and np.array_equal(got, vb.exponential(1.0 / lam, n))
            got = sample_service_times(IndependentExponentialService(lam), got, None, lambda: sa, np.empty(n))
            assert np.array_equal(got, sb.exponential(1.0 / lam, n))
        for lo, hi in ((0.0, 10.0), (2.5, 7.25), (0.0, 1e-300), (0.0, 1e308)):
            (va, vb), _, _ = _pairs(seed)
            got, classes = UniformValue(lo, hi).sample(va, np.empty(n))
            assert classes is None and np.array_equal(got, vb.uniform(lo, hi, n))
        (_, _), (va, vb), (sa, sb) = _pairs(seed)
        dist = BinaryValue(0.4, 1.33, 0.8)
        values, classes = dist.sample(va, np.empty(n))
        want_classes = np.where(vb.random(n) < dist.p, 1, 2).astype(np.int8)
        assert classes.dtype == np.int8 and np.array_equal(classes, want_classes)
        assert np.array_equal(values, np.where(want_classes == 1, dist.v1, dist.v2))
        got = sample_service_times(ClassExponentialService(), values, classes, lambda: sa, np.empty(n))
        assert np.array_equal(got, sb.standard_exponential(n) * values)


@pytest.mark.parametrize(
    "service, streams",
    [
        (DependentService("log-shift", 1.0), 2),
        (IndependentDeterministicService(0.8), 2),
        (IndependentExponentialService(1.5), 3),
        (ClassExponentialService(), 3),
    ],
    ids=lambda x: type(x).__name__ if not isinstance(x, int) else str(x),
)
def test_run_builds_only_the_streams_it_draws_from(monkeypatch, service, streams):
    calls = []

    def counted(seed, stream):
        calls.append(stream)
        return rng_stream(seed, stream)

    monkeypatch.setattr(sim, "rng_stream", counted)
    dist = BinaryValue(0.4, 1.33, 0.8) if isinstance(service, ClassExponentialService) else UniformValue(0.0, 10.0)
    for disc in DISCIPLINES:
        calls.clear()
        simulate(SimConfig(Scenario(1.0, dist, service, LIN3, disc), n_packets=100, seed=SEED))
        assert sorted(calls) == list(range(streams)), (disc, calls)


# ---------------------------------------------------------------------------
# Trivial limits
# ---------------------------------------------------------------------------

def test_zero_service_recovers_full_triangle_rate():
    sc = Scenario(1.0, UniformValue(0, 10), IndependentDeterministicService(0.0), LIN3, MG11)
    rep = simulate(SimConfig(sc, n_packets=200_000, seed=SEED))
    assert _z(rep.avg_voi, 7.5, rep.stderr_voi) <= 3.0


def test_service_beyond_deadline_collects_nothing():
    for disc in (MG11, MG12, MG12_STAR):
        sc = Scenario(1.0, UniformValue(0, 10), IndependentDeterministicService(3.0), LIN3, disc)
        rep = simulate(SimConfig(sc, n_packets=50_000, seed=SEED))
        assert rep.avg_voi == 0.0
        assert rep.n_expired == rep.n_delivered > 0


def test_service_at_deadline_samples_no_value_and_served_on_arrival_keeps_exact_service():
    for disc in (MG11, MG12, MG12_STAR):
        sc = Scenario(1.0, UniformValue(0, 10), IndependentDeterministicService(3.0), LIN3, disc)
        rep = simulate(SimConfig(sc, n_packets=50_000, seed=SEED, sample_voi_every=0.37, trace=True))
        assert rep.sampled_voi_mean == 0.0
        d = rep.detail
        ids = d["delivered_ids"]
        on_arrival = d["service_start_times"] == d["t_gen"][ids]
        assert on_arrival.any()
        t_sys = d["system_times"]
        assert np.array_equal(t_sys[on_arrival], d["services"][ids][on_arrival])
        assert np.all(t_sys[~on_arrival] >= d["services"][ids][~on_arrival])


def test_instant_service_age_is_poisson_sawtooth():
    sc = Scenario(2.0, UniformValue(0, 10), IndependentDeterministicService(0.0), LIN3, MG12)
    rep = simulate(SimConfig(sc, n_packets=200_000, seed=SEED))
    assert _z(rep.avg_aoi, 0.5, rep.stderr_aoi) <= 3.0


# ---------------------------------------------------------------------------
# Agreement with the analytic route
# ---------------------------------------------------------------------------

def test_mm12_average_voi_and_buffer_occupancy(mm12_run):
    cf = closed_form_mm12_exp(1.5, 1.0, 3.0)
    assert _z(mm12_run.avg_voi, cf.avg_voi, mm12_run.stderr_voi) <= 3.0
    assert _z(mm12_run.occupancy[2], cf.p_busy2, mm12_run.occupancy_stderr[2]) <= 3.0
    assert _z(mm12_run.occupancy[0], cf.p_idle, mm12_run.occupancy_stderr[0]) <= 3.0


def test_pasta_arrivals_see_time_averages(uniflog_mg12_trace):
    # Poisson arrivals see time averages: the states the arrivals find, read
    # off the traced served sequence, estimate the occupancy.
    d = uniflog_mg12_trace.detail
    n = uniflog_mg12_trace.n_generated
    found = _states_off_served(d["t_gen"], d["delivered_ids"], d["delivered_times"], 1)
    seen = np.bincount(found, minlength=3) / n
    for k in range(3):
        se_seen = math.sqrt(max(seen[k] * (1.0 - seen[k]), 1e-12) / n)
        se = math.hypot(se_seen, uniflog_mg12_trace.occupancy_stderr[k])
        assert _z(seen[k], uniflog_mg12_trace.occupancy[k], se) <= 3.0


def test_occupancy_matches_renewal_prediction_deterministic_service():
    sc = Scenario(0.9, UniformValue(0, 10), IndependentDeterministicService(0.8), LIN3, MG12)
    rep = simulate(SimConfig(sc, n_packets=300_000, seed=SEED + 2))
    st = stationary_mg12(*service_law(sc))
    for got, want, se in zip(rep.occupancy, (st.p_idle, st.p_busy1, st.p_busy2), rep.occupancy_stderr):
        assert _z(got, want, se) <= 3.0


def test_occupancy_matches_renewal_prediction_uniform_log(mm12_run):
    sc = uniflog(1.0)
    rep = simulate(SimConfig(sc, n_packets=300_000, seed=SEED + 3))
    ana = analyze(sc)
    assert _z(rep.occupancy[0], ana.p_idle, rep.occupancy_stderr[0]) <= 3.0
    assert rep.occupancy[2] == 0.0  # no buffer slot in the bufferless discipline
    assert _z(rep.avg_voi, ana.avg_voi, rep.stderr_voi) <= 3.0


def test_doubling_packet_count_is_statistically_invariant():
    a = simulate(SimConfig(mm12(1.0), n_packets=150_000, seed=SEED + 4))
    b = simulate(SimConfig(mm12(1.0), n_packets=300_000, seed=SEED + 5))
    assert _z(a.avg_voi, b.avg_voi, math.hypot(a.stderr_voi, b.stderr_voi)) <= 3.0


# ---------------------------------------------------------------------------
# Buffer mechanics
# ---------------------------------------------------------------------------

def _buffer_waits(report):
    d = report.detail
    return d["service_start_times"] - d["t_gen"][d["delivered_ids"]]


def test_bufferless_discipline_never_queues():
    rep = simulate(SimConfig(uniflog(1.5, MG11), n_packets=50_000, seed=SEED, trace=True))
    waits = _buffer_waits(rep)
    assert np.all(waits <= 1e-12)


def test_fcfs_buffer_wait_bounded_by_service(uniflog_mg12_trace):
    waits = _buffer_waits(uniflog_mg12_trace)
    assert waits.max() <= math.log(11.0) + 1e-9  # residual of one service
    assert (waits > 1e-12).sum() > 0


def test_empirical_residual_ccdf_matches_analytic(uniflog_mg12_trace):
    # First-in-busy arrivals wait exactly the residual of the in-progress
    # service; their empirical tail must match the oracle's CCDF.
    waits = _buffer_waits(uniflog_mg12_trace)
    waits = waits[waits > 1e-12]
    m = waits.size
    for w in (0.25, 0.5, 1.0):
        emp = float((waits > w).mean())
        ana = residual_ccdf_oracle(*service_law(uniflog(1.0, MG12)), w)
        se = math.sqrt(max(emp * (1.0 - emp), 1e-12) / m)
        assert _z(emp, ana, se) <= 3.0


def test_lcfs_delivered_buffered_packet_saw_no_arrival_while_waiting():
    rep = simulate(SimConfig(mm12(2.0), n_packets=100_000, seed=SEED, trace=True))
    star = Scenario(2.0, ExponentialValue(1.5), DependentService("identity"), LIN3, MG12_STAR)
    rep = simulate(SimConfig(star, n_packets=100_000, seed=SEED, trace=True))
    d = rep.detail
    gen = d["t_gen"]
    checked = 0
    for j, t1 in zip(d["delivered_ids"].tolist(), d["service_start_times"].tolist()):
        t0 = float(gen[j])
        if t1 - t0 <= 1e-12:
            continue
        inside = np.searchsorted(gen, t1, side="left") - np.searchsorted(gen, t0, side="right")
        assert inside == 0
        checked += 1
    assert checked > 1000


def test_class_only_admission_serves_single_class():
    sc = Scenario(
        2.0, BinaryValue(0.4, 1.33, 0.8), ClassExponentialService(), LIN3, MG11, "class-only(2)"
    )
    rep = simulate(SimConfig(sc, n_packets=100_000, seed=SEED, trace=True))
    cls = rep.detail["classes"][rep.detail["delivered_ids"]]
    assert np.all(cls == 2)


# ---------------------------------------------------------------------------
# Sampled VoI
# ---------------------------------------------------------------------------

def test_area_sum_matches_sampled_voi_curve():
    rep = simulate(SimConfig(mm12(1.0), n_packets=200_000, seed=SEED, sample_voi_every=0.1))
    assert rep.sampled_voi_mean == pytest.approx(rep.avg_voi, rel=5e-3, abs=0.0)


def test_sampled_voi_nonlinear_descend():
    sc = Scenario(
        1.0,
        ExponentialValue(1.5),
        DependentService("identity"),
        DescendFunction.power_convex(2.0, 3.0),
        MG12,
    )
    rep = simulate(SimConfig(sc, n_packets=4000, seed=SEED, sample_voi_every=0.2))
    assert rep.sampled_voi_mean == pytest.approx(rep.avg_voi, rel=2e-2, abs=0.0)


def _sampled_voi_reference(rep, descend, step):
    """Brute force: per sample t, the math.fsum of the values over the delivered
    packets with t_on <= t < gen + D; then the exact mean over the samples."""
    d = rep.detail
    gen = d["t_gen"][d["delivered_ids"]]
    v0 = d["values"][d["delivered_ids"]]
    t_on = d["delivered_times"]
    samples = np.arange(0.0, rep.elapsed, step)
    per_sample = [
        math.fsum(
            float(descend.value(float(v0[k]), t - float(gen[k])))
            for k in np.flatnonzero((t_on <= t) & (t < gen + descend.deadline))
        )
        for t in samples.tolist()
    ]
    return math.fsum(per_sample) / samples.size


@pytest.mark.parametrize("step", [0.1, 0.2, 1 / 3, 0.75])
@pytest.mark.parametrize("elapsed", [0.05, 3.0, 7.3, 1234.567, 1e5])
def test_sample_counts_match_a_search_of_the_grid(step, elapsed):
    # The oracle is numpy's own grid: its length and fill rule are what the
    # sampled VoI relies on.  At step 0.1, elapsed 3.0 the grid holds 31
    # samples, the last just above elapsed; 1e5 / 0.1 gives 1e6 samples.
    grid = np.arange(0.0, elapsed, step)
    assert _grid_length(elapsed, step) == grid.size
    x = np.concatenate(
        (
            grid,
            np.nextafter(grid, -np.inf),
            np.nextafter(grid, np.inf),
            [-1.0, -0.0, np.nextafter(elapsed, 0.0), elapsed, np.nextafter(elapsed, np.inf), 2.0 * elapsed, 1e300],
            np.random.default_rng(4).uniform(-step, elapsed + step, 1000),
        )
    )
    assert np.array_equal(_samples_below(x, step, grid.size), np.searchsorted(grid, x))


def test_grid_length_matches_numpy_when_the_quotient_underflows():
    assert _grid_length(1e-20, 1e308) == np.arange(0.0, 1e-20, 1e308).size == 1


def test_sampled_voi_memory_does_not_grow_with_the_grid():
    # Sparse traffic over a long run: a grid of ~4e6 samples (32 MB as an
    # array), but ~1.2e5 (packet, sample) pairs.
    cfg = SimConfig(uniflog(0.01), n_packets=400, seed=SEED, sample_voi_every=0.01)
    tracemalloc.start()
    try:
        rep = simulate(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.elapsed / 0.01 > 3.5e6
    assert peak < 8e6


def test_oversized_sampling_grid_raises_value_error():
    # No grid is allocated: the length is checked first.
    cfg = SimConfig(uniflog(1.0), n_packets=10, seed=SEED)
    elapsed = simulate(cfg).elapsed
    for step in (elapsed / 2.0**53, elapsed / 2.0**60, 5e-324):
        with pytest.raises(ValueError, match="sampling grid"):
            simulate(replace(cfg, sample_voi_every=step))


_DECAYS = (LIN3, DescendFunction.power_convex(1.5, 3.0), DescendFunction.power_concave(2.5, 3.0))


@pytest.mark.parametrize(
    "descend,disc,lam,n,step",
    [(descend, disc, 1.0, 1000, 0.2) for descend in _DECAYS for disc in (MG11, MG12, MG12_STAR)]
    # A long, sparse linear run, where running sums of alpha - beta t over
    # the packets held would cancel to a ~1e-10 relative error.
    + [(LIN3, MG12_STAR, 0.15, 3000, 0.75)],
    ids=lambda v: v.kind if isinstance(v, DescendFunction) else None,
)
def test_sampled_voi_matches_brute_force_reference(descend, disc, lam, n, step):
    sc = replace(uniflog(lam, disc), descend=descend)
    rep = simulate(SimConfig(sc, n_packets=n, seed=SEED, sample_voi_every=step, trace=True))
    assert rep.sampled_voi_mean == pytest.approx(_sampled_voi_reference(rep, descend, step), rel=1e-12, abs=0.0)


def test_convex_descend_collects_less_than_linear():
    lin = simulate(SimConfig(mm12(1.0), n_packets=20_000, seed=SEED))
    convex = Scenario(
        1.0,
        ExponentialValue(1.5),
        DependentService("identity"),
        DescendFunction.power_convex(2.0, 3.0),
        MG12,
    )
    conv = simulate(SimConfig(convex, n_packets=20_000, seed=SEED))
    assert conv.avg_voi < lin.avg_voi


# ---------------------------------------------------------------------------
# Server states in the trace
# ---------------------------------------------------------------------------

def test_event_trace_shape_and_rendering():
    rep = simulate(SimConfig(mm12(1.0), n_packets=500, seed=SEED, trace=True))
    d = rep.detail
    completions = d["completion_states"]
    assert completions.size == rep.n_delivered == d["delivered_times"].size
    assert np.all(np.diff(d["delivered_times"]) >= 0.0)
    assert set(completions.tolist()) == {1, 2}


# ---------------------------------------------------------------------------
# Event-by-event reference simulator
# ---------------------------------------------------------------------------

def _reference_run(t_gen, services, admitted, discipline, starts=None):
    """Replay arrivals and completions one event at a time.

    Returns the delivered ids and times, the state each arrival finds, the
    state at each completion (before it) and a timeline of (time, state after
    the event).  States: 0 idle, 1 busy, 2 busy with a full buffer.  An
    arrival at a completion instant is handled first.  The service start of
    each delivery is appended to ``starts`` if given.
    """
    ids, times, arrival_states, completion_states, timeline = [], [], [], [], [(0.0, 0)]
    in_service, done, buffer, began = None, math.inf, None, None
    i = 0
    while i < len(t_gen) or in_service is not None:
        state = (in_service is not None) + (buffer is not None)
        if i < len(t_gen) and t_gen[i] <= done:
            t = t_gen[i]
            arrival_states.append(state)
            if admitted is None or admitted[i]:
                if in_service is None:
                    in_service, done, began = i, t + services[i], t
                elif discipline == MG12_STAR or (discipline == MG12 and buffer is None):
                    buffer = i
            i += 1
        else:
            t = done
            completion_states.append(state)
            ids.append(in_service)
            times.append(t)
            if starts is not None:
                starts.append(began)
            in_service, buffer, began = buffer, None, t
            done = math.inf if in_service is None else t + services[in_service]
        timeline.append((t, (in_service is not None) + (buffer is not None)))
    return ids, times, arrival_states, completion_states, timeline


def _state_time(timeline, a, b):
    """Time spent in each state within [a, b]."""
    out = [0.0, 0.0, 0.0]
    for (t0, state), (t1, _) in zip(timeline, timeline[1:]):
        out[state] += max(0.0, min(t1, b) - max(t0, a))
    return out


def _check_against_reference(cfg):
    rep = simulate(cfg)
    d = rep.detail
    n, nb = rep.n_generated, rep.n_batches
    admitted = None if d["admitted"] is None else d["admitted"].tolist()
    ids, times, _, completion_states, timeline = _reference_run(
        d["t_gen"].tolist(), d["services"].tolist(), admitted, cfg.scenario.discipline
    )
    assert d["delivered_ids"].tolist() == ids
    # Deliveries leave in arrival order, so every delivery resets the age.
    assert (np.diff(d["delivered_ids"]) > 0).all()
    assert d["delivered_times"].tolist() == times
    assert d["completion_states"].tolist() == completion_states
    elapsed = timeline[-1][0]
    assert rep.elapsed == elapsed
    total = _state_time(timeline, 0.0, elapsed)
    for got, want in zip(rep.occupancy, total):
        assert got == pytest.approx(want / elapsed, rel=0.0, abs=1e-12)
    # Batch means over the batches of VoI and AoI: edges at generation times.
    edges = [0.0] + [d["t_gen"][b * n // nb] for b in range(1, nb)] + [elapsed]
    fracs = [
        [x / (b - a) for x in _state_time(timeline, a, b)]
        for a, b in zip(edges, edges[1:])
        if b > a
    ]
    for k in range(3):
        col = np.array([f[k] for f in fracs])
        want = col.std(ddof=1) / math.sqrt(col.size) if col.size > 1 else 0.0
        assert rep.occupancy_stderr[k] == pytest.approx(want, rel=1e-9, abs=1e-15)
    return rep


@pytest.mark.parametrize("admission", ["serve-all", "class-only(1)", "class-only(2)"])
@pytest.mark.parametrize("disc", [MG11, MG12, MG12_STAR])
def test_simulation_matches_event_by_event_reference(disc, admission):
    for service in (ClassExponentialService(), IndependentDeterministicService(0.8)):
        for lam in (0.5, 3.0):
            sc = Scenario(lam, BinaryValue(0.4, 1.33, 0.5), service, LIN3, disc, admission)
            for seed in (1, 2):
                _check_against_reference(
                    SimConfig(sc, n_packets=400, seed=seed, trace=True)
                )
            for seed in range(4):
                _check_against_reference(SimConfig(sc, n_packets=1, seed=seed, trace=True))


def _integer_stream(n, seed):
    """Integer gaps (0 repeats an arrival time) and integer services (0 included)."""
    rng = np.random.default_rng(seed)
    return np.cumsum(rng.integers(0, 3, n)).astype(float), rng.integers(0, 4, n).astype(float)


def _exponential_stream(n, seed):
    rng = np.random.default_rng(seed)
    return np.cumsum(rng.exponential(1.0, n)), rng.exponential(0.5, n)


# Admitted streams (arrival times, service times) for the servers.  Integer
# times put departures exactly on arrival instants, where the arrival must
# still find the server busy; repeated times and zero services tie arrivals
# with each other and with departures.
_STREAMS = {
    "integer": (np.arange(8.0), np.array([1.0, 1, 2, 1, 3, 1, 1, 1])),
    "integer-random": _integer_stream(300, 5),
    "repeated-times": (
        np.array([0.0, 0, 0, 1, 1, 1, 2.5, 2.5, 4, 4]),
        np.array([1.0, 0.5, 2, 1.5, 1, 0.25, 1.5, 1, 0, 3]),
    ),
    "zero-services": (np.array([0.0, 0, 1, 1, 1, 2, 3, 3]), np.zeros(8)),
    "single": (np.array([0.7]), np.array([1.3])),
    "empty": (np.zeros(0), np.zeros(0)),
    # Serves more than 2**13 packets, so the bufferless orbit takes >= 14 doublings.
    "exponential-2e4": _exponential_stream(20_000, 7),
}


@pytest.mark.parametrize("stream", sorted(_STREAMS))
@pytest.mark.parametrize("disc", [MG11, MG12, MG12_STAR])
def test_servers_match_event_by_event_reference(stream, disc):
    t, s = _STREAMS[stream]
    ids, times, *_ = _reference_run(t.tolist(), s.tolist(), None, disc)
    if disc == MG11:
        served = _serve_bufferless(t, s)
        departs = t[served] + s[served]
    else:
        served, departs = _serve(t, s, 1 if disc == MG12 else 2)
    assert served.dtype == np.int64 and departs.dtype == np.float64
    assert served.tolist() == ids
    assert departs.tolist() == times
    if stream == "exponential-2e4":
        assert len(ids) > 2**13


@pytest.mark.parametrize("stream", sorted(_STREAMS))
@pytest.mark.parametrize("disc", [MG12, MG12_STAR])
def test_buffer_fills_match_event_by_event_reference(stream, disc):
    t, s = _STREAMS[stream]
    *_, completion_states, _ = _reference_run(t.tolist(), s.tolist(), None, disc)
    code = 1 if disc == MG12 else 2
    served, departs = _serve(t, s, code)
    first, t_next, fills = _buffer_fills(t, served, departs, code)
    assert (1 + fills).tolist() == completion_states
    assert t_next[fills].tolist() == t[first[fills]].tolist()


def _buffer_fills(t, served, departs, code):
    """Per buffered service: the first admitted arrival after it starts (n:
    none), by the rule ``_next_arrivals`` reads: the next served position
    under FCFS, the next position under LCFS; its time as ``_next_arrivals``
    writes it; and whether it comes by the departure."""
    first = np.append(served, t.size)[1:] if code == 1 else served + 1
    t_next = _next_arrivals(t, served, code, np.empty(served.size))
    return first, t_next, t_next <= departs


def _searched_fills(t, served, departs):
    """First admitted arrival after each service starts, by a binary search of
    every previous departure, whatever the discipline: the oracle for
    ``_buffer_fills``."""
    d_prev = np.concatenate(([-np.inf], departs[:-1]))
    return np.maximum(served + 1, np.searchsorted(t, d_prev, side="right"))


@pytest.mark.parametrize("disc", [1, 2])
def test_buffer_fills_match_a_search_of_every_departure(disc):
    # Integer gaps and services, zeros included: arrivals tie with each
    # other, with service starts and with departures.
    rng = np.random.default_rng(1300 + disc)
    for _ in range(1000):
        n, gap, work = rng.integers(1, 60), rng.integers(1, 4), rng.integers(1, 6)
        t = np.cumsum(rng.integers(0, gap + 1, n)).astype(float)
        s = rng.integers(0, work + 1, n).astype(float)
        served, departs = _serve(t, s, disc)
        first, t_next, fills = _buffer_fills(t, served, departs, disc)
        assert first.tolist() == _searched_fills(t, served, departs).tolist()
        assert fills.tolist() == [f < n and t[f] <= d for f, d in zip(first, departs)]


def _states_off_served(t, served, departs, code):
    """The state each arrival of an admitted stream finds (0 idle, 1 busy,
    2 full buffer), read off the served sequence.  An arrival served strictly
    after the previous departure found the server idle; the first arrival of
    each buffer fill found it busy with an empty buffer; every other arrival
    found it busy (no buffer) or the buffer full."""
    idle = np.ones(served.size, dtype=bool)
    np.greater(t[served[1:]], departs[:-1], out=idle[1:])
    seen = np.full(t.size, 1 if code == 0 else 2)
    if code != 0:
        first, _, fills = _buffer_fills(t, served, departs, code)
        assert np.intersect1d(served[idle], first[fills]).size == 0
        seen[first[fills]] = 1
    seen[served[idle]] = 0
    return seen


def _found_states(t, s, disc):
    code = {MG11: 0, MG12: 1, MG12_STAR: 2}[disc]
    if code == 0:
        served = _serve_bufferless(t, s)
        departs = t[served] + s[served]
    else:
        served, departs = _serve(t, s, code)
    return _states_off_served(t, served, departs, code).tolist()


@pytest.mark.parametrize("stream", sorted(_STREAMS))
@pytest.mark.parametrize("disc", [MG11, MG12, MG12_STAR])
def test_arrival_states_match_event_by_event_reference(stream, disc):
    t, s = _STREAMS[stream]
    *_, arrival_states, _, _ = _reference_run(t.tolist(), s.tolist(), None, disc)
    assert _found_states(t, s, disc) == arrival_states


@pytest.mark.parametrize("disc", [MG11, MG12, MG12_STAR])
def test_arrival_states_match_reference_on_tie_heavy_streams(disc):
    # Integer gaps and services, zeros included: arrivals tie with each
    # other, with service starts and with departures.
    rng = np.random.default_rng(1900 + DISCIPLINES.index(disc))
    for _ in range(1000):
        n, gap, work = rng.integers(1, 60), rng.integers(1, 4), rng.integers(1, 6)
        t = np.cumsum(rng.integers(0, gap + 1, n)).astype(float)
        s = rng.integers(0, work + 1, n).astype(float)
        *_, arrival_states, _, _ = _reference_run(t.tolist(), s.tolist(), None, disc)
        assert _found_states(t, s, disc) == arrival_states


def _binary(admission):
    return lambda lam, disc: Scenario(lam, BinaryValue(0.4, 1.33, 0.5), ClassExponentialService(), LIN3, disc, admission)


# An untraced run drops the drawn values and services once the delivered
# packets' are gathered, a traced run keeps them: both paths on every family.
_TRACE_FAMILIES = {
    "serve-all": _binary("serve-all"),
    "class-only(1)": _binary("class-only(1)"),
    "class-only(2)": _binary("class-only(2)"),
    "uniform-log": uniflog,
    "exp-identity": lambda lam, disc: Scenario(lam, ExponentialValue(1.5), DependentService("identity"), LIN3, disc),
    "uniform-log-power-convex": lambda lam, disc: replace(uniflog(lam, disc), descend=_DECAYS[1]),
}


@pytest.mark.parametrize("family", sorted(_TRACE_FAMILIES))
@pytest.mark.parametrize("disc", [MG11, MG12, MG12_STAR])
def test_traced_and_untraced_reports_are_equal(disc, family):
    for lam in (0.3, 3.0):
        sc = _TRACE_FAMILIES[family](lam, disc)
        for n in (1, 2, 50, 5000):
            cfg = SimConfig(sc, n_packets=n, seed=SEED, sample_voi_every=0.25)
            traced = simulate(replace(cfg, trace=True))
            assert repr(simulate(cfg)) == repr(replace(traced, detail=None))


def _array_draws(sc, n, seed):
    """A run's streams as numpy's array methods draw them."""
    t_gen = np.cumsum(rng_stream(seed, 0).exponential(1.0 / sc.lam, n))
    dist, service, rng = sc.value_dist, sc.service, rng_stream(seed, 1)
    classes = None
    if isinstance(dist, BinaryValue):
        classes = np.where(rng.random(n) < dist.p, 1, 2).astype(np.int8)
        values = np.where(classes == 1, dist.v1, dist.v2)
    elif isinstance(dist, UniformValue):
        values = rng.uniform(dist.v_min, dist.v_max, n)
    else:
        values = rng.exponential(1.0 / dist.rate, n)
    if isinstance(service, DependentService):
        services = service.g(values)
    else:
        services = rng_stream(seed, 2).standard_exponential(n) * values
    return t_gen, values, classes, services


@pytest.mark.parametrize("family", sorted(_TRACE_FAMILIES))
@pytest.mark.parametrize("disc", [MG11, MG12, MG12_STAR])
def test_trace_keeps_whole_arrays(disc, family):
    # A run writes its workspace rows over and over: what a trace reports
    # must be the run's arrays as they were, each in memory of its own.
    for lam in (0.3, 3.0):
        sc = _TRACE_FAMILIES[family](lam, disc)
        for n in (1, 2, 50, 5000):
            d = simulate(SimConfig(sc, n_packets=n, seed=SEED, trace=True)).detail
            t_gen, values, classes, services = _array_draws(sc, n, SEED)
            assert np.array_equal(d["t_gen"], t_gen)
            assert np.array_equal(d["values"], values)
            assert np.array_equal(d["services"], services)
            assert (d["classes"] is None) == (classes is None)
            assert classes is None or np.array_equal(d["classes"], classes)
            starts = []
            admitted = None if d["admitted"] is None else d["admitted"].tolist()
            ids, times, *_ = _reference_run(t_gen.tolist(), services.tolist(), admitted, disc, starts)
            assert d["delivered_ids"].tolist() == ids
            assert d["delivered_times"].tolist() == times
            assert d["service_start_times"].tolist() == starts
            assert d["system_times"].tolist() == [services[i] + (b - t_gen[i]) for i, b in zip(ids, starts)]
            arrays = [(k, v) for k, v in d.items() if isinstance(v, np.ndarray)]
            for j, (a, x) in enumerate(arrays):
                for b, y in arrays[:j]:
                    one = {a, b} == {"values", "services"} and sc.service == DependentService("identity")
                    assert np.shares_memory(x, y) == one, (a, b)


_CLASS_ONE = Scenario(1.0, BinaryValue(0.4, 1.33, 0.8), ClassExponentialService(), LIN3, MG11, "class-only(1)")


def _peak_per_arrival(cfg):
    """The tracemalloc peak of one run per arrival, after a short warm-up run."""
    simulate(replace(cfg, n_packets=1000))
    tracemalloc.start()
    try:
        simulate(cfg)
        return tracemalloc.get_traced_memory()[1] / cfg.n_packets
    finally:
        tracemalloc.stop()


# Cells held below the 80 B per arrival of the others.
_PEAK_PINS = {(MG12, "uniform-log", 3.0): 60, (MG11, "class-only(1)", 0.1): 70}


@pytest.mark.parametrize("lam", [0.1, 3.0])
@pytest.mark.parametrize("family", ["uniform-log", "class-only(1)"])
@pytest.mark.parametrize("disc", [MG11, MG12, MG12_STAR])
def test_untraced_serve_all_run_allocates_no_per_arrival_state_array(disc, family, lam):
    # Per arrival a run holds its workspace of four rows (32 B), into which
    # the streams are drawn and every later per-packet array is written over
    # a dead one, and under class-only admission the admitted mark and
    # positions (9 B).  Beside the rows it holds the served positions and one
    # scratch array at a time: the buffer fills, the service starts, the age
    # integral, or the areas once the positions have moved into a row.
    # Holding every array to the end peaked at 95-131 B per arrival at
    # lam = 0.1, and a per-arrival state array with the lookup that built it
    # took 73.8 B at lam = 3.  Without a buffer the served orbit fills one
    # buffer of n + 1 positions while the jump map squares in place; doubling
    # a new array each round took 72.6 B for class-only(1) at lam = 0.1.
    base = uniflog() if family == "uniform-log" else _CLASS_ONE
    cfg = SimConfig(replace(base, lam=lam, discipline=disc), n_packets=200_000, seed=SEED)
    assert _peak_per_arrival(cfg) < _PEAK_PINS.get((disc, family, lam), 80)


@pytest.mark.parametrize("disc", [MG11, MG12, MG12_STAR])
def test_sampled_run_keeps_three_run_arrays(disc):
    # Besides the alive packets' generation times and values, the sampled
    # VoI holds each run's last sample, its end among the pairs and its start,
    # which shares one buffer with its first sample and its length.  A
    # buffer for each of those took 111-117 B per arrival.
    cfg = SimConfig(uniflog(0.1, disc), n_packets=200_000, seed=SEED, sample_voi_every=0.25)
    assert _peak_per_arrival(cfg) < 105


@pytest.mark.parametrize("disc", [1, 2])
def test_buffered_server_allocates_a_few_bytes_per_arrival(disc):
    # Per arrival: a departure slot and a served mark, then the served
    # positions and their departures (24.5 B at this load).  A Python object
    # kept per served packet passes 40 B.
    n = 200_000
    rng = np.random.default_rng(20)
    t, s = np.cumsum(rng.exponential(1 / 0.2, n)), rng.exponential(1.0, n)
    tracemalloc.start()
    try:
        _serve(t, s, disc)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / n < 40


def test_run_without_an_admitted_packet_matches_reference():
    sc = Scenario(1.0, BinaryValue(0.4, 1.33, 0.9), ClassExponentialService(), LIN3, MG12, "class-only(2)")
    rep = _check_against_reference(SimConfig(sc, n_packets=5, seed=0, trace=True))
    assert not rep.detail["admitted"].any()
    assert rep.n_delivered == 0 and rep.occupancy == (1.0, 0.0, 0.0)


def test_zero_length_last_batch_gives_finite_errors():
    # With as many batches as packets, a run ending on an unserved arrival
    # has a last batch of zero length; it must not enter the batch means.
    sc = Scenario(3.0, BinaryValue(0.4, 1.33, 0.5), ClassExponentialService(), LIN3, MG11, "class-only(1)")
    for seed in range(200):
        rep = simulate(SimConfig(sc, n_packets=50, seed=seed))
        errors = (rep.stderr_voi, rep.stderr_aoi) + rep.occupancy_stderr
        assert all(math.isfinite(x) for x in errors), seed


def test_batch_errors_stay_finite_at_an_extreme_rate():
    # At lam = 1e200 the batches span ~1e-199 time units and the per-batch
    # VoI means reach ~1e198, whose squares overflow a float.
    sc = Scenario(1e200, UniformValue(0, 10), DependentService("log-shift", 1.0), LIN3, MG12)
    rep = simulate(SimConfig(sc, n_packets=1000, seed=1))
    errors = (rep.stderr_voi, rep.stderr_aoi) + rep.occupancy_stderr
    assert all(math.isfinite(x) and x >= 0.0 for x in errors)
    assert rep.stderr_voi > 0.0


def test_batch_error_scaling_is_exact():
    # Scaling by a power of two changes no bit of an ordinary error.
    rng = np.random.default_rng(5)
    for _ in range(50):
        totals, spans = rng.exponential(3.0, 40), rng.uniform(0.0, 2.0, 40)
        m = totals / spans
        assert _batch_stderrs(totals[None], spans)[0] == float(m.std(ddof=1) / math.sqrt(m.size))


@pytest.mark.parametrize("disc", DISCIPLINES)
def test_simulate_is_exactly_scale_covariant(disc):
    # Every time t times and every value c times what it was (c = t where values
    # set the service; see test_analytics): the same seed draws the same stream
    # in the new units, so avg_voi and its error scale by c, the age by t, and
    # the occupancy stays, to the bit.
    for sc in (
        Scenario(1.3, UniformValue(0.0, 10.0), IndependentExponentialService(1.5), LIN3, disc),
        Scenario(1.3, UniformValue(0.0, 10.0), DependentService("log-shift", 1.0), LIN3, disc),
        Scenario(1.3, ExponentialValue(1.5), DependentService("identity"), LIN3, disc),
        Scenario(1.3, BinaryValue(0.4, 1.33, 0.8), ClassExponentialService(), LIN3, disc),
    ):
        want = simulate(SimConfig(sc, n_packets=20_000, seed=5))
        for k in (3, -20, 200, -300):
            t = 2.0**k
            for c in _value_scales(sc, t):
                got = simulate(SimConfig(_rescaled(sc, t, c), n_packets=20_000, seed=5))
                assert (got.avg_voi, got.stderr_voi, got.avg_aoi, got.occupancy) == (
                    c * want.avg_voi, c * want.stderr_voi, t * want.avg_aoi, want.occupancy
                ), (sc, k, c)


def _one_row_batch_stderr(totals, spans):
    """The batch-means error of one row of totals, by a one-row ``std``."""
    keep = spans > 0.0
    m = totals[keep] / spans[keep]
    if m.size < 2:
        return 0.0
    e = math.frexp(float(np.abs(m).max()))[1]
    return math.ldexp(float(np.ldexp(m, -e).std(ddof=1) / math.sqrt(m.size)), e)


@pytest.mark.parametrize("order", ["C", "F"])
def test_stacked_batch_errors_equal_one_row_errors(order):
    # Row reductions over a Fortran-ordered array sum in another order, which
    # moves the last bit of some of these errors.
    rng = np.random.default_rng(8)
    for trial in range(40):
        scale = rng.choice([1e-300, 1e-3, 1.0, 1e200], size=(5, 1))
        totals = np.array(rng.normal(1.0, 1.0, (5, 100)) * scale, order=order)
        spans = rng.uniform(0.0, 2.0, 100)
        if trial % 2:
            spans[-1] = 0.0  # a run ending on an unserved arrival
        got = _batch_stderrs(totals, spans)
        assert got.tolist() == [_one_row_batch_stderr(row, spans) for row in totals]
    # Fewer than two batches of positive length: no error.
    assert _batch_stderrs(np.ones((5, 3)), np.array([0.0, 1.0, 0.0])).tolist() == [0.0] * 5
