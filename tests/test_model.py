import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from voilab.model import (
    BinaryValue,
    ClassExponentialService,
    DependentService,
    DescendFunction,
    ExponentialValue,
    IndependentDeterministicService,
    IndependentExponentialService,
    MG11,
    MG12,
    Scenario,
    UniformValue,
    mean_service_time,
    mgf_service,
    one_minus_mgf_service,
    q_area_batch,
    sample_service_times,
    service_law,
)
from voilab.sim import rng_stream

LIN3 = DescendFunction.linear(3.0)


def descend_strategy():
    kinds = st.sampled_from(["linear", "power-concave", "power-convex"])
    return st.builds(
        DescendFunction,
        kinds,
        st.floats(0.5, 10.0),
        st.floats(1.0, 4.0),
    )


# ---------------------------------------------------------------------------
# DescendFunction.value
# ---------------------------------------------------------------------------

def test_value_at_linear_midpoint():
    assert LIN3.value(10.0, 1.5) == 5.0


def test_value_at_boundary_zero():
    assert LIN3.value(10.0, 3.0) == 0.0
    assert LIN3.value(10.0, 100.0) == 0.0


def test_value_at_power_convex():
    d = DescendFunction.power_convex(2.0, 3.0)
    assert d.value(8.0, 1.5) == 2.0


@settings(max_examples=60, deadline=None)
@given(descend_strategy(), st.floats(0.0, 50.0))
def test_value_at_non_increasing_and_vanishing(descend, v0):
    taus = np.sort(np.append(np.linspace(0.0, 1.5 * descend.deadline, 40), descend.deadline))
    vals = [float(descend.value(v0, float(t))) for t in taus]
    assert vals[0] == v0
    for a, b in zip(vals, vals[1:]):
        assert b <= a + 1e-12
    assert all(v == 0.0 for v, t in zip(vals, taus) if t >= descend.deadline)
    assert descend.value(0.0, float(taus[3])) == 0.0
    # The law over an array is the law at each point, exactly 0 from the
    # deadline on; numpy's array power may round x**shape (<= 1) differently
    # from its scalar one, by an ulp of 1 scaled by v0.
    vec = descend.value(np.full(taus.size, v0), taus)
    assert vec.tolist() == pytest.approx(vals, rel=0.0, abs=2.0 * np.finfo(float).eps * v0)
    assert (vec[taus >= descend.deadline] == 0.0).all()


# ---------------------------------------------------------------------------
# DescendFunction.area
# ---------------------------------------------------------------------------

def test_q_area_full_triangle():
    assert LIN3.area(10.0, 0.0) == pytest.approx(15.0, rel=1e-15, abs=0.0)


def test_q_area_ultimate_staleness():
    assert LIN3.area(10.0, 3.0) == 0.0


def test_q_area_midpoint():
    assert LIN3.area(10.0, 1.5) == pytest.approx(3.75, rel=1e-15, abs=0.0)


def _value_integral(descend, v0, a, b):
    """Oracle: scipy's adaptive quadrature of DescendFunction.value over [a, b]."""
    return quad(lambda tau: float(descend.value(v0, tau)), a, b, epsabs=1e-14, epsrel=1e-12, limit=200)[0]


@settings(max_examples=40, deadline=None)
@given(st.floats(0.1, 20.0), st.floats(0.5, 8.0), st.floats(0.0, 1.0))
def test_q_area_linear_quadrature_matches_closed_form(v0, deadline, frac):
    descend = DescendFunction.linear(deadline)
    t_sys = frac * deadline
    closed = float(descend.area(v0, t_sys))
    oracle = _value_integral(descend, v0, t_sys, deadline)
    assert oracle == pytest.approx(closed, rel=1e-10, abs=1e-12)


# Fractions of the deadline at which packets are received: anywhere up to
# 1.5 D, plus points within 1e-12 D on either side of the deadline, where the
# closed forms must not lose accuracy to cancellation.
_RECEPTION_FRACS = st.one_of(
    st.floats(0.0, 1.5),
    st.sampled_from([1.0 - 1e-12, 1.0 - 1e-9, 1.0 - 1e-6, 1.0, 1.0 + 1e-12]),
)


@settings(max_examples=60, deadline=None)
@given(descend_strategy(), st.floats(0.1, 20.0), st.lists(_RECEPTION_FRACS, min_size=1, max_size=8))
def test_q_area_batch_matches_quadrature_oracle(descend, v0, fracs):
    d = descend.deadline
    t_sys = np.array(fracs) * d
    values = np.full(t_sys.size, v0)
    areas = q_area_batch(descend, values, t_sys)
    for t, area in zip(t_sys, areas):
        oracle = _value_integral(descend, v0, min(float(t), d), d)
        assert area == pytest.approx(oracle, rel=1e-8, abs=1e-11 * v0 * d)


@settings(max_examples=30, deadline=None)
@given(descend_strategy(), st.floats(0.1, 20.0))
def test_q_area_decreases_with_system_time(descend, v0):
    grid = np.linspace(0.0, descend.deadline, 12)
    areas = [float(descend.area(v0, float(t))) for t in grid]
    for a, b in zip(areas, areas[1:]):
        assert b <= a + 1e-9
    # full-area consistency: zero system time integrates the whole curve
    full = _value_integral(descend, v0, 0.0, descend.deadline)
    assert areas[0] == pytest.approx(full, rel=1e-8, abs=1e-10)


def _clip_value(descend, v0, tau):
    """``DescendFunction.value`` written with ``np.clip``."""
    x = np.clip(np.asarray(tau, dtype=float) / descend.deadline, 0.0, 1.0)
    v = np.asarray(v0, dtype=float)
    if descend.kind == "linear":
        return v * (1.0 - x)
    if descend.kind == "power-concave":
        return v * (1.0 - x**descend.shape)
    return v * (1.0 - x) ** descend.shape


def _clip_area(descend, v0, t_sys):
    """``DescendFunction.area`` written with ``np.clip``."""
    t, v, d = np.asarray(t_sys, dtype=float), np.asarray(v0, dtype=float), descend.deadline
    if descend.kind == "linear":
        rem = np.clip(d - t, 0.0, None)
        return v / (2.0 * d) * rem * rem
    r = np.clip((d - t) / d, 0.0, None)
    k1 = descend.shape + 1.0
    if descend.kind == "power-convex":
        return v * d * r**k1 / k1
    return v * d * (r - (1.0 - (1.0 - r) ** k1) / k1)


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return np.array_equal(a, b, equal_nan=True) and np.array_equal(np.signbit(a), np.signbit(b))


@pytest.mark.parametrize(
    "descend",
    [LIN3, DescendFunction.power_convex(1.5, 3.0), DescendFunction.power_convex(2.0, 3.0),
     DescendFunction.power_concave(2.5, 3.0), DescendFunction.power_concave(3.0, 3.0)],
    ids=repr,
)
def test_value_and_area_equal_their_clip_forms_bit_for_bit(descend):
    # The laws call the ufuncs that np.clip wraps; outputs, signed zeros
    # included, must be np.clip's, on scalars and on arrays long enough for
    # numpy's vector loops.  Before generation the concave area is nan
    # ((1 - r)**k1 with r > 1), in both forms.
    d = descend.deadline
    times = [-1.0, -0.0, 0.0, d / 2, d, 2 * d, math.inf]
    tau = np.tile(times, 5)
    with np.errstate(invalid="ignore"):
        for v0 in (0.0, 2.5):
            for t in times:
                assert _same_bits(descend.value(v0, t), _clip_value(descend, v0, t)), (v0, t)
                assert _same_bits(descend.area(v0, t), _clip_area(descend, v0, t)), (v0, t)
            v = np.full(tau.size, v0)
            assert _same_bits(descend.value(v, tau), _clip_value(descend, v, tau))
            assert _same_bits(descend.area(v, tau), _clip_area(descend, v, tau))


# ---------------------------------------------------------------------------
# sample_service_times
# ---------------------------------------------------------------------------

def test_service_time_log_shift_inverse_point():
    svc = DependentService("log-shift", 1.0)
    assert sample_service_times(svc, np.array([math.e - 1.0]), None, None, np.empty(1))[0] == pytest.approx(1.0, rel=1e-15, abs=0.0)
    assert svc.g_inv(svc.g(4.2)) == pytest.approx(4.2, rel=1e-15, abs=0.0)


def test_service_time_identity():
    assert sample_service_times(DependentService("identity"), np.array([2.0]), None, None, np.empty(1))[0] == 2.0


def test_service_time_class_exponential_monte_carlo():
    # Sample-mean oracle: 10^6 draws of an exponential with mean 0.4 must
    # land within three standard errors of 0.4.
    rng = rng_stream(99, 2)
    n = 1_000_000
    draws = rng.standard_exponential(n) * 0.4
    se = draws.std(ddof=1) / math.sqrt(n)
    assert abs(draws.mean() - 0.4) <= 3.0 * se
    one = sample_service_times(
        ClassExponentialService(), np.array([0.4]), np.array([1]), lambda: rng_stream(7, 2), np.empty(1)
    )
    assert one[0] >= 0.0


def test_service_time_class_exponential_requires_class():
    with pytest.raises(ValueError):
        sample_service_times(ClassExponentialService(), np.array([0.4]), None, lambda: rng_stream(7, 2), np.empty(1))


def test_service_time_random_models_require_rng():
    with pytest.raises(ValueError):
        sample_service_times(IndependentExponentialService(1.5), np.array([1.0]), None, None, np.empty(1))


# ---------------------------------------------------------------------------
# mgf_service
# ---------------------------------------------------------------------------

def _scenario(service, dist=None, lam=1.0):
    return Scenario(lam, dist or UniformValue(0.0, 10.0), service, LIN3, MG11)


def test_mgf_exponential_closed_form():
    sc = _scenario(IndependentExponentialService(1.5))
    assert mgf_service(*service_law(sc)) == pytest.approx(0.6, rel=1e-15, abs=0.0)


def test_mgf_deterministic_point_mass():
    sc = _scenario(IndependentDeterministicService(2.0))
    assert mgf_service(*service_law(sc)) == pytest.approx(math.exp(-2.0), rel=1e-12, abs=0.0)


def test_mgf_dependent_log_uniform_vs_dense_grid_oracle():
    # Independent oracle: trapezoid rule on a 10^6-point grid of
    # exp(-lam a log(1+v)) / (v_max - v_min).
    sc = _scenario(DependentService("log-shift", 1.0))
    v = np.linspace(0.0, 10.0, 1_000_001)
    f = np.exp(-np.log1p(v)) / 10.0
    # Composite trapezoid sum written out: np.trapz is gone in numpy 2 and
    # np.trapezoid is missing before it.
    oracle = float(np.sum(np.diff(v) * (f[1:] + f[:-1]) / 2.0))
    assert mgf_service(*service_law(sc)) == pytest.approx(oracle, abs=1e-8)


def test_mgf_binary_atoms():
    dist = BinaryValue(0.4, 1.33, 0.8)
    sc = _scenario(DependentService("identity"), dist)
    expected = 0.8 * math.exp(-0.4) + 0.2 * math.exp(-1.33)
    assert mgf_service(*service_law(sc)) == pytest.approx(expected, rel=1e-12, abs=0.0)
    sc2 = _scenario(ClassExponentialService(), dist)
    expected2 = 0.8 / 1.4 + 0.2 / 2.33
    assert mgf_service(*service_law(sc2)) == pytest.approx(expected2, rel=1e-12, abs=0.0)


def test_transforms_resolve_the_layer_at_the_shortest_service():
    # exp(-lam S) has a layer of width 1/lam at S = 0, which the law's own
    # quadrature pieces resolve: no caller passes cuts.
    law, lam = service_law(_scenario(DependentService("identity"), ExponentialValue(1.5), lam=1e3))
    assert mgf_service(law, lam) == pytest.approx(1.5 / (lam + 1.5), rel=1e-9, abs=0.0)
    assert one_minus_mgf_service(law, lam) == pytest.approx(lam / (lam + 1.5), rel=1e-9, abs=0.0)


def test_one_minus_mgf_of_a_value_mapped_law_against_scipy():
    # 1 - MGF = E[-expm1(-a lam log1p(V))] for V ~ Uniform(0, 10), a = 1, has
    # no closed form free of cancellation at small lam; scipy's quad runs on
    # pieces that end past the layer of width 1/(a lam) at v = 0.
    law, _ = service_law(_scenario(DependentService("log-shift", 1.0)))
    for lam in map(float, np.logspace(-8, 8, 33)):

        def f(v):
            return -math.expm1(-lam * math.log1p(v)) / 10.0

        cuts = [0.0, *(math.expm1(t / lam) for t in (1.0, 10.0, 100.0) if t / lam < math.log(11.0)), 10.0]
        oracle = sum(quad(f, a, b, epsabs=0.0, epsrel=1e-13, limit=200)[0] for a, b in zip(cuts, cuts[1:]))
        assert one_minus_mgf_service(law, lam) == pytest.approx(oracle, rel=1e-9, abs=0.0), lam


def test_one_minus_mgf_of_exponential_identity_service():
    # S = V ~ exponential(mu): 1 - MGF = lam / (mu + lam).
    law, _ = service_law(_scenario(DependentService("identity"), ExponentialValue(1.5)))
    for lam in map(float, np.logspace(-8, 8, 33)):
        assert one_minus_mgf_service(law, lam) == pytest.approx(lam / (1.5 + lam), rel=1e-9, abs=0.0), lam


def test_mgf_in_unit_interval_and_non_increasing():
    scenarios = [
        _scenario(IndependentExponentialService(1.5)),
        _scenario(IndependentDeterministicService(0.7)),
        _scenario(DependentService("log-shift", 1.0)),
        _scenario(DependentService("identity"), ExponentialValue(1.5)),
        _scenario(ClassExponentialService(), BinaryValue(0.4, 1.33, 0.8)),
    ]
    lams = [0.05, 0.2, 0.7, 1.3, 2.9, 5.0]
    for sc in scenarios:
        vals = [mgf_service(service_law(sc)[0], lam) for lam in lams]
        assert all(0.0 < v <= 1.0 for v in vals)
        for a, b in zip(vals, vals[1:]):
            assert b <= a + 1e-12


def test_mean_service_time_uniform_log():
    sc = _scenario(DependentService("log-shift", 1.0))
    # exact: (11 ln 11 - 10) / 10
    assert mean_service_time(service_law(sc)[0]) == pytest.approx(1.6376848000782074, rel=1e-9, abs=0.0)


def test_mean_service_time_class_exponential():
    sc = _scenario(ClassExponentialService(), BinaryValue(0.4, 1.33, 0.8))
    assert mean_service_time(service_law(sc)[0]) == pytest.approx(0.8 * 0.4 + 0.2 * 1.33, rel=1e-12, abs=0.0)


# ---------------------------------------------------------------------------
# Scenario validation
# ---------------------------------------------------------------------------

def test_scenario_class_only_needs_binary_values():
    with pytest.raises(ValueError):
        Scenario(1.0, UniformValue(0, 10), DependentService(), LIN3, MG11, "class-only(1)")


def test_scenario_class_service_needs_binary_values():
    with pytest.raises(ValueError):
        Scenario(1.0, ExponentialValue(1.5), ClassExponentialService(), LIN3, MG11)


def test_scenario_rejects_unknown_discipline():
    with pytest.raises(ValueError):
        Scenario(1.0, UniformValue(0, 10), DependentService(), LIN3, "M/GI/1/3")


@pytest.mark.parametrize("make", [ExponentialValue, IndependentExponentialService])
def test_rate_whose_mean_overflows_is_rejected(make):
    make(5.6e-309)  # 1 / rate = 1.786e308 is still finite
    with pytest.raises(ValueError, match="finite mean"):
        make(5.5e-309)


@pytest.mark.parametrize(
    "service, dist",
    [(DependentService("identity"), ExponentialValue(1e-308)), (DependentService("log-shift", 1e308), UniformValue(0.0, 10.0))],
)
@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # a * log1p(10) overflows to inf
def test_value_mapped_law_whose_service_times_overflow_is_a_numeric_failure(service, dist):
    ((c,), _) = service_law(_scenario(service, dist))
    for integral in (c.mean, lambda: c.mgf(1.0), lambda: c.one_minus_mgf(1.0)):
        with pytest.raises(ArithmeticError, match="reach inf$"):
            integral()


def test_scenario_rejects_nonpositive_rate():
    with pytest.raises(ValueError):
        Scenario(0.0, UniformValue(0, 10), DependentService(), LIN3, MG12)


@pytest.mark.parametrize("bad", [math.inf, math.nan])
@pytest.mark.parametrize(
    "build",
    [
        lambda x: UniformValue(0.0, x),
        lambda x: UniformValue(x, 10.0),
        lambda x: ExponentialValue(x),
        lambda x: BinaryValue(x, 1.33, 0.5),
        lambda x: BinaryValue(0.4, x, 0.5),
        lambda x: BinaryValue(0.4, 1.33, x),
        lambda x: DependentService("log-shift", x),
        lambda x: IndependentExponentialService(x),
        lambda x: IndependentDeterministicService(x),
        lambda x: DescendFunction.linear(x),
        lambda x: DescendFunction.power_concave(x, 3.0),
        lambda x: DescendFunction.power_convex(2.0, x),
        lambda x: Scenario(x, UniformValue(0, 10), DependentService(), LIN3, MG12),
    ],
    ids=[
        "uniform-max", "uniform-min", "exponential", "binary-v1", "binary-v2", "binary-p",
        "log-shift", "independent-exponential", "independent-deterministic", "linear",
        "power-concave-shape", "power-convex-deadline", "scenario-lam",
    ],
)
def test_constructors_reject_non_finite_parameters(build, bad):
    # Construction only: an infinite service time would never let a run end.
    with pytest.raises(ValueError):
        build(bad)


def test_binary_sampling_matches_class_probability():
    dist = BinaryValue(0.4, 1.33, 0.8)
    values, classes = dist.sample(rng_stream(5, 1), np.empty(200_000))
    frac1 = float(np.mean(classes == 1))
    assert abs(frac1 - 0.8) <= 3.0 * math.sqrt(0.8 * 0.2 / 200_000)
    assert set(np.unique(values)) == {0.4, 1.33}
    assert np.all(values[classes == 1] == 0.4)


def test_value_dist_means():
    assert UniformValue(0, 10).mean() == 5.0
    assert ExponentialValue(1.5).mean() == 1.0 / 1.5
    assert BinaryValue(0.4, 1.33, 0.8).mean() == pytest.approx(0.586, rel=1e-15, abs=0.0)
