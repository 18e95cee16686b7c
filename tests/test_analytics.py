import math
import sys
from dataclasses import astuple, replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import dblquad, quad
from scipy.special import gammainc

from voilab import cli
from voilab.analytics import (
    AnalyticReport,
    UnsupportedAnalyticsError,
    analyze,
    closed_form_mg11_uniform_log,
    closed_form_mm12_exp,
    closed_form_report,
    stationary_mg11,
    stationary_mg12,
)
from voilab.model import (
    BinaryValue,
    ClassExponentialService,
    DependentService,
    DescendFunction,
    DISCIPLINES,
    ExponentialComponent,
    ExponentialValue,
    IndependentDeterministicService,
    IndependentExponentialService,
    MG11,
    MG12,
    MG12_STAR,
    PointMass,
    Scenario,
    UniformValue,
    mean_service_time,
    mgf_service,
    one_minus_mgf_service,
    service_law,
    _wait_cdf_kernel,
)

LIN3 = DescendFunction.linear(3.0)

# Reference constants, each verified against an independent scipy evaluation
# of the defining integral before being frozen here.
EQ_IDLE_MM = 0.3991785210827835
EQ_BUSY_MM = 0.2267551582769947
VOI_MM12 = {0.5: 0.16434123709907827, 1.0: 0.2606914547056326, 2.0: 0.3412793831929183}
EQ_BUSY_STAR_MM = {0.5: 0.19259180588276, 1.0: 0.16698767724957, 2.0: 0.13147162037614}
VOI_MG11_EXPID = 0.23950711264967015
ES_UNIFORM_LOG = 1.6376848000782074
VOI_UNIFLOG = 0.37991822772094264


def mm12(lam):
    return Scenario(lam, ExponentialValue(1.5), DependentService("identity"), LIN3, MG12)


def expid(lam, disc):
    return Scenario(lam, ExponentialValue(1.5), DependentService("identity"), LIN3, disc)


def uniflog(lam, disc=MG11):
    return Scenario(lam, UniformValue(0.0, 10.0), DependentService("log-shift", 1.0), LIN3, disc)


# ---------------------------------------------------------------------------
# Stationary probabilities
# ---------------------------------------------------------------------------

def test_stationary_mg11_symmetric_cycle():
    sc = Scenario(1.0, UniformValue(0, 10), IndependentDeterministicService(1.0), LIN3, MG11)
    st = stationary_mg11(*service_law(sc))
    # lam E[S] = 1 exactly, so every probability is exact.
    assert st.p_idle == 0.5
    assert st.p_busy == 0.5
    assert st.e_s == 1.0


def test_stationary_mg11_empty_system_limit():
    sc = Scenario(1e-9, UniformValue(0, 10), IndependentDeterministicService(2.0), LIN3, MG11)
    assert stationary_mg11(*service_law(sc)).p_idle == pytest.approx(1.0, abs=1e-8)


def test_stationary_mg11_exponential_service():
    sc = Scenario(1.0, UniformValue(0, 10), IndependentExponentialService(1.5), LIN3, MG11)
    st = stationary_mg11(*service_law(sc))
    assert st.p_idle == pytest.approx(0.6, rel=1e-12, abs=0.0)
    assert st.p_idle + st.p_busy == pytest.approx(1.0, abs=1e-12)


def test_stationary_mg12_reference_point():
    st = stationary_mg12(*service_law(mm12(1.0)))
    assert st.p_idle == pytest.approx(2.25 / 4.75, rel=1e-9, abs=0.0)
    assert st.p_busy1 == pytest.approx(1.5 / 4.75, rel=1e-9, abs=0.0)
    assert st.p_busy2 == pytest.approx(1.0 / 4.75, rel=1e-9, abs=0.0)


def test_stationary_mg12_vanishing_buffer_at_low_rate():
    st = stationary_mg12(*service_law(mm12(1e-9)))
    assert st.p_busy2 <= 1e-15
    assert st.p_idle + st.p_busy == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("lam", [0.1, 0.7, 1.0, 3.3, 5.0])
def test_stationary_partitions_sum_to_one(lam):
    st = stationary_mg11(
        *service_law(Scenario(lam, UniformValue(0, 10), DependentService("log-shift", 1.0), LIN3, MG11))
    )
    assert st.p_idle + st.p_busy == pytest.approx(1.0, abs=1e-12)
    st = stationary_mg12(*service_law(mm12(lam)))
    assert st.p_idle + st.p_busy == pytest.approx(1.0, abs=1e-12)
    assert st.p_busy1 + st.p_busy2 == pytest.approx(st.p_busy, abs=1e-12)


# ---------------------------------------------------------------------------
# Residual service CCDF, a test oracle
# ---------------------------------------------------------------------------
#
# The first busy-period arrival of M/GI/1/2 waits the residual W' = S - X of
# the service in progress, X ~ exponential(lam), given X < S.  ``analyze``
# never forms P[W' > w]: it folds the wait over the service law with
# ``wait_fold``.  The oracle forms it per component of the admitted law:
# point masses and exponential components in closed form, value-mapped
# densities by scipy ``quad`` through ``_Law`` (the numerator is the tail of
# the residual density that ``_oracle_eq_busy`` weighs by).  The tests below
# check the oracle itself.

def residual_ccdf_oracle(law, lam, w):
    """P[W' > w] under the admitted service law ``law`` at rate ``lam``."""
    num = omm = 0.0
    for c in law:
        if isinstance(c, PointMass):
            n, o = -math.expm1(-lam * max(c.s - w, 0.0)), -math.expm1(-lam * c.s)
        elif isinstance(c, ExponentialComponent):
            # Memoryless: the residual of an interrupted service is S itself.
            o = lam * c.m / (1.0 + lam * c.m)
            n = math.exp(-w / c.m) * o
        else:
            x = _Law(c.value.pdf, *c.value.support(), c.service.g, c.service.g_inv, None)
            o = x.expect(lambda v: -math.expm1(-lam * x.g(v)))
            # No service outlasts g(hi), where g_inv(w) may overflow.
            n = x.expect(lambda v: -math.expm1(-lam * (x.g(v) - w)), lo=x.g_inv(w)) if w < x.g(x.hi) else 0.0
        num += c.weight * n
        omm += c.weight * o
    return num / omm


def test_residual_ccdf_memoryless_service():
    sc = Scenario(1.0, UniformValue(0, 10), IndependentExponentialService(1.5), LIN3, MG12)
    assert residual_ccdf_oracle(*service_law(sc), 1.0) == pytest.approx(math.exp(-1.5), rel=1e-12, abs=0.0)


def test_residual_ccdf_one_at_zero():
    for sc in (mm12(1.0), uniflog(1.0, MG12)):
        assert residual_ccdf_oracle(*service_law(sc), 0.0) == 1.0


def test_residual_ccdf_dependent_identity_matches_memoryless():
    # Exponential values through the identity map give exponential service,
    # so the quadrature route must reproduce exp(-mu w).
    sc = mm12(1.0)
    for w in (0.3, 1.0, 2.4):
        assert residual_ccdf_oracle(*service_law(sc), w) == pytest.approx(math.exp(-1.5 * w), rel=1e-8, abs=0.0)


def test_residual_ccdf_non_increasing_and_mean_bounded():
    # The CCDF values themselves carry quadrature noise, so the outer
    # integral runs at a looser tolerance than the inner one.
    for sc in (uniflog(1.0, MG12), mm12(0.7)):
        law, lam = service_law(sc)
        grid = np.linspace(0.0, 3.0, 25)
        vals = [residual_ccdf_oracle(law, lam, float(w)) for w in grid]
        for a, b in zip(vals, vals[1:]):
            assert b <= a + 1e-10
        e_wait = quad(lambda w: residual_ccdf_oracle(law, lam, w), 0.0, math.inf, epsabs=1e-9, epsrel=1e-6)[0]
        assert e_wait <= mean_service_time(law) + 1e-6


def test_residual_ccdf_vanishes_beyond_the_longest_service():
    # Uniform(0, 10) values with log-shift service never need more than
    # log(11) ~ 2.4; a large rate must not overflow the empty integral.
    assert residual_ccdf_oracle(*service_law(uniflog(500.0, MG12)), 5.0) == 0.0


def test_residual_ccdf_deterministic_service():
    # W' = s - X given X < s: P[W' > w] = P[X < s - w] / P[X < s].
    s, lam = 1.3, 0.7
    law, _ = service_law(Scenario(lam, UniformValue(0, 10), IndependentDeterministicService(s), LIN3, MG12))
    for w in (0.1, 0.65, 1.2):
        want = math.expm1(-lam * (s - w)) / math.expm1(-lam * s)
        assert residual_ccdf_oracle(law, lam, w) == pytest.approx(want, rel=1e-14, abs=0.0)
    for w in (s, 2.0):
        assert residual_ccdf_oracle(law, lam, w) == 0.0


def test_residual_ccdf_two_point_masses():
    # Binary values through the identity map: the numerator and 1 - MGF are
    # both mixtures over the two service times.
    dist = BinaryValue(0.4, 1.33, 0.8)
    lam = 0.9
    law, _ = service_law(Scenario(lam, dist, DependentService("identity"), LIN3, MG12))
    atoms = [(0.4, 0.8), (1.33, 0.2)]
    omm = sum(p * -math.expm1(-lam * v) for v, p in atoms)
    for w in (0.2, 0.4, 0.9, 1.5):
        num = sum(p * -math.expm1(-lam * max(v - w, 0.0)) for v, p in atoms)
        assert residual_ccdf_oracle(law, lam, w) == pytest.approx(num / omm, rel=1e-14, abs=0.0)


# ---------------------------------------------------------------------------
# Bufferless discipline
# ---------------------------------------------------------------------------

def test_mg11_instant_service_full_triangle():
    sc = Scenario(1.0, UniformValue(0, 10), IndependentDeterministicService(0.0), LIN3, MG11)
    rep = analyze(sc)
    assert rep.avg_voi == pytest.approx(7.5, rel=1e-12, abs=0.0)
    assert rep.p_idle == 1.0


def test_mg11_service_beyond_deadline_collects_nothing():
    sc = Scenario(1.0, UniformValue(0, 10), IndependentDeterministicService(3.0), LIN3, MG11)
    assert analyze(sc).avg_voi == 0.0


def test_mg11_exponential_identity_reference():
    rep = analyze(expid(1.0, MG11))
    assert rep.p_idle == pytest.approx(0.6, rel=1e-9, abs=0.0)
    assert rep.eq_idle == pytest.approx(EQ_IDLE_MM, rel=1e-9, abs=0.0)
    assert rep.avg_voi == pytest.approx(VOI_MG11_EXPID, rel=1e-8, abs=0.0)


def test_mg11_rejects_nonlinear_descend():
    sc = Scenario(
        1.0, UniformValue(0, 10), DependentService(), DescendFunction.power_convex(2.0, 3.0), MG11
    )
    with pytest.raises(UnsupportedAnalyticsError):
        analyze(sc)


# ---------------------------------------------------------------------------
# One-buffer FCFS
# ---------------------------------------------------------------------------

def test_mg12_matches_closed_form_triangle_points():
    for lam, expected in VOI_MM12.items():
        rep = analyze(mm12(lam))
        cf = closed_form_mm12_exp(1.5, lam, 3.0)
        assert rep.avg_voi == pytest.approx(cf.avg_voi, rel=1e-8, abs=0.0)
        assert rep.avg_voi == pytest.approx(expected, rel=1e-8, abs=0.0)


def test_mg12_vanishes_with_arrival_rate():
    rep = analyze(mm12(1e-6))
    assert rep.avg_voi == pytest.approx(0.0, abs=1e-6)
    assert rep.avg_voi > 0.0


def test_mg12_empty_region_when_service_exceeds_deadline():
    sc = Scenario(1.0, BinaryValue(5.0, 5.0, 0.5), DependentService("identity"), LIN3, MG12)
    assert analyze(sc).avg_voi == 0.0


def test_mg12_wait_integral_matches_literal_ccdf_route():
    # Dual route: the folded closed-form kernel against the textbook form
    # int_0^d (d-w) P[W'<=w] dw, with the CDF taken as 1 - the oracle CCDF.
    # The CCDF carries its own quadrature noise, so the outer level stays looser.
    for sc in (mm12(1.0), uniflog(0.8, MG12)):
        law, lam = service_law(sc)
        omm = one_minus_mgf_service(law, lam)
        for d in (0.5, 1.5, 2.9):
            literal = quad(
                lambda w: (d - w) * (1.0 - residual_ccdf_oracle(law, lam, w)),
                0.0,
                d,
                epsabs=1e-8,
                epsrel=1e-5,
            )[0]
            folded = sum(c.weight * c.wait_fold(d, lam) for c in law) / omm
            assert folded == pytest.approx(literal, rel=1e-4, abs=0.0)


# ---------------------------------------------------------------------------
# One-buffer LCFS with replacement
# ---------------------------------------------------------------------------

def test_mg12star_busy_area_reference_points():
    for lam, expected in EQ_BUSY_STAR_MM.items():
        rep = analyze(expid(lam, MG12_STAR))
        assert rep.eq_busy == pytest.approx(expected, rel=1e-7, abs=0.0)


def test_mg12star_beats_bufferless_on_exponential_identity():
    for lam in (0.5, 1.0, 2.0):
        star = analyze(expid(lam, MG12_STAR)).avg_voi
        base = analyze(expid(lam, MG11)).avg_voi
        assert star > base


def test_mg12star_vanishes_with_arrival_rate():
    rep = analyze(expid(1e-6, MG12_STAR))
    assert rep.avg_voi == pytest.approx(0.0, abs=1e-6)


def test_mg12star_star_shares_stationary_probabilities_with_fcfs():
    a = analyze(mm12(1.3))
    b = analyze(expid(1.3, MG12_STAR))
    assert a.p_idle == pytest.approx(b.p_idle, rel=1e-12, abs=0.0)
    assert a.p_busy2 == pytest.approx(b.p_busy2, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("a", [None, 0.5])
@pytest.mark.parametrize("d", [300.0, 1e3, 1e4, 1e6])
def test_lcfs_with_replacement_holds_at_long_deadlines(a, d):
    # The residual integrand took P[S > w] as 1 - cdf, which cancels to 0
    # inside the busy area's range: exp-identity raised QuadratureError at
    # D = 300 for lam <= 0.01, exp-log(0.5) at D = 1e4 for lam = 1.
    svc = DependentService("identity") if a is None else DependentService("log-shift", a)
    for lam in map(float, np.logspace(-8, 8, 17)):
        rep = analyze(Scenario(lam, ExponentialValue(1.5), svc, DescendFunction.linear(d), MG12_STAR))
        assert all(math.isfinite(x) and x >= 0.0 for x in astuple(rep)), lam
        assert rep.p_idle + rep.p_busy == pytest.approx(1.0, rel=0.0, abs=1e-12), lam
        assert rep.p_busy1 + rep.p_busy2 == pytest.approx(rep.p_busy, rel=0.0, abs=1e-12), lam


def test_lcfs_busy_area_against_nested_quadrature_at_a_long_deadline():
    # eq_busy = E[V int_0^(D-S) (D - S - w)^2 e^(-lam w) P[S > w] dw] / (2 D E[S])
    # with V = S ~ exponential(mu).
    mu, lam, d = 1.5, 0.01, 300.0
    rep = analyze(Scenario(lam, ExponentialValue(mu), DependentService("identity"), DescendFunction.linear(d), MG12_STAR))

    def inner(s):
        f = lambda w: (d - s - w) ** 2 * math.exp(-(lam + mu) * w)
        return quad(f, 0.0, d - s, epsabs=0.0, epsrel=1e-12, limit=200)[0]

    outer = lambda s: s * mu * math.exp(-mu * s) * inner(s)
    area = quad(outer, 0.0, d, epsabs=0.0, epsrel=1e-12, limit=200, points=[1.0, 10.0, 30.0, 100.0])[0]
    assert rep.eq_busy == pytest.approx(area * mu / (2.0 * d), rel=1e-8, abs=0.0)


# ---------------------------------------------------------------------------
# Closed forms
# ---------------------------------------------------------------------------

def _uniform_log_mgf(v_min, v_max, a, lam):
    """MGF_S(lam) = E[(1 + V)^(-a lam)] for V ~ Uniform(v_min, v_max), from its
    elementary antiderivative."""
    u = v_max - v_min
    if abs(a * lam - 1.0) < 1e-12:
        return (math.log1p(v_max) - math.log1p(v_min)) / u
    e = 1.0 - a * lam
    return ((1.0 + v_max) ** e - (1.0 + v_min) ** e) / (e * u)


def test_uniform_log_mean_service_time_consistent_map():
    # E[S] = ((1 + v_max) log(1 + v_max) - (1 + v_min) log(1 + v_min)) a / u - a,
    # the exact mean of a log(1 + V).
    assert 11.0 * math.log(11.0) / 10.0 - 1.0 == pytest.approx(ES_UNIFORM_LOG, rel=1e-12, abs=0.0)
    # At lam = 1 the closed form's p_busy / p_idle is lam E[S].
    rep = closed_form_mg11_uniform_log(0.0, 10.0, 1.0, 1.0, 3.0)
    assert rep.p_busy / rep.p_idle == pytest.approx(ES_UNIFORM_LOG, rel=1e-12, abs=0.0)
    # The same mean through the quadrature route.
    assert mean_service_time(service_law(uniflog(1.0))[0]) == pytest.approx(ES_UNIFORM_LOG, rel=1e-9, abs=0.0)


def test_uniform_log_closed_form_agrees_with_quadrature():
    for lam in (0.1, 0.5, 1.0, 2.7, 5.0):
        cf = closed_form_mg11_uniform_log(0.0, 10.0, 1.0, lam, 3.0)
        qd = analyze(uniflog(lam))
        assert cf.avg_voi == pytest.approx(qd.avg_voi, rel=1e-6, abs=0.0)
        mgf = mgf_service(*service_law(uniflog(lam)))
        assert _uniform_log_mgf(0.0, 10.0, 1.0, lam) == pytest.approx(mgf, rel=1e-8, abs=0.0)
    assert closed_form_mg11_uniform_log(0.0, 10.0, 1.0, 1.0, 3.0).avg_voi == pytest.approx(
        VOI_UNIFLOG, rel=1e-9, abs=0.0
    )


def test_uniform_log_nonzero_lower_bound():
    cf = closed_form_mg11_uniform_log(2.0, 8.0, 0.7, 1.3, 3.0)
    sc = Scenario(1.3, UniformValue(2.0, 8.0), DependentService("log-shift", 0.7), LIN3, MG11)
    assert cf.avg_voi == pytest.approx(analyze(sc).avg_voi, rel=1e-6, abs=0.0)


@pytest.mark.parametrize("v_min,v_max,a", [(0.0, 10.0, 1.0), (2.0, 8.0, 0.7)])
@pytest.mark.parametrize("gap", [1e-4, 3e-4, 1e-3, 0.01, 0.1, 0.3, 0.45, 0.6, 3.0])
def test_uniform_log_idle_area_matches_scipy_oracle_at_short_deadlines(v_min, v_max, a, gap):
    # The deadline sits ``gap`` above the service time of v_min.  The
    # difference of antiderivatives cancelled there: at v_min = 0 it was
    # 2.4e-7 off at D = 0.001 and 1.8e-3 at D = 1e-4.
    deadline = a * math.log1p(v_min) + gap
    v_up = min(math.expm1(deadline / a), v_max)
    area, _ = quad(lambda v: v * (deadline - a * math.log1p(v)) ** 2, v_min, v_up, epsabs=0.0, epsrel=1e-13)
    cf = closed_form_mg11_uniform_log(v_min, v_max, a, 1.0, deadline)
    assert cf.eq_idle == pytest.approx(area / (2.0 * deadline * (v_max - v_min)), rel=1e-9, abs=0.0)


def test_uniform_log_empty_region_for_steep_map():
    # a chosen so the deadline threshold exp(D/a)-1 sits below v_min
    cf = closed_form_mg11_uniform_log(1.0, 10.0, 3.0 / math.log(1.5), 1.0, 3.0)
    assert cf.avg_voi == 0.0


def test_mm12_closed_form_reference_values():
    cf = closed_form_mm12_exp(1.5, 1.0, 3.0)
    assert cf.eq_idle == pytest.approx(EQ_IDLE_MM, rel=1e-12, abs=0.0)
    assert cf.eq_busy == pytest.approx(EQ_BUSY_MM, rel=1e-9, abs=0.0)
    assert cf.avg_voi == pytest.approx(VOI_MM12[1.0], rel=1e-12, abs=0.0)
    assert cf.p_idle == pytest.approx(0.47368421052631576, rel=1e-12, abs=0.0)
    assert cf.p_busy1 == pytest.approx(0.3157894736842105, rel=1e-12, abs=0.0)


def test_mm12_closed_form_vanishing_deadline():
    assert closed_form_mm12_exp(1.5, 1.0, 1e-3).avg_voi == pytest.approx(0.0, abs=1e-6)


def test_mm12_busy_area_against_nested_quadrature():
    # Independent check of the printed busy-state closed form: evaluate the
    # defining double integral with the residual density mu e^{-mu w}.
    mu, deadline = 1.5, 3.0
    got, _ = dblquad(
        lambda w, v: (v / (2 * deadline))
        * (deadline - v - w) ** 2
        * mu
        * math.exp(-mu * w)
        * mu
        * math.exp(-mu * v),
        0.0,
        deadline,
        0.0,
        lambda v: deadline - v,
        epsabs=5e-13,
        epsrel=5e-10,
    )
    assert got == pytest.approx(EQ_BUSY_MM, rel=1e-8, abs=0.0)


@pytest.mark.parametrize("d", [710.0, 1e3, 1e6, 1e12, 1e100])
def test_uniform_log_closed_form_holds_at_long_deadlines(d):
    # expm1(D / a) overflowed from D / a = 709.78 on (OverflowError), and
    # D^2 in the area overflows from 1.34e154 on.
    cf = closed_form_mg11_uniform_log(0.0, 10.0, 1.0, 1.0, d)
    rep = analyze(replace(uniflog(1.0), descend=DescendFunction.linear(d)))
    for field in ("avg_voi", "p_idle", "eq_idle"):
        assert getattr(cf, field) == pytest.approx(getattr(rep, field), rel=1e-9, abs=0.0), field
    if d <= 1e3:
        area, _ = quad(lambda v: v * (d - math.log1p(v)) ** 2, 0.0, 10.0, epsabs=0.0, epsrel=1e-13)
        assert cf.eq_idle == pytest.approx(area / (2.0 * d * 10.0), rel=1e-9, abs=0.0)


@pytest.mark.parametrize("lam", [5e-309, 1e-320, 5e-324])
def test_uniform_log_closed_form_holds_at_subnormal_rates(lam):
    # 1/lam + E[S] overflowed below lam = 5.6e-309, and p_idle read nan.
    cf = closed_form_mg11_uniform_log(0.0, 10.0, 1.0, lam, 3.0)
    assert all(math.isfinite(x) for x in astuple(cf))
    assert cf.p_idle == 1.0
    assert cf.eq_idle == closed_form_mg11_uniform_log(0.0, 10.0, 1.0, 1.0, 3.0).eq_idle


def _mm12_decimal(mu, lam, d):
    """The M/M/1/2 closed form evaluated in 50-digit decimal arithmetic."""
    from decimal import Decimal, localcontext

    with localcontext() as ctx:
        ctx.prec = 50
        mu, lam, d = Decimal(mu), Decimal(lam), Decimal(d)
        x = d * mu
        e = (-x).exp()
        eq_idle = (x * x - 4 * x + 6 - e * (2 * x + 6)) / (2 * d * mu**3)
        eq_busy = (12 + x * x - 6 * x - e * (6 * x + x * x + 12)) / (2 * d * mu**3)
        total = lam * lam + lam * mu + mu * mu
        p_idle, p_busy1 = mu * mu / total, lam * mu / total
        avg_voi = lam * (p_idle * eq_idle + p_busy1 * eq_busy)
        return {"eq_idle": float(eq_idle), "eq_busy": float(eq_busy), "avg_voi": float(avg_voi)}


@pytest.mark.parametrize("d", [1e154, 1e200, 1e300])
def test_mm12_closed_form_holds_at_long_deadlines(d):
    # (D mu)^2 overflowed from D = 1.34e154 / mu on: eq_idle read inf and
    # eq_busy and avg_voi nan.
    for lam in (0.5, 1.0, 4.0):
        cf = closed_form_mm12_exp(1.5, lam, d)
        for field, want in _mm12_decimal(1.5, lam, d).items():
            assert getattr(cf, field) == pytest.approx(want, rel=1e-12, abs=0.0), (field, lam)


def test_closed_form_report_dispatch():
    assert closed_form_report(mm12(1.0)) == closed_form_mm12_exp(1.5, 1.0, 3.0)
    assert closed_form_report(uniflog(1.0)) == closed_form_mg11_uniform_log(0.0, 10.0, 1.0, 1.0, 3.0)
    assert closed_form_report(uniflog(1.0, MG12)) is None
    assert closed_form_report(expid(1.0, MG11)) is None


# ---------------------------------------------------------------------------
# Admission thinning
# ---------------------------------------------------------------------------

def _eds2(theta, deadline):
    # E[(D - S)^2, S < D] for S ~ Exp(theta); elementary antiderivative.
    return (
        deadline * deadline
        - 2.0 * deadline / theta
        + 2.0 / theta**2
        - 2.0 * math.exp(-theta * deadline) / theta**2
    )


@pytest.mark.parametrize("cls,frac,value", [(1, 0.8, 0.4), (2, 0.2, 1.33)])
def test_class_only_admission_thins_rate_and_conditions_values(cls, frac, value):
    lam = 2.0
    sc = Scenario(
        lam,
        BinaryValue(0.4, 1.33, 0.8),
        ClassExponentialService(),
        LIN3,
        MG11,
        f"class-only({cls})",
    )
    rep = analyze(sc)
    lam_eff = lam * frac
    e_s = value
    p_idle = 1.0 / (1.0 + lam_eff * e_s)
    expected = lam_eff * p_idle * value / (2.0 * 3.0) * _eds2(1.0 / value, 3.0)
    assert rep.avg_voi == pytest.approx(expected, rel=1e-8, abs=0.0)
    assert rep.p_idle == pytest.approx(p_idle, rel=1e-12, abs=0.0)


def test_serve_all_class_service_mixture():
    sc = Scenario(1.0, BinaryValue(0.4, 1.33, 0.8), ClassExponentialService(), LIN3, MG11)
    rep = analyze(sc)
    eqi = 0.8 * 0.4 / 6.0 * _eds2(2.5, 3.0) + 0.2 * 1.33 / 6.0 * _eds2(1.0 / 1.33, 3.0)
    p_idle = 1.0 / (1.0 + 0.586)
    assert rep.avg_voi == pytest.approx(p_idle * eqi, rel=1e-8, abs=0.0)


def test_independent_service_factorizes():
    # With service independent of value, the idle-state area is
    # E[V]/(2D) * E[(D-S)^2, S<D].
    sc = Scenario(1.0, ExponentialValue(1.5), IndependentExponentialService(1.5), LIN3, MG11)
    rep = analyze(sc)
    expected_eqi = (1.0 / 1.5) / 6.0 * _eds2(1.5, 3.0)
    assert rep.eq_idle == pytest.approx(expected_eqi, rel=1e-8, abs=0.0)


def test_analyze_dispatch():
    assert analyze(expid(1.0, MG11)).avg_voi == pytest.approx(VOI_MG11_EXPID, rel=1e-8, abs=0.0)
    assert analyze(mm12(1.0)).avg_voi == pytest.approx(VOI_MM12[1.0], rel=1e-8, abs=0.0)
    assert analyze(expid(1.0, MG12_STAR)).avg_voi > VOI_MG11_EXPID


# ---------------------------------------------------------------------------
# Pinned outputs of every service model x admission x discipline
# ---------------------------------------------------------------------------

_PIN_VALUES = {
    "unif": UniformValue(0.0, 10.0),
    "unif2": UniformValue(0.5, 2.0),
    "bin": BinaryValue(0.4, 1.33, 0.8),
}
_PIN_SERVICES = {
    "log": DependentService("log-shift", 1.0),
    "id": DependentService("identity"),
    "iexp": IndependentExponentialService(1.5),
    "idet": IndependentDeterministicService(0.8),
    "cexp": ClassExponentialService(),
}
# (avg_voi, p_idle, p_busy1, p_busy2) at lambda = 0.9 with deadline 3, as
# computed by the per-service-model implementation this table guards.
_PINNED = [
    ("unif2", "log", "serve-all", MG11, (0.5049352820077886, 0.5839131271414159, 0.41608687285858414, 0.0)),
    ("unif2", "log", "serve-all", MG12, (0.5813641133354126, 0.41151261164491415, 0.41433779035633184, 0.17414959799875412)),
    ("unif2", "log", "serve-all", MG12_STAR, (0.6093683932072113, 0.41151261164491415, 0.41433779035633184, 0.17414959799875412)),
    ("unif2", "id", "serve-all", MG11, (0.24044117647058813, 0.47058823529411764, 0.5294117647058824, 0.0)),
    ("unif2", "id", "serve-all", MG12, (0.2041151894930735, 0.23722273245596884, 0.4408015053609236, 0.3219757621831076)),
    ("unif2", "id", "serve-all", MG12_STAR, (0.24348511456515026, 0.23722273245596884, 0.4408015053609236, 0.3219757621831076)),
    ("bin", "log", "serve-all", MG11, (0.3769604988114267, 0.7170945230638306, 0.28290547693616946, 0.0)),
    ("bin", "log", "serve-all", MG12, (0.45564225510649625, 0.6343389257556998, 0.29252030821164454, 0.07314076603265549)),
    ("bin", "log", "serve-all", MG12_STAR, (0.4606593714293756, 0.6343389257556998, 0.29252030821164454, 0.07314076603265549)),
    ("bin", "log", "class-only(1)", MG11, (0.2741215560188753, 0.8049844570818558, 0.1950155429181443, 0.0)),
    ("bin", "log", "class-only(1)", MG12, (0.3225696934892439, 0.7641347888678482, 0.2094687818352702, 0.026396429296881626)),
    ("bin", "log", "class-only(1)", MG12_STAR, (0.32325072489895507, 0.7641347888678482, 0.2094687818352702, 0.026396429296881626)),
    ("bin", "log", "class-only(2)", MG11, (0.1606824057936958, 0.8678624801374891, 0.13213751986251093, 0.0)),
    ("bin", "log", "class-only(2)", MG12, (0.17409504698655995, 0.8494039502435349, 0.1396918143549262, 0.010904235401538984)),
    ("bin", "log", "class-only(2)", MG12_STAR, (0.17450912242881295, 0.8494039502435349, 0.1396918143549262, 0.010904235401538984)),
    ("unif", "iexp", "serve-all", MG11, (2.755787918109525, 0.625, 0.375, 0.0)),
    ("unif", "iexp", "serve-all", MG12, (3.074455958857481, 0.510204081632653, 0.3061224489795918, 0.18367346938775508)),
    ("unif", "iexp", "serve-all", MG12_STAR, (3.2290079061509527, 0.510204081632653, 0.3061224489795918, 0.18367346938775508)),
    ("bin", "iexp", "class-only(1)", MG11, (0.19067073163136175, 0.6756756756756757, 0.32432432432432434, 0.0)),
    ("bin", "iexp", "class-only(1)", MG12, (0.21338069512754276, 0.5846585594013096, 0.28063610851262866, 0.13470533208606175)),
    ("bin", "iexp", "class-only(1)", MG12_STAR, (0.22106735271445407, 0.5846585594013096, 0.28063610851262866, 0.13470533208606175)),
    ("bin", "iexp", "class-only(2)", MG11, (0.2094398817763239, 0.8928571428571429, 0.10714285714285712, 0.0)),
    ("bin", "iexp", "class-only(2)", MG12, (0.2219447006523128, 0.8815232722143864, 0.10578279266572635, 0.012693935119887156)),
    ("bin", "iexp", "class-only(2)", MG12_STAR, (0.2226756728602868, 0.8815232722143864, 0.10578279266572635, 0.012693935119887156)),
    ("unif", "idet", "serve-all", MG11, (2.11046511627907, 0.5813953488372092, 0.4186046511627907, 0.0)),
    ("unif", "idet", "serve-all", MG12, (2.46035077380282, 0.40335723720919014, 0.4253132666669346, 0.17132949612387524)),
    ("unif", "idet", "serve-all", MG12_STAR, (2.569651094545495, 0.40335723720919014, 0.4253132666669346, 0.17132949612387524)),
    ("bin", "idet", "class-only(1)", MG11, (0.1474111675126904, 0.6345177664974619, 0.3654822335025381, 0.0)),
    ("bin", "idet", "class-only(1)", MG12, (0.17303307034281998, 0.4939122054266321, 0.3847124379299091, 0.1213753566434587)),
    ("bin", "idet", "class-only(1)", MG12_STAR, (0.1781105941122501, 0.4939122054266321, 0.3847124379299091, 0.1213753566434587)),
    ("bin", "idet", "class-only(2)", MG11, (0.16880769230769233, 0.8741258741258742, 0.12587412587412586, 0.0)),
    ("bin", "idet", "class-only(2)", MG12, (0.18284704693585319, 0.857409895033643, 0.13279916723272556, 0.00979093773363149)),
    ("bin", "idet", "class-only(2)", MG12_STAR, (0.18321316565368218, 0.857409895033643, 0.13279916723272556, 0.00979093773363149)),
    ("bin", "cexp", "serve-all", MG11, (0.3268386931348064, 0.65470734581642, 0.34529265418357996, 0.0)),
    ("bin", "cexp", "serve-all", MG12, (0.36475708623390135, 0.5629288485493873, 0.26579915951017385, 0.1712719919404388)),
    ("bin", "cexp", "serve-all", MG12_STAR, (0.3796011390934482, 0.5629288485493873, 0.26579915951017385, 0.1712719919404388)),
    ("bin", "cexp", "class-only(1)", MG11, (0.2578816029691297, 0.7763975155279503, 0.22360248447204972, 0.0)),
    ("bin", "cexp", "class-only(1)", MG12, (0.2942918562738217, 0.7294243966201391, 0.21007422622660013, 0.06050137715326084)),
    ("bin", "cexp", "class-only(1)", MG12_STAR, (0.2977111573449056, 0.7294243966201391, 0.21007422622660013, 0.06050137715326084)),
    ("bin", "cexp", "class-only(2)", MG11, (0.13479257323694072, 0.806842020332419, 0.19315797966758108, 0.0)),
    ("bin", "cexp", "class-only(2)", MG12, (0.14139235710099807, 0.771181050514549, 0.18462074349318297, 0.04419820599226803)),
    ("bin", "cexp", "class-only(2)", MG12_STAR, (0.1431603969596957, 0.771181050514549, 0.18462074349318297, 0.04419820599226803)),
]


@pytest.mark.parametrize(
    "value, service, admission, discipline, expected",
    _PINNED,
    ids=[f"{v}-{s}-{a}-{d}" for v, s, a, d, _ in _PINNED],
)
def test_pinned_analytic_outputs(value, service, admission, discipline, expected):
    sc = Scenario(0.9, _PIN_VALUES[value], _PIN_SERVICES[service], LIN3, discipline, admission)
    rep = analyze(sc)
    got = (rep.avg_voi, rep.p_idle, rep.p_busy1, rep.p_busy2)
    assert got == pytest.approx(expected, rel=1e-9, abs=1e-300)


# The 13 value x service pairs of the pinned table that form a scenario.
_PIN_PAIRS = [(v, s) for v in _PIN_VALUES for s in _PIN_SERVICES if s != "cexp" or v == "bin"]


@pytest.mark.parametrize("value, service", _PIN_PAIRS, ids=[f"{v}-{s}" for v, s in _PIN_PAIRS])
def test_buffer_fraction_is_not_negative_at_vanishing_rate(value, service):
    # E[S] - (1 - MGF)/lam, the mean buffer wait, cancels to rounding noise
    # as lam -> 0, where it can fall below zero (-6.7e-316 at lam = 1e-300).
    for lam in np.logspace(-300, -10, 59):
        st = stationary_mg12(*service_law(Scenario(float(lam), _PIN_VALUES[value], _PIN_SERVICES[service], LIN3, MG12)))
        assert 0.0 <= st.p_busy2
        assert st.p_busy1 + st.p_busy2 == st.p_busy


@pytest.mark.parametrize("discipline", [MG12, MG12_STAR])
def test_buffered_disciplines_survive_mgf_underflow(discipline):
    # lambda * s = 3e4: MGF_S(lambda) = exp(-3e4) underflows to 0.
    sc = Scenario(1e4, UniformValue(0.0, 10.0), IndependentDeterministicService(3.0), LIN3, discipline)
    st = stationary_mg12(*service_law(sc))
    probs = (st.p_idle, st.p_busy1, st.p_busy2)
    assert all(math.isfinite(p) and 0.0 <= p <= 1.0 for p in probs)
    assert sum(probs) == pytest.approx(1.0, rel=1e-12, abs=0.0)
    rep = analyze(sc)
    assert math.isfinite(rep.avg_voi) and rep.avg_voi >= 0.0


# ---------------------------------------------------------------------------
# The whole arrival-rate range
# ---------------------------------------------------------------------------

_RANGE_FAMILIES = {
    "unif-log": (UniformValue(0.0, 10.0), DependentService("log-shift", 1.0)),
    "exp-id": (ExponentialValue(1.5), DependentService("identity")),
    "unif-iexp": (UniformValue(0.0, 10.0), IndependentExponentialService(1.5)),
    "bin-cexp": (BinaryValue(0.4, 1.33, 0.8), ClassExponentialService()),
    "unif-idet": (UniformValue(0.0, 10.0), IndependentDeterministicService(0.8)),
}


@pytest.mark.parametrize("family", sorted(_RANGE_FAMILIES))
def test_analyze_holds_over_the_whole_arrival_rate_range(family):
    # Finite values and probabilities in [0, 1] summing to 1 from 1e-300 to
    # 1e300, and every discipline at its heavy-traffic limit from 1e8 on.
    # The LCFS residual integrand carries exp(-lam w), a boundary layer of
    # width 1/lam at w = 0.  As lam -> inf every busy arrival is replaced
    # within ~1/lam, so M/GI/1/2* tends to the bufferless discipline.
    limit = {d: analyze(Scenario(1e8, *_RANGE_FAMILIES[family], LIN3, d)).avg_voi for d in DISCIPLINES}
    for lam in sorted({*np.logspace(-8, 8, 17), *np.logspace(-300, 300, 61)}):
        reps = {d: analyze(Scenario(float(lam), *_RANGE_FAMILIES[family], LIN3, d)) for d in DISCIPLINES}
        for d, rep in reps.items():
            probs = (rep.p_idle, rep.p_busy1, rep.p_busy2)
            assert all(math.isfinite(x) for x in (*probs, rep.p_busy, rep.eq_idle, rep.eq_busy, rep.avg_voi))
            assert all(0.0 <= p <= 1.0 for p in probs), (d, lam)
            assert sum(probs) == pytest.approx(1.0, abs=1e-12), (d, lam)
            if lam >= 1e8:
                assert rep.avg_voi == pytest.approx(limit[d], rel=1e-6, abs=0.0), (d, lam)
        if lam >= 1e6:
            assert reps[MG12_STAR].avg_voi == pytest.approx(reps[MG11].avg_voi, rel=1e-5, abs=0.0), lam


# The top of the double range: lam E[S] overflows from about 1e308 / E[S] on,
# lam^2 in the M/M/1/2 closed form from 1.34e154, and lam D in the FCFS wait
# kernel from 1e308 / D.  There each engine gave nan, a silent 0 or an
# integrand error.  The heavy-traffic limit is read at lam = 1e12: at D = 0.01,
# lam = 1e8 is still 5e-6 short of it on the buffered disciplines.
_TOP_RATES = (1e154, 1e155, 1e200, 1e300, 1e308, 1.1e308, 1.7e308, sys.float_info.max)


@pytest.mark.parametrize("d", [0.01, 3.0])
@pytest.mark.parametrize("family", sorted(_RANGE_FAMILIES))
def test_top_of_the_double_range_is_the_limit_or_an_arithmetic_error(family, d):
    lin = DescendFunction.linear(d)
    for discipline in DISCIPLINES:
        for engine in (analyze, closed_form_report):
            limit = engine(Scenario(1e12, *_RANGE_FAMILIES[family], lin, discipline))
            if limit is None:
                continue
            for lam in _TOP_RATES:
                try:
                    rep = engine(Scenario(lam, *_RANGE_FAMILIES[family], lin, discipline))
                except ArithmeticError:
                    continue
                where = (engine.__name__, discipline, lam)
                probs = (rep.p_idle, rep.p_busy1, rep.p_busy2)
                assert all(math.isfinite(p) and 0.0 <= p <= 1.0 for p in (*probs, rep.p_busy)), where
                assert sum(probs) == pytest.approx(1.0, abs=1e-12), where
                assert rep.avg_voi == pytest.approx(limit.avg_voi, rel=1e-6, abs=0.0), where


@pytest.mark.parametrize("discipline", [MG11, MG12, MG12_STAR])
def test_analyze_builds_the_service_law_once(monkeypatch, discipline):
    import voilab.analytics as analytics
    import voilab.model as model

    built = []

    def counted(sc):
        built.append(sc)
        return service_law(sc)

    for module in (model, analytics):
        monkeypatch.setattr(module, "service_law", counted)
    analyze(uniflog(0.9, discipline))
    assert len(built) == 1


# Closed forms over the whole scan.  From lam ~ 1e2 on, the exp(-lam S) layer
# at the smallest service time is narrower than a panel's node spacing: unless
# the pieces end at it, 1 - MGF reads 1 and M/M/1/2 avg_voi is 0.26% off at
# lam = 1e3.  That layer and the FCFS fold's lie on the service support, which
# is far wider than a short deadline: cut only below D, M/M/1/2 eq_busy was
# 46% off at D = 0.01, lam = 1e3.  From lam = 1.34e154 on, lam^2 overflows:
# the M/M/1/2 closed form read avg_voi 0 and p_busy2 nan there.
def test_analyze_matches_the_closed_forms_over_the_whole_arrival_rate_range():
    for d in (0.001, 0.01, 0.1, 3.0, 30.0):
        lin = DescendFunction.linear(d)
        for lam in map(float, (*np.logspace(-8, 8, 33), *np.logspace(20, 300, 15))):
            sc = replace(mm12(lam), descend=lin)
            rep, cf = analyze(sc), closed_form_mm12_exp(1.5, lam, d)
            for field in ("avg_voi", "p_idle", "p_busy1", "eq_busy"):
                assert getattr(rep, field) == pytest.approx(getattr(cf, field), rel=1e-9, abs=0.0), (field, d, lam)
            assert mgf_service(*service_law(sc)) == pytest.approx(1.5 / (1.5 + lam), rel=1e-9, abs=0.0), (d, lam)
            sc = replace(uniflog(lam), descend=lin)
            rep, cf = analyze(sc), closed_form_mg11_uniform_log(0.0, 10.0, 1.0, lam, d)
            for field in ("avg_voi", "p_idle"):
                assert getattr(rep, field) == pytest.approx(getattr(cf, field), rel=1e-9, abs=0.0), (field, d, lam)
            mgf = _uniform_log_mgf(0.0, 10.0, 1.0, lam)
            assert mgf_service(*service_law(sc)) == pytest.approx(mgf, rel=1e-9, abs=0.0), (d, lam)


def _mm12_numerators_exact(x, terms=80):
    """The M/M/1/2 eq_idle and eq_busy numerators at the float x, as exact
    sums of their Taylor series (the tail is far below double rounding for
    x <= 5)."""
    from fractions import Fraction

    x, idle, busy, power, fact = Fraction(x), Fraction(0), Fraction(0), Fraction(1), 1
    for n in range(terms):
        if n:
            power, fact = power * x, fact * n
        term = (-1) ** n * power / fact
        idle += 2 * (n - 3) * term if n >= 4 else 0
        busy -= (n - 3) * (n - 4) * term if n >= 5 else 0
    return idle, busy


@pytest.mark.parametrize("d", [1e-4, 1e-3, 0.01, 0.1, 0.6, 1.9, 2.1, 3.3])
def test_mm12_closed_form_has_no_cancellation_at_short_deadlines(d):
    # The direct numerators are differences of O(1) terms: at D mu = 1.5e-3
    # eq_busy was 100% off and eq_idle 6.2e-4.
    mu = 1.5
    cf = closed_form_mm12_exp(mu, 1.0, d)
    idle, busy = _mm12_numerators_exact(d * mu)
    assert cf.eq_idle == pytest.approx(float(idle) / (2.0 * d * mu**3), rel=1e-13, abs=0.0)
    assert cf.eq_busy == pytest.approx(float(busy) / (2.0 * d * mu**3), rel=1e-13, abs=0.0)


# ---------------------------------------------------------------------------
# Cost of a point: integrand passes, panel orders and the per-law cache
# ---------------------------------------------------------------------------

@pytest.fixture
def cold_law_cache():
    """analytics with its per-law cache emptied before and after the test."""
    import voilab.analytics as analytics

    cached = (analytics._mean_service, analytics._eq_idle)
    for fn in cached:
        fn.cache_clear()
    yield analytics
    for fn in cached:
        fn.cache_clear()


def _panel_orders(monkeypatch):
    """The highest panel order of every integrand pass made from now on."""
    from voilab import quadrature

    orders = []
    panel_sums = quadrature._panel_sums

    def counted(f, a, width, panel_orders):
        orders.append(max(panel_orders))
        return panel_sums(f, a, width, panel_orders)

    monkeypatch.setattr(quadrature, "_panel_sums", counted)
    return orders


@pytest.mark.parametrize("discipline, passes", [(MG11, 0), (MG12, 4), (MG12_STAR, 4)])
def test_integrand_passes_per_point_with_a_warm_cache(monkeypatch, discipline, passes):
    # None without a buffer (E[S] and eq_idle are cached).  Buffered: MGF and
    # 1 - MGF, then one outer and one inner pass of the nested busy-arrival
    # rule: every rule converges on its fused first pass.
    sc = uniflog(0.9, discipline)
    analyze(sc)
    orders = _panel_orders(monkeypatch)
    analyze(sc)
    assert len(orders) == passes


def test_a_sweep_over_one_law_integrates_e_s_and_eq_idle_once(monkeypatch, cold_law_cache):
    analytics = cold_law_cache
    calls = []
    mean_service_time = analytics.mean_service_time

    def counted(law):
        calls.append(law)
        return mean_service_time(law)

    monkeypatch.setattr(analytics, "mean_service_time", counted)
    lams = np.arange(0.1, 5.0, 0.25)
    assert len(lams) == 20
    for lam in lams:
        for discipline in DISCIPLINES:
            analyze(uniflog(float(lam), discipline))
    assert len(calls) == 1
    info = analytics._eq_idle.cache_info()
    assert (info.misses, info.hits) == (1, 59)


@pytest.mark.parametrize("discipline", DISCIPLINES)
def test_a_cache_hit_gives_the_report_of_a_miss(cold_law_cache, discipline):
    analytics = cold_law_cache
    miss = analyze(uniflog(0.9, discipline))
    # A law equal by value, built from new objects, is a hit.
    hit = analyze(Scenario(0.9, UniformValue(0.0, 10.0), DependentService("log-shift", 1.0), LIN3, discipline))
    assert analytics._eq_idle.cache_info().hits == 1
    assert hit == miss and repr(hit) == repr(miss)


@pytest.mark.parametrize(
    "value, service, lam",
    [
        (ExponentialValue(1.5), DependentService("log-shift", 1.0), 1e4),
        (ExponentialValue(1.5), DependentService("identity"), 10**3.5),
        (UniformValue(0.0, 10.0), DependentService("log-shift", 1.0), 1e3),
    ],
)
def test_high_rate_fcfs_points_converge_on_the_first_pass(monkeypatch, value, service, lam):
    # Unless the pieces end at the exp(-lam s) layers of the fold and of the
    # transforms, these points double to 512-1024 points per panel.
    sc = Scenario(lam, value, service, LIN3, MG12)
    orders = _panel_orders(monkeypatch)
    analyze(sc)
    assert max(orders) == 32


def _fold_oracle(lam, rem):
    # E[_wait_cdf_kernel(S, rem, lam)] for S = log(1 + V), V ~ Uniform(0, 10), by
    # scipy quad on pieces that double in width away from both layers (with
    # wider steps quad reports roundoff on the layer above rem at lam = 1e7).
    s_hi = math.log(11.0)
    steps = [0.0, *(0.1 * 2.0**j / lam for j in range(14))]
    cuts = sorted({0.0, s_hi, *(p for base in (0.0, rem) for p in (base + t for t in steps) if 0.0 < p < s_hi)})
    f = lambda s: math.exp(s) / 10.0 * float(_wait_cdf_kernel(s, rem, lam))
    return sum(quad(f, a, b, epsabs=0.0, epsrel=1e-13, limit=500)[0] for a, b in zip(cuts, cuts[1:]))


@pytest.mark.filterwarnings("error::scipy.integrate.IntegrationWarning")
@pytest.mark.parametrize("lam", [1e2, 1e4, 1e7])
def test_fcfs_fold_resolves_its_boundary_layers(lam):
    ((c,), _) = service_law(uniflog(lam, MG12))
    rem = np.array([1e-3, 0.3, 1.0, 2.9])
    got = c.wait_fold(rem, lam)
    np.testing.assert_allclose(got, [_fold_oracle(lam, r) for r in rem], rtol=1e-11, atol=0.0)


# A busy arrival that finds the buffer empty lands X into a service S' >= s_lo
# and waits W' = S' - X.  It collects only if W' + S < D for its own S >= s_lo,
# so only if W' < D - s_lo, which, given an arrival during S', has probability
# at most exp(-lam (2 s_lo - D)) when D <= 2 s_lo.  Its area is at most
# v_max (D - s_lo)^2 / (2D) <= v_max D / 2, so eq_busy <= v_max D / 2 exp(-lam (2 s_lo - D)).
# The by-parts fold returned its cancellation noise here (2.2e-18 or 1.0e-17
# on the first case) or raised QuadratureError (the second, from lam = 1).
_FCFS_RARE = [
    (UniformValue(2.0, 5.0), DependentService("identity"), 3.0),
    (UniformValue(8828.14, 8842.66), DependentService("log-shift", 11.3077), 147.609),
]


@pytest.mark.parametrize(
    "case, lam", [(0, 100.0), (0, 300.0), (0, 1e4), (0, 1e8), (1, 1.0), (1, 10.0), (1, 100.0)]
)
def test_fcfs_busy_area_where_a_busy_arrival_rarely_makes_its_deadline(case, lam):
    value, service, d = _FCFS_RARE[case]
    s_lo = float(service.g(value.v_min))
    rep = analyze(Scenario(lam, value, service, DescendFunction.linear(d), MG12))
    assert 0.0 <= rep.eq_busy <= value.v_max * d / 2.0 * math.exp(-lam * (2.0 * s_lo - d))


def test_fcfs_busy_area_where_a_busy_arrival_often_makes_its_deadline():
    # The second case above at lam = 0.1, where the by-parts fold had no trouble.
    value, service, d = _FCFS_RARE[1]
    rep = analyze(Scenario(0.1, value, service, DescendFunction.linear(d), MG12))
    assert rep.eq_busy == pytest.approx(15.1153063591, rel=1e-10, abs=0.0)


# ---------------------------------------------------------------------------
# Busy-arrival areas against an independent scipy oracle
# ---------------------------------------------------------------------------
#
# The engine folds the residual CDF over the service law with a closed-form
# kernel in service-time space.  The oracle instead swaps the order of
# integration: with h(w) = E[V (D - S - w)^2; S < D - w],
#   M/GI/1/2   eq_busy = int_0^D f_W'(w) h(w) dw / (2D), where W' = S - X given
#              X < S has density lam E[exp(-lam (S - w)); S > w] / (1 - MGF);
#   M/GI/1/2*  eq_busy = int_0^D P[S > w] exp(-lam w) h(w) dw / (2D E[S]).
# Every expectation is a scipy ``quad`` over the value x (or over S itself
# for class-exponential service), on the untruncated support.

def _q(f, a, b, points=None):
    pts = None if points is None else [p for p in points if a < p < b] or None
    return quad(f, a, b, points=pts, epsabs=0.0, epsrel=1e-11, limit=200)[0]


class _Law:
    """One admitted (V, S) law: density dens(x) on [lo, hi], S = g(x), V = value(x)."""

    def __init__(self, dens, lo, hi, g, g_inv, value):
        self.dens, self.lo, self.hi, self.g, self.g_inv, self.value = dens, lo, hi, g, g_inv, value

    def expect(self, f, lo=None, hi=None):
        lo = self.lo if lo is None else min(max(lo, self.lo), self.hi)
        hi = self.hi if hi is None else min(max(hi, lo), self.hi)
        if hi <= lo:
            return 0.0
        return _q(lambda x: self.dens(x) * f(x), lo, hi)


def _oracle_eq_busy(law, lam, deadline, discipline):
    d, g = deadline, law.g
    e_s = law.expect(g)
    omm = law.expect(lambda x: -math.expm1(-lam * g(x)))

    def h(w):
        return law.expect(lambda x: law.value(x) * (d - g(x) - w) ** 2, hi=law.g_inv(d - w))

    if discipline == MG12:
        def weight(w):
            return lam * law.expect(lambda x: math.exp(-lam * (g(x) - w)), lo=law.g_inv(w)) / omm
        norm = 2.0 * d
    else:
        def weight(w):
            return law.expect(lambda x: 1.0, lo=law.g_inv(w)) * math.exp(-lam * w)
        norm = 2.0 * d * e_s
    kinks = [g(law.lo)] + ([g(law.hi)] if math.isfinite(law.hi) else [])
    return _q(lambda w: weight(w) * h(w), 0.0, d, points=kinks + [d - k for k in kinks]) / norm


def _ident(x):
    return x


_ORACLE_FAMILIES = {
    "exp-identity": (
        Scenario(1.0, ExponentialValue(1.5), DependentService("identity"), LIN3),
        _Law(lambda x: 1.5 * math.exp(-1.5 * x), 0.0, math.inf, _ident, _ident, _ident),
    ),
    "uniform-log": (
        Scenario(1.0, UniformValue(0.0, 10.0), DependentService("log-shift", 1.0), LIN3),
        _Law(lambda x: 0.1, 0.0, 10.0, math.log1p, math.expm1, _ident),
    ),
    "exp-log": (
        Scenario(1.0, ExponentialValue(1.5), DependentService("log-shift", 1.0), LIN3),
        _Law(lambda x: 1.5 * math.exp(-1.5 * x), 0.0, math.inf, math.log1p, math.expm1, _ident),
    ),
    # class-only(1) admits value 0.4 alone, served in Exp(mean 0.4); x is S.
    "binary-class1": (
        Scenario(1.0, BinaryValue(0.4, 1.33, 0.8), ClassExponentialService(), LIN3, MG11, "class-only(1)"),
        _Law(lambda x: 2.5 * math.exp(-2.5 * x), 0.0, math.inf, _ident, _ident, lambda x: 0.4),
    ),
}


@pytest.mark.parametrize("discipline", [MG12, MG12_STAR])
@pytest.mark.parametrize("lam", [0.3, 3.7])
@pytest.mark.parametrize("family", sorted(_ORACLE_FAMILIES))
def test_busy_area_matches_scipy_oracle(family, lam, discipline):
    _check_busy_area(family, lam, 3.0, discipline)


# Short deadlines at high rates: the exp(-lam s) layers of the transforms and
# of the FCFS fold lie on the service support, not in [0, D].
@pytest.mark.parametrize("discipline", [MG12, MG12_STAR])
@pytest.mark.parametrize("lam, deadline", [(316.0, 0.01), (316.0, 0.1), (1000.0, 0.01), (1000.0, 0.1)])
@pytest.mark.parametrize("family", sorted(_ORACLE_FAMILIES))
def test_busy_area_matches_scipy_oracle_at_short_deadlines(family, lam, deadline, discipline):
    _check_busy_area(family, lam, deadline, discipline)


def _check_busy_area(family, lam, deadline, discipline, rel=1e-8):
    base, law = _ORACLE_FAMILIES[family]
    sc = replace(base, lam=lam, discipline=discipline, descend=DescendFunction.linear(deadline))
    lam_eff = lam * (0.8 if sc.admission == "class-only(1)" else 1.0)
    want = _oracle_eq_busy(law, lam_eff, deadline, discipline)
    assert analyze(sc).eq_busy == pytest.approx(want, rel=rel, abs=0.0)


# At lam D = 1e3 these M/GI/1/2* points read 2.2-2.7e-9 off while pieces met
# their tolerance one by one: the tail piece past 64/lam of the residual fold,
# about exp(-64) of its integral, went unresolved under an absolute floor.
# The exp-identity remainder, 2.9e-11, is the value support's truncation at
# tail mass EXP_TAIL_EPS, which E[S] in the residual density's norm carries:
# (18.4 + 1/1.5) exp(-1.5 * 18.4) / E[S] ~ 2.9e-11.
@pytest.mark.parametrize("family, rel", [("uniform-log", 1e-12), ("exp-identity", 5e-11)])
@pytest.mark.parametrize("lam, deadline", [(1e4, 0.1), (1e5, 0.01), (1e6, 0.001)])
def test_lcfs_busy_area_meets_the_budget_at_a_thousand_arrivals_per_deadline(family, rel, lam, deadline):
    _check_busy_area(family, lam, deadline, MG12_STAR, rel)


# ---------------------------------------------------------------------------
# Any valid scenario gives a finite, normalised report
# ---------------------------------------------------------------------------

_positive = st.floats(0.2, 5.0)


@st.composite
def _scenarios(draw):
    dist = draw(
        st.one_of(
            st.builds(lambda lo, w: UniformValue(lo, lo + w), st.floats(0.0, 5.0), st.floats(0.1, 10.0)),
            st.builds(ExponentialValue, _positive),
            st.builds(BinaryValue, st.floats(0.05, 5.0), st.floats(0.05, 5.0), st.floats(0.05, 0.95)),
        )
    )
    binary = isinstance(dist, BinaryValue)
    services = [
        st.just(DependentService("identity")),
        st.builds(lambda a: DependentService("log-shift", a), st.floats(0.1, 3.0)),
        st.builds(IndependentExponentialService, _positive),
        st.builds(IndependentDeterministicService, st.floats(0.0, 5.0)),
    ]
    if binary:
        services.append(st.just(ClassExponentialService()))
    return Scenario(
        10.0 ** draw(st.floats(-8.0, 8.0)),
        dist,
        draw(st.one_of(services)),
        DescendFunction.linear(10.0 ** draw(st.floats(-3.0, 1.0))),
        draw(st.sampled_from([MG11, MG12, MG12_STAR])),
        draw(st.sampled_from(["serve-all", "class-only(1)", "class-only(2)"])) if binary else "serve-all",
    )


@settings(max_examples=60, deadline=None)
@given(_scenarios())
# Every service outlasts the deadline: no value is ever collected.
@example(Scenario(1.0, UniformValue(1.0, 2.0), DependentService("identity"), DescendFunction.linear(0.5), MG12_STAR))
def test_any_valid_scenario_gives_finite_normalised_report(sc):
    # Linear decay over the whole arrival-rate range: every such scenario evaluates.
    rep = analyze(sc)
    probs = (rep.p_idle, rep.p_busy1, rep.p_busy2)
    assert all(math.isfinite(p) and 0.0 <= p <= 1.0 for p in probs)
    assert sum(probs) == pytest.approx(1.0, abs=1e-9)
    assert math.isfinite(rep.avg_voi) and rep.avg_voi >= 0.0


# ---------------------------------------------------------------------------
# Shipped presets: closed form against the analytic engine
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", sorted(cli.PRESETS))
def test_preset_closed_forms_match_analytic_rows(name):
    cfg = replace(cli.load_preset(name), engines=("analytic", "closed-form"), out=None)
    rows = cli.run_experiment(cfg)
    analytic = [r for r in rows if r["engine"] == "analytic"]
    assert len(analytic) == len(cfg.lambda_grid) * len(cfg.variants)
    assert all(math.isfinite(float(r["avg_voi"])) for r in analytic)
    pairs = sum(r["engine"] == "closed-form" and r["avg_voi"] != "unsupported" for r in rows)
    summary = cli.compare_engines(rows)
    assert summary.n_fail == 0, [ln for ln in summary.lines if "FAIL" in ln]
    assert summary.n_pass == pairs


def test_analyze_never_calls_a_closed_form(monkeypatch):
    # The closed forms are the check on the quadrature route, not part of it.
    import voilab.analytics as analytics

    def called(*args, **kwargs):
        raise AssertionError("analyze called a closed form")

    for name in ("closed_form_mg11_uniform_log", "closed_form_mm12_exp", "closed_form_report"):
        monkeypatch.setattr(analytics, name, called)
    assert analyze(mm12(1.0)).avg_voi == pytest.approx(VOI_MM12[1.0], rel=1e-8, abs=0.0)
    assert analyze(uniflog(1.0)).avg_voi == pytest.approx(VOI_UNIFLOG, rel=1e-6, abs=0.0)


# ---------------------------------------------------------------------------
# Exponential service fast against the deadline
# ---------------------------------------------------------------------------
#
# With S ~ exponential(mean m) and D >> m, every area lives in a layer of
# width m at S = 0.  The oracles below are scipy ``quad`` with points at 16m,
# 32m and 64m, where the layer ends.  For M/GI/1/2 the residual W' of an
# exponential service is exponential(m) again; for M/GI/1/2* the residual
# density P[S > w] / E[S] times exp(-lam w) is exp(-(lam + 1/m) w) / m.

def _layer_quad(f, a, b, rate):
    """int_a^b f with a = 0 the edge of a layer exp(-rate t)."""
    pts = [k / rate for k in (16.0, 32.0, 64.0) if k / rate < b] or None
    return quad(f, a, b, points=pts, epsabs=0.0, epsrel=1e-13, limit=500)[0]


def _exp_oracle(value, m, lam, d, discipline):
    """(eq_idle, eq_busy) for one exponential component paying ``value``."""
    eq_idle = value * _layer_quad(lambda s: (d - s) ** 2 * math.exp(-s / m) / m, 0.0, d, 1.0 / m) / (2.0 * d)
    if discipline == MG11:
        return eq_idle, 0.0
    rate = 1.0 / m if discipline == MG12 else lam + 1.0 / m

    def kappa(r):
        return _layer_quad(lambda w: (r - w) ** 2 * math.exp(-rate * w) / m, 0.0, r, rate)

    return eq_idle, value * _layer_quad(lambda s: math.exp(-s / m) / m * kappa(d - s), 0.0, d, 1.0 / m) / (2.0 * d)


def _fast_service_draws(n=60, seed=20261019):
    """Seeded draws with D/m log-uniform in [1e-2, 1e8], cycling the disciplines;
    every sixth is binary class-exponential traffic with one admitted class."""
    rng = np.random.default_rng(seed)
    draws = []
    for i in range(n):
        disc = DISCIPLINES[i % 3]
        lam = 10.0 ** rng.uniform(-4.0, 4.0)
        if i % 6 == 5:
            v1, v2 = 10.0 ** rng.uniform(-4.0, 1.0, 2)
            cls, p = 1 + i // 6 % 2, rng.uniform(0.1, 0.9)
            value = m = (v1, v2)[cls - 1]
            dist, svc, adm = BinaryValue(v1, v2, p), ClassExponentialService(), f"class-only({cls})"
            lam_adm = lam * (p if cls == 1 else 1.0 - p)
        else:
            rate, mu = 10.0 ** rng.uniform(-1.0, 1.0), 10.0 ** rng.uniform(-1.0, 4.0)
            value, m, lam_adm = 1.0 / rate, 1.0 / mu, lam
            dist, svc, adm = ExponentialValue(rate), IndependentExponentialService(mu), "serve-all"
        d = m * 10.0 ** rng.uniform(-2.0, 8.0)
        draws.append((Scenario(lam, dist, svc, DescendFunction.linear(d), disc, adm), value, m, lam_adm))
    return draws


def test_fast_exponential_service_areas_match_scipy_oracles():
    misses = []
    for sc, value, m, lam in _fast_service_draws():
        eq_idle, eq_busy = _exp_oracle(value, m, lam, sc.descend.deadline, sc.discipline)
        try:
            rep = analyze(sc)
        except ArithmeticError as err:
            misses.append((sc, repr(err)))
            continue
        if rep.eq_idle != pytest.approx(eq_idle, rel=1e-10, abs=0.0):
            misses.append((sc, "eq_idle", rep.eq_idle, eq_idle))
        if rep.eq_busy != pytest.approx(eq_busy, rel=1e-8, abs=0.0):
            misses.append((sc, "eq_busy", rep.eq_busy, eq_busy))
    assert not misses, misses


def _indexp(mu, d, lam, discipline=MG11):
    return Scenario(lam, ExponentialValue(1.5), IndependentExponentialService(mu), DescendFunction.linear(d), discipline)


def _elementary_mg11(mu, d, lam):
    # lam p_idle E[V] E[(D - S)^2; S < D] / (2D), for S ~ exponential(mu) and E[V] = 1/1.5.
    m = 1.0 / mu
    return lam / (1.0 + lam * m) / 1.5 * (d * d - 2.0 * d * m + 2.0 * m * m * -math.expm1(-d / m)) / (2.0 * d)


def test_exponential_service_at_a_long_deadline_keeps_its_value():
    # The first case of the grammar-wide fuzz that read about 0 (2.7e-22).
    want = _elementary_mg11(1.5, 30000.0, 0.1)
    assert want == pytest.approx(937.4583343, rel=1e-10, abs=0.0)
    assert analyze(_indexp(1.5, 30000.0, 0.1)).avg_voi == pytest.approx(want, rel=1e-10, abs=0.0)


@pytest.mark.parametrize("mu", [1e4, 1e5])
def test_fast_exponential_service_keeps_its_value(mu):
    assert analyze(_indexp(mu, 3.0, 1.0)).avg_voi == pytest.approx(_elementary_mg11(mu, 3.0, 1.0), rel=1e-10, abs=0.0)
    rep = analyze(_indexp(mu, 3.0, 1.0, MG12_STAR))
    assert math.isfinite(rep.avg_voi)
    assert rep.eq_busy == pytest.approx(_exp_oracle(1.0 / 1.5, 1.0 / mu, 1.0, 3.0, MG12_STAR)[1], rel=1e-8, abs=0.0)


@pytest.mark.parametrize("m", [1e100, 1e150, 1e155, 1e300])
def test_fcfs_busy_area_of_very_long_exponential_service(m):
    # With mean service m >> D, P[W' <= w] ~ w/m, so kappa(rem) ~ rem^3 / (3m)
    # and eq_busy ~ E[V] D^3 / (24 m^2).  The series form m^2 y^3 of the
    # exponential wait fold underflowed to 0 at m = 1e150 and overflowed from
    # m = 1.34e154 on (QuadratureError).  The outer rule took the value out of
    # its integrand, so binary m = 1e300 read 0.0 where the reference is
    # 1.125e-300.  Where the reference is below the normal range only
    # finiteness is asked.
    for sc, e_v in (
        (Scenario(1.0, UniformValue(0.0, 10.0), IndependentExponentialService(1.0 / m), LIN3, MG12), 5.0),
        (Scenario(1.0, BinaryValue(m, 1.0, 0.5), ClassExponentialService(), LIN3, MG12, "class-only(1)"), m),
    ):
        rep = analyze(sc)
        assert all(math.isfinite(x) for x in astuple(rep)), sc
        want = e_v / m * (27.0 / 24.0) / m
        if want >= sys.float_info.min:
            assert rep.eq_busy == pytest.approx(want, rel=1e-9, abs=0.0), sc


# ---------------------------------------------------------------------------
# Both areas over the whole scenario grammar
# ---------------------------------------------------------------------------
#
# With H(r) = E[V (r - S)^2; S < r], eq_idle = H(D) / (2D) in every
# discipline, and the busy-area oracles swap the order of integration as
# ``_oracle_eq_busy`` does:
#   M/GI/1/2   eq_busy = int_0^D f_W'(w) H(D - w) dw / (2D),
#              f_W'(w) = E[lam exp(-lam (S - w)); S > w] / E[1 - exp(-lam S)];
#   M/GI/1/2*  eq_busy = int_0^D P[S > w] exp(-lam w) H(D - w) dw / (2D E[S]),
# with every expectation summed over the parts of the admitted law, which the
# oracle reads off the scenario itself.  Point masses and exponential parts
# give f_W', P[S > w] and E[S] in closed form; a continuous value law is
# integrated over the value by scipy ``quad``.  Pieces end at 1, 4, 16 and 64 times each layer's
# width: 1/lam below a service time, the mean of an exponential part or value.

_STEPS = (1.0, 4.0, 16.0, 64.0)


class _Atom:
    """Service exactly s for packets paying v."""

    def __init__(self, v, s):
        self.v, self.s = v, s

    def omm(self, lam):
        return -math.expm1(-lam * self.s)

    def sf(self, w):
        return 1.0 if w < self.s else 0.0

    def mean(self):
        return self.s

    def dens(self, lam, w):
        return lam * math.exp(-lam * (self.s - w)) if w < self.s else 0.0

    def area(self, r):
        return self.v * (r - self.s) ** 2 if self.s < r else 0.0

    def w_points(self, lam):
        return [self.s, *(self.s - k / lam for k in _STEPS)]

    def r_points(self):
        return [self.s]


class _ExpPart:
    """Exponential service of mean m for packets paying v; W' is exponential(m) again."""

    def __init__(self, v, m):
        self.v, self.m = v, m

    def omm(self, lam):
        return lam * self.m / (1.0 + lam * self.m)

    def sf(self, w):
        return math.exp(-w / self.m)

    def mean(self):
        return self.m

    def dens(self, lam, w):
        return lam * math.exp(-w / self.m) / (1.0 + lam * self.m)

    def area(self, r):
        m = self.m
        return self.v * _layer_quad(lambda s: (r - s) ** 2 * math.exp(-s / m) / m, 0.0, r, 1.0 / m)

    def w_points(self, lam):
        return [k * self.m for k in _STEPS]

    def r_points(self):
        return [k * self.m for k in _STEPS]


class _Mapped:
    """Service g(x) for a packet of value x, x with density pdf on [lo, hi]
    and ``scale`` the width of the density's own layer at lo (or inf)."""

    def __init__(self, pdf, lo, hi, scale, g, g_inv):
        self.pdf, self.lo, self.hi, self.scale, self.g, self.g_inv = pdf, lo, hi, scale, g, g_inv

    def _e(self, f, a, b, points=()):
        a, b = max(a, self.lo), min(b, self.hi)
        if b <= a:
            return 0.0
        return _q(lambda x: self.pdf(x) * f(x), a, b, [*points, *(self.lo + k * self.scale for k in _STEPS)])

    def sf(self, w):
        return self._e(lambda x: 1.0, self.g_inv(w), self.hi)

    def mean(self):
        return self._e(self.g, self.lo, self.hi)

    def omm(self, lam):
        g, s_lo = self.g, self.g(self.lo)
        return self._e(lambda x: -math.expm1(-lam * g(x)), self.lo, self.hi, [self.g_inv(s_lo + k / lam) for k in _STEPS])

    def dens(self, lam, w):
        g = self.g
        pts = [self.g_inv(w + k / lam) for k in _STEPS]
        return lam * self._e(lambda x: math.exp(-lam * (g(x) - w)), self.g_inv(w), self.hi, pts)

    def area(self, r):
        g = self.g
        return self._e(lambda x: x * (r - g(x)) ** 2, self.lo, self.g_inv(r))

    def w_points(self, lam):
        s_lo = self.g(self.lo)
        return [s_lo, self.g(self.hi), *(s_lo - k / lam for k in _STEPS)]

    def r_points(self):
        return [self.g(self.lo), self.g(self.hi)]


def _oracle_parts(sc):
    """The admitted law of ``sc`` as weighted parts, and the admitted rate."""
    dist, svc, lam = sc.value_dist, sc.service, sc.lam
    if isinstance(dist, BinaryValue):
        atoms = [(dist.v1, dist.p), (dist.v2, 1.0 - dist.p)]
        if sc.admission != "serve-all":
            v, pr = atoms[int(sc.admission[-2]) - 1]
            atoms, lam = [(v, 1.0)], lam * pr
        if isinstance(svc, ClassExponentialService):
            return [(pr, _ExpPart(v, v)) for v, pr in atoms], lam
        if isinstance(svc, DependentService):
            a = svc.a
            g = (lambda v: v) if svc.map_kind == "identity" else (lambda v: a * math.log1p(v))
            return [(pr, _Atom(v, g(v))) for v, pr in atoms], lam
        mean = sum(v * pr for v, pr in atoms)
    else:
        mean = (dist.v_min + dist.v_max) / 2.0 if isinstance(dist, UniformValue) else 1.0 / dist.rate
    if isinstance(svc, IndependentExponentialService):
        return [(1.0, _ExpPart(mean, 1.0 / svc.rate))], lam
    if isinstance(svc, IndependentDeterministicService):
        return [(1.0, _Atom(mean, svc.s0))], lam
    if isinstance(dist, UniformValue):
        pdf, lo, hi, scale = (lambda x: 1.0 / (dist.v_max - dist.v_min)), dist.v_min, dist.v_max, math.inf
    else:
        rate = dist.rate
        pdf, lo, hi, scale = (lambda x: rate * math.exp(-rate * x)), 0.0, 750.0 / rate, 1.0 / rate
    if svc.map_kind == "identity":
        return [(1.0, _Mapped(pdf, lo, hi, scale, _ident, _ident))], lam
    a = svc.a
    g_inv = lambda s: math.expm1(min(s / a, 700.0))  # noqa: E731 (beyond 700 a it is past every hi)
    return [(1.0, _Mapped(pdf, lo, hi, scale, lambda x: a * math.log1p(x), g_inv))], lam


def _grammar_eq_busy(parts, lam, d):
    omm = sum(wt * p.omm(lam) for wt, p in parts)
    pts = sorted({q for _, p in parts for q in (*p.w_points(lam), *(d - r for r in p.r_points()))})

    def f(w):
        return sum(wt * p.dens(lam, w) for wt, p in parts) * sum(wt * p.area(d - w) for wt, p in parts)

    return _q(f, 0.0, d, pts) / omm / (2.0 * d)


def _grammar_draws(n=150, seed=2303):
    """Seeded M/GI/1/2 draws cycling every value law x service model x admission;
    every parameter, D and lam log-uniform in [1e-4, 1e4] (class probabilities
    uniform in [0.05, 0.95]), so D/m reaches 1e8 for exponential service."""
    combos = [
        (law, svc, adm)
        for law in ("uniform", "exponential", "binary")
        for svc in ("identity", "log-shift", "independent-exponential", "independent-deterministic", "class-exponential")
        for adm in ("serve-all", "class-only(1)", "class-only(2)")
        if (law == "binary" or (svc != "class-exponential" and adm == "serve-all"))
    ]
    rng = np.random.default_rng(seed)
    draws = []
    for i in range(n):
        law, svc, adm = combos[i % len(combos)]
        lo, width, v1, v2, rate, a, lam, d = 10.0 ** rng.uniform(-4.0, 4.0, 8)
        dist = {
            "uniform": UniformValue(lo, lo + width),
            "exponential": ExponentialValue(rate),
            "binary": BinaryValue(v1, v2, rng.uniform(0.05, 0.95)),
        }[law]
        service = {
            "identity": DependentService("identity"),
            "log-shift": DependentService("log-shift", a),
            "independent-exponential": IndependentExponentialService(rate),
            "independent-deterministic": IndependentDeterministicService(a),
            "class-exponential": ClassExponentialService(),
        }[svc]
        draws.append(Scenario(lam, dist, service, DescendFunction.linear(d), MG12, adm))
    return draws


_GRAMMAR_DRAWS = _grammar_draws()


# quad reports roundoff on a few inner pieces at its 1e-11 target; the check is at 1e-8.
@pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
@pytest.mark.parametrize("i", range(len(_GRAMMAR_DRAWS)))
def test_fcfs_busy_area_matches_scipy_over_the_grammar(i):
    sc = _GRAMMAR_DRAWS[i]
    parts, lam = _oracle_parts(sc)
    want = _grammar_eq_busy(parts, lam, sc.descend.deadline)
    assert analyze(sc).eq_busy == pytest.approx(want, rel=1e-8, abs=0.0)


# The FCFS outer rule must resolve the layer where kappa(D - S) falls like
# exp(-lam (S - D + s_lo)); with its pieces ending at D - s_lo alone this
# draw read 4.5e-9 off.
@pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
def test_fcfs_busy_area_resolves_the_layer_of_its_outer_rule_on_a_grammar_draw():
    sc = _GRAMMAR_DRAWS[138]
    parts, lam = _oracle_parts(sc)
    assert analyze(sc).eq_busy == pytest.approx(_grammar_eq_busy(parts, lam, sc.descend.deadline), rel=1e-10, abs=0.0)


def _grammar_eq_idle(parts, d):
    return sum(wt * p.area(d) for wt, p in parts) / (2.0 * d)


def _grammar_eq_busy_lcfs(parts, lam, d):
    e_s = sum(wt * p.mean() for wt, p in parts)
    pts = sorted({q for _, p in parts for r in p.r_points() for q in (r, d - r)} | {k / lam for k in _STEPS})

    def f(w):
        return sum(wt * p.sf(w) for wt, p in parts) * math.exp(-lam * w) * sum(wt * p.area(d - w) for wt, p in parts)

    return _q(f, 0.0, d, pts) / (2.0 * d * e_s)


# The 150 draws above and 150 more, each analysed in every discipline.
_ALL_DRAWS = _GRAMMAR_DRAWS + _grammar_draws(seed=2404)


@pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
@pytest.mark.parametrize("i", range(len(_ALL_DRAWS)))
def test_idle_and_lcfs_busy_areas_match_scipy_over_the_grammar(i):
    sc = _ALL_DRAWS[i]
    parts, lam = _oracle_parts(sc)
    d = sc.descend.deadline
    reports = {disc: analyze(replace(sc, discipline=disc)) for disc in DISCIPLINES}
    eq_idle = _grammar_eq_idle(parts, d)
    for rep in reports.values():
        assert rep.eq_idle == pytest.approx(eq_idle, rel=1e-10, abs=0.0)
    assert reports[MG12_STAR].eq_busy == pytest.approx(_grammar_eq_busy_lcfs(parts, lam, d), rel=1e-8, abs=0.0)


# ---------------------------------------------------------------------------
# Scale covariance
# ---------------------------------------------------------------------------
#
# The model has one time unit and one value unit.  Scaling every time by t
# (lam by 1/t; D, the service times and the service maps by t) and every value
# by c leaves the probabilities unchanged and multiplies eq_idle and eq_busy
# by c t and avg_voi by c.  With t and c powers of two each floating step can
# stay exact, so the reports must be exactly covariant.  Where values set the
# service (identity map, class-exponential service) c = t; the log-shift map
# takes values as they are, so c = 1; independent service leaves c free.

def _rescaled(sc, t, c):
    """``sc`` with every time t times and every value c times what it was."""
    dist, svc = sc.value_dist, sc.service
    if isinstance(dist, UniformValue):
        dist = UniformValue(c * dist.v_min, c * dist.v_max)
    elif isinstance(dist, ExponentialValue):
        dist = ExponentialValue(dist.rate / c)
    else:
        dist = BinaryValue(c * dist.v1, c * dist.v2, dist.p)
    if isinstance(svc, DependentService) and svc.map_kind == "log-shift":
        svc = DependentService("log-shift", t * svc.a)
    elif isinstance(svc, IndependentExponentialService):
        svc = IndependentExponentialService(svc.rate / t)
    elif isinstance(svc, IndependentDeterministicService):
        svc = IndependentDeterministicService(t * svc.s0)
    descend = DescendFunction.linear(t * sc.descend.deadline)
    return replace(sc, lam=sc.lam / t, value_dist=dist, service=svc, descend=descend)


def _value_scales(sc, t):
    """The value scales c to test with the time scale t."""
    svc = sc.service
    if isinstance(svc, DependentService):
        return (t,) if svc.map_kind == "identity" else (1.0,)
    return (t,) if isinstance(svc, ClassExponentialService) else (1.0, 2.0**13)


def _analyze_or_error(sc):
    try:
        return analyze(sc)
    except ArithmeticError as err:
        return type(err)


def _covariance_misses(sc, k):
    """The value scales at which the report of ``sc`` in times scaled by 2^k is
    not the scaled report, or the two raise different errors."""
    t = 2.0**k
    base = _analyze_or_error(sc)
    misses = []
    for c in _value_scales(sc, t):
        got = _analyze_or_error(_rescaled(sc, t, c))
        if isinstance(base, AnalyticReport) and isinstance(got, AnalyticReport):
            want = (*astuple(base)[:4], c * t * base.eq_idle, c * t * base.eq_busy, c * base.avg_voi)
            if astuple(got) != want:
                misses.append((c, base, got))
        elif got is not base:
            misses.append((c, base, got))
    return misses


_SCALES = (-300, -40, 40, 300)


# Draw 150 (uniform(14.8, 1281) values, identity service, D = 677.8, lam = 103.6)
# raised QuadratureError at t = 2^300 under an absolute floor per piece, and from
# t = 2^30 on under a rounding floor per integral rather than per call: its inner
# FCFS rows are a subnormal exp factor times a large time^2 factor.
@pytest.mark.parametrize("i", range(len(_ALL_DRAWS)))
def test_analyze_is_exactly_scale_covariant_over_the_grammar(i):
    misses = [(disc, k, miss) for disc in DISCIPLINES for k in _SCALES
              for miss in _covariance_misses(replace(_ALL_DRAWS[i], discipline=disc), k)]
    assert not misses


@pytest.mark.parametrize("family", sorted(_RANGE_FAMILIES))
def test_analyze_is_exactly_scale_covariant_on_the_families(family):
    misses = [
        (d, lam, disc, k, miss)
        for d in (0.01, 3.0, 30.0)
        for lam in (1e-6, 0.3, 4.0, 1e6)
        for disc in DISCIPLINES
        for k in _SCALES
        for miss in _covariance_misses(Scenario(lam, *_RANGE_FAMILIES[family], DescendFunction.linear(d), disc), k)
    ]
    assert not misses


def test_time_scaled_twin_of_a_fast_lcfs_point_keeps_its_value():
    # At t = 2^40 the residual fold's tail piece past 64/lam, about exp(-64) of
    # its integral, was asked REL_TOL of its own value and raised QuadratureError.
    sc = Scenario(1e6, UniformValue(0.0, 10.0), IndependentExponentialService(1.5), LIN3, MG12_STAR)
    twin = _rescaled(sc, 2.0**40, 1.0)
    assert (twin.lam, twin.service.rate, twin.descend.deadline) == (1e6 * 2.0**-40, 1.5 * 2.0**-40, 3.0 * 2.0**40)
    assert analyze(twin).avg_voi == analyze(sc).avg_voi == pytest.approx(7.34876193, rel=1e-9, abs=0.0)


# uniform(2, 5) values, identity service, D = 3: D <= 2 s_lo, so a busy
# arrival waits W' = S' - X >= s_lo - X > D - s for its own service s, and in
# closed form (u = s_hi - s_lo, P the regularised lower incomplete gamma)
#   kappa(r) = 2 (exp(-lam (s_lo - r)) - exp(-lam (s_hi - r))) P(3, lam r) / (lam^3 u (1 - MGF)),
#   MGF = (exp(-lam s_lo) - exp(-lam s_hi)) / (lam u),
# so eq_busy = int_{s_lo}^D s kappa(D - s) ds / (2 D u), all of it within a
# few 1/lam of s_lo.  At lam = 300, with P(3, x) = 1 - exp(-x)(1 + x + x^2/2)
# the integral is elementary: 4.715848702438074e-142 (mpmath, 60 digits).
# An outer rule whose pieces did not end past that layer read 4.715794306932996e-142.
def test_fcfs_busy_area_in_a_thin_layer_of_its_outer_rule():
    lam, s_lo, s_hi, d = 300.0, 2.0, 5.0, 3.0
    u = s_hi - s_lo
    omm = 1.0 - (math.exp(-lam * s_lo) - math.exp(-lam * s_hi)) / (lam * u)

    def kappa(r):
        return 2.0 * (math.exp(-lam * (s_lo - r)) - math.exp(-lam * (s_hi - r))) * gammainc(3, lam * r) / (lam**3 * u * omm)

    pts = [s_lo + k / lam for k in _STEPS]
    want = quad(lambda s: s * kappa(d - s), s_lo, d, points=pts, epsabs=0.0, epsrel=1e-13, limit=200)[0] / (2.0 * d * u)
    assert want == pytest.approx(4.715848702438074e-142, rel=1e-12, abs=0.0)
    rep = analyze(Scenario(lam, UniformValue(s_lo, s_hi), DependentService("identity"), DescendFunction.linear(d), MG12))
    assert rep.eq_busy == pytest.approx(want, rel=1e-8, abs=0.0)


# ---------------------------------------------------------------------------
# Traffic limits
# ---------------------------------------------------------------------------
#
# As lam -> 0 every arrival finds the server idle, so avg_voi / lam -> eq_idle
# in every discipline.  As lam -> inf (Reiman and Simon, Oper. Res. 1989) the
# server never idles: without a buffer, and with a replacing one, each
# service delivers a packet that waited for nothing, so avg_voi -> eq_idle /
# E[S]; FCFS serves each packet after the residual of the service before it,
# which is a whole independent service S', so avg_voi -> E[V (D - S - S')^2;
# S + S' < D] / (2D E[S]).  Each family is the density f of S and vf(s) =
# E[V | S = s] f(s), all integrals by scipy ``quad``.

_LIMIT_FAMILIES = {
    "exp-identity": (
        Scenario(1.0, ExponentialValue(1.5), DependentService("identity"), LIN3),
        lambda s: 1.5 * math.exp(-1.5 * s),
        lambda s: 1.5 * s * math.exp(-1.5 * s),
        math.inf,
    ),
    "uniform-log": (
        Scenario(1.0, UniformValue(0.0, 10.0), DependentService("log-shift", 1.0), LIN3),
        lambda s: math.exp(s) / 10.0,
        lambda s: math.expm1(s) * math.exp(s) / 10.0,
        math.log(11.0),
    ),
    "binary-cexp": (
        Scenario(1.0, BinaryValue(0.4, 1.33, 0.8), ClassExponentialService(), LIN3),
        lambda s: 0.8 * math.exp(-s / 0.4) / 0.4 + 0.2 * math.exp(-s / 1.33) / 1.33,
        lambda s: 0.8 * math.exp(-s / 0.4) + 0.2 * math.exp(-s / 1.33),
        math.inf,
    ),
}


def _limits(family, d=3.0):
    """(eq_idle, eq_idle / E[S], the FCFS limit) of a family at deadline d."""
    _, f, vf, top = _LIMIT_FAMILIES[family]

    def h(r):
        return quad(lambda s: vf(s) * (r - s) ** 2, 0.0, min(r, top), epsabs=0.0, epsrel=1e-12, limit=200)[0]

    e_s = quad(lambda s: s * f(s), 0.0, top, epsabs=0.0, epsrel=1e-12, limit=200)[0]
    fcfs = quad(lambda s: f(s) * h(d - s), 0.0, min(d, top), epsabs=0.0, epsrel=1e-12, limit=200)[0]
    eq_idle = h(d) / (2.0 * d)
    return eq_idle, eq_idle / e_s, fcfs / (2.0 * d * e_s)


def test_traffic_limits_of_exp_identity_match_the_printed_values():
    assert _limits("exp-identity") == pytest.approx((0.39917852108, 0.59876778162, 0.34013273742), rel=1e-10, abs=0.0)


@pytest.mark.parametrize("family", sorted(_LIMIT_FAMILIES))
def test_analyze_reaches_its_traffic_limits(family):
    base = _LIMIT_FAMILIES[family][0]
    eq_idle, light_server, fcfs = _limits(family)
    for disc in DISCIPLINES:
        low = analyze(replace(base, lam=1e-8, discipline=disc))
        assert low.avg_voi / 1e-8 == pytest.approx(eq_idle, rel=1e-6, abs=0.0)
        high = analyze(replace(base, lam=1e8, discipline=disc))
        assert high.avg_voi == pytest.approx(fcfs if disc == MG12 else light_server, rel=1e-6, abs=0.0)
