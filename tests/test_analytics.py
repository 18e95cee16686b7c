import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import dblquad, quad

from voilab import cli
from voilab.analytics import (
    UnsupportedAnalyticsError,
    analyze,
    closed_form_mg11_uniform_log,
    closed_form_mm12_exp,
    closed_form_report,
    residual_ccdf_mg12,
    stationary_mg11,
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
    mean_service_time,
    one_minus_mgf_service,
    service_law,
    _wait_kernel,
)
from voilab.quadrature import QuadratureError, QuadratureSpec

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
    assert st.p_idle == pytest.approx(0.5)
    assert st.p_busy == pytest.approx(0.5)
    assert st.t_cycle == pytest.approx(2.0)


def test_stationary_mg11_empty_system_limit():
    sc = Scenario(1e-9, UniformValue(0, 10), IndependentDeterministicService(2.0), LIN3, MG11)
    assert stationary_mg11(*service_law(sc)).p_idle == pytest.approx(1.0, abs=1e-8)


def test_stationary_mg11_exponential_service():
    sc = Scenario(1.0, UniformValue(0, 10), IndependentExponentialService(1.5), LIN3, MG11)
    st = stationary_mg11(*service_law(sc))
    assert st.p_idle == pytest.approx(0.6, rel=1e-12)
    assert st.p_idle + st.p_busy == pytest.approx(1.0, abs=1e-12)


def test_stationary_mg12_reference_point():
    st = stationary_mg12(*service_law(mm12(1.0)))
    assert st.p_idle == pytest.approx(2.25 / 4.75, rel=1e-9)
    assert st.p_busy1 == pytest.approx(1.5 / 4.75, rel=1e-9)
    assert st.p_busy2 == pytest.approx(1.0 / 4.75, rel=1e-9)


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
# Residual service CCDF
# ---------------------------------------------------------------------------

def test_residual_ccdf_memoryless_service():
    sc = Scenario(1.0, UniformValue(0, 10), IndependentExponentialService(1.5), LIN3, MG12)
    assert residual_ccdf_mg12(*service_law(sc), 1.0) == pytest.approx(math.exp(-1.5), rel=1e-12)


def test_residual_ccdf_one_at_zero():
    for sc in (mm12(1.0), uniflog(1.0, MG12)):
        assert residual_ccdf_mg12(*service_law(sc), 0.0) == 1.0


def test_residual_ccdf_dependent_identity_matches_memoryless():
    # Exponential values through the identity map give exponential service,
    # so the quadrature route must reproduce exp(-mu w).
    sc = mm12(1.0)
    for w in (0.3, 1.0, 2.4):
        assert residual_ccdf_mg12(*service_law(sc), w) == pytest.approx(math.exp(-1.5 * w), rel=1e-8)


def test_residual_ccdf_non_increasing_and_mean_bounded():
    # The CCDF values themselves carry ~1e-9 quadrature noise, so the outer
    # integral runs at a looser tolerance than the inner one.
    outer = QuadratureSpec(rel_tol=1e-6, abs_tol=1e-9)
    for sc in (uniflog(1.0, MG12), mm12(0.7)):
        law, lam = service_law(sc)
        grid = np.linspace(0.0, 3.0, 25)
        vals = [residual_ccdf_mg12(law, lam, float(w)) for w in grid]
        for a, b in zip(vals, vals[1:]):
            assert b <= a + 1e-10
        e_wait = quad(
            lambda w: residual_ccdf_mg12(law, lam, w), 0.0, math.inf, epsabs=outer.abs_tol, epsrel=outer.rel_tol
        )[0]
        assert e_wait <= mean_service_time(law) + 1e-6


def test_residual_ccdf_vanishes_beyond_the_longest_service():
    # Uniform(0, 10) values with log-shift service never need more than
    # log(11) ~ 2.4; a large rate must not overflow the empty integral.
    assert residual_ccdf_mg12(*service_law(uniflog(500.0, MG12)), 5.0) == 0.0


def test_residual_ccdf_rejects_negative_argument():
    with pytest.raises(ValueError):
        residual_ccdf_mg12(*service_law(mm12(1.0)), -0.1)


def test_residual_ccdf_deterministic_service():
    # W' = s - X given X < s: P[W' > w] = P[X < s - w] / P[X < s].
    s, lam = 1.3, 0.7
    law, _ = service_law(Scenario(lam, UniformValue(0, 10), IndependentDeterministicService(s), LIN3, MG12))
    for w in (0.1, 0.65, 1.2):
        want = math.expm1(-lam * (s - w)) / math.expm1(-lam * s)
        assert residual_ccdf_mg12(law, lam, w) == pytest.approx(want, rel=1e-14)
    for w in (s, 2.0):
        assert residual_ccdf_mg12(law, lam, w) == 0.0


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
        assert residual_ccdf_mg12(law, lam, w) == pytest.approx(num / omm, rel=1e-14)


def test_residual_ccdf_needs_busy_arrivals():
    # Zero service: no arrival ever finds the server busy.
    sc = Scenario(1.0, UniformValue(0, 10), IndependentDeterministicService(0.0), LIN3, MG12)
    with pytest.raises(ValueError, match="no busy-state arrivals"):
        residual_ccdf_mg12(*service_law(sc), 0.5)


# ---------------------------------------------------------------------------
# Bufferless discipline
# ---------------------------------------------------------------------------

def test_mg11_instant_service_full_triangle():
    sc = Scenario(1.0, UniformValue(0, 10), IndependentDeterministicService(0.0), LIN3, MG11)
    rep = analyze(sc)
    assert rep.avg_voi == pytest.approx(7.5, rel=1e-12)
    assert rep.p_idle == pytest.approx(1.0)


def test_mg11_service_beyond_deadline_collects_nothing():
    sc = Scenario(1.0, UniformValue(0, 10), IndependentDeterministicService(3.0), LIN3, MG11)
    assert analyze(sc).avg_voi == 0.0


def test_mg11_exponential_identity_reference():
    rep = analyze(expid(1.0, MG11))
    assert rep.p_idle == pytest.approx(0.6, rel=1e-9)
    assert rep.eq_idle == pytest.approx(EQ_IDLE_MM, rel=1e-9)
    assert rep.avg_voi == pytest.approx(VOI_MG11_EXPID, rel=1e-8)


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
        assert rep.avg_voi == pytest.approx(cf.avg_voi, rel=1e-8)
        assert rep.avg_voi == pytest.approx(expected, rel=1e-8)


def test_mg12_vanishes_with_arrival_rate():
    rep = analyze(mm12(1e-6))
    assert rep.avg_voi == pytest.approx(0.0, abs=1e-6)
    assert rep.avg_voi > 0.0


def test_mg12_empty_region_when_service_exceeds_deadline():
    sc = Scenario(1.0, BinaryValue(5.0, 5.0, 0.5), DependentService("identity"), LIN3, MG12)
    assert analyze(sc).avg_voi == 0.0


def test_mg12_wait_integral_matches_literal_ccdf_route():
    # Dual route: the folded closed-form kernel against the textbook
    # integration-by-parts form int_0^d (d-w) P[W'>w] dw.  The CCDF carries
    # its own quadrature noise, so the outer level stays looser.
    loose = QuadratureSpec(rel_tol=1e-5, abs_tol=1e-8)
    for sc in (mm12(1.0), uniflog(0.8, MG12)):
        law, lam = service_law(sc)
        omm = one_minus_mgf_service(law, lam)
        for d in (0.5, 1.5, 2.9):
            literal = quad(
                lambda w: (d - w) * residual_ccdf_mg12(law, lam, w), 0.0, d, epsabs=loose.abs_tol, epsrel=loose.rel_tol
            )[0]
            folded = sum(c.weight * c.wait_fold(d, lam, QuadratureSpec()) for c in law) / omm
            assert folded == pytest.approx(literal, rel=1e-4)


# ---------------------------------------------------------------------------
# One-buffer LCFS with replacement
# ---------------------------------------------------------------------------

def test_mg12star_busy_area_reference_points():
    for lam, expected in EQ_BUSY_STAR_MM.items():
        rep = analyze(expid(lam, MG12_STAR))
        assert rep.eq_busy == pytest.approx(expected, rel=1e-7)


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
    assert a.p_idle == pytest.approx(b.p_idle, rel=1e-12)
    assert a.p_busy2 == pytest.approx(b.p_busy2, rel=1e-12)


# ---------------------------------------------------------------------------
# Closed forms
# ---------------------------------------------------------------------------

def test_uniform_log_mean_service_time_consistent_map():
    rep = closed_form_mg11_uniform_log(0.0, 10.0, 1.0, 1.0, 3.0)
    e_s = rep.t_cycle - 1.0
    assert e_s == pytest.approx(ES_UNIFORM_LOG, rel=1e-12)
    # The same mean through the quadrature route.
    assert mean_service_time(service_law(uniflog(1.0))[0]) == pytest.approx(ES_UNIFORM_LOG, rel=1e-9)


def test_uniform_log_closed_form_agrees_with_quadrature():
    for lam in (0.1, 0.5, 1.0, 2.7, 5.0):
        cf = closed_form_mg11_uniform_log(0.0, 10.0, 1.0, lam, 3.0)
        qd = analyze(uniflog(lam))
        assert cf.avg_voi == pytest.approx(qd.avg_voi, rel=1e-6)
        assert cf.mgf == pytest.approx(qd.mgf, rel=1e-8)
    assert closed_form_mg11_uniform_log(0.0, 10.0, 1.0, 1.0, 3.0).avg_voi == pytest.approx(
        VOI_UNIFLOG, rel=1e-9
    )


def test_uniform_log_nonzero_lower_bound():
    cf = closed_form_mg11_uniform_log(2.0, 8.0, 0.7, 1.3, 3.0)
    sc = Scenario(1.3, UniformValue(2.0, 8.0), DependentService("log-shift", 0.7), LIN3, MG11)
    assert cf.avg_voi == pytest.approx(analyze(sc).avg_voi, rel=1e-6)


def test_uniform_log_empty_region_for_steep_map():
    # a chosen so the deadline threshold exp(D/a)-1 sits below v_min
    cf = closed_form_mg11_uniform_log(1.0, 10.0, 3.0 / math.log(1.5), 1.0, 3.0)
    assert cf.avg_voi == 0.0


def test_mm12_closed_form_reference_values():
    cf = closed_form_mm12_exp(1.5, 1.0, 3.0)
    assert cf.eq_idle == pytest.approx(EQ_IDLE_MM, rel=1e-12)
    assert cf.eq_busy == pytest.approx(EQ_BUSY_MM, rel=1e-9)
    assert cf.avg_voi == pytest.approx(VOI_MM12[1.0], rel=1e-12)
    assert cf.p_idle == pytest.approx(0.47368421052631576, rel=1e-12)
    assert cf.p_busy1 == pytest.approx(0.3157894736842105, rel=1e-12)


def test_mm12_closed_form_vanishing_deadline():
    assert closed_form_mm12_exp(1.5, 1.0, 1e-3).avg_voi == pytest.approx(0.0, abs=1e-6)


def test_mm12_busy_area_against_nested_quadrature():
    # Independent check of the printed busy-state closed form: evaluate the
    # defining double integral with the residual density mu e^{-mu w}.
    mu, deadline = 1.5, 3.0
    spec = QuadratureSpec()
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
        epsabs=spec.abs_tol,
        epsrel=spec.rel_tol,
    )
    assert got == pytest.approx(EQ_BUSY_MM, rel=1e-8)


def test_closed_form_report_dispatch():
    assert closed_form_report(mm12(1.0)).method == "closed-form"
    assert closed_form_report(uniflog(1.0)).method == "closed-form"
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
    assert rep.avg_voi == pytest.approx(expected, rel=1e-8)
    assert rep.p_idle == pytest.approx(p_idle, rel=1e-12)


def test_serve_all_class_service_mixture():
    sc = Scenario(1.0, BinaryValue(0.4, 1.33, 0.8), ClassExponentialService(), LIN3, MG11)
    rep = analyze(sc)
    eqi = 0.8 * 0.4 / 6.0 * _eds2(2.5, 3.0) + 0.2 * 1.33 / 6.0 * _eds2(1.0 / 1.33, 3.0)
    p_idle = 1.0 / (1.0 + 0.586)
    assert rep.avg_voi == pytest.approx(p_idle * eqi, rel=1e-8)


def test_independent_service_factorizes():
    # With service independent of value, the idle-state area is
    # E[V]/(2D) * E[(D-S)^2, S<D].
    sc = Scenario(1.0, ExponentialValue(1.5), IndependentExponentialService(1.5), LIN3, MG11)
    rep = analyze(sc)
    expected_eqi = (1.0 / 1.5) / 6.0 * _eds2(1.5, 3.0)
    assert rep.eq_idle == pytest.approx(expected_eqi, rel=1e-8)


def test_analyze_dispatch():
    assert analyze(expid(1.0, MG11)).avg_voi == pytest.approx(VOI_MG11_EXPID, rel=1e-8)
    assert analyze(mm12(1.0)).avg_voi == pytest.approx(VOI_MM12[1.0], rel=1e-8)
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
    assert sum(probs) == pytest.approx(1.0, rel=1e-12)
    assert st.t_cycle == math.inf
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
            assert all(math.isfinite(x) for x in (*probs, rep.p_busy, rep.eq_idle, rep.eq_busy, rep.eq, rep.avg_voi))
            assert all(0.0 <= p <= 1.0 for p in probs), (d, lam)
            assert sum(probs) == pytest.approx(1.0, abs=1e-12), (d, lam)
            if lam >= 1e8:
                assert rep.avg_voi == pytest.approx(limit[d], rel=1e-6), (d, lam)
        if lam >= 1e6:
            assert reps[MG12_STAR].avg_voi == pytest.approx(reps[MG11].avg_voi, rel=1e-5), lam


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
# lam = 1e3.
def test_analyze_matches_the_closed_forms_over_the_whole_arrival_rate_range():
    for lam in map(float, np.logspace(-8, 8, 33)):
        rep, cf = analyze(mm12(lam)), closed_form_mm12_exp(1.5, lam, 3.0)
        for field in ("avg_voi", "p_idle", "p_busy1", "mgf", "eq_busy"):
            assert getattr(rep, field) == pytest.approx(getattr(cf, field), rel=1e-9), (field, lam)
        rep, cf = analyze(uniflog(lam)), closed_form_mg11_uniform_log(0.0, 10.0, 1.0, lam, 3.0)
        for field in ("avg_voi", "p_idle", "mgf"):
            assert getattr(rep, field) == pytest.approx(getattr(cf, field), rel=1e-9), (field, lam)


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


@pytest.mark.parametrize("discipline, passes", [(MG11, 1), (MG12, 4), (MG12_STAR, 4)])
def test_integrand_passes_per_point_with_a_warm_cache(monkeypatch, discipline, passes):
    # MGF (and 1 - MGF when buffered), then one outer and one inner pass of the
    # nested busy-arrival rule: every rule converges on its fused first pass.
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
    # E[_wait_kernel(S, rem, lam)] for S = log(1 + V), V ~ Uniform(0, 10), by
    # scipy quad on pieces that step geometrically away from both layers.
    s_hi = math.log(11.0)
    steps = [j / lam for j in (0.0, 0.1, 0.3, 1.0, 3.0, 10.0, 30.0, 100.0, 300.0, 1000.0)]
    cuts = sorted({0.0, s_hi, *(p for base in (0.0, rem) for p in (base + t for t in steps) if 0.0 < p < s_hi)})
    f = lambda s: math.exp(s) / 10.0 * float(_wait_kernel(s, rem, lam))
    return sum(quad(f, a, b, epsabs=0.0, epsrel=1e-13, limit=500)[0] for a, b in zip(cuts, cuts[1:]))


@pytest.mark.parametrize("lam", [1e2, 1e4, 1e7])
def test_fcfs_fold_resolves_its_boundary_layers(lam):
    ((c,), _) = service_law(uniflog(lam, MG12))
    rem = np.array([1e-3, 0.3, 1.0, 2.9])
    got = c.wait_fold(rem, lam, QuadratureSpec(), [16.0 * 2.0**k / lam for k in range(3)])
    np.testing.assert_allclose(got, [_fold_oracle(lam, r) for r in rem], rtol=1e-11, atol=0.0)


# ---------------------------------------------------------------------------
# Busy-arrival areas against an independent scipy oracle
# ---------------------------------------------------------------------------
#
# The engine folds the residual CCDF over the service law with a closed-form
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
    base, law = _ORACLE_FAMILIES[family]
    sc = replace(base, lam=lam, discipline=discipline)
    lam_eff = lam * (0.8 if sc.admission == "class-only(1)" else 1.0)
    want = _oracle_eq_busy(law, lam_eff, 3.0, discipline)
    assert analyze(sc).eq_busy == pytest.approx(want, rel=1e-8)


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
        draw(st.floats(0.05, 20.0)),
        dist,
        draw(st.one_of(services)),
        DescendFunction.linear(draw(st.floats(0.5, 6.0))),
        draw(st.sampled_from([MG11, MG12, MG12_STAR])),
        draw(st.sampled_from(["serve-all", "class-only(1)", "class-only(2)"])) if binary else "serve-all",
    )


@settings(max_examples=60, deadline=None)
@given(_scenarios())
# Every service outlasts the deadline: no value is ever collected.
@example(Scenario(1.0, UniformValue(1.0, 2.0), DependentService("identity"), DescendFunction.linear(0.5), MG12_STAR))
def test_any_valid_scenario_gives_finite_normalised_report(sc):
    try:
        rep = analyze(sc)
    except (UnsupportedAnalyticsError, QuadratureError):
        return
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
    assert analyze(mm12(1.0)).avg_voi == pytest.approx(VOI_MM12[1.0], rel=1e-8)
    assert analyze(uniflog(1.0)).avg_voi == pytest.approx(VOI_UNIFLOG, rel=1e-6)
