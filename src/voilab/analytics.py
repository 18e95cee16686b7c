"""Renewal-reward evaluation of the time-average value collected at the receiver.

``analyze`` is the one entry point.  For every discipline it adds up the
same three pieces: stationary server-state probabilities over a renewal
cycle, the expected collected area of a packet that arrives in idle state,
and that of a busy arrival that is served; only the busy-arrival rule
differs between disciplines.  Each piece is a weighted sum over the
components of the admitted service law (``model.service_law``), built once
per call.  E[S] and the idle-arrival area depend on that law and the
deadline alone, not on lam or the discipline, so they are computed once per
law and shared by every point of a sweep (a bounded cache keyed by value on
the frozen law tuple and D; nothing keyed on lam is cached).  The two
classic parameter families (uniform value with log service, exponential
value with identity service) also have closed forms, which ``analyze``
never calls, so that the two routes check each other.
Only the linear decay law is covered, since the FCFS busy-arrival fold
(the kernel of ``model._q_terms``) is a closed form for that law alone.

This module assembles the renewal-reward sum and integrates nothing itself:
expectations without a closed form are members of the law's components or
law-level folds in ``model`` (``residual_fold``), which place every cut and
evaluate on vectorised Gauss-Legendre panels at the one budget of
``quadrature`` (``REL_TOL`` per integral).  The busy-arrival area is one
tensor-product rule: the outer service-time nodes are evaluated together,
and the inner fold (M/GI/1/2) or residual integral (M/GI/1/2*) runs once
over all of them, each outer node's inner pieces cut at its own remaining
time.  The FCFS kernel has one form on each side of its kink S = rem: below
it the hold factor is exactly 1, above it the q-terms depend on rem alone.  A
point-mass component takes the side of its one service time; a value-mapped
law's inner pieces end at S = rem, so each piece takes its side, and the
q-terms above run once per outer node.
Class-filtered admission is Poisson thinning: the queue sees rate
lam * P[class admitted] and the value distribution conditioned on admission.

A report carries the probabilities, the two areas and avg_voi
(``AnalyticReport``).  Where lam E[S] or lam^2 overflows (lam near 1e308, or
1.34e154 for the M/M/1/2 closed form) the probabilities are formed in scaled
units, and avg_voi takes lam into each of its two terms before the area.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .model import (
    DependentService,
    ExponentialValue,
    Scenario,
    UniformValue,
    MG11,
    MG12,
    mean_service_time,
    mgf_service,
    one_minus_mgf_service,
    residual_fold,
    service_law,
)
# integrate is not called here; it stays bound for perfbench, whose tracer patches it by name.
from .quadrature import integrate  # noqa: F401


class UnsupportedAnalyticsError(ValueError):
    """The requested analytic evaluation is outside the covered family
    (e.g. a non-linear descend law, which only the simulator handles)."""


@dataclass(frozen=True)
class AnalyticReport:
    """The average VoI of one scenario and the pieces it is built from
    (lam the admitted rate, MGF = E[exp(-lam S)]):

    p_idle    P[server idle]: 1 / (1 + lam E[S]) without a buffer,
              MGF / (MGF + lam E[S]) with one
    p_busy    P[server busy] = 1 - p_idle
    p_busy1   P[busy, buffer empty]: p_busy without a buffer,
              (1 - MGF) / (MGF + lam E[S]) with one
    p_busy2   P[busy, buffer full] = p_busy - p_busy1 (0 without a buffer)
    eq_idle   E[V (D - S)^2; S < D] / (2D), the area an idle arrival collects
    eq_busy   E[V kappa(D - S); S < D] / (2D), the area a served busy arrival
              collects, kappa the discipline's fold (0 without a buffer)
    avg_voi   lam (p_idle eq_idle + p_served eq_busy), p_served = 0 (M/GI/1/1),
              p_busy1 (M/GI/1/2) or p_busy (M/GI/1/2*)
    """

    p_idle: float
    p_busy: float
    p_busy1: float
    p_busy2: float
    eq_idle: float
    eq_busy: float
    avg_voi: float


class Stationary(NamedTuple):
    """Server-state probabilities over a renewal cycle, with the service
    moments ``analyze`` reads besides them: E[S] for the M/GI/1/2* residual
    density, and 1 - MGF = P[an arrival during a service], which the FCFS
    wait CDF is normalised by and only the buffered disciplines compute."""

    p_idle: float     # idle
    p_busy: float     # busy, p_busy1 + p_busy2
    p_busy1: float    # busy with the buffer empty
    p_busy2: float    # busy with the buffer full (0 without a buffer)
    e_s: float        # E[S]
    omm: float = math.nan  # 1 - MGF_S(lam); nan from stationary_mg11, which needs no transform


# ---------------------------------------------------------------------------
# Pieces of one admitted law
# ---------------------------------------------------------------------------
#
# E[S] and eq_idle are cached per law (see the module docstring); the law
# tuple and its components are frozen dataclasses, so keys compare by value.

def _area(law, d: float, kappa, lam: float) -> float:
    """E[V kappa(D - S); S < D] / (2D) over the admitted law, kappa with a layer of arrival rate lam (or 0)."""
    return sum(c.weight * c.expect_value_kappa(d, kappa, lam) for c in law) / (2.0 * d)


@lru_cache(maxsize=64)
def _mean_service(law) -> float:
    return mean_service_time(law)


@lru_cache(maxsize=64)
def _eq_idle(law, d: float) -> float:
    """E[V (D - S)^2; S < D] / (2D): what an idle arrival collects."""
    return _area(law, d, lambda rem: rem * rem, 0.0)


# ---------------------------------------------------------------------------
# Stationary probabilities
# ---------------------------------------------------------------------------

def stationary_mg11(law, lam: float) -> Stationary:
    """Server-state probabilities of the bufferless discipline under the admitted
    law ``law`` at rate ``lam``: the cycle is an idle gap of mean 1/lam and one
    service, so p_busy = lam E[S] / (1 + lam E[S]).  Only E[S] enters, and it
    is cached per law, so a warm point makes no integrand pass."""
    e_s = _mean_service(law)
    # busy = lam E[S] in units of one = 1, or of one = 1/lam where it overflows.
    one, busy = (1.0, lam * e_s) if lam * e_s < math.inf else (1.0 / lam, e_s)
    p_busy = busy / (one + busy)
    return Stationary(one / (one + busy), p_busy, p_busy, 0.0, e_s)


def stationary_mg12(law, lam: float) -> Stationary:
    """Server-state probabilities of the one-buffer disciplines under the admitted law ``law`` at rate ``lam``.

    The renewal cycle is an idle gap plus a busy stretch of geometrically
    many services (the stretch ends with the first service that sees no
    arrival, which happens with probability MGF_S(lam)).  The buffer of a
    service stays empty until the first arrival X ~ exponential(lam) during
    it, so the B1 share of busy time is E[min(X, S)] / E[S]
    = (1 - MGF) / (lam E[S]), and B2 is the rest.
    """
    e_s = _mean_service(law)
    one, busy = (1.0, lam * e_s) if lam * e_s < math.inf else (1.0 / lam, e_s)  # as in stationary_mg11
    mgf = mgf_service(law, lam) * one
    omm = one_minus_mgf_service(law, lam)
    # Scaled by MGF so that nothing divides by it: it underflows to 0 once
    # lam * S is large, when every service sees an arrival.
    p_idle = mgf / (mgf + busy)
    p_busy = busy / (mgf + busy)
    # The B1 share is <= 1; at small lam * S rounding can put it just above.
    p_busy1 = min(p_busy * (omm * one / busy), p_busy) if busy > 0.0 else 0.0
    return Stationary(p_idle, p_busy, p_busy1, p_busy - p_busy1, e_s, omm)


# ---------------------------------------------------------------------------
# Average VoI
# ---------------------------------------------------------------------------

def analyze(scenario: Scenario) -> AnalyticReport:
    """Average VoI of the scenario by renewal reward and quadrature (never a
    closed form).

    avg_voi = lam * (p_idle * eq_idle + p_served * eq_busy).  An idle
    arrival waits only for its own service and collects
    eq_idle = E[V (D - S)^2; S < D] / (2D).  A busy arrival that is served
    (stationary fraction p_served) collects eq_busy = E[V kappa(D - S); S < D]
    / (2D), where kappa folds its wait into the remaining time:

    - M/GI/1/1: busy arrivals are dropped, so p_served = 0.
    - M/GI/1/2 (FCFS): a busy arrival is served only when it finds the
      buffer empty (p_served = p_busy1); its system time adds the residual
      W' of the in-progress service.  kappa(d) = E[(d - W')^2; W' < d]
      = 2 int_0^d (d - w) P[W' <= w] dw, with the CDF folded over the
      service law by a closed-form kernel: a sum of non-negative terms, so
      kappa keeps its digits where a busy arrival rarely makes its deadline.
    - M/GI/1/2* (LCFS with replacement): every busy arrival enters the
      buffer, replacing any occupant (p_served = p_busy), and is delivered
      iff no further arrival lands during the residual service W, which
      contributes the factor exp(-lam w).  W follows the stationary
      residual-service density (1 - F_S(w)) / E[S] over busy periods.
    """
    if scenario.descend.kind != "linear":
        raise UnsupportedAnalyticsError("analytic VoI covers the linear descend law only; use the simulator")
    law, lam = service_law(scenario)
    d = scenario.descend.deadline
    kappa, unit = None, 1.0
    if scenario.discipline == MG11:
        st = stationary_mg11(law, lam)
        p_served = 0.0
    elif scenario.discipline == MG12:
        st = stationary_mg12(law, lam)
        p_served = st.p_busy1
        if st.omm > 0.0 and p_served > 0.0:

            def kappa(rem):
                # 2 int_0^rem (rem - w) P[W' <= w] dw, folded over the service law.
                return 2.0 * sum(c.weight * c.wait_fold(rem, lam) for c in law) / st.omm

    else:
        st = stationary_mg12(law, lam)
        p_served = st.p_busy
        if st.e_s > 0.0 and p_served > 0.0:
            # kappa is about rem^2 / (lam E[S]): from lam = 2^512 on it is taken
            # times unit = 2^512, so that it and eq_busy keep to the normal range.
            unit = 1.0 if lam < 2.0**512 else 2.0**512

            def kappa(rem):
                return residual_fold(law, rem, lam, unit) / st.e_s

    eqi = _eq_idle(law, d)
    eqb = 0.0 if kappa is None else _area(law, d, kappa, lam if scenario.discipline == MG12 else 0.0)  # eq_busy * unit
    return AnalyticReport(*st[:4], eqi, eqb / unit, _avg_voi(lam, st.p_idle, eqi, p_served, eqb, unit))


def _avg_voi(lam: float, p_idle: float, eq_idle: float, p_served: float, eq_busy: float, unit: float = 1.0) -> float:
    """lam (p_idle eq_idle + p_served eq_busy / unit), unit a power of two: lam goes into each term
    first, so that neither falls below the normal range where lam E[S] is near overflow."""
    return lam * p_idle * eq_idle + lam / unit * p_served * eq_busy


# ---------------------------------------------------------------------------
# Closed forms
# ---------------------------------------------------------------------------

def _log1p_sq_antiderivatives(v: float) -> tuple[float, float]:
    """(int v log(1+v) dv, int v log(1+v)^2 dv), both vanishing at v = 0."""
    lg = math.log1p(v)
    phi1 = 0.5 * (v * v - 1.0) * lg - 0.25 * v * v + 0.5 * v
    phi2 = 0.5 * (v * v - 1.0) * lg * lg - 0.5 * (v * v - 2.0 * v - 3.0) * lg + 0.25 * v * v - 1.5 * v
    return phi1, phi2


def _uniform_log_area_series(v_lo: float, sigma: float, a: float, deadline: float) -> float:
    """int v (D - a log(1+v))^2 dv / D from v_lo to v_lo + (1 + v_lo) sigma,
    as its power series in sigma through sigma^64 (for sigma < 1/2 the terms
    beyond fall below double rounding).  With 1 + v = (1 + v_lo)(1 + s), the
    integrand is (1 + v_lo)(v_lo + (1 + v_lo) s)(c - a log1p(s))^2 with
    c = D - a log1p(v_lo); the factor c - a log1p(s) is divided by D before
    it is squared, so that long deadlines cannot overflow."""
    b = 1.0 + v_lo
    k = np.arange(1, 64)
    q = np.concatenate(([(deadline - a * math.log1p(v_lo)) / deadline], a / deadline * (-1.0) ** k / k))
    p = np.convolve(q, q)[:64]
    r = v_lo * p
    r[1:] += b * p[:-1]
    n = np.arange(1, 65)
    return b * float((r * sigma**n / n).sum()) * deadline


def closed_form_mg11_uniform_log(
    v_min: float, v_max: float, a: float, lam: float, deadline: float
) -> AnalyticReport:
    """Bufferless average VoI for Uniform(v_min, v_max) values and the
    logarithmic service map a*log(1+v), fully in closed form.

    The service map is applied consistently everywhere, i.e.
    E[S] = a/u * ((v_max+1) log(v_max+1) - (v_min+1) log(v_min+1)) - a
    (the exact integral of a*log(1+v)), and the area integral uses exact
    antiderivatives of v log(1+v) and v log(1+v)^2.  Their difference
    cancels when the integration range is short against 1 + v_min (2.4e-7
    relative at v_min = 0, D = 0.001), so below half of it the area is
    summed as a power series instead.  Both divide the area by D before
    squaring, and values reach v_max wherever D/a >= log(1 + v_max), so that
    long deadlines stay finite.
    """
    if not (0.0 <= v_min < v_max and a > 0.0 and lam > 0.0 and deadline > 0.0):
        raise ValueError("invalid closed-form parameters")
    u = v_max - v_min
    e_s = (a / u) * (
        (v_max + 1.0) * math.log1p(v_max) - (v_min + 1.0) * math.log1p(v_min)
    ) - a
    # busy = lam E[S] in units of one = 1, or of one = 1/lam where it overflows
    # (the cycle length 1/lam + E[S] itself overflows below lam = 5.6e-309).
    one, busy = (1.0, lam * e_s) if lam * e_s < math.inf else (1.0 / lam, e_s)
    p_idle, p_busy = one / (one + busy), busy / (one + busy)
    v_up = v_max if deadline / a >= math.log1p(v_max) else math.expm1(deadline / a)
    sigma = (v_up - v_min) / (1.0 + v_min)
    if v_up <= v_min:
        eqi = 0.0
    elif sigma < 0.5:
        eqi = _uniform_log_area_series(v_min, sigma, a, deadline) / (2.0 * u)
    else:

        def big_f(v: float) -> float:  # antiderivative of v (D - a log(1+v))^2 / D
            phi1, phi2 = _log1p_sq_antiderivatives(v)
            return deadline * 0.5 * v * v - 2.0 * a * phi1 + a * (a / deadline) * phi2

        eqi = (big_f(v_up) - big_f(v_min)) / (2.0 * u)
    return AnalyticReport(p_idle, p_busy, p_busy, 0.0, eqi, 0.0, _avg_voi(lam, p_idle, eqi, 0.0, 0.0))


def closed_form_mm12_exp(mu: float, lam: float, deadline: float) -> AnalyticReport:
    """FCFS one-buffer average VoI for exponential(mu) values served through
    the identity map (so service is exponential(mu) too), in closed form.
    Both area numerators cancel as x = D mu -> 0, so below x = 3 they are
    summed as their alternating Taylor series, through x^31.  Both are
    divided by x before it is squared, so that long deadlines stay finite."""
    if not (mu > 0.0 and lam > 0.0 and deadline > 0.0):
        raise ValueError("invalid closed-form parameters")
    dm = deadline * mu
    if dm < 3.0:
        n = np.arange(4, 32)
        terms = -((-dm) ** (n - 1)) / np.array([math.factorial(k) for k in n], dtype=float)
        num_i, num_b = 2.0 * ((n - 3) * terms).sum(), -((n - 3) * (n - 4) * terms).sum()
    else:
        emu = math.exp(-dm)
        num_i = dm - 4.0 + 6.0 / dm - emu * (2.0 + 6.0 / dm)
        num_b = dm - 6.0 + 12.0 / dm - emu * (6.0 + dm + 12.0 / dm)
    eqi = float(num_i) / (2.0 * mu * mu)
    eqb = float(num_b) / (2.0 * mu * mu)
    # Divided through by max(lam, mu)^2 where lam^2 + lam mu + mu^2 overflows.
    k = max(lam, mu) if lam * lam + lam * mu + mu * mu == math.inf else 1.0
    lk, mk = lam / k, mu / k
    denom = lk * lk + lk * mk + mk * mk
    p_idle = mk * mk / denom
    p_busy1 = lk * mk / denom
    p_busy2 = lk * lk / denom
    return AnalyticReport(p_idle, p_busy1 + p_busy2, p_busy1, p_busy2, eqi, eqb, _avg_voi(lam, p_idle, eqi, p_busy1, eqb))


def closed_form_report(scenario: Scenario) -> AnalyticReport | None:
    """Closed form matching the scenario, or None when outside both families."""
    if scenario.descend.kind != "linear" or scenario.admission != "serve-all":
        return None
    svc = scenario.service
    dist = scenario.value_dist
    if (
        scenario.discipline == MG11
        and isinstance(svc, DependentService)
        and svc.map_kind == "log-shift"
        and isinstance(dist, UniformValue)
    ):
        return closed_form_mg11_uniform_log(
            dist.v_min, dist.v_max, svc.a, scenario.lam, scenario.descend.deadline
        )
    if (
        scenario.discipline == MG12
        and isinstance(svc, DependentService)
        and svc.map_kind == "identity"
        and isinstance(dist, ExponentialValue)
    ):
        return closed_form_mm12_exp(dist.rate, scenario.lam, scenario.descend.deadline)
    return None
