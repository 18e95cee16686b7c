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
(``model._wait_kernel``) is a closed form for that law alone.

Expectations without a closed form use vectorised Gauss-Legendre panels
(``quadrature.gauss_legendre``) split at the known kinks of each integrand.
The busy-arrival area is one tensor-product rule: the outer service-time
nodes are evaluated together, and the inner fold (M/GI/1/2) or residual
integral (M/GI/1/2*) runs once over all of them, with every outer node's
inner pieces cut at its own remaining time.  Class-filtered admission is
Poisson thinning: the queue sees rate lam * P[class admitted] and the
value distribution conditioned on admission.
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
    service_law,
)
# integrate is not called here; it stays bound for perfbench, whose tracer patches it by name.
from .quadrature import DEFAULT_SPEC, gauss_legendre, integrate  # noqa: F401


class UnsupportedAnalyticsError(ValueError):
    """The requested analytic evaluation is outside the covered family
    (e.g. a non-linear descend law, which only the simulator handles)."""


@dataclass(frozen=True)
class AnalyticReport:
    """Stationary probabilities and expected-area decomposition of one scenario."""

    p_idle: float
    p_busy: float
    p_busy1: float
    p_busy2: float
    t_cycle: float
    mgf: float
    eq_idle: float
    eq_busy: float
    eq: float
    avg_voi: float
    method: str


class Stationary(NamedTuple):
    """Server-state probabilities over a renewal cycle, with the service
    transforms they were computed from."""

    p_idle: float     # idle
    p_busy: float     # busy, p_busy1 + p_busy2
    p_busy1: float    # busy with the buffer empty
    p_busy2: float    # busy with the buffer full (0 without a buffer)
    t_cycle: float    # mean renewal cycle, inf once MGF_S(lam) underflows
    e_s: float        # E[S]
    mgf: float        # MGF_S(lam) = E[exp(-lam S)]
    omm: float        # 1 - MGF_S(lam), without cancellation at small lam * S


# ---------------------------------------------------------------------------
# Pieces of one admitted law
# ---------------------------------------------------------------------------
#
# E[S] and eq_idle are cached per law (see the module docstring); the law
# tuple and its components are frozen dataclasses, so keys compare by value.

def _area(law, d: float, kappa, spec) -> float:
    """E[V kappa(D - S); S < D] / (2D) over the admitted law."""
    return sum(c.weight * c.expect_value_kappa(d, kappa, spec) for c in law) / (2.0 * d)


@lru_cache(maxsize=64)
def _mean_service(law) -> float:
    return mean_service_time(law)


@lru_cache(maxsize=64)
def _eq_idle(law, d: float) -> float:
    """E[V (D - S)^2; S < D] / (2D): what an idle arrival collects."""
    return _area(law, d, lambda rem: rem * rem, DEFAULT_SPEC)


# ---------------------------------------------------------------------------
# Stationary probabilities
# ---------------------------------------------------------------------------

def stationary_mg11(law, lam: float, layers=()) -> Stationary:
    """Server-state probabilities of the bufferless discipline under the admitted
    law ``law`` at rate ``lam``; the cycle is an idle gap and one service.
    Nothing here divides by 1 - MGF, so it is taken as 1 - mgf.  ``layers``
    as for ``model.mgf_service``."""
    e_s = _mean_service(law)
    mgf = mgf_service(law, lam, layers)
    busy = lam * e_s
    p_busy = busy / (1.0 + busy)
    return Stationary(1.0 / (1.0 + busy), p_busy, p_busy, 0.0, 1.0 / lam + e_s, e_s, mgf, 1.0 - mgf)


def stationary_mg12(law, lam: float, layers=()) -> Stationary:
    """Server-state probabilities of the one-buffer disciplines under the admitted law ``law`` at rate ``lam``.

    The renewal cycle is an idle gap plus a busy stretch of geometrically
    many services (the stretch ends with the first service that sees no
    arrival, which happens with probability MGF_S(lam)).  The buffer of a
    service stays empty until the first arrival X ~ exponential(lam) during
    it, so the B1 share of busy time is E[min(X, S)] / E[S]
    = (1 - MGF) / (lam E[S]), and B2 is the rest.  ``layers`` as for
    ``model.mgf_service``.
    """
    e_s = _mean_service(law)
    mgf = mgf_service(law, lam, layers)
    omm = one_minus_mgf_service(law, lam, layers)
    # Scaled by MGF so that nothing divides by it: it underflows to 0 once
    # lam * S is large, when every service sees an arrival.
    busy = lam * e_s
    p_idle = mgf / (mgf + busy)
    p_busy = busy / (mgf + busy)
    t_cycle = 1.0 / lam + e_s / mgf if mgf > 0.0 else math.inf
    # The B1 share is <= 1; at small lam * S rounding can put it just above.
    p_busy1 = min(p_busy * (omm / busy), p_busy) if busy > 0.0 else 0.0
    return Stationary(p_idle, p_busy, p_busy1, p_busy - p_busy1, t_cycle, e_s, mgf, omm)


def residual_ccdf_mg12(law, lam: float, w: float) -> float:
    """P[W' > w]: residual service seen by the first busy-period arrival under ``law``.

    W' = S - X conditioned on X < S with X exponential(lam).  Exponential
    components contribute their own CCDF (memorylessness), point masses a
    closed form and a value-mapped density a quadrature.
    """
    if w < 0.0:
        raise ValueError("residual time must be >= 0")
    if w == 0.0:
        return 1.0
    omm = one_minus_mgf_service(law, lam)
    if omm <= 0.0:
        raise ValueError("no busy-state arrivals exist under this service law")
    return float(sum(c.weight * c.residual_num(lam, w) for c in law) / omm)


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
      W' of the in-progress service.  E[(d - W')^2; W' < d] is reduced by
      parts to d^2 - 2 int_0^d (d - w) P[W' > w] dw, and the CCDF integral
      is folded over the service law with a closed-form kernel, so no
      density of W' is ever differentiated numerically.
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
    level = DEFAULT_SPEC.split(2)
    # Terms in exp(-lam t) are boundary layers of width 1/lam: exp(-lam S) at
    # the smallest service time in the transforms, the FCFS fold's kernel at
    # S = s_lo and S = rem, the LCFS residual at w = 0.  Their pieces also end
    # 16 * 2^k / lam past the layer, k = 0..6, below D (exp(-lam t) is 0 from
    # 1024 / lam on).  The nested FCFS fold stops at 64 / lam, past which its
    # layers are below exp(-64) ~ 1.6e-28.
    layers = [t for t in (16.0 * 2.0**k / lam for k in range(7)) if t < d]
    kappa = None
    if scenario.discipline == MG11:
        st = stationary_mg11(law, lam, layers)
        p_served = 0.0
    elif scenario.discipline == MG12:
        st = stationary_mg12(law, lam, layers)
        p_served = st.p_busy1
        if st.omm > 0.0 and p_served > 0.0:

            def kappa(rem):
                # int_0^rem (rem - w) P[W' > w] dw, folded over the service law.
                t = sum(c.weight * c.wait_fold(rem, lam, level, layers[:3]) for c in law) / st.omm
                return np.maximum(rem * rem - 2.0 * t, 0.0)

    else:
        st = stationary_mg12(law, lam, layers)
        p_served = st.p_busy
        if st.e_s > 0.0 and p_served > 0.0:
            # The layer of exp(-lam w) sits at w = 0.
            kinks = sorted({k for k in (*(k for c in law for k in c.kinks), *layers) if 0.0 < k < d})

            def kappa(rem):
                # One row of pieces per outer point: [0, rem] cut at every kink,
                # each clipped to that point's [0, rem] (empty pieces add nothing).
                cuts = np.stack([np.zeros_like(rem), *(np.clip(k, 0.0, rem) for k in kinks), rem])

                def f(w):
                    return (rem - w) ** 2 * np.exp(-lam * w) * sum(c.weight * c.ccdf(w) for c in law)

                return gauss_legendre(f, cuts[:-1], cuts[1:], level).sum(axis=0) / st.e_s

    eqi = _eq_idle(law, d)
    eqb = 0.0 if kappa is None else _area(law, d, kappa, level)
    eq = st.p_idle * eqi + p_served * eqb
    return AnalyticReport(
        p_idle=st.p_idle,
        p_busy=st.p_busy,
        p_busy1=st.p_busy1,
        p_busy2=st.p_busy2,
        t_cycle=st.t_cycle,
        mgf=st.mgf,
        eq_idle=eqi,
        eq_busy=eqb,
        eq=eq,
        avg_voi=lam * eq,
        method="quadrature",
    )


# ---------------------------------------------------------------------------
# Closed forms
# ---------------------------------------------------------------------------

def _log1p_sq_antiderivatives(v: float) -> tuple[float, float]:
    """(int v log(1+v) dv, int v log(1+v)^2 dv), both vanishing at v = 0."""
    lg = math.log1p(v)
    phi1 = 0.5 * (v * v - 1.0) * lg - 0.25 * v * v + 0.5 * v
    phi2 = 0.5 * (v * v - 1.0) * lg * lg - 0.5 * (v * v - 2.0 * v - 3.0) * lg + 0.25 * v * v - 1.5 * v
    return phi1, phi2


def closed_form_mg11_uniform_log(
    v_min: float, v_max: float, a: float, lam: float, deadline: float
) -> AnalyticReport:
    """Bufferless average VoI for Uniform(v_min, v_max) values and the
    logarithmic service map a*log(1+v), fully in closed form.

    The service map is applied consistently everywhere, i.e.
    E[S] = a/u * ((v_max+1) log(v_max+1) - (v_min+1) log(v_min+1)) - a
    (the exact integral of a*log(1+v)), and the area integral uses exact
    antiderivatives of v log(1+v) and v log(1+v)^2.
    """
    if not (0.0 <= v_min < v_max and a > 0.0 and lam > 0.0 and deadline > 0.0):
        raise ValueError("invalid closed-form parameters")
    u = v_max - v_min
    e_s = (a / u) * (
        (v_max + 1.0) * math.log1p(v_max) - (v_min + 1.0) * math.log1p(v_min)
    ) - a
    t_cycle = 1.0 / lam + e_s
    p_idle = 1.0 / (lam * t_cycle)
    p_busy = e_s / t_cycle
    v_up = min(math.expm1(deadline / a), v_max)
    if v_up <= v_min:
        eqi = 0.0
    else:

        def big_f(v: float) -> float:
            phi1, phi2 = _log1p_sq_antiderivatives(v)
            return deadline * deadline * 0.5 * v * v - 2.0 * a * deadline * phi1 + a * a * phi2

        eqi = (big_f(v_up) - big_f(v_min)) / (2.0 * deadline * u)
    # MGF_S(lam) = E[(1+V)^(-a lam)] also has an elementary antiderivative.
    if abs(a * lam - 1.0) < 1e-12:
        mgf = (math.log1p(v_max) - math.log1p(v_min)) / u
    else:
        e = 1.0 - a * lam
        mgf = ((1.0 + v_max) ** e - (1.0 + v_min) ** e) / (e * u)
    eq = p_idle * eqi
    return AnalyticReport(
        p_idle=p_idle,
        p_busy=p_busy,
        p_busy1=p_busy,
        p_busy2=0.0,
        t_cycle=t_cycle,
        mgf=mgf,
        eq_idle=eqi,
        eq_busy=0.0,
        eq=eq,
        avg_voi=lam * eq,
        method="closed-form",
    )


def closed_form_mm12_exp(mu: float, lam: float, deadline: float) -> AnalyticReport:
    """FCFS one-buffer average VoI for exponential(mu) values served through
    the identity map (so service is exponential(mu) too), in closed form."""
    if not (mu > 0.0 and lam > 0.0 and deadline > 0.0):
        raise ValueError("invalid closed-form parameters")
    d = deadline
    dm = d * mu
    emu = math.exp(-dm)
    eqi = (dm * dm - 4.0 * dm + 6.0 - emu * (2.0 * dm + 6.0)) / (2.0 * d * mu**3)
    eqb = (12.0 + dm * dm - 6.0 * dm - emu * (6.0 * dm + dm * dm + 12.0)) / (2.0 * d * mu**3)
    denom = lam * lam + lam * mu + mu * mu
    p_idle = mu * mu / denom
    p_busy1 = lam * mu / denom
    p_busy2 = lam * lam / denom
    p_busy = p_busy1 + p_busy2
    eq = eqi * p_idle + eqb * p_busy1
    return AnalyticReport(
        p_idle=p_idle,
        p_busy=p_busy,
        p_busy1=p_busy1,
        p_busy2=p_busy2,
        t_cycle=1.0 / lam + (mu + lam) / (mu * mu),
        mgf=mu / (mu + lam),
        eq_idle=eqi,
        eq_busy=eqb,
        eq=eq,
        avg_voi=lam * eq,
        method="closed-form",
    )


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
