"""Domain types and pointwise value/service computations.

Everything here is immutable and pure given an explicit RNG handle, so the
analytic and simulation engines can share one vocabulary: a packet's value
starts at a random ``v0``, decays to zero over a deterministic deadline, and
its service requirement is either a deterministic map of the value, an
independent draw, or (for two-class traffic) an exponential whose mean is the
class value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .quadrature import QuadratureSpec, integrate

# Queueing disciplines: no buffer / one-slot FCFS / one-slot LCFS with replacement.
MG11 = "M/GI/1/1"
MG12 = "M/GI/1/2"
MG12_STAR = "M/GI/1/2*"
DISCIPLINES = (MG11, MG12, MG12_STAR)

SERVE_ALL = "serve-all"
CLASS_ONLY_1 = "class-only(1)"
CLASS_ONLY_2 = "class-only(2)"
ADMISSIONS = (SERVE_ALL, CLASS_ONLY_1, CLASS_ONLY_2)

# Densities with unbounded support are truncated at this tail mass for
# numerical expectations; the truncation error sits far below quadrature
# tolerances (see quadrature.QuadratureSpec defaults).
EXP_TAIL_EPS = 1e-12


# ---------------------------------------------------------------------------
# Value decay
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DescendFunction:
    """Decay law of a packet's value over [0, deadline].

    ``linear``        : v0 * (1 - tau/D)
    ``power-concave`` : v0 * (1 - (tau/D)**shape)   (concave for shape > 1)
    ``power-convex``  : v0 * (1 - tau/D)**shape     (convex for shape > 1)

    Both power families reduce to the linear law at shape = 1 and satisfy
    value(v0, 0) = v0 and value(v0, D) = 0.
    """

    kind: str
    deadline: float
    shape: float = 1.0

    def __post_init__(self) -> None:
        if self.kind not in ("linear", "power-concave", "power-convex"):
            raise ValueError(f"unknown descend kind {self.kind!r}")
        if not (self.deadline > 0.0):
            raise ValueError("deadline must be > 0")
        if not (self.shape >= 1.0):
            raise ValueError("shape exponent must be >= 1")

    @classmethod
    def linear(cls, deadline: float) -> "DescendFunction":
        return cls("linear", deadline)

    @classmethod
    def power_concave(cls, shape: float, deadline: float) -> "DescendFunction":
        return cls("power-concave", deadline, shape)

    @classmethod
    def power_convex(cls, shape: float, deadline: float) -> "DescendFunction":
        return cls("power-convex", deadline, shape)

    def area(self, v0, t_sys):
        """Value left between reception at ``t_sys`` and the deadline,
        elementwise: the integral of ``value_at`` over [t_sys, D].

        Every law has an elementary antiderivative, written in the
        remaining fraction r = max((D - t_sys)/D, 0) so that packets
        received close to the deadline keep their accuracy.
        """
        t = np.asarray(t_sys, dtype=float)
        v = np.asarray(v0, dtype=float)
        d = self.deadline
        if self.kind == "linear":
            rem = np.clip(d - t, 0.0, None)
            return v / (2.0 * d) * rem * rem
        r = np.clip((d - t) / d, 0.0, None)
        k1 = self.shape + 1.0
        if self.kind == "power-convex":
            return v * d * r**k1 / k1
        return v * d * (r - (1.0 - (1.0 - r) ** k1) / k1)


def value_at(descend: DescendFunction, v0: float, tau: float) -> float:
    """Remaining value of a packet ``tau`` time units after generation."""
    if v0 < 0.0:
        raise ValueError("initial value must be >= 0")
    if tau < 0.0:
        raise ValueError("elapsed time must be >= 0")
    d = descend.deadline
    if tau >= d:
        return 0.0
    x = tau / d
    if descend.kind == "linear":
        return v0 * (1.0 - x)
    if descend.kind == "power-concave":
        return v0 * (1.0 - x**descend.shape)
    return v0 * (1.0 - x) ** descend.shape


def q_area(descend: DescendFunction, v0: float, t_sys: float) -> float:
    """Value area a packet delivers: integral of value_at from t_sys to D.

    ``t_sys`` is the packet's total generation-to-reception time; every
    decay law is evaluated in closed form (``DescendFunction.area``).
    """
    if v0 < 0.0:
        raise ValueError("initial value must be >= 0")
    if t_sys < 0.0:
        raise ValueError("system time must be >= 0")
    return float(descend.area(v0, t_sys))


def q_area_batch(descend: DescendFunction, v0: np.ndarray, t_sys: np.ndarray) -> np.ndarray:
    """Vectorized q_area over whole packet arrays, closed form for every law."""
    return descend.area(v0, t_sys)


# ---------------------------------------------------------------------------
# Initial-value distributions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class UniformValue:
    v_min: float
    v_max: float

    def __post_init__(self) -> None:
        if not (0.0 <= self.v_min < self.v_max):
            raise ValueError("require 0 <= v_min < v_max")

    def mean(self) -> float:
        return 0.5 * (self.v_min + self.v_max)

    def support(self) -> tuple[float, float]:
        return (self.v_min, self.v_max)

    def pdf(self, v: float) -> float:
        return 1.0 / (self.v_max - self.v_min) if self.v_min <= v <= self.v_max else 0.0

    def cdf(self, v: float) -> float:
        if v <= self.v_min:
            return 0.0
        if v >= self.v_max:
            return 1.0
        return (v - self.v_min) / (self.v_max - self.v_min)

    def sample(self, rng: np.random.Generator, n: int):
        return rng.uniform(self.v_min, self.v_max, n), None


@dataclass(frozen=True)
class ExponentialValue:
    rate: float

    def __post_init__(self) -> None:
        if not (self.rate > 0.0):
            raise ValueError("rate must be > 0")

    def mean(self) -> float:
        return 1.0 / self.rate

    def support(self) -> tuple[float, float]:
        # Finite truncation point for numerical integration (tail mass EXP_TAIL_EPS).
        return (0.0, -math.log(EXP_TAIL_EPS) / self.rate)

    def pdf(self, v: float) -> float:
        return self.rate * math.exp(-self.rate * v) if v >= 0.0 else 0.0

    def cdf(self, v: float) -> float:
        return -math.expm1(-self.rate * v) if v > 0.0 else 0.0

    def sample(self, rng: np.random.Generator, n: int):
        return rng.exponential(1.0 / self.rate, n), None


@dataclass(frozen=True)
class BinaryValue:
    """Two-class traffic: class 1 has value v1 w.p. p, class 2 has v2 w.p. 1-p."""

    v1: float
    v2: float
    p: float

    def __post_init__(self) -> None:
        if not (self.v1 > 0.0 and self.v2 > 0.0):
            raise ValueError("class values must be > 0")
        if not (0.0 < self.p < 1.0):
            raise ValueError("class-1 probability must lie in (0, 1)")

    def mean(self) -> float:
        return self.p * self.v1 + (1.0 - self.p) * self.v2

    def support(self) -> tuple[float, float]:
        return (min(self.v1, self.v2), max(self.v1, self.v2))

    def atoms(self) -> tuple[tuple[float, float, int], ...]:
        return ((self.v1, self.p, 1), (self.v2, 1.0 - self.p, 2))

    def sample(self, rng: np.random.Generator, n: int):
        classes = np.where(rng.random(n) < self.p, 1, 2).astype(np.int8)
        values = np.where(classes == 1, self.v1, self.v2)
        return values, classes


InitialValueDist = Union[UniformValue, ExponentialValue, BinaryValue]


# ---------------------------------------------------------------------------
# Service models
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DependentService:
    """Deterministic service map S = g(V): identity or a*log(1+v)."""

    map_kind: str = "identity"
    a: float = 1.0

    def __post_init__(self) -> None:
        if self.map_kind not in ("identity", "log-shift"):
            raise ValueError(f"unknown service map {self.map_kind!r}")
        if self.map_kind == "log-shift" and not (self.a > 0.0):
            raise ValueError("log-shift scale must be > 0")

    def g(self, v: float) -> float:
        if self.map_kind == "identity":
            return v
        return self.a * math.log1p(v)

    def g_inv(self, s: float) -> float:
        if self.map_kind == "identity":
            return s
        return math.expm1(s / self.a)

    def g_array(self, v: np.ndarray) -> np.ndarray:
        if self.map_kind == "identity":
            return np.asarray(v, dtype=float)
        return self.a * np.log1p(v)


@dataclass(frozen=True)
class IndependentExponentialService:
    rate: float

    def __post_init__(self) -> None:
        if not (self.rate > 0.0):
            raise ValueError("service rate must be > 0")


@dataclass(frozen=True)
class IndependentDeterministicService:
    s0: float

    def __post_init__(self) -> None:
        if self.s0 < 0.0:
            raise ValueError("service time must be >= 0")


@dataclass(frozen=True)
class ClassExponentialService:
    """Exponential service whose mean equals the packet's class value
    (binary traffic only)."""


ServiceModel = Union[
    DependentService,
    IndependentExponentialService,
    IndependentDeterministicService,
    ClassExponentialService,
]


def service_time(
    service: ServiceModel,
    v0: float,
    cls: Optional[int] = None,
    rng: Optional[np.random.Generator] = None,
) -> float:
    """One service requirement for a packet with initial value ``v0``."""
    if v0 < 0.0:
        raise ValueError("initial value must be >= 0")
    if cls not in (None, 1, 2):
        raise ValueError("packet class must be 1 or 2")
    classes = None if cls is None else np.array([cls])
    return float(sample_service_times(service, np.array([float(v0)]), classes, rng)[0])


def sample_service_times(
    service: ServiceModel,
    values: np.ndarray,
    classes: Optional[np.ndarray],
    rng: Optional[np.random.Generator],
) -> np.ndarray:
    """Vectorized service_time for a whole packet stream."""
    n = len(values)
    if isinstance(service, DependentService):
        return service.g_array(values)
    if isinstance(service, IndependentDeterministicService):
        return np.full(n, service.s0)
    if rng is None:
        raise ValueError("random service models need an RNG handle")
    if isinstance(service, IndependentExponentialService):
        return rng.exponential(1.0 / service.rate, n)
    if classes is None:
        raise ValueError("class-conditional service requires packet classes")
    return rng.standard_exponential(n) * values


# ---------------------------------------------------------------------------
# Scenario and packets
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Scenario:
    """One complete experiment description."""

    lam: float
    value_dist: InitialValueDist
    service: ServiceModel
    descend: DescendFunction
    discipline: str = MG11
    admission: str = SERVE_ALL

    def __post_init__(self) -> None:
        if not (self.lam > 0.0):
            raise ValueError("arrival rate must be > 0")
        if self.discipline not in DISCIPLINES:
            raise ValueError(f"unknown discipline {self.discipline!r}")
        if self.admission not in ADMISSIONS:
            raise ValueError(f"unknown admission policy {self.admission!r}")
        binary = isinstance(self.value_dist, BinaryValue)
        if self.admission != SERVE_ALL and not binary:
            raise ValueError("class-only admission requires a binary value distribution")
        if isinstance(self.service, ClassExponentialService) and not binary:
            raise ValueError("class-conditional service requires a binary value distribution")

    def admitted_class(self) -> Optional[int]:
        if self.admission == CLASS_ONLY_1:
            return 1
        if self.admission == CLASS_ONLY_2:
            return 2
        return None


def effective_lambda(scenario: Scenario) -> float:
    """Arrival rate of the admitted (thinned) Poisson stream."""
    cls = scenario.admitted_class()
    if cls is None:
        return scenario.lam
    p = scenario.value_dist.p
    return scenario.lam * (p if cls == 1 else 1.0 - p)


@dataclass(frozen=True)
class Packet:
    """One status update as generated (and possibly delivered)."""

    id: int
    t_gen: float
    v0: float
    s: float
    cls: Optional[int] = None
    t_recv: Optional[float] = None
    discarded: bool = False
    q_area: float = 0.0

    def __post_init__(self) -> None:
        if self.t_recv is not None and self.t_recv < self.t_gen + self.s - 1e-9:
            raise ValueError("reception cannot precede generation + service")
        if self.discarded and self.q_area != 0.0:
            raise ValueError("discarded packets collect no area")


# ---------------------------------------------------------------------------
# Admitted service law
# ---------------------------------------------------------------------------
#
# ``service_law`` writes the joint law of an admitted packet's value V and
# service time S once, as weighted components, each carrying the value it
# pays (the value distribution itself when S = g(V)).  Each provides, with
# X ~ exponential(lam): mean(), mgf(lam), one_minus_mgf(lam); ccdf(w) = P[S > w]
# and its kinks; residual_num(lam, w) = P[S - X > w, X < S];
# expect_value_kappa(d, kappa, spec) = E[V kappa(d - S); S < d]; and
# wait_fold(rem, lam, spec) = E[_wait_kernel(S, rem, lam)].

def _expm1_quad(x: float) -> float:
    """(expm1(-x) + x) / x**2, the O(x^2) remainder of exp(-x), without
    cancellation: series below x = 0.01, direct evaluation above."""
    if x < 1e-2:
        return 0.5 - x / 6.0 + x * x / 24.0 - x**3 / 120.0 + x**4 / 720.0
    return (math.expm1(-x) + x) / (x * x)


def _wait_kernel(s: float, d: float, lam: float) -> float:
    """Closed form of int_0^min(d,s) (d - w) * (1 - exp(-lam (s - w))) dw.

    The whole expression is O(lam) as lam -> 0, so it is regrouped around
    expm1 remainders; every factor keeps full relative accuracy for any lam.
    """
    m = d if d < s else s
    if m <= 0.0:
        return 0.0
    decay = lam * (s - m)
    c = m * m * (_expm1_quad(lam * m) * (1.0 + lam * d) - 0.5)
    return (d * m - 0.5 * m * m) * (-math.expm1(-decay)) + math.exp(-decay) * c


@dataclass(frozen=True)
class PointMass:
    """Service exactly ``s`` for packets paying ``value``: deterministic
    service, or one value atom of a dependent service."""

    weight: float
    value: float
    s: float

    @property
    def kinks(self) -> tuple[float, ...]:
        return (self.s,)

    def mean(self) -> float:
        return self.s

    def mgf(self, lam: float) -> float:
        return math.exp(-lam * self.s)

    def one_minus_mgf(self, lam: float) -> float:
        return -math.expm1(-lam * self.s)

    def ccdf(self, w: float) -> float:
        return 1.0 if w < self.s else 0.0

    def residual_num(self, lam: float, w: float) -> float:
        return -math.expm1(-lam * (self.s - w)) if self.s > w else 0.0

    def expect_value_kappa(self, d: float, kappa, spec: QuadratureSpec) -> float:
        return self.value * kappa(d - self.s) if self.s < d else 0.0

    def wait_fold(self, rem: float, lam: float, spec: QuadratureSpec) -> float:
        return _wait_kernel(self.s, rem, lam)


@dataclass(frozen=True)
class ExponentialComponent:
    """Exponential service with mean ``m`` for packets paying ``value``:
    independent exponential service, or one class of class-exponential
    service."""

    weight: float
    value: float
    m: float

    kinks = ()

    def mean(self) -> float:
        return self.m

    def mgf(self, lam: float) -> float:
        return 1.0 / (1.0 + lam * self.m)

    def one_minus_mgf(self, lam: float) -> float:
        return lam * self.m / (1.0 + lam * self.m)

    def ccdf(self, w: float) -> float:
        return math.exp(-w / self.m)

    def residual_num(self, lam: float, w: float) -> float:
        # Memoryless: the residual of an interrupted service is S itself.
        return self.ccdf(w) * self.one_minus_mgf(lam)

    def expect_value_kappa(self, d: float, kappa, spec: QuadratureSpec) -> float:
        m = self.m
        return self.value * integrate(lambda s: math.exp(-s / m) / m * kappa(d - s), 0.0, d, spec)

    def wait_fold(self, rem: float, lam: float, spec: QuadratureSpec) -> float:
        # (1 - MGF) * int_0^rem (rem - w) exp(-w/m) dw.
        return self.one_minus_mgf(lam) * rem * rem * _expm1_quad(rem / self.m)


@dataclass(frozen=True)
class ValueMapped:
    """Service S = g(V) for a continuous value V; the component pays V."""

    weight: float
    value: InitialValueDist
    service: DependentService

    @property
    def kinks(self) -> tuple[float, ...]:
        lo, hi = self.value.support()
        return (self.service.g(lo), self.service.g(hi))

    def mean(self) -> float:
        g, pdf = self.service.g, self.value.pdf
        return integrate(lambda v: g(v) * pdf(v), *self.value.support())

    def mgf(self, lam: float) -> float:
        g, pdf = self.service.g, self.value.pdf
        return integrate(lambda v: math.exp(-lam * g(v)) * pdf(v), *self.value.support())

    def one_minus_mgf(self, lam: float) -> float:
        g, pdf = self.service.g, self.value.pdf
        return integrate(lambda v: -math.expm1(-lam * g(v)) * pdf(v), *self.value.support())

    def ccdf(self, w: float) -> float:
        return 1.0 - self.value.cdf(self.service.g_inv(w))

    def residual_num(self, lam: float, w: float) -> float:
        g, pdf = self.service.g, self.value.pdf
        lo, hi = self.value.support()
        lo = max(lo, self.service.g_inv(w))
        if lo >= hi:
            return 0.0
        return integrate(lambda v: -pdf(v) * math.expm1(-lam * (g(v) - w)), lo, hi)

    def expect_value_kappa(self, d: float, kappa, spec: QuadratureSpec) -> float:
        g, pdf = self.service.g, self.value.pdf
        lo, hi = self.value.support()
        hi = min(hi, self.service.g_inv(d))
        if hi <= lo:
            return 0.0
        return integrate(lambda v: pdf(v) * v * kappa(d - g(v)), lo, hi, spec)

    def wait_fold(self, rem: float, lam: float, spec: QuadratureSpec) -> float:
        # The kernel has a kink at S = rem, so the integration splits there.
        g, pdf = self.service.g, self.value.pdf
        lo, hi = self.value.support()
        cut = min(max(self.service.g_inv(rem), lo), hi)
        total = 0.0
        for a, b in ((lo, cut), (cut, hi)):
            if b > a:
                total += integrate(lambda u: pdf(u) * _wait_kernel(g(u), rem, lam), a, b, spec)
        return total


ServiceComponent = Union[PointMass, ExponentialComponent, ValueMapped]


def service_law(scenario: Scenario) -> tuple[ServiceComponent, ...]:
    """The admitted joint law of (V, S) as weighted components.

    Class-filtered admission keeps the admitted atom alone, with weight 1;
    independent service pays the mean admitted value.
    """
    svc = scenario.service
    dist = scenario.value_dist
    atoms = None
    if isinstance(dist, BinaryValue):
        keep = scenario.admitted_class()
        atoms = [(v, pr if keep is None else 1.0) for v, pr, c in dist.atoms() if keep in (None, c)]
    if isinstance(svc, ClassExponentialService):
        return tuple(ExponentialComponent(pr, v, v) for v, pr in atoms)
    if isinstance(svc, DependentService):
        if atoms is None:
            return (ValueMapped(1.0, dist, svc),)
        return tuple(PointMass(pr, v, svc.g(v)) for v, pr in atoms)
    value = dist.mean() if atoms is None else sum(pr * v for v, pr in atoms)
    if isinstance(svc, IndependentExponentialService):
        return (ExponentialComponent(1.0, value, 1.0 / svc.rate),)
    return (PointMass(1.0, value, svc.s0),)


def mean_service_time(scenario: Scenario) -> float:
    """E[S] of the service requirement seen by the queue (after admission)."""
    return sum(c.weight * c.mean() for c in service_law(scenario))


def mgf_service(scenario: Scenario, lam: Optional[float] = None) -> float:
    """E[exp(-lam * S)] of the admitted service distribution.

    Defaults to the scenario's (thinned) arrival rate, which is the transform
    the buffered disciplines' stationary probabilities need.
    """
    if lam is None:
        lam = effective_lambda(scenario)
    if lam < 0.0:
        raise ValueError("transform argument must be >= 0")
    return sum(c.weight * c.mgf(lam) for c in service_law(scenario))


def one_minus_mgf_service(scenario: Scenario, lam: Optional[float] = None) -> float:
    """1 - MGF_S(lam) evaluated without cancellation for small lam."""
    if lam is None:
        lam = effective_lambda(scenario)
    return sum(c.weight * c.one_minus_mgf(lam) for c in service_law(scenario))
