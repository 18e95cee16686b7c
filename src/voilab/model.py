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
from typing import Callable, Optional, Union

import numpy as np

# integrate is not called here; it stays bound for perfbench, whose tracer patches it by name.
from .quadrature import gauss_legendre, integrate  # noqa: F401

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
# numerical expectations, far below the quadrature budget.
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
    value(v0, 0) = v0 and value(v0, tau) = 0 for every tau >= D.
    """

    kind: str
    deadline: float
    shape: float = 1.0

    def __post_init__(self) -> None:
        if self.kind not in ("linear", "power-concave", "power-convex"):
            raise ValueError(f"unknown descend kind {self.kind!r}")
        if not (0.0 < self.deadline < math.inf):
            raise ValueError("deadline must be finite and > 0")
        if not (1.0 <= self.shape < math.inf):
            raise ValueError("shape exponent must be finite and >= 1")

    @classmethod
    def linear(cls, deadline: float) -> "DescendFunction":
        return cls("linear", deadline)

    @classmethod
    def power_concave(cls, shape: float, deadline: float) -> "DescendFunction":
        return cls("power-concave", deadline, shape)

    @classmethod
    def power_convex(cls, shape: float, deadline: float) -> "DescendFunction":
        return cls("power-convex", deadline, shape)

    def value(self, v0, tau):
        """Remaining value ``tau`` time units after generation, elementwise
        over arrays; x = clip(tau/D, 0, 1), so it is exactly 0 from D on."""
        x = np.minimum(np.maximum(np.asarray(tau, dtype=float) / self.deadline, 0.0), 1.0)
        v = np.asarray(v0, dtype=float)
        if self.kind == "linear":
            return v * (1.0 - x)
        if self.kind == "power-concave":
            return v * (1.0 - x**self.shape)
        return v * (1.0 - x) ** self.shape

    def area(self, v0, t_sys):
        """Value left between reception at ``t_sys`` and the deadline,
        elementwise: the integral of ``value`` over [t_sys, D].

        Every law has an elementary antiderivative, written in the
        remaining fraction r = max((D - t_sys)/D, 0) so that packets
        received close to the deadline keep their accuracy.
        """
        t = np.asarray(t_sys, dtype=float)
        v = np.asarray(v0, dtype=float)
        d = self.deadline
        if self.kind == "linear":
            rem = np.maximum(d - t, 0.0)
            return v / (2.0 * d) * rem * rem
        r = np.maximum((d - t) / d, 0.0)
        k1 = self.shape + 1.0
        if self.kind == "power-convex":
            return v * d * r**k1 / k1
        return v * d * (r - (1.0 - (1.0 - r) ** k1) / k1)


def q_area_batch(descend: DescendFunction, v0: np.ndarray, t_sys: np.ndarray) -> np.ndarray:
    """Value area each packet delivers, ``DescendFunction.area`` over whole
    packet arrays (perfbench's tracer patches this name)."""
    return descend.area(v0, t_sys)


# ---------------------------------------------------------------------------
# Initial-value distributions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class UniformValue:
    v_min: float
    v_max: float

    def __post_init__(self) -> None:
        if not (0.0 <= self.v_min < self.v_max < math.inf):
            raise ValueError("require 0 <= v_min < v_max < inf")

    def mean(self) -> float:
        return 0.5 * (self.v_min + self.v_max)

    def support(self) -> tuple[float, float]:
        return (self.v_min, self.v_max)

    def pdf(self, v):
        """Density, elementwise over an array."""
        inside = (v >= self.v_min) & (v <= self.v_max)
        return np.where(inside, 1.0 / (self.v_max - self.v_min), 0.0)

    def sf(self, v):
        """P[V > v], elementwise over an array."""
        return 1.0 - np.clip((np.asarray(v) - self.v_min) / (self.v_max - self.v_min), 0.0, 1.0)

    def sample(self, rng: np.random.Generator, n: int):
        return rng.uniform(self.v_min, self.v_max, n), None


@dataclass(frozen=True)
class ExponentialValue:
    rate: float

    def __post_init__(self) -> None:
        if not (0.0 < self.rate < math.inf and 1.0 / self.rate < math.inf):
            raise ValueError(f"rate must be finite and > 0, with a finite mean 1/rate, got {self.rate!r}")

    def mean(self) -> float:
        return 1.0 / self.rate

    def support(self) -> tuple[float, float]:
        # Finite truncation point for numerical integration (tail mass EXP_TAIL_EPS).
        return (0.0, -math.log(EXP_TAIL_EPS) / self.rate)

    def pdf(self, v):
        """Density, elementwise over an array."""
        return np.where(v >= 0.0, self.rate * np.exp(-self.rate * np.maximum(v, 0.0)), 0.0)

    def sf(self, v):
        """P[V > v], elementwise over an array: formed directly, since 1 - cdf
        loses every digit once the cdf rounds to 1 (rate * v >= 37.4)."""
        return np.exp(-self.rate * np.maximum(v, 0.0))

    def sample(self, rng: np.random.Generator, n: int):
        return rng.exponential(1.0 / self.rate, n), None


@dataclass(frozen=True)
class BinaryValue:
    """Two-class traffic: class 1 has value v1 w.p. p, class 2 has v2 w.p. 1-p."""

    v1: float
    v2: float
    p: float

    def __post_init__(self) -> None:
        if not (0.0 < self.v1 < math.inf and 0.0 < self.v2 < math.inf):
            raise ValueError("class values must be finite and > 0")
        if not (0.0 < self.p < 1.0):
            raise ValueError("class-1 probability must lie in (0, 1)")

    def mean(self) -> float:
        return self.p * self.v1 + (1.0 - self.p) * self.v2

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
        if self.map_kind == "log-shift" and not (0.0 < self.a < math.inf):
            raise ValueError("log-shift scale must be finite and > 0")

    def g(self, v):
        """Service time of value ``v``, elementwise over an array."""
        if self.map_kind == "identity":
            return np.asarray(v, dtype=float)[()]
        return self.a * np.log1p(v)

    def g_inv(self, s):
        if self.map_kind == "identity":
            return np.asarray(s, dtype=float)[()]
        return np.expm1(np.asarray(s) / self.a)

    def g_inv_slope(self, s):
        """Derivative of ``g_inv`` at ``s``, elementwise."""
        if self.map_kind == "identity":
            return 1.0
        return np.exp(np.asarray(s) / self.a) / self.a


@dataclass(frozen=True)
class IndependentExponentialService:
    rate: float

    def __post_init__(self) -> None:
        if not (0.0 < self.rate < math.inf and 1.0 / self.rate < math.inf):
            raise ValueError(f"service rate must be finite and > 0, with a finite mean 1/rate, got {self.rate!r}")


@dataclass(frozen=True)
class IndependentDeterministicService:
    s0: float

    def __post_init__(self) -> None:
        if not (0.0 <= self.s0 < math.inf):
            raise ValueError("service time must be finite and >= 0")


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


def sample_service_times(
    service: ServiceModel,
    values: np.ndarray,
    classes: Optional[np.ndarray],
    make_rng: Optional[Callable[[], np.random.Generator]],
) -> np.ndarray:
    """Service requirement of every packet of a stream with initial values
    ``values`` (and classes, for class-conditional service).

    ``make_rng`` builds the service stream; only the random models call it,
    so a run with deterministic service never builds one.
    """
    n = len(values)
    if isinstance(service, DependentService):
        return service.g(values)
    if isinstance(service, IndependentDeterministicService):
        return np.full(n, service.s0)
    if make_rng is None:
        raise ValueError("random service models need an RNG handle")
    if isinstance(service, IndependentExponentialService):
        return make_rng().exponential(1.0 / service.rate, n)
    if classes is None:
        raise ValueError("class-conditional service requires packet classes")
    return make_rng().standard_exponential(n) * values


# ---------------------------------------------------------------------------
# Scenario
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
        if not (0.0 < self.lam < math.inf):
            raise ValueError("arrival rate must be finite and > 0")
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


# ---------------------------------------------------------------------------
# Admitted service law
# ---------------------------------------------------------------------------
#
# ``service_law`` writes the joint law of an admitted packet's value V and
# service time S once, as weighted components, each carrying the value it
# pays (the value distribution itself when S = g(V)).  Each provides seven
# members.  ``analyze`` reads five: mean(), mgf(lam) and one_minus_mgf(lam);
# expect_value_kappa(d, kappa, lam) = E[V kappa(d - S); S < d], kappa carrying
# a layer of arrival rate lam (0 if none); and wait_fold(rem, lam) = E[K(S, rem)]
# for the FCFS wait kernel K of ``_q_terms``: (1 - MGF) int_0^rem (rem - w)
# P[W' <= w] dw for the residual W' that the first arrival during a service
# waits.  The other two, its kinks (where its integrands bend, or where the
# pieces around its exponential layer end) and ccdf(w) = P[S > w], are read
# only by the rules in this module (``residual_fold``).  The arguments w and
# rem, and the argument and result of kappa, are numpy arrays (elementwise);
# expectations without a closed form go through ``gauss_legendre``, cut in
# this module at ``layer_offsets``.  K takes one form on each side of its kink
# S = rem, ``_wait_kernel_below`` and ``_wait_kernel_above``.

def layer_offsets(rate: float, width: float) -> list[float]:
    """The one rule for a layer exp(-rate t) of width 1/rate at t = 0 on a span
    ``width``: the offsets 16, 32 and 64 / rate shorter than ``width``, where
    pieces end that resolve it (it is below exp(-64) ~ 1.6e-28 past them)."""
    return [t / rate for t in (16.0, 32.0, 64.0) if t < rate * width]


# sum_j z^j / (3 + j)!, for the exp(-x) remainders below where |z| < 1/2: the terms
# past j = 14 stay under 2e-17 of the sum, and from 1/2 on the direct forms lose ~5e-15.
_SERIES_BELOW = 0.5
_SERIES3 = [1.0 / math.factorial(j + 3) for j in range(14, -1, -1)]


def _series3(z):
    acc = _SERIES3[0] * z + _SERIES3[1]
    for c in _SERIES3[2:]:
        acc *= z
        acc += c
    return acc


def _q_terms(x):
    """(1 - exp(-x), q_2, q_3) at x >= 0, elementwise, for the FCFS wait kernel
    K(s, rem) = int_0^rem (rem - w) exp(-lam (s - u)) (1 - exp(-lam u)) dw, u = min(w, s),
    whose integrand is the chance that the first arrival during a service of
    length s waits W' <= w.  With m = min(rem, s), x = lam m and q_k = P(k, x) /
    x^(k-1) (P the regularised lower incomplete gamma), K is the sum of terms
    exp(-lam (s - m)) m ((rem - m) q_2 + m q_3) + (1 - exp(-x)) (rem - m)^2 / 2,
    non-negative and each with full relative accuracy for any lam.  Below
    x = 1/2, q_3 = x exp(-x) _series3(x) and q_2 = x (exp(-x)/2 + q_3); above,
    q_2 = (1 - exp(-x))/x - exp(-x) and q_3 = q_2/x - exp(-x)/2, which vanish,
    not overflow, as x -> inf."""
    e, em = np.exp(-x), -np.expm1(-x)
    xd = np.maximum(x, _SERIES_BELOW)
    q2 = np.asarray(em / xd - e)
    q3 = np.asarray(q2 / xd - 0.5 * e)
    lo = x < _SERIES_BELOW
    if lo.any():
        x, e = x[lo], e[lo]
        q3[lo] = x * e * _series3(x)
        q2[lo] = x * (0.5 * e + q3[lo])
    return em, q2, q3


def _wait_kernel_below(s, rem, lam: float):
    """K(s, rem) of ``_q_terms`` where 0 <= s <= rem: m = s, and the hold
    factor is exp(-lam 0) = 1, so it is left out.  Finite (and unused) where s > rem."""
    with np.errstate(over="ignore"):
        x = lam * s
    em, q2, q3 = _q_terms(x)
    tail = rem - s
    return s * (tail * q2 + s * q3) + 0.5 * em * tail * tail


def _wait_kernel_above(s, rem, lam: float):
    """K(s, rem) of ``_q_terms`` where 0 <= rem <= s: m = rem and the tail terms
    are 0, so q_3 is taken once per rem (``rem`` may broadcast against ``s`` from
    fewer dimensions).  The hold exponent is clipped at 0, which changes
    nothing where s >= rem and keeps it finite (and unused) where s < rem."""
    with np.errstate(over="ignore"):
        _, _, q3 = _q_terms(lam * rem)
        hold = np.exp(-lam * np.maximum(s - rem, 0.0))
    return hold * rem * (rem * q3)


def residual_fold(law, rem, lam: float, unit: float):
    """unit int_0^rem (rem - w)^2 exp(-lam w) P[S > w] dw over the admitted law
    ``law``, elementwise over an array ``rem``, for a power of two ``unit``: E[S]
    times the M/GI/1/2* kappa(rem), where a busy arrival is delivered iff no
    arrival comes during the residual service W, of density P[S > w] / E[S].

    One integral per rem, its pieces [0, rem] cut at the law's kinks and past
    the layer of exp(-lam w) at w = 0, each cut clipped to that rem's [0, rem]
    (empty pieces add nothing, so cuts past the largest rem are left out).
    """
    rem = np.asarray(rem)
    span = float(rem.max())
    kinks = sorted({k for k in (*(k for c in law for k in c.kinks), *layer_offsets(lam, span)) if 0.0 < k < span})
    cuts = np.stack([np.zeros_like(rem), *(np.clip(k, 0.0, rem) for k in kinks), rem])

    def f(w):
        return unit * (rem - w) ** 2 * np.exp(-lam * w) * sum(c.weight * c.ccdf(w) for c in law)

    return gauss_legendre(f, cuts[:-1], cuts[1:])


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

    def ccdf(self, w):
        return np.where(w < self.s, 1.0, 0.0)

    def expect_value_kappa(self, d: float, kappa, lam: float) -> float:
        return self.value * float(kappa(d - self.s)) if self.s < d else 0.0

    def wait_fold(self, rem, lam: float):
        # ``service_law`` never mixes component kinds, so rem is the one scalar d - s' of an
        # ``expect_value_kappa``: K's form of that side, on numpy scalars (``_q_terms`` masks x).
        s, rem = np.float64(self.s), np.float64(rem)
        return _wait_kernel_below(s, rem, lam) if s <= rem else _wait_kernel_above(s, rem, lam)


@dataclass(frozen=True)
class ExponentialComponent:
    """Exponential service with mean ``m`` for packets paying ``value``:
    independent exponential service, or one class of class-exponential
    service."""

    weight: float
    value: float
    m: float

    @property
    def kinks(self) -> tuple[float, ...]:
        # The ends of the pieces around the layer exp(-s/m) at s = 0.
        return tuple(layer_offsets(1.0 / self.m, math.inf))

    def mean(self) -> float:
        return self.m

    def mgf(self, lam: float) -> float:
        return 1.0 / (1.0 + lam * self.m)

    def one_minus_mgf(self, lam: float) -> float:
        x = lam * self.m
        return x / (1.0 + x) if x < math.inf else 1.0

    def ccdf(self, w):
        return np.exp(-w / self.m)

    def expect_value_kappa(self, d: float, kappa, lam: float) -> float:
        # The value goes inside: (value / m) kappa keeps to the normal range where kappa / m alone would not.
        m, scale = self.m, self.value / self.m
        cuts = [0.0, *(k for k in self.kinks if k < d), d]
        return gauss_legendre(lambda s: scale * np.exp(-s / m) * kappa(d - s), cuts[:-1], cuts[1:])

    def wait_fold(self, rem, lam: float):
        # W' is exponential(m) again: (1 - MGF) int_0^rem (rem - w) (1 - exp(-w/m)) dw
        # = (1 - MGF) m^2 (y^2/2 - y + 1 - exp(-y)), y = rem/m, or rem^2 y _series3(-y) below
        # y = 1/2 (not m^2 y^3, which overflows from m = 1.34e154 on).
        m = self.m
        rem = np.asarray(rem, dtype=float)
        y = rem / m
        f = np.asarray(rem * (0.5 * rem - m) - m * m * np.expm1(-y))
        lo = y < _SERIES_BELOW
        if lo.any():
            r, y = rem[lo], y[lo]
            f[lo] = r * r * y * _series3(-y)
        return self.one_minus_mgf(lam) * f


@dataclass(frozen=True)
class ValueMapped:
    """Service S = g(V) for a continuous value V; the component pays V.

    Expectations integrate over the service time s, with density
    pdf(g^-1(s)) (g^-1)'(s): every kink of an integrand sits at a known
    service time, and the log-shift map's singularity at V = -1 moves out
    to s = -inf, so each piece is smooth.
    """

    weight: float
    value: InitialValueDist
    service: DependentService

    @property
    def kinks(self) -> tuple[float, ...]:
        lo, hi = self.value.support()
        return (float(self.service.g(lo)), float(self.service.g(hi)))

    def _expect(self, f, cuts):
        """E[f(S)] as one integral on the pieces between consecutive ``cuts`` (axis 0), clipped to the support."""
        lo, hi = self.kinks
        if not math.isfinite(hi):  # 0 <= lo <= hi, so hi is the end that overflows first
            raise ArithmeticError(f"service times of {self.value} under {self.service} reach {hi}")
        cuts = np.clip(cuts, lo, hi)
        pdf, g_inv, slope = self.value.pdf, self.service.g_inv, self.service.g_inv_slope
        return gauss_legendre(lambda s: pdf(g_inv(s)) * slope(s) * f(s), cuts[:-1], cuts[1:])

    def mean(self) -> float:
        return self._expect(lambda s: s, self.kinks)

    def _from_lo(self, f, lam: float) -> float:
        """E[f(S)] for f in exp(-lam S), whose layer at s_lo the pieces resolve."""
        s_lo, s_hi = self.kinks
        return self._expect(f, [s_lo, *(s_lo + t for t in layer_offsets(lam, s_hi - s_lo)), s_hi])

    def mgf(self, lam: float) -> float:
        return self._from_lo(lambda s: np.exp(-lam * s), lam)

    def one_minus_mgf(self, lam: float) -> float:
        return self._from_lo(lambda s: -np.expm1(-lam * s), lam)

    def ccdf(self, w):
        return self.value.sf(self.service.g_inv(w))

    def expect_value_kappa(self, d: float, kappa, lam: float) -> float:
        # The buffered kappas bend where d - S crosses a kink of the service law (this is its
        # only component), so the pieces end there, and past the layer where the FCFS
        # kappa(d - S) falls like exp(-lam (S - d + s_lo)): a busy arrival waits >= s_lo - Exp(lam).
        s_lo, s_hi = self.kinks
        top = min(s_hi, d)
        if top <= s_lo:
            return 0.0
        start = max(d - s_lo, s_lo)
        layer = (start + t for t in layer_offsets(lam, top - start))
        cuts = sorted(c for c in (*(d - k for k in self.kinks), *layer) if s_lo < c < top)
        return self._expect(lambda s: self.service.g_inv(s) * kappa(d - s), [s_lo, *cuts, top])

    def wait_fold(self, rem, lam: float):
        # Pieces split at the kernel's kink S = rem and end past its layers of width
        # 1/lam above S = s_lo (up to rem) and above S = max(rem, s_lo), where
        # exp(-lam (S - rem)) starts: all pieces in one call, along axis 0.  The
        # first n pieces lie below S = rem and the rest above (axis 1 of the nodes),
        # so each side takes its form of the kernel.
        s_lo, s_hi = self.kinks
        rem = np.asarray(rem, dtype=float)
        start = np.maximum(rem, s_lo)
        offsets = layer_offsets(lam, s_hi - s_lo)
        cuts = [s_lo, *(np.minimum(s_lo + t, rem) for t in offsets), rem, *(start + t for t in offsets), s_hi]
        n = len(offsets) + 1

        def kernel(s):
            below, above = _wait_kernel_below(s[:, :n], rem, lam), _wait_kernel_above(s[:, n:], rem, lam)
            return np.concatenate([below, above], axis=1)

        return self._expect(kernel, np.stack(np.broadcast_arrays(*cuts)))


ServiceComponent = Union[PointMass, ExponentialComponent, ValueMapped]


def service_law(scenario: Scenario) -> tuple[tuple[ServiceComponent, ...], float]:
    """The admitted joint law of (V, S) as weighted components, and the
    arrival rate of the admitted stream.

    Class-filtered admission is Poisson thinning: it keeps the admitted atom
    alone, with weight 1, and the rate shrinks by that atom's probability.
    Independent service pays the mean admitted value.
    """
    svc = scenario.service
    dist = scenario.value_dist
    lam = scenario.lam
    atoms = None
    if isinstance(dist, BinaryValue):
        keep = scenario.admitted_class()
        atoms = [(v, pr) for v, pr, c in dist.atoms() if keep in (None, c)]
        if keep is not None:
            ((v, pr),) = atoms
            lam, atoms = lam * pr, [(v, 1.0)]
    if isinstance(svc, ClassExponentialService):
        return tuple(ExponentialComponent(pr, v, v) for v, pr in atoms), lam
    if isinstance(svc, DependentService):
        if atoms is None:
            return (ValueMapped(1.0, dist, svc),), lam
        return tuple(PointMass(pr, v, float(svc.g(v))) for v, pr in atoms), lam
    value = dist.mean() if atoms is None else sum(pr * v for v, pr in atoms)
    if isinstance(svc, IndependentExponentialService):
        return (ExponentialComponent(1.0, value, 1.0 / svc.rate),), lam
    return (PointMass(1.0, value, svc.s0),), lam


# Transforms of an admitted law, named functions only because perfbench's tracer times them.

def mean_service_time(law: tuple[ServiceComponent, ...]) -> float:
    """E[S] of an admitted service law."""
    return sum(c.weight * c.mean() for c in law)


def mgf_service(law: tuple[ServiceComponent, ...], lam: float) -> float:
    """E[exp(-lam * S)] of an admitted service law."""
    if lam < 0.0:
        raise ValueError("transform argument must be >= 0")
    return sum(c.weight * c.mgf(lam) for c in law)


def one_minus_mgf_service(law: tuple[ServiceComponent, ...], lam: float) -> float:
    """1 - MGF_S(lam) of an admitted service law, without cancellation for
    small lam."""
    return sum(c.weight * c.one_minus_mgf(lam) for c in law)
