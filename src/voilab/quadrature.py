"""Deterministic quadrature: vectorised Gauss-Legendre panels and adaptive Simpson.

All analytic expectations in this package that lack a closed form are
evaluated through ``gauss_legendre``, so its error behaviour is pinned down:
it integrates many intervals at once on numpy arrays, doubles the
Gauss-Legendre order until successive estimates agree within the budget
derived from ``QuadratureSpec``, and raises ``QuadratureError`` (carrying the
worst interval) when the doubling bound is hit first.  The scalar adaptive
Simpson ``integrate`` and its nested and improper forms, which take plain
Python integrands, follow the same contract.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np


class QuadratureError(ArithmeticError):
    """Numeric failure: the integrator could not meet its tolerance.

    ``interval`` holds the worst subinterval seen when the recursion depth
    ran out, which is usually enough to locate a singularity or a bad
    truncation choice in the caller.
    """

    def __init__(self, message: str, interval: tuple[float, float] | None = None):
        super().__init__(message)
        self.interval = interval


@dataclass(frozen=True)
class QuadratureSpec:
    rel_tol: float = 1e-9
    abs_tol: float = 1e-12
    max_depth: int = 50

    def __post_init__(self) -> None:
        if self.rel_tol <= 0.0 or self.abs_tol <= 0.0:
            raise ValueError("tolerances must be positive")
        if self.max_depth < 1:
            raise ValueError("max_depth must be >= 1")

    def split(self, levels: int) -> "QuadratureSpec":
        """Tolerance budget for one level of a nested integral."""
        return QuadratureSpec(self.rel_tol / levels, self.abs_tol / levels, self.max_depth)


DEFAULT_SPEC = QuadratureSpec()

# Gauss-Legendre points of the first panel of each piece, and the most that
# doubling may reach: with every kink on a piece boundary the integrands are
# analytic on each piece, where the error of the n-point rule falls
# geometrically in n.
GL_FIRST_ORDER = 16
GL_MAX_ORDER = 1024
# Evaluation points one pass of ``gauss_legendre`` may ask for; doubling stops
# with QuadratureError before the node arrays outgrow this.
GL_MAX_POINTS = 1 << 20


@lru_cache(maxsize=None)
def _unit_panel(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the ``order``-point Gauss-Legendre panel on [0, 1].

    Newton's method on the Legendre three-term recurrence from the usual
    cosine guesses (the roots converge quadratically; memory stays O(order)).
    Built on first use, not at import.
    """
    t = np.cos(np.pi * (np.arange(order) + 0.75) / (order + 0.5))
    for _ in range(100):
        p_prev, p = np.ones_like(t), t
        for j in range(2, order + 1):
            p_prev, p = p, ((2 * j - 1) * t * p - (j - 1) * p_prev) / j
        slope = order * (t * p - p_prev) / ((t - 1.0) * (t + 1.0))
        step = p / slope
        if np.abs(step).max() < 1e-15:
            break
        t = t - step
    nodes, weights = (1.0 - t) / 2.0, 1.0 / ((1.0 - t) * (1.0 + t) * slope * slope)
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


def _panel_sums(f, a, width, order):
    """(integral, integral of |f|) over every interval with one ``order``-point panel."""
    nodes, weights = _unit_panel(order)
    x = a + width * nodes.reshape((-1,) + (1,) * a.ndim)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        y = np.broadcast_to(f(x), x.shape).reshape(order, -1)
    bad = ~np.isfinite(y)
    if bad.any():
        at = float(x.reshape(order, -1)[bad][0])
        raise QuadratureError(f"integrand not finite at x={at!r}", (at, at))
    return width * (weights @ y).reshape(a.shape), width * (weights @ np.abs(y)).reshape(a.shape)


def gauss_legendre(
    f: Callable[[np.ndarray], np.ndarray],
    a,
    b,
    spec: QuadratureSpec = DEFAULT_SPEC,
):
    """Integrals of a vectorised ``f`` over [a, b], for broadcast arrays a, b.

    ``f`` receives an array of shape (points,) + shape(a, b), one leading
    row per evaluation point, so parameters shaped like the bounds broadcast
    against it.  Each interval is one Gauss-Legendre panel of k points, and
    k doubles from GL_FIRST_ORDER until |I_2k - I_k| <= max(rel_tol * |I_2k|,
    abs_tol) holds on every interval (or sits at the rounding level of the
    integral of |f|); I_2k is returned.  Callers split the intervals at the
    integrand's kinks.  More than ``spec.max_depth`` doublings, or more than
    GL_MAX_ORDER points per panel or GL_MAX_POINTS per pass, raise
    ``QuadratureError`` with the interval furthest from its tolerance.
    Scalar bounds give a float.
    """
    a, b = np.broadcast_arrays(np.asarray(a, dtype=float), np.asarray(b, dtype=float))
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        raise ValueError("integration bounds must be finite")
    if (a > b).any():
        raise ValueError("require a <= b on every interval")
    width = b - a
    order = GL_FIRST_ORDER
    coarse, _ = _panel_sums(f, a, width, order)
    excess = np.full(a.shape, np.inf)
    for _ in range(spec.max_depth):
        order *= 2
        if order > GL_MAX_ORDER or order * a.size > GL_MAX_POINTS:
            order //= 2
            break
        fine, mass = _panel_sums(f, a, width, order)
        excess = np.abs(fine - coarse) / np.maximum(
            np.maximum(spec.rel_tol * np.abs(fine), spec.abs_tol), 1e-14 * mass
        )
        if not (excess > 1.0).any():
            return fine if fine.ndim else float(fine)
        coarse = fine
    i = np.unravel_index(np.argmax(excess), excess.shape) if a.ndim else ()
    raise QuadratureError(
        f"no convergence with {order} points per panel on "
        f"[{float(a[i])!r}, {float(b[i])!r}] (|I_2k - I_k| / tol ~ {float(excess[i]):.3e})",
        (float(a[i]), float(b[i])),
    )


def _eval(f: Callable[[float], float], x: float) -> float:
    try:
        y = f(x)
    except (ZeroDivisionError, OverflowError) as exc:
        raise QuadratureError(f"integrand failed at x={x!r}: {exc}", (x, x)) from exc
    if not math.isfinite(y):
        raise QuadratureError(f"integrand not finite at x={x!r}", (x, x))
    return y


def _adapt(f, a, m, b, fa, fm, fb, whole, tol, depth, noise):
    lm = 0.5 * (a + m)
    rm = 0.5 * (m + b)
    flm = _eval(f, lm)
    frm = _eval(f, rm)
    left = (m - a) / 6.0 * (fa + 4.0 * flm + fm)
    right = (b - m) / 6.0 * (fm + 4.0 * frm + fb)
    delta = left + right - whole
    # Accept on the Richardson error estimate, on the floating-point noise
    # floor of the overall result, or when the subinterval has collapsed.
    if (
        abs(delta) <= 15.0 * tol
        or abs(delta) <= noise
        or (b - a) <= 1e-15 * (abs(a) + abs(b) + 1.0)
    ):
        return left + right + delta / 15.0
    if depth <= 0:
        raise QuadratureError(
            f"max_depth exceeded on subinterval [{a!r}, {b!r}] (|err est| ~ {abs(delta):.3e})",
            (a, b),
        )
    half = 0.5 * tol
    return _adapt(f, a, lm, m, fa, flm, fm, left, half, depth - 1, noise) + _adapt(
        f, m, rm, b, fm, frm, fb, right, half, depth - 1, noise
    )


def integrate(
    f: Callable[[float], float],
    a: float,
    b: float,
    spec: QuadratureSpec = DEFAULT_SPEC,
) -> float:
    """Adaptive Simpson estimate of the integral of ``f`` over [a, b].

    The result error is bounded by max(rel_tol * |I|, abs_tol); exact for
    polynomials up to degree 3 on a single panel.
    """
    if not (math.isfinite(a) and math.isfinite(b)):
        raise ValueError("integration bounds must be finite (see integrate_to_inf)")
    if a > b:
        raise ValueError(f"require a <= b, got a={a!r} > b={b!r}")
    if a == b:
        return 0.0
    fa = _eval(f, a)
    fb = _eval(f, b)
    m = 0.5 * (a + b)
    fm = _eval(f, m)
    whole = (b - a) / 6.0 * (fa + 4.0 * fm + fb)
    tol = max(spec.abs_tol, spec.rel_tol * abs(whole))
    noise = 1e-16 * abs(whole)
    return _adapt(f, a, m, b, fa, fm, fb, whole, tol, spec.max_depth, noise)


def integrate_to_inf(
    f: Callable[[float], float],
    a: float,
    spec: QuadratureSpec = DEFAULT_SPEC,
    first_step: float = 1.0,
    max_doublings: int = 60,
) -> float:
    """Integral of a decaying ``f`` over [a, inf).

    The upper limit is truncated where the integrand's contribution falls
    below the absolute tolerance: chunks [t, t + L] with doubling L are
    accumulated until one contributes less than abs_tol.
    """
    total = 0.0
    t = a
    step = first_step
    for _ in range(max_doublings):
        chunk = integrate(f, t, t + step, spec)
        total += chunk
        t += step
        step *= 2.0
        if abs(chunk) < spec.abs_tol:
            return total
    raise QuadratureError(
        f"tail of improper integral did not decay below abs_tol by x={t!r}", (a, t)
    )


def integrate_nested(
    f: Callable[..., float],
    limits: Sequence[tuple],
    spec: QuadratureSpec = DEFAULT_SPEC,
) -> float:
    """Iterated integral over a region with variable inner limits.

    ``limits`` lists one (lo, hi) pair per variable, outermost first; inner
    bounds may be constants or callables of the already-fixed outer
    variables.  The tolerance budget is split evenly across levels.
    """
    if not limits:
        raise ValueError("at least one integration variable required")
    level_spec = spec.split(len(limits))

    def _level(idx: int, outer: tuple) -> float:
        lo, hi = limits[idx]
        lo_v = lo(*outer) if callable(lo) else float(lo)
        hi_v = hi(*outer) if callable(hi) else float(hi)
        if hi_v <= lo_v:
            return 0.0
        if idx == len(limits) - 1:
            return integrate(lambda x: f(*outer, x), lo_v, hi_v, level_spec)
        return integrate(lambda x: _level(idx + 1, outer + (x,)), lo_v, hi_v, level_spec)

    return _level(0, ())
