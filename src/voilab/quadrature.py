"""Deterministic quadrature: vectorised Gauss-Legendre panels.

All analytic expectations in this package that lack a closed form are
evaluated through ``gauss_legendre``, so its error behaviour is pinned down:
it integrates many intervals at once on numpy arrays, doubles the
Gauss-Legendre order until successive estimates agree within the budget
derived from ``QuadratureSpec``, and raises ``QuadratureError`` (carrying the
worst interval) when the doubling bound is hit first.  ``integrate`` applies
the same rule to a plain Python integrand of one float.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np


class QuadratureError(ArithmeticError):
    """Numeric failure: the integrator could not meet its tolerance.

    ``interval`` holds the worst interval seen when order doubling ran out,
    or the point where the integrand was not finite, which is usually
    enough to locate a singularity or a bad truncation choice in the caller.
    """

    def __init__(self, message: str, interval: tuple[float, float] | None = None):
        super().__init__(message)
        self.interval = interval


@dataclass(frozen=True)
class QuadratureSpec:
    rel_tol: float = 1e-9
    abs_tol: float = 1e-12

    def __post_init__(self) -> None:
        if self.rel_tol <= 0.0 or self.abs_tol <= 0.0:
            raise ValueError("tolerances must be positive")

    def split(self, levels: int) -> "QuadratureSpec":
        """Tolerance budget for one level of a nested integral."""
        return QuadratureSpec(self.rel_tol / levels, self.abs_tol / levels)


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
    integrand's kinks.  Doubling past GL_MAX_ORDER points per panel, or
    past GL_MAX_POINTS per pass, raises ``QuadratureError`` with the
    interval furthest from its tolerance.
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
    while 2 * order <= GL_MAX_ORDER and 2 * order * a.size <= GL_MAX_POINTS:
        order *= 2
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


def integrate(
    f: Callable[[float], float],
    a: float,
    b: float,
    spec: QuadratureSpec = DEFAULT_SPEC,
) -> float:
    """``gauss_legendre`` for a scalar integrand ``f`` over [a, b]."""
    return gauss_legendre(np.vectorize(f, otypes=[float]), a, b, spec)
