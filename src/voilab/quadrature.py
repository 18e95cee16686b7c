"""Deterministic quadrature: vectorised Gauss-Legendre panels.

All analytic expectations in this package that lack a closed form are
evaluated through ``gauss_legendre``, so its error behaviour is pinned down:
it integrates many integrals at once on numpy arrays, each the sum of its
pieces along axis 0 of the bounds, doubles the Gauss-Legendre order until
each meets ``REL_TOL`` of its own value, the one budget that every rule in
the package meets and that carries no unit, and raises ``QuadratureError``
(carrying the worst piece) when the doubling bound is hit first.  Its first
pass is fused: one integrand call at the 16- and 32-point nodes together
yields the first two estimates, so a rule that converges at 32 points costs
one call (per-call numpy overhead, not node count, dominates these small panels).
``integrate``, the same rule for a scalar integrand, stays only for
perfbench's tracer.
"""

from __future__ import annotations

import sys
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


# The error budget that every rule in the package meets (see ``gauss_legendre``).
REL_TOL = 5e-10

# Gauss-Legendre points of the first panel of each piece, and the most that
# doubling may reach: with every kink on a piece boundary the integrands are
# analytic on each piece, where the error of the n-point rule falls
# geometrically in n.
GL_FIRST_ORDER = 16
GL_MAX_ORDER = 1024
# Evaluation points one pass of ``gauss_legendre`` may ask for (its fused first
# pass takes 48 per interval); it raises QuadratureError before the node
# arrays outgrow this.
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


@lru_cache(maxsize=None)
def _fused_panel(orders: tuple[int, ...]) -> tuple[np.ndarray, tuple[np.ndarray, ...]]:
    """The nodes of every panel in ``orders``, concatenated, and each panel's weights."""
    nodes = np.concatenate([_unit_panel(k)[0] for k in orders])
    nodes.flags.writeable = False
    return nodes, tuple(_unit_panel(k)[1] for k in orders)


def _panel_sums(f, a, width, orders):
    """One call of ``f`` at the nodes of every panel order in ``orders``.

    Returns the integral over every interval for each order, and the
    integral of |f| with the last (finest) order.  The first non-finite
    value found names the node; the coarsest panel's nodes come first, so
    that is the node a pass of that panel alone would name.
    """
    nodes, weights = _fused_panel(orders)
    x = a + width * nodes.reshape((-1,) + (1,) * a.ndim)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        y = np.broadcast_to(f(x), x.shape).reshape(len(nodes), -1)
    bad = ~np.isfinite(y)
    if bad.any():
        at = float(x.reshape(len(nodes), -1)[bad][0])
        raise QuadratureError(f"integrand not finite at x={at!r}", (at, at))
    sums, row = [], 0
    for w in weights:
        part, row = y[row : row + len(w)], row + len(w)
        sums.append(width * (w @ part).reshape(a.shape))
    return sums, width * (weights[-1] @ np.abs(part)).reshape(a.shape)


def gauss_legendre(f: Callable[[np.ndarray], np.ndarray], a, b):
    """Integrals of a vectorised ``f``, each summed over its pieces [a, b]
    along axis 0 of the broadcast bounds: a float for scalar or 1-d bounds,
    else an array of shape ``a.shape[1:]``.

    ``f`` receives an array of shape (points,) + shape(a, b), one leading
    row per evaluation point, so parameters shaped like the bounds broadcast
    against it.  Callers split the pieces at the integrand's kinks.  Each
    piece is one Gauss-Legendre panel of k points, and k doubles from
    GL_FIRST_ORDER until every integral meets sum |I_2k - I_k| <= max(REL_TOL
    |sum I_2k|, 1e-14 M, float_info.min), both sums over its pieces; the sum
    of I_2k is returned.  No floor carries a unit.  M, the rounding level, is
    the largest integral of |f| of any integral in the call, since one whose
    integrand carries a subnormal factor has few digits of its own; the
    smallest normal number keeps integrals below the normal range from failing.

    The first pass calls ``f`` once at the 16- and 32-point nodes together
    (48 per piece) for I_16 and I_32; each doubling after it is one call.
    No call asks for more than GL_MAX_POINTS nodes: more than
    GL_MAX_POINTS / 48 pieces raise ``QuadratureError`` before ``f`` is
    called.  Doubling past GL_MAX_ORDER points per panel, or past
    GL_MAX_POINTS nodes per pass, raises ``QuadratureError`` with the piece
    that moved most in the integral furthest from its tolerance.
    """
    a, b = np.atleast_1d(*np.broadcast_arrays(np.asarray(a, dtype=float), np.asarray(b, dtype=float)))
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        raise ValueError("integration bounds must be finite")
    if (a > b).any():
        raise ValueError("require a <= b on every interval")
    order = 2 * GL_FIRST_ORDER
    if (order + GL_FIRST_ORDER) * a.size > GL_MAX_POINTS:
        raise QuadratureError(
            f"{a.size} pieces need more than GL_MAX_POINTS = {GL_MAX_POINTS} nodes in the first pass"
        )
    width = b - a
    (coarse, fine), mass = _panel_sums(f, a, width, (GL_FIRST_ORDER, order))
    while True:
        total, moved = fine.sum(axis=0), np.abs(fine - coarse)
        floor = max(1e-14 * float(mass.sum(axis=0).max()), sys.float_info.min)
        excess = moved.sum(axis=0) / np.maximum(REL_TOL * np.abs(total), floor)
        if not (excess > 1.0).any():
            return total if total.ndim else float(total)
        if 2 * order > GL_MAX_ORDER or 2 * order * a.size > GL_MAX_POINTS:
            break
        order *= 2
        coarse = fine
        (fine,), mass = _panel_sums(f, a, width, (order,))
    row = np.unravel_index(np.argmax(excess), excess.shape)
    i = (int(np.argmax(moved[(slice(None), *row)])), *row)
    raise QuadratureError(
        f"no convergence with {order} points per panel on "
        f"[{float(a[i])!r}, {float(b[i])!r}] (sum |I_2k - I_k| / tol ~ {float(excess[row]):.3e})",
        (float(a[i]), float(b[i])),
    )


def integrate(f: Callable[[float], float], a: float, b: float) -> float:
    """``gauss_legendre`` for a scalar integrand ``f`` over [a, b]; nothing here calls it."""
    return gauss_legendre(np.vectorize(f, otypes=[float]), a, b)
