import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from voilab import quadrature
from voilab.model import _wait_cdf_kernel
from voilab.quadrature import (
    ABS_TOL,
    GL_FIRST_ORDER,
    GL_MAX_ORDER,
    QuadratureError,
    REL_TOL,
    _unit_panel,
    gauss_legendre,
    integrate,
)


def test_polynomial_exact():
    # A k-point Gauss-Legendre panel is exact through degree 2k - 1, so x^2
    # needs no refinement at all.
    assert integrate(lambda x: x * x, 0.0, 3.0) == pytest.approx(9.0, abs=1e-12)


def test_sine_against_reference():
    # Reference value 2.0 is the exact antiderivative; scipy.integrate.quad
    # agrees to 14 digits.
    assert integrate(math.sin, 0.0, math.pi) == pytest.approx(2.0, abs=1e-9)


def test_empty_interval_is_zero():
    assert integrate(math.exp, 1.25, 1.25) == 0.0


def test_reversed_interval_rejected():
    with pytest.raises(ValueError):
        integrate(math.exp, 1.0, 0.0)


def test_max_depth_error_carries_worst_subinterval():
    # The ~1300 periods of sin(40 x^2) on [0, 10] are not resolved by the
    # GL_MAX_ORDER-point panel, where doubling stops.
    with pytest.raises(QuadratureError) as err:
        integrate(lambda x: math.sin(40.0 * x * x), 0.0, 10.0)
    a, b = err.value.interval
    assert 0.0 <= a < b <= 10.0


def test_linearity():
    f = lambda x: math.sin(x) + 0.2 * x
    g = lambda x: math.exp(-x) * x * x
    a, b = 0.0, 2.5
    lhs = integrate(lambda x: 2.0 * f(x) + 3.0 * g(x), a, b)
    rhs = 2.0 * integrate(f, a, b) + 3.0 * integrate(g, a, b)
    tol = 2.0 * max(REL_TOL * abs(lhs), ABS_TOL)
    assert abs(lhs - rhs) <= tol


# ---------------------------------------------------------------------------
# Vectorised Gauss-Legendre panels
# ---------------------------------------------------------------------------

def test_gauss_legendre_integrates_many_intervals_at_once():
    a = np.array([0.0, 0.0, 1.0])
    b = np.array([math.pi, 1.0, 1.0])
    got = gauss_legendre(np.sin, a, b)
    assert got.shape == (3,)
    assert got == pytest.approx([2.0, 1.0 - math.cos(1.0), 0.0], rel=1e-12, abs=1e-15)
    assert isinstance(gauss_legendre(np.exp, 0.0, 1.0), float)
    assert gauss_legendre(np.exp, 0.0, 1.0) == pytest.approx(math.e - 1.0, rel=1e-13, abs=0.0)


def test_gauss_legendre_parameters_broadcast_against_the_bounds():
    # int_0^r k x dx = k r^2 / 2 for a grid of (k, r), one interval per pair.
    k = np.array([1.0, 2.0, 3.0])[:, None]
    r = np.broadcast_to([0.5, 1.0], (3, 2))
    got = gauss_legendre(lambda x: k * x, 0.0, r)
    assert got.shape == (3, 2)
    np.testing.assert_allclose(got, k * r * r / 2.0, rtol=1e-13)


def test_gauss_legendre_rejects_bad_bounds():
    with pytest.raises(ValueError):
        gauss_legendre(np.exp, 1.0, 0.0)
    with pytest.raises(ValueError):
        gauss_legendre(np.exp, 0.0, math.inf)


@pytest.mark.parametrize(
    "f", [lambda x: np.log(x - 0.5), lambda x: 1.0 / (x - x), lambda x: np.where(x > 0.7, np.inf, x)]
)
def test_gauss_legendre_nonfinite_integrand_is_numeric_failure(f):
    with pytest.raises(QuadratureError) as err:
        gauss_legendre(f, 0.0, 1.0)
    lo, hi = err.value.interval
    assert 0.0 <= lo == hi <= 1.0


def test_gauss_legendre_doubling_cap_names_the_worst_interval():
    # Up to GL_MAX_ORDER points resolve a few periods of sin(40 x^2) on
    # [0, 1] but not the ~1300 on [0, 10].
    with pytest.raises(QuadratureError) as err:
        gauss_legendre(lambda x: np.sin(40.0 * x * x), np.zeros(2), np.array([1.0, 10.0]))
    assert err.value.interval == (0.0, 10.0)


def test_gauss_legendre_unsplit_kink_exhausts_the_order_cap():
    # Splitting at kinks is the caller's job; an unsplit |x - 0.3| converges
    # only algebraically and cannot reach REL_TOL within the order cap.
    with pytest.raises(QuadratureError) as err:
        gauss_legendre(lambda x: np.abs(x - 0.3), 0.0, 1.0)
    assert err.value.interval == (0.0, 1.0)
    assert gauss_legendre(lambda x: np.abs(x - 0.3), np.array([0.0, 0.3]), np.array([0.3, 1.0])).sum() == (
        pytest.approx(0.29, rel=1e-13, abs=0.0)
    )


def _two_pass_reference(f, a, b):
    """The rule with an unfused first pass: a 16-point pass, a 32-point pass,
    then one pass per doubling, under the same test and the same bounds."""
    a, b = np.broadcast_arrays(np.asarray(a, dtype=float), np.asarray(b, dtype=float))
    width = b - a

    def sums(order):
        nodes, weights = _unit_panel(order)
        x = a + width * nodes.reshape((-1,) + (1,) * a.ndim)
        y = np.broadcast_to(f(x), x.shape).reshape(order, -1)
        return width * (weights @ y).reshape(a.shape), width * (weights @ np.abs(y)).reshape(a.shape)

    order = GL_FIRST_ORDER
    coarse, _ = sums(order)
    while 2 * order <= GL_MAX_ORDER and 2 * order * a.size <= quadrature.GL_MAX_POINTS:
        order *= 2
        fine, mass = sums(order)
        excess = np.abs(fine - coarse) / np.maximum(
            np.maximum(REL_TOL * np.abs(fine), ABS_TOL), 1e-14 * mass
        )
        if not (excess > 1.0).any():
            return fine if fine.ndim else float(fine), order
        coarse = fine
    i = np.unravel_index(np.argmax(excess), excess.shape) if a.ndim else ()
    return (float(a[i]), float(b[i])), None


def _passes(f):
    """``f`` with a list of the nodes per interval of every call, and one of the nodes of every call."""
    sizes, totals = [], []

    def counted(x):
        sizes.append(x.shape[0])
        totals.append(x.size)
        return f(x)

    return counted, sizes, totals


@pytest.mark.parametrize(
    "f, a, b, order",
    [
        (np.exp, 0.0, 1.0, 32),
        (lambda x: np.sin(3.0 * x) + x * x, np.zeros(3), np.array([0.5, 1.0, 2.0]), 32),
        (lambda x: np.sin(40.0 * x), 0.0, 6.0, 256),
        (lambda x: np.exp(-200.0 * x), np.zeros(2), np.array([1.0, 2.0]), 128),
    ],
)
def test_fused_first_pass_equals_the_two_pass_rule(f, a, b, order):
    want, want_order = _two_pass_reference(f, a, b)
    assert want_order == order
    counted, sizes, _ = _passes(f)
    got = gauss_legendre(counted, a, b)
    assert np.array_equal(got, want) and type(got) is type(want)
    # One call at the 16- and 32-point nodes together, then one per doubling.
    assert sizes == [48] + [2**k for k in range(6, order.bit_length())]


def test_fused_first_pass_fails_on_the_interval_the_two_pass_rule_names():
    f = lambda x: np.sin(40.0 * x * x)
    a, b = np.zeros(3), np.array([1.0, 10.0, 3.0])
    want, order = _two_pass_reference(f, a, b)
    assert order is None and want == (0.0, 10.0)
    with pytest.raises(QuadratureError) as err:
        gauss_legendre(f, a, b)
    assert err.value.interval == want
    assert str(err.value).startswith(f"no convergence with {GL_MAX_ORDER} points per panel on [0.0, 10.0]")


def test_no_pass_asks_for_more_than_gl_max_points(monkeypatch):
    # Four intervals: the fused pass holds 4 * 48 = 192 nodes, and doubling to
    # 64 points (256 nodes) would outgrow the bound, so it stops at 32.
    monkeypatch.setattr(quadrature, "GL_MAX_POINTS", 192)
    a, b = np.zeros(4), np.arange(1.0, 5.0)
    counted, _, totals = _passes(np.exp)
    assert gauss_legendre(counted, a, b) == pytest.approx(np.expm1(b), rel=1e-14, abs=0.0)
    assert totals == [192]
    counted, _, totals = _passes(lambda x: np.sin(40.0 * x))
    with pytest.raises(QuadratureError, match="no convergence with 32 points"):
        gauss_legendre(counted, a, b)
    assert totals == [192]
    # Five intervals would need 240 nodes in the first pass: nothing is evaluated.
    counted, _, totals = _passes(np.exp)
    with pytest.raises(QuadratureError, match="GL_MAX_POINTS"):
        gauss_legendre(counted, np.zeros(5), np.ones(5))
    assert totals == []


def test_fused_first_pass_names_the_first_non_finite_node_of_the_coarse_panel():
    # Both panels see the pole; the 16-point nodes come first, as a 16-point pass would name them.
    f = lambda x: np.where(x > 0.5, np.inf, x)
    nodes = _unit_panel(GL_FIRST_ORDER)[0]
    with pytest.raises(QuadratureError) as err:
        gauss_legendre(f, 0.0, 1.0)
    assert err.value.interval[0] == float(nodes[nodes > 0.5][0])


def _wait_kernel_oracle(s, rem, lam):
    # The defining integral, with 1 - exp(-x) written as -expm1(-x) so that
    # the oracle itself keeps its accuracy for small lam, and cut into pieces
    # that resolve the boundary layers of width 1/lam above w = 0 and below
    # w = s.  Past m = min(rem, s) the integrand is (rem - w) (1 - exp(-lam s)).
    m = min(rem, s)
    layers = (k / lam for k in (0.3, 3.0, 30.0))
    cuts = sorted({0.0, m, rem, *(c for t in layers for c in (t, s - t) if 0.0 < c < m)})
    f = lambda w: (rem - w) * math.exp(-lam * (s - min(w, s))) * -math.expm1(-lam * min(w, s))
    return sum(quad(f, a, b, epsabs=0.0, epsrel=1e-13, limit=200)[0] for a, b in zip(cuts, cuts[1:]))


@settings(max_examples=60, deadline=None)
@given(
    st.floats(-8.0, 3.0),
    st.lists(st.tuples(st.floats(1e-3, 6.0), st.floats(1e-3, 6.0)), min_size=1, max_size=6),
)
def test_wait_kernel_matches_its_defining_integral(log10_lam, pairs):
    lam = 10.0**log10_lam
    s = np.array([p[0] for p in pairs])
    rem = np.array([p[1] for p in pairs])
    got = _wait_cdf_kernel(s, rem, lam)
    want = [_wait_kernel_oracle(si, ri, lam) for si, ri in pairs]
    np.testing.assert_allclose(got, want, rtol=1e-10, atol=0.0)


@pytest.mark.parametrize("lam", [1e20, 1e300, sys.float_info.max])
def test_wait_kernel_reaches_its_infinite_rate_limit(lam):
    # Once lam is large, W' <= w holds on [s, rem) and fails before, so the
    # kernel is max(rem - s, 0)^2 / 2, with no overflow however large lam m is.
    # Where s = rem = m the one term left is m^2 P(3, lam m) / (lam m)^2 = 1/lam^2.
    s = np.array([1e-3, 0.5, 2.0, 3.0, 7.0, 1e3])
    rem = np.array([7.0, 3.0, 2.0, 0.5, 1e-3, 1e-2])
    want = 0.5 * np.maximum(rem - s, 0.0) ** 2 + np.where(s == rem, 1.0 / lam / lam, 0.0)
    np.testing.assert_allclose(_wait_cdf_kernel(s, rem, lam), want, rtol=1e-12, atol=0.0)
