"""Truncated generating-function checks: the Catalan series, the bivariate
Narayana series, Lagrange-inversion coefficients, and the Legendre generating
function."""

from __future__ import annotations

from fractions import Fraction

from .exact_core import PolySeries, QPolynomial, binomial
from .identities import CheckResult, _result
from .sequences import legendre_poly, narayana_poly

_Q = QPolynomial((0, 1), "q")


def catalan_series(order: int) -> PolySeries:
    """Catalan generating function C(x) through the given order.

    Built from the convolution recurrence C_n = sum C_i C_{n-1-i}; the
    functional equation C = 1 + x C^2 and the sqrt closed form are checked
    against it in tests.
    """
    if order < 0:
        raise ValueError("catalan_series: negative order")
    cs = [Fraction(1)]
    for n in range(1, order + 1):
        cs.append(sum(cs[i] * cs[n - 1 - i] for i in range(n)))
    return PolySeries(cs, order)


def omega_series(order: int) -> PolySeries:
    """The Narayana generating series: coefficient of x^n is narayana_poly(n)."""
    if order < 0:
        raise ValueError("omega_series: negative order")
    return PolySeries([narayana_poly(n) for n in range(order + 1)], order)


def omega_closed_form_check(order: int) -> CheckResult:
    """Closed form (1 + x - qx - sqrt(radicand)) / (2x) against omega_series.

    The radicand 1 - 2x + x^2 - 2qx - 2qx^2 + q^2 x^2 has constant
    coefficient 1, and the numerator vanishes at x^0, so the division by 2x
    is an exactness-checked coefficient shift.
    """
    if order < 1:
        raise ValueError("omega_closed_form_check: order must be >= 1")
    radicand = PolySeries(
        [
            QPolynomial.one("q"),
            QPolynomial((-2, -2), "q"),
            QPolynomial((1, -2, 1), "q"),
        ],
        order + 1,
    )
    numerator = PolySeries(
        [QPolynomial.one("q"), QPolynomial((1, -1), "q")], order + 1
    ) - radicand.sqrt()
    closed = numerator.shift_down(1) * Fraction(1, 2)
    return _result("omega_closed_form", order, closed, omega_series(order))


def omega_composition_check(variant: str, order: int) -> CheckResult:
    """The two composition forms of the Narayana series against omega_series.

    first:  (1 / (1 + x - qx)) * C(x / (1 + x - qx)^2)
    second: 1 + (qx / (1 - x - qx)) * C(q x^2 / (1 - x - qx)^2)
    """
    if order < 1:
        raise ValueError("omega_composition_check: order must be >= 1")
    c = catalan_series(order)
    x = PolySeries([0, 1], order)
    if variant == "first":
        d = PolySeries([QPolynomial.one("q"), QPolynomial((1, -1), "q")], order)
        inv_d = d.reciprocal()
        inner = x * (inv_d * inv_d)
        composed = c.compose(inner) * inv_d
    elif variant == "second":
        e = PolySeries([QPolynomial.one("q"), QPolynomial((-1, -1), "q")], order)
        inv_e = e.reciprocal()
        inner = (x * x) * (inv_e * inv_e) * _Q
        composed = c.compose(inner) * inv_e * x * _Q + 1
    else:
        raise ValueError(f"unknown composition variant {variant!r}")
    return _result(
        f"omega_composition_{variant}", order, composed, omega_series(order)
    )


_catalan_power_cache: dict = {}


def _catalan_power(exponent: int, order: int) -> PolySeries:
    """C(x)^exponent at the given order, cached incrementally over odd powers."""
    key = (exponent, order)
    if key not in _catalan_power_cache:
        if exponent == 0:
            _catalan_power_cache[key] = PolySeries.one(order)
        elif exponent <= 2:
            c = catalan_series(order)
            _catalan_power_cache[(1, order)] = c
            _catalan_power_cache[(2, order)] = c * c
        else:
            _catalan_power_cache[key] = _catalan_power(
                exponent - 2, order
            ) * _catalan_power(2, order)
    return _catalan_power_cache[key]


def lagrange_coefficient_check(n: int, k: int) -> CheckResult:
    """[x^{n-k}] C(x)^{2k+1} against (2k+1)/(2n+1) binom(2n+1, n-k)."""
    if not 0 <= k <= n:
        raise ValueError(f"lagrange_coefficient_check requires 0 <= k <= n, got {n=} {k=}")
    power = _catalan_power(2 * k + 1, n - k)
    lhs = power.coefficient(n - k).constant_value()
    rhs = Fraction((2 * k + 1) * binomial(2 * n + 1, n - k), 2 * n + 1)
    return _result("lagrange_coefficient", n, lhs, rhs)


def legendre_gf_check(order: int) -> CheckResult:
    """Generating function 1/sqrt(1 - 2xt + t^2): coefficient of t^n is P_n(x)."""
    if order < 0:
        raise ValueError("legendre_gf_check: negative order")
    radicand = PolySeries(
        [
            QPolynomial.one("x"),
            QPolynomial((0, -2), "x"),
            QPolynomial.one("x"),
        ],
        order,
    )
    series = radicand.sqrt().reciprocal()
    expected = PolySeries(
        [legendre_poly(n, "standard") for n in range(order + 1)], order
    )
    return _result("legendre_gf", order, series, expected)
