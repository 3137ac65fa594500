"""Truncated generating-function checks: the Catalan series, the bivariate
Narayana series, Lagrange-inversion coefficients, and the Legendre generating
function."""

from __future__ import annotations

from fractions import Fraction

from . import identities
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
    return PolySeries(_catalan_power(1, order), order)


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

    Each inner series is kept as a one-term numerator over the square of a
    two-term denominator, so the composition divides by three nonzero
    coefficients a step instead of multiplying by a dense series.
    """
    if order < 1:
        raise ValueError("omega_composition_check: order must be >= 1")
    c = catalan_series(order)
    x = PolySeries([0, 1], order)
    if variant == "first":
        d = PolySeries([QPolynomial.one("q"), QPolynomial((1, -1), "q")], order)
        composed = c.compose(x, d * d) / d
    elif variant == "second":
        e = PolySeries([QPolynomial.one("q"), QPolynomial((-1, -1), "q")], order)
        composed = c.compose(x * x * _Q, e * e) / e * x * _Q + 1
    else:
        raise ValueError(f"unknown composition variant {variant!r}")
    return _result(
        f"omega_composition_{variant}", order, composed, omega_series(order)
    )


# odd exponent e -> [x^0], [x^1], ... of C(x)^e as ints, grown on demand
_catalan_power_cache: dict = {}


def _catalan_power(exponent: int, order: int) -> list:
    """Coefficients of C(x)^exponent through x^order, for odd exponent >= 1.

    Each power is grown in place and only past what is already cached, so
    every coefficient is computed once: C itself from the values of
    `identities._catalan_rec`, and C^e = C^(e-2) * C^2, where the x^m
    coefficient of C^2 is C_{m+1} by the convolution recurrence
    C_{m+1} = sum C_i C_{m-i}.
    """
    catalan = _catalan_power_cache.setdefault(1, [])
    catalan += map(identities._catalan_rec, range(len(catalan), order + 2))
    for e in range(3, exponent + 1, 2):
        lower = _catalan_power_cache[e - 2]
        cs = _catalan_power_cache.setdefault(e, [1])
        for m in range(len(cs), order + 1):
            cs.append(sum(lower[i] * catalan[m + 1 - i] for i in range(m + 1)))
    return _catalan_power_cache[exponent][: order + 1]


def lagrange_coefficient_check(n: int, k: int) -> CheckResult:
    """[x^{n-k}] C(x)^{2k+1} against (2k+1)/(2n+1) binom(2n+1, n-k)."""
    if not 0 <= k <= n:
        raise ValueError(f"lagrange_coefficient_check requires 0 <= k <= n, got {n=} {k=}")
    lhs = _catalan_power(2 * k + 1, n - k)[n - k]
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
    series = radicand._power(Fraction(-1, 2))
    expected = PolySeries(
        [legendre_poly(n, "standard") for n in range(order + 1)], order
    )
    return _result("legendre_gf", order, series, expected)
