"""Named sequences and polynomial families: Catalan, Narayana, Legendre,
Pell/Fibonacci/Lucas under their recurrence initial conditions."""

from __future__ import annotations

from fractions import Fraction

from .exact_core import QPolynomial, binomial, cached, horner, memo

# Recurrence initial values, indexed from -1.  Note the Fibonacci convention
# here starts F_{-1} = 0, F_0 = 1, giving F_1 = 1, F_2 = 2 -- shifted by one
# from the common indexing.  The identities in `identities` need exactly this.
_RECURRENCES = {
    "pell": (1, 0, 2),  # (G_{-1}, G_0, multiplier): G_{n+1} = m*G_n + G_{n-1}
    "lucas": (2, 1, 1),
    "fibonacci": (0, 1, 1),
}
# name -> [G_{-1}, G_0, G_1, ...], grown in place on demand, never rebuilt
_recurrence_values: dict = memo({})


def catalan(n: int) -> int:
    """The n-th Catalan number, exact."""
    if n < 0:
        raise ValueError(f"catalan: negative index {n}")
    return binomial(2 * n, n) // (n + 1)


def catalan_half(n: int) -> int:
    """C_{n/2} with the convention that it is zero for odd n."""
    if n < 0:
        raise ValueError(f"catalan_half: negative index {n}")
    if n % 2:
        return 0
    return catalan(n // 2)


def narayana_number(n: int, k: int) -> int:
    """N_{n,k} = (1/n) binom(n, k-1) binom(n, k), with N_{0,0} = 1."""
    if n < 0:
        raise ValueError(f"narayana_number: negative index {n}")
    if n == 0:
        return 1 if k == 0 else 0
    return binomial(n, k - 1) * binomial(n, k) // n


@cached
def narayana_poly(n: int) -> QPolynomial:
    """The Narayana polynomial in q: sum_k N_{n,k} q^k (1 for n = 0)."""
    if n < 0:
        raise ValueError(f"narayana_poly: negative index {n}")
    return QPolynomial([narayana_number(n, k) for k in range(n + 1)], "q")


def assoc_narayana_poly(n: int) -> QPolynomial:
    """The associated Narayana polynomial: narayana_poly(n) / q for n >= 1."""
    if n == 0:
        return QPolynomial.one("q")
    p = narayana_poly(n)
    return QPolynomial(p.coeffs[1:], "q")


@cached
def legendre_poly(n: int, form: str = "standard") -> QPolynomial:
    """Legendre polynomial, exact over the rationals.

    form="standard": P_n(x) from the 2^{-n} alternating central-binomial sum.
    form="shifted":  P_n(2x - 1) as sum_k binom(n+k, n-k) binom(2k, k) (x - 1)^k,
    summed by Horner's rule in x - 1; by contract it equals the standard form
    composed with 2x - 1.
    """
    if n < 0:
        raise ValueError(f"legendre_poly: negative index {n}")
    if form == "standard":
        scale = Fraction(1, 2**n)
        coeffs = [Fraction(0)] * (n + 1)
        for k in range(n // 2 + 1):
            c = (-1) ** k * binomial(n - k, k) * binomial(2 * n - 2 * k, n - k)
            coeffs[n - 2 * k] = scale * c
        return QPolynomial(coeffs, "x")
    if form == "shifted":
        return horner(QPolynomial((-1, 1), "x"), (
            binomial(n + k, n - k) * binomial(2 * k, k) for k in range(n, -1, -1)
        ))
    raise ValueError(f"legendre_poly: unknown form {form!r}")


def recurrence_seq(name: str, n: int) -> int:
    """Pell / Lucas / Fibonacci value at index n >= -1.

    Pell: P_{n+1} = 2 P_n + P_{n-1}, P_{-1} = 1, P_0 = 0.
    Lucas and Fibonacci: G_{n+1} = G_n + G_{n-1} with G_{-1} = 2, G_0 = 1
    and G_{-1} = 0, G_0 = 1 respectively.
    """
    if name not in _RECURRENCES:
        raise ValueError(f"recurrence_seq: unknown sequence {name!r}")
    if n < -1:
        raise ValueError(f"recurrence_seq: index {n} below -1")
    prev, cur, mult = _RECURRENCES[name]
    values = _recurrence_values.setdefault(name, [prev, cur])
    while len(values) <= n + 1:
        values.append(mult * values[-1] + values[-2])
    return values[n + 1]


def pell(n: int) -> int:
    return recurrence_seq("pell", n)


def lucas(n: int) -> int:
    return recurrence_seq("lucas", n)


def fibonacci(n: int) -> int:
    return recurrence_seq("fibonacci", n)
