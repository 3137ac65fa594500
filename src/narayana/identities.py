"""Identity registry: every displayed identity evaluated as exact left/right sides,
plus the Legendre, left-inversion, and binomial inverse relations, whose weight rows
are kept per relation and grown on demand: memory is the rows up to the longest length asked.

Each identity is one `_REGISTRY` row holding its two sides as separate
callables, and the sides run on different helpers (e.g. Catalan via the
closed binomial formula on one side and via the convolution recurrence on
the other) so a shared bug cannot self-certify.  Both sides may use
`binomial` and the `QPolynomial` ring operations; beyond those the only
helpers both sides of a check reach, as `TestSideIndependence` pins, are
- `horner`, and through it `exact_core._mul_into`, for `coker_b1`, which
  sums both sides by Horner's rule;
- `legendre_poly`, `QPolynomial.substitute`, `horner` and `_mul_into` for
  `legendre_reflection`, which reflects one Legendre polynomial, as a
  reflection symmetry must.

Most sides are sums sum_k a_k(q) B(q)^(m-k) with B one of 1 +- q, q - 1,
-1 - q, q(1 + q) or +-(1 +- q)^2.  Each is evaluated by `exact_core.horner`:
acc = acc * B + a_k, highest power of B first, so a term costs one product by
the 2-3-term B instead of a fresh power of B.  The sum runs on one coefficient
list: the terms are scaled by one common denominator of their coefficients,
every step is `int` arithmetic, and the list is divided once at the end.  Bare
monomials c q^j are built directly, never as powers of q.

Sums that recur have one body each:
- `_EXPANSIONS` holds the paper's expansions (3.7)-(3.9) as family ->
  (B, (scale, polynomial)); `expansion` sums one by Horner's rule, the pairs
  scaled into horner's own list, and `expansion_term` is its summand k
  multiplied out, the weight of family D, P or Q at (n, k).  (3.8)'s sum at
  m = 2n+1 is -f_n and at m = 2n is catlan2's rhs;
- `_alternating_catalan(m, b)` = sum_k (-1)^k binom(m, k) C_{k+1} b^(m-k) is
  (3.8) at q = 1 (m = 2n, b = 2) and (3.9) at q = -1 (m = n, b = 4);
- `_app_recurrence` = sum_k (-1)^k binom(m, k) N_{k+1}(x0) G_j [2^j] is the
  rhs of the four Pell/Lucas/Fibonacci applications, one registry row each.

Three memos, each registered with `exact_core.cached`, build the sums'
n-independent pieces once per process: `expansion(family, n)`, whose values
are the other sides' C_n, C_{m/2} q^{m/2+1}, zero and C_{n+1} q^{n+2}, so a
sweep sums each (3.8) sum once for main_38, catlan2 and f_poly;
`_at_q_squared(k)` = N_k(q^2) for (3.9); and `_narayana_at(k, point)` = N_k at
2 or 5 for `_app_recurrence`.  Each serves one side of its checks.
"""

from __future__ import annotations

import math
from collections import namedtuple
from collections.abc import Sequence
from fractions import Fraction
from itertools import repeat, zip_longest
from math import comb
from operator import index, mul

from .exact_core import IndeterminateMismatchError, QPolynomial, binomial, cached, horner, memo
from .sequences import (
    catalan,
    catalan_half,
    fibonacci,
    legendre_poly,
    lucas,
    narayana_poly,
    pell,
)

_ONE_MINUS_Q = QPolynomial((1, -1), "q")
_ONE_PLUS_Q = QPolynomial((1, 1), "q")
_MINUS_ONE_MINUS_Q = QPolynomial((-1, -1), "q")
_Q_MINUS_ONE = QPolynomial((-1, 1), "q")
_ONE_PLUS_Q_SQUARED = QPolynomial((1, 2, 1), "q")  # (1+q)^2
_MINUS_ONE_MINUS_Q_SQUARED = QPolynomial((-1, 2, -1), "q")  # -(1-q)^2
_Q_ONE_PLUS_Q = QPolynomial((0, 1, 1), "q")  # q(1+q)
_ONE_PLUS_X = QPolynomial((1, 1), "x")


CheckResult = namedtuple("CheckResult", "identity n lhs rhs equal")
CheckResult.__doc__ = """One check at one n, as an immutable named tuple: the identity's tag,
n, its two exact sides, and whether they are equal."""


def _result(identity: str, n: int, lhs, rhs) -> CheckResult:
    return CheckResult(identity, n, lhs, rhs, lhs == rhs)


_catalan_memo: list = memo([])


def _catalan_rec(n: int) -> int:
    """Catalan via the convolution recurrence; independent of the formula path."""
    while len(_catalan_memo) <= n:
        m = len(_catalan_memo)
        _catalan_memo.append(
            sum(_catalan_memo[i] * _catalan_memo[m - 1 - i] for i in range(m)) if m else 1
        )
    return _catalan_memo[n]


def _narayana_direct(n: int) -> list:
    """N_{n,1}, ..., N_{n,n} straight from binomials, bypassing narayana_poly."""
    return [Fraction(binomial(n, k - 1) * binomial(n, k), n) for k in range(1, n + 1)]


# -- the individual identities ------------------------------------------------


def _coker_a1_rhs(n: int) -> QPolynomial:
    # sum_k a_k q^k (1+q)^(n-1-2k), with (1+q)^((n-1) mod 2) factored out
    rhs = horner(_ONE_PLUS_Q_SQUARED, (
        QPolynomial.monomial(binomial(n - 1, 2 * k) * catalan(k), k, "q")
        for k in range((n - 1) // 2 + 1)
    ))
    return rhs * _ONE_PLUS_Q if (n - 1) % 2 else rhs


@cached
def _at_q_squared(k: int) -> QPolynomial:
    """N_k(q^2), by spreading N_k's coefficients over the even degrees."""
    return QPolynomial([c for a in narayana_poly(k).coeffs for c in (a, 0)], "q")


# The paper's expansions (3.7), (3.8) and (3.9): family -> (B, a(n, k)), the
# sum being sum_{k=0}^{n} a(n, k) B^(n-k) with a(n, k) a (scale, polynomial)
# pair that horner multiplies out.  The lambdas, and the memos `expansion` and
# `_at_q_squared`, look binomial and narayana_poly up when called, so a
# replaced module attribute is what runs once `clear_caches()` has emptied them.
_EXPANSIONS = {
    "D": (_ONE_MINUS_Q, lambda n, k: (
        Fraction((2 * k + 1) * binomial(2 * n + 1, n - k), 2 * n + 1), narayana_poly(k)
    )),
    "P": (_MINUS_ONE_MINUS_Q, lambda n, k: (binomial(n, k), narayana_poly(k + 1))),
    "Q": (_MINUS_ONE_MINUS_Q_SQUARED, lambda n, k: (binomial(n, k), _at_q_squared(k + 1))),
}


@cached
def expansion(family: str, n: int) -> QPolynomial:
    """The right-hand side of family D's, P's or Q's expansion at n, summed by
    Horner's rule in its B."""
    base, summand = _EXPANSIONS[family]
    return horner(base, (summand(n, k) for k in range(n + 1)))


def expansion_term(family: str, n: int, k: int) -> QPolynomial:
    """Summand k of family D's, P's or Q's expansion at n: a(n, k) B^(n-k),
    zero outside 0 <= k <= n as the family's weight sum is."""
    base, summand = _EXPANSIONS[family]
    if not 0 <= k <= n:
        return QPolynomial.zero("q")
    return mul(*summand(n, k)) * base ** (n - k)


def f_poly(n: int) -> QPolynomial:
    """f_n(q) = sum_{k=0}^{2n+1} (-1)^k binom(2n+1,k) N_{k+1}(q) (1+q)^{2n+1-k},
    which is minus (3.8)'s sum at 2n+1."""
    return -expansion("P", 2 * n + 1)


def _app_pow2_rhs(n: int) -> Fraction:
    return Fraction(sum(
        (-1) ** r * (4 * r + 3) * binomial(2 * n + 1, n - 2 * r - 1)
        * 2 ** (n - 2 * r - 1) * _catalan_rec(r) for r in range((n - 1) // 2 + 1)
    ), 2 * n + 1)


def _alternating_catalan(m: int, b: int) -> Fraction:
    """sum_{k=0}^{m} (-1)^k binom(m, k) C_{k+1} b^{m-k}."""
    return Fraction(sum(
        (-1) ** k * binomial(m, k) * _catalan_rec(k + 1) * b ** (m - k) for k in range(m + 1)
    ))


@cached
def _narayana_at(k: int, point: int) -> int:
    """N_k(point), one value per (k, point) for the four applications' sums."""
    return narayana_poly(k)(point)


def _app_recurrence(n: int, point: int, seq, shift: int, powers_of_two: bool) -> Fraction:
    """sum_{k=0}^{m} (-1)^k binom(m, k) N_{k+1}(point) G_j [2^j], the rhs of
    point^{n+1} C_{m+1}, with m = 2n + (shift > 0), j = 4n - 2k + shift and
    G = seq.  Summed in `int`, 2^j (j >= -1) as a shift by j + 1 over one
    final halving."""
    m = 2 * n + (shift > 0)
    total = 0
    for k in range(m + 1):
        j = 4 * n - 2 * k + shift
        term = binomial(m, k) * _narayana_at(k + 1, point) * seq(j)
        total += (-1) ** k * (term << (j + 1) if powers_of_two else term)
    return Fraction(total, 2 if powers_of_two else 1)


# tag -> (minimum admissible n, lhs(n), rhs(n)).  Each side names its helpers
# inside a lambda or a function, so a replaced module attribute is what runs.
_REGISTRY = {
    "coker_a1": (1, lambda n: QPolynomial(_narayana_direct(n), "q"), _coker_a1_rhs),
    # sum_k N_{n,k} q^(2(k-1)) ((1+q)^2)^(n-k) = sum_k binom(n-1, k) C_{k+1} (q(1+q))^k
    "coker_b1": (1, lambda n: horner(_ONE_PLUS_Q_SQUARED, (
        QPolynomial.monomial(c, 2 * i, "q") for i, c in enumerate(_narayana_direct(n))
    )), lambda n: horner(_Q_ONE_PLUS_Q, (
        binomial(n - 1, k) * catalan(k + 1) for k in range(n - 1, -1, -1)
    ))),
    "new_expansion_c1": (0, lambda n: narayana_poly(n), lambda n: horner(_Q_MINUS_ONE, (
        binomial(n + 1, k) * binomial(2 * n - k, n) for k in range(n, -1, -1)
    )) * Fraction(1, n + 1)),
    "equivalent_b2": (0, lambda n: narayana_poly(n), lambda n: horner(_Q_MINUS_ONE, (
        Fraction(binomial(n + k, n - k) * binomial(2 * k, k), k + 1) for k in range(n + 1)
    ))),
    # the expansions (3.7)-(3.9); (3.8)'s lhs is zero for odd n
    "main_37": (0, lambda n: QPolynomial.constant(_catalan_rec(n), "q"),
                lambda n: expansion("D", n)),
    "main_38": (0, lambda n: QPolynomial.monomial(catalan_half(n), n // 2 + 1, "q"),
                lambda n: expansion("P", n)),
    "main_39": (0, lambda n: QPolynomial.monomial(catalan(n + 1), n + 2, "q"),
                lambda n: expansion("Q", n)),
    # holds only from n=1: the convention here sets the zeroth Narayana
    # polynomial to 1, so its value at -1 is 1, not 0; for odd n the rhs is
    # (-1)^(r+1) C_r with r = (n-1)/2 = n // 2
    "parity": (1, lambda n: narayana_poly(n)(-1),
               lambda n: (-1) ** (n // 2 + 1) * catalan(n // 2) if n % 2 else Fraction(0)),
    "simons_aa": (0, lambda n: horner(_ONE_PLUS_X, (
        (-1) ** (n - k) * binomial(n + k, n - k) * binomial(2 * k, k) for k in range(n, -1, -1)
    )), lambda n: QPolynomial(
        [binomial(n + k, n - k) * binomial(2 * k, k) for k in range(n + 1)], "x"
    )),
    "legendre_reflection": (
        0,
        lambda n: (-1) ** n * legendre_poly(n, "standard").substitute(QPolynomial((-1, -2), "x")),
        lambda n: legendre_poly(n, "standard").substitute(QPolynomial((1, 2), "x")),
    ),
    "lemma_f_zero": (0, lambda n: f_poly(n), lambda n: QPolynomial.zero("q")),
    "catlan2": (0, lambda n: QPolynomial.monomial(catalan(n), n + 1, "q"),
                lambda n: expansion("P", 2 * n)),
    "alt_sum_310": (1, lambda n: Fraction(sum(
        (-1) ** k * (2 * k + 1) * binomial(2 * n + 1, n - k) for k in range(n + 1)
    ), 2 * n + 1), lambda n: Fraction(0)),
    "app_pow2": (0, lambda n: (2**n - 1) * catalan(n), _app_pow2_rhs),
    # (3.8) at q = 1 and (3.9) at q = -1
    "app_q1_38": (0, lambda n: catalan(n), lambda n: _alternating_catalan(2 * n, 2)),
    "app_qm1_39": (0, lambda n: catalan(n + 1), lambda n: _alternating_catalan(n, 4)),
    "app_touchard": (0, lambda n: catalan(n + 1), lambda n: Fraction(sum(
        binomial(n, 2 * k) * _catalan_rec(k) * 2 ** (n - 2 * k) for k in range(n // 2 + 1)
    ))),
    # point^{n+1} C_{m+1} against _app_recurrence(n, point, G, shift, ...)
    "app_pell_odd": (0, lambda n: 2 ** (n + 1) * catalan(2 * n + 1),
                     lambda n: _app_recurrence(n, 2, pell, -1, False)),
    "app_pell_even": (0, lambda n: 2 ** (n + 1) * catalan(2 * n + 2),
                      lambda n: _app_recurrence(n, 2, pell, 2, False)),
    "app_lucas": (0, lambda n: 5 ** (n + 1) * catalan(2 * n + 1),
                  lambda n: _app_recurrence(n, 5, lucas, -1, True)),
    "app_fibonacci": (0, lambda n: 5 ** (n + 1) * catalan(2 * n + 2),
                      lambda n: _app_recurrence(n, 5, fibonacci, 1, True)),
}

IDENTITY_TAGS = tuple(_REGISTRY)


def identity_min_n(tag: str) -> int:
    if tag not in _REGISTRY:
        raise ValueError(f"unknown identity tag {tag!r}")
    return _REGISTRY[tag][0]


def check_identity(tag: str, n: int) -> CheckResult:
    """Evaluate both sides of the tagged identity at n, exactly."""
    if tag not in _REGISTRY:
        raise ValueError(f"unknown identity tag {tag!r}")
    min_n, lhs, rhs = _REGISTRY[tag]
    if n < min_n:
        raise ValueError(f"identity {tag} requires n >= {min_n}, got {n}")
    return _result(tag, n, lhs(n), rhs(n))


def integral_representation_check(n: int) -> CheckResult:
    """Narayana polynomial as the integral of a shifted Legendre polynomial.

    With A(t) the antiderivative of P_n(2x-1), the substitution t = q/(q-1)
    against the (q-1)^{n+1} prefactor turns each monomial a_j t^j into
    a_j q^j (q-1)^{n+1-j}, so the whole check stays polynomial; A has degree
    n + 1, and the sum over j = 1..n+1 is taken by Horner's rule in q - 1.
    """
    if n < 1:
        raise ValueError(f"integral representation is stated for n >= 1, got {n}")
    anti = legendre_poly(n, "shifted").antiderivative()
    value = horner(_Q_MINUS_ONE, (
        QPolynomial.monomial(anti.coefficient(j), j, "q") for j in range(1, n + 2)
    ))
    return _result("integral_representation", n, narayana_poly(n), value)


def lemma_difference_argument(n: int) -> bool:
    """Certify f_n(q) = 0 in integers only, without expanding f_n.

    With N = 2n+1, coefficient m of f_n is sum_k (-1)^k binom(N, k) P_m(k),
    P_m(k) = sum_j N_{k+1,j} binom(N-k, m-j), read from narayana_poly(k+1).
    Three checks carry the proof.
    - Engine: S_i = sum_k (-1)^k binom(N, k) k^i is 0 for i < N, (-1)^N N! at N.
    - Tie: N_{k+1,j} = F_j(k) / (j! (j-1)!) at every k <= N, j <= n+1, with the
      int polynomial F_j = (k+1)k...(k-j+3) * k(k-1)...(k-j+2) of degree 2j-2.
      So for 1 <= m <= n+1, P_m agrees at k = 0..N with a polynomial of degree
      at most 2m-2 <= 2n, and its alternating sum, a combination of S_0..S_2n,
      is 0.
    - Palindromes: each narayana_poly(k+1) is palindromic of degree k+2 with
      zero constant term, and (1+q)^(N-k) of degree N-k, so q^{2n+3} f_n(1/q)
      = f_n(q) term by term; each m in n+2..2n+2 maps onto 2n+3-m <= n+1, and
      2n+3 onto the zero coefficient 0.
    """
    if n < 0:
        raise ValueError(f"lemma_difference_argument requires n >= 0, got {n}")
    big = 2 * n + 1
    # engine: the power sums S_0..S_N
    weights = [(-1) ** k * binomial(big, k) for k in range(big + 1)]
    powers, sums = [1] * (big + 1), []
    for _ in range(big + 1):
        sums.append(sum(w * p for w, p in zip(weights, powers)))
        powers = [p * k for k, p in enumerate(powers)]
    if any(sums[:big]) or sums[big] != (-1) ** big * math.factorial(big):
        return False
    stored = [narayana_poly(k + 1).coeffs for k in range(big + 1)]
    # high window: every summand is palindromic of degree 2n+3
    for k, c in enumerate(stored):
        padded = list(c) + [0] * (k + 3 - len(c))
        if len(padded) != k + 3 or padded[0] != 0 or padded != padded[::-1]:
            return False
    if any(binomial(j, i) != binomial(j, j - i) for j in range(big + 1) for i in range(j + 1)):
        return False
    # low window: tie F_j to the stored coefficients, F_j(k) grown as a value
    # by F_1 = 1 and F_{j+1}(k) = F_j(k) (k + 2 - j)(k + 1 - j)
    dens = [math.factorial(j) * math.factorial(j - 1) for j in range(1, n + 2)]
    for k, c in enumerate(stored):
        value = 1
        for j, den in enumerate(dens, 1):
            if divmod(value, den) != ((c[j] if j < len(c) else 0), 0):
                return False
            value *= (k + 2 - j) * (k + 1 - j)
    return True


# -- inverse relations ---------------------------------------------------------


def _triangular(name: str, seq: Sequence, rows) -> list:
    """Apply a lower-triangular integer matrix to `seq` over one denominator.

    `rows(m)` yields, for an input of length m, one (weights, divisor) pair per
    output row n: the integers M(n, 0), M(n, 1), ... and d_n, so that output n
    is sum_k M(n, k) seq[k] / d_n.  The input is scaled once to integer columns
    over L, the lcm of all its denominators (column i: coefficient i of every
    input), so each output coefficient is one dot product of a weight row with
    a column, divided once by L * d_n, in the one indeterminate of the
    non-constant inputs (the first input's if none)."""
    seq = [a if isinstance(a, QPolynomial) else QPolynomial.constant(a) for a in seq]
    if not seq:
        raise ValueError(f"{name}: empty sequence")
    indeterminates = {a.var for a in seq if not a.is_constant}
    if len(indeterminates) > 1:
        raise IndeterminateMismatchError(f"{name}: sequence mixes {sorted(indeterminates)}")
    var = indeterminates.pop() if indeterminates else seq[0].var
    lcm = math.lcm(*(c.denominator for a in seq for c in a.coeffs))
    columns = list(zip_longest(
        *([c.numerator * (lcm // c.denominator) for c in a.coeffs] for a in seq), fillvalue=0
    ))
    out = []
    for weights, divisor in rows(len(seq)):
        total = [sum(map(mul, weights, column)) for column in columns]
        den = lcm * divisor
        out.append(QPolynomial(total if den == 1 else [Fraction(t, den) for t in total], var))
    return out


def _alternate(row) -> list:
    """The n+1 entries of row n as a list, entry k times (-1)^(n-k)."""
    row = list(row)
    row[-2::-2] = [-c for c in row[-2::-2]]
    return row


# relation -> row n as (weights, divisor); "left forward" rows are whole, cut by map(mul)
_ROWS = {
    "legendre forward": lambda n: (list(map(comb, range(n, 2 * n + 1), range(n, -1, -1))), 1),
    "legendre backward": lambda n: (_alternate(map(mul, range(1, 2 * n + 2, 2), map(
        comb, repeat(2 * n + 1), range(n, -1, -1)))), 2 * n + 1),
    "binomial forward": lambda n: (list(map(comb, repeat(n), range(n + 1))), 1),
    "binomial backward": lambda n: (_alternate(map(comb, repeat(n), range(n + 1))), 1),
    "left forward": lambda n, s, p: (
        list(map(comb, repeat(n + p), range(p, p + s * (n // s) + 1, s))), 1),
    "left": lambda n, s, p: (_alternate(map(comb, repeat(s * n + p), range(p, s * n + p + 1))), 1),
}
_rows_memo: dict = memo({})


def _rows(count: int, *key) -> list:
    """Rows 0..count-1 of relation key[0] at parameters key[1:], grown in `_rows_memo`
    by slice at their own indices, so threads growing one key misplace no row."""
    rows = _rows_memo.setdefault(key, [])
    start = len(rows)
    rows[start:count] = [_ROWS[key[0]](n, *key[1:]) for n in range(start, count)]
    return rows[:count]


def _check_direction(name: str, direction: str) -> None:
    if direction not in ("forward", "backward"):
        raise ValueError(f"{name}: unknown direction {direction!r}")


def _left_args(name: str, **args) -> list:
    """s, p (and length) through `operator.index` (a bool passes), then range-checked."""
    for arg, value in args.items():
        try:
            args[arg] = index(value)
        except TypeError:
            raise TypeError(f"{name}: {arg} must be an integer, got {value!r}") from None
    if args["s"] < 1 or args["p"] < 0 or args.get("length", 0) < 0:
        raise ValueError(f"{name}: needs s >= 1, p >= 0 (and length >= 0), got {args}")
    return list(args.values())


def legendre_inverse(direction: str, seq: Sequence) -> list:
    """The Legendre inverse pair of sequence transforms.

    forward:  A_n = sum_k binom(n+k, n-k) B_k
    backward: B_n = sum_k (-1)^{n-k} (2k+1)/(2n+1) binom(2n+1, n-k) A_k
    """
    _check_direction("legendre_inverse", direction)
    return _triangular("legendre_inverse", seq, lambda m: _rows(m, f"legendre {direction}"))


def binomial_inverse(direction: str, seq: Sequence) -> list:
    """The binomial transform and its inverse (mutually inverse maps)."""
    _check_direction("binomial_inverse", direction)
    return _triangular("binomial_inverse", seq, lambda m: _rows(m, f"binomial {direction}"))


def left_inversion_forward(s: int, p: int, seq: Sequence, length: int) -> list:
    """Generate A_n = sum_{k <= n/s} binom(n+p, sk+p) B_k, n < length."""
    s, p, length = _left_args("left_inversion_forward", s=s, p=p, length=length)
    return _triangular("left_inversion_forward", seq, lambda _: _rows(length, "left forward", s, p))


def left_inversion(s: int, p: int, seq: Sequence) -> list:
    """Recover B from A under the one-directional left-inversion formula:
    B_n = sum_{k=0}^{sn} (-1)^{sn-k} binom(sn+p, k+p) A_k."""
    s, p = _left_args("left_inversion", s=s, p=p)
    return _triangular("left_inversion", seq, lambda m: _rows((m - 1) // s + 1, "left", s, p))


def catalan_parity_scan(limit: int) -> list:
    """Indices n <= limit with C_n odd; verifies the mod-2 congruences en route.

    C_{2k} is even for k >= 1 and C_{2k-1} = C_{k-1} (mod 2), which forces
    oddness exactly at n = 2^j - 1.
    """
    if limit < 0:
        raise ValueError("catalan_parity_scan: negative limit")
    parities = []
    c = 1
    for n in range(limit + 1):
        parities.append(c % 2)
        c = c * 2 * (2 * n + 1) // (n + 2)
    for k in range(1, limit // 2 + 1):
        if parities[2 * k] != 0:
            raise ArithmeticError(f"congruence C_{{2k}} = 0 (mod 2) fails at k={k}")
        if parities[2 * k - 1] != parities[k - 1]:
            raise ArithmeticError(
                f"congruence C_{{2k-1}} = C_{{k-1}} (mod 2) fails at k={k}"
            )
    return [n for n, par in enumerate(parities) if par == 1]
