"""Exact scalar, polynomial, and truncated power-series arithmetic.

Everything here is pure and immutable: a rational coefficient is stored as
an `int` when it is whole and as a `fractions.Fraction` otherwise (never a
`Fraction` with denominator 1), polynomials are dense coefficient tuples, and
series are fixed-order coefficient vectors.  No floating point anywhere:
coefficient intake rejects a `float` or any other non-rational value.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from fractions import Fraction
from functools import lru_cache

Scalar = int | Fraction

_CACHES: list = []  # every process-wide memo, registered where it is defined


def memo(cache):
    """Register a dict, list or lru_cache wrapper for clear_caches; return it."""
    _CACHES.append(cache)
    return cache


def cached(fn):
    """fn behind an unbounded, registered lru_cache."""
    return memo(lru_cache(maxsize=None)(fn))


def clear_caches() -> None:
    """Empty every registered memo, leaving the caches of a fresh process."""
    for cache in _CACHES:
        (getattr(cache, "cache_clear", None) or cache.clear)()


class IndeterminateMismatchError(ValueError):
    """Combining polynomials written in different indeterminates."""


class SeriesPreconditionError(ValueError):
    """A series operation was given an input outside its domain."""


def binomial(n: int, k: int) -> int:
    """Binomial coefficient with the out-of-range convention binom(n, k) = 0.

    Sums over Narayana-style terms rely on binom(n, k-1) vanishing at k = 0,
    so k < 0 and k > n return 0 instead of raising.  Negative n is rejected.
    """
    if n < 0:
        raise ValueError(f"binomial: negative upper index {n}")
    if k < 0 or k > n:
        return 0
    return math.comb(n, k)


def _as_scalar(c) -> Scalar:
    """Exact coefficient intake: a whole rational becomes an `int`, any other
    rational a `Fraction`; a `float` or other non-rational raises TypeError."""
    if type(c) is int:
        return c
    if isinstance(c, Fraction):
        return c.numerator if c.denominator == 1 else c
    if isinstance(c, int):
        return int(c)
    raise TypeError(
        f"exact coefficient must be an int or a Fraction, got {type(c).__name__} {c!r}"
    )


def _mul_into(out: list, a, b, weight: Scalar = 1) -> None:
    """Add weight * a[i] * b[j] into out[i + j] for each nonzero a[i]: the one
    schoolbook product, for QPolynomial.__mul__, horner and _combine."""
    for i, ca in enumerate(a):
        if ca:
            ca *= weight
            for j, cb in enumerate(b, i):
                out[j] += ca * cb


class QPolynomial:
    """Dense univariate polynomial over the rationals in a named indeterminate.

    Coefficients are stored low degree first, each an `int` when whole and a
    `Fraction` otherwise; the trailing stored coefficient is nonzero, and the
    zero polynomial stores nothing.  Constants are compatible with any
    indeterminate; combining two non-constant polynomials in different
    indeterminates raises IndeterminateMismatchError.
    """

    __slots__ = ("coeffs", "var")

    def __init__(self, coeffs: Iterable = (), var: str = "q"):
        cs = [_as_scalar(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)
        self.var = var

    # -- constructors ----------------------------------------------------

    @classmethod
    def zero(cls, var: str = "q") -> "QPolynomial":
        return cls((), var)

    @classmethod
    def one(cls, var: str = "q") -> "QPolynomial":
        return cls((1,), var)

    @classmethod
    def constant(cls, c, var: str = "q") -> "QPolynomial":
        return cls((c,), var)

    @classmethod
    def monomial(cls, c, power: int, var: str = "q") -> "QPolynomial":
        if power < 0:
            raise ValueError("monomial power must be nonnegative")
        return cls((0,) * power + (c,), var)

    # -- structure -------------------------------------------------------

    @property
    def degree(self) -> int:
        """Degree, with the zero polynomial at -1."""
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def is_constant(self) -> bool:
        return len(self.coeffs) <= 1

    def coefficient(self, i: int) -> Scalar:
        if 0 <= i < len(self.coeffs):
            return self.coeffs[i]
        return 0

    def constant_value(self) -> Scalar:
        """The value of a constant polynomial (errors otherwise)."""
        if not self.is_constant:
            raise ValueError(f"not a constant polynomial: {self!r}")
        return self.coefficient(0)

    def _join_var(self, other: "QPolynomial") -> str:
        if self.is_constant:
            return other.var
        if other.is_constant:
            return self.var
        if self.var != other.var:
            raise IndeterminateMismatchError(
                f"cannot combine polynomials in {self.var!r} and {other.var!r}"
            )
        return self.var

    @classmethod
    def _coerce(cls, value, var: str) -> "QPolynomial":
        if isinstance(value, QPolynomial):
            return value
        if isinstance(value, (int, Fraction)):
            return cls.constant(value, var)
        return NotImplemented

    # -- ring arithmetic ---------------------------------------------------

    def __add__(self, other):
        other = self._coerce(other, self.var)
        if other is NotImplemented:
            return NotImplemented
        var = self._join_var(other)
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return QPolynomial(out, var)

    __radd__ = __add__

    def __neg__(self):
        return QPolynomial(tuple(-c for c in self.coeffs), self.var)

    def __sub__(self, other):
        other = self._coerce(other, self.var)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._coerce(other, self.var)
        if other is NotImplemented:
            return NotImplemented
        var = self._join_var(other)
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        _mul_into(out, self.coeffs, other.coeffs)
        return QPolynomial(out, var)

    __rmul__ = __mul__

    def __pow__(self, e: int):
        if e < 0:
            raise ValueError("polynomial power must be nonnegative")
        result = QPolynomial.one(self.var)
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base if e > 1 else base
            e >>= 1
        return result

    # -- calculus and substitution ----------------------------------------

    def substitute(self, image: "QPolynomial") -> "QPolynomial":
        """Replace the indeterminate by `image`, expanded exactly.

        The result is written in `image`'s indeterminate.
        """
        return horner(image, reversed(self.coeffs))

    def antiderivative(self) -> "QPolynomial":
        """Term-wise antiderivative with zero constant term."""
        out = [0]
        for i, c in enumerate(self.coeffs):
            out.append(Fraction(c, i + 1))
        return QPolynomial(out, self.var)

    def derivative(self) -> "QPolynomial":
        out = [c * i for i, c in enumerate(self.coeffs)][1:]
        return QPolynomial(out, self.var)

    def __call__(self, value) -> Scalar:
        """Evaluate at an exact rational point (Horner)."""
        value = _as_scalar(value)
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * value + c
        return acc

    # -- comparison --------------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = QPolynomial.constant(other, self.var)
        if not isinstance(other, QPolynomial):
            return NotImplemented
        if self.coeffs != other.coeffs:
            return False
        return self.is_constant or other.is_constant or self.var == other.var

    def __hash__(self):
        # a constant equals its scalar, so it hashes as that scalar (0 if zero)
        return hash(self.coefficient(0)) if self.is_constant else hash((self.coeffs, self.var))

    def __repr__(self):
        if self.is_zero:
            return "QPolynomial(0)"
        terms = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if i == 0:
                terms.append(str(c))
            elif i == 1:
                terms.append(f"{c}*{self.var}")
            else:
                terms.append(f"{c}*{self.var}^{i}")
        return "QPolynomial(" + " + ".join(terms) + ")"


def horner(base: QPolynomial, terms: Iterable) -> QPolynomial:
    """sum_k a_k base^(m-k) for the terms a_0, ..., a_m (scalars, polynomials,
    or (scale, polynomial) pairs standing for their product), by Horner's rule
    (Knuth, TAOCP vol. 2, 4.6.4): highest power of base first, one product by
    base per term.  In base's indeterminate.

    The sum runs on one coefficient list: every term, a pair's scale included,
    is scaled by a common denominator d, so with an integer base each step is
    `int` arithmetic, and the list is divided by d once at the end.  The
    indeterminate follows `acc * base + a` step by step: a constant partial
    product takes the next term's indeterminate, and two non-constant operands
    in different indeterminates raise IndeterminateMismatchError.
    """
    polys = []
    for a in terms:
        s, a = (_as_scalar(a[0]), a[1]) if type(a) is tuple else (1, a)
        cs, a_var = (a.coeffs, a.var) if isinstance(a, QPolynomial) else ((_as_scalar(a),), None)
        polys.append((s, cs if s else (), a_var))
    d = math.lcm(*{s.denominator for s, _, _ in polys if type(s) is not int}) * math.lcm(
        *{c.denominator for _, cs, _ in polys for c in cs if type(c) is not int})
    b, n_b = base.coeffs, len(base.coeffs)
    acc, var = [], base.var
    for s, cs, a_var in polys:
        if len(acc) > 1 and n_b > 1 and var != base.var:
            raise IndeterminateMismatchError(
                f"cannot combine polynomials in {var!r} and {base.var!r}"
            )
        var = var if len(acc) > 1 else base.var
        prod = [0] * (len(acc) + n_b - 1) if acc and b else []
        _mul_into(prod, b, acc)
        acc = prod
        if len(acc) <= 1:
            var = var if a_var is None else a_var
        elif len(cs) > 1 and a_var != var:
            raise IndeterminateMismatchError(
                f"cannot combine polynomials in {var!r} and {a_var!r}"
            )
        acc.extend([0] * (len(cs) - len(acc)))
        sd = s * d if type(s) is int else s.numerator * (d // s.denominator)
        for i, c in enumerate(cs):
            acc[i] += c * sd if type(c) is int else c.numerator * (sd // c.denominator)
        while acc and not acc[-1]:
            acc.pop()
    return QPolynomial(acc if d == 1 else [Fraction(c, d) for c in acc], var)


def finite_difference_check(n: int, r: int) -> QPolynomial:
    """sum_{k=0}^{n} (-1)^k binom(n, k) (x - k)^r, as a polynomial in x.

    Contract: the zero polynomial for 0 <= r < n and the constant n! at r = n.
    """
    if n < 0 or r < 0:
        raise ValueError("finite_difference_check requires n >= 0 and r >= 0")
    x = QPolynomial((0, 1), "x")
    total = QPolynomial.zero("x")
    for k in range(n + 1):
        total = total + (-1) ** k * binomial(n, k) * (x - k) ** r
    return total


def _combine(terms, divisor: int = 1) -> QPolynomial:
    """sum(weight * f * g for weight, f, g in terms) / divisor, each product
    summed straight into one list of coefficients, never built as a
    QPolynomial.  Terms with a zero factor are skipped; the others' non-constant
    factors must share one indeterminate (else IndeterminateMismatchError)."""
    acc, var = [], None
    for weight, f, g in terms:
        if not (f.coeffs and g.coeffs):
            continue
        for p in (f, g):
            if len(p.coeffs) > 1 and var not in (None, p.var):
                raise IndeterminateMismatchError(
                    f"cannot combine polynomials in {var!r} and {p.var!r}")
            var = p.var if len(p.coeffs) > 1 else var
        acc.extend([0] * (len(f.coeffs) + len(g.coeffs) - 1 - len(acc)))
        _mul_into(acc, f.coeffs, g.coeffs, weight)
    return QPolynomial([Fraction(c, divisor) for c in acc] if divisor != 1 else acc, var or "q")


class PolySeries:
    """Power series in x truncated at a fixed order.

    Coefficients are QPolynomial values (typically in q); plain rationals are
    accepted and treated as constants.  Every operation is exact through the
    truncation order.
    """

    __slots__ = ("order", "coeffs")

    def __init__(self, coeffs: Iterable, order: int):
        if order < 0:
            raise ValueError("series order must be nonnegative")
        cs = []
        for c in coeffs:
            if not isinstance(c, QPolynomial):
                c = QPolynomial.constant(c)
            cs.append(c)
        if len(cs) > order + 1:
            cs = cs[: order + 1]
        while len(cs) < order + 1:
            cs.append(QPolynomial.zero())
        self.order = order
        self.coeffs = tuple(cs)

    @classmethod
    def zero(cls, order: int) -> "PolySeries":
        return cls((), order)

    @classmethod
    def one(cls, order: int) -> "PolySeries":
        return cls((QPolynomial.one(),), order)

    def coefficient(self, n: int) -> QPolynomial:
        if 0 <= n <= self.order:
            return self.coeffs[n]
        raise IndexError(f"coefficient {n} beyond truncation order {self.order}")

    def _check_order(self, other: "PolySeries"):
        if self.order != other.order:
            raise SeriesPreconditionError(
                f"truncation orders differ: {self.order} vs {other.order}"
            )

    def __add__(self, other):
        if isinstance(other, (int, Fraction, QPolynomial)):
            out = list(self.coeffs)
            out[0] = out[0] + other
            return PolySeries(out, self.order)
        self._check_order(other)
        return PolySeries(
            tuple(a + b for a, b in zip(self.coeffs, other.coeffs)), self.order
        )

    __radd__ = __add__

    def __neg__(self):
        return PolySeries(tuple(-c for c in self.coeffs), self.order)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, QPolynomial)):
            return PolySeries(tuple(c * other for c in self.coeffs), self.order)
        self._check_order(other)
        n = self.order
        right = [(j, b) for j, b in enumerate(other.coeffs) if not b.is_zero]
        terms = [[] for _ in range(n + 1)]
        for i, a in enumerate(self.coeffs):
            if a.is_zero:
                continue
            for j, b in right:
                if i + j > n:
                    break
                terms[i + j].append((1, a, b))
        return PolySeries([_combine(t) for t in terms], n)

    __rmul__ = __mul__

    def _power(self, alpha: Fraction) -> "PolySeries":
        """self^alpha for rational alpha = a/b, the constant coefficient being 1, by
        J.C.P. Miller's recurrence b n y_n = sum_i ((a + b) i - b n) f_i y_{n-i}
        over the nonzero f_i only (Knuth, TAOCP vol. 2, 4.7): one product term
        per nonzero coefficient of self and output coefficient."""
        a, b = alpha.numerator, alpha.denominator
        terms = [(i, f) for i, f in enumerate(self.coeffs) if i and not f.is_zero]
        out = [QPolynomial.one()]
        for n in range(1, self.order + 1):
            weighted = [
                ((a + b) * i - b * n, f, out[n - i])
                for i, f in terms
                if i <= n and (a + b) * i != b * n
            ]
            out.append(_combine(weighted, b * n))
        return PolySeries(out, self.order)

    def _divisor_constant(self) -> Scalar:
        """The constant coefficient, which a divisor needs nonzero and rational."""
        c0 = self.coeffs[0]
        if not c0.is_constant or c0.is_zero:
            raise SeriesPreconditionError(
                f"reciprocal needs a nonzero constant leading coefficient, got {c0!r}"
            )
        return c0.constant_value()

    def reciprocal(self, numerator: "PolySeries | None" = None) -> "PolySeries":
        """numerator / self, or 1 / self with no numerator, exact through the
        truncation order.

        Back-substitution over the nonzero coefficients of self only,
        y_m = (s_m - sum_{i >= 1, d_i != 0} d_i y_{m-i}) / d_0: one product
        term per nonzero d_i and output coefficient, the sparsity `_power`'s
        recurrence also uses (Knuth, TAOCP vol. 2, 4.7).  The constant
        coefficient d_0 must be a nonzero rational constant.
        """
        d0 = Fraction(self._divisor_constant())
        if numerator is None:
            numerator = PolySeries.one(self.order)
        self._check_order(numerator)
        # y_m = (b s_m - sum b d_i y_{m-i}) / a for d_0 = a/b
        a, b = d0.numerator, d0.denominator
        terms = [(i, d) for i, d in enumerate(self.coeffs) if i and not d.is_zero]
        one, out = QPolynomial.one(), []
        for m, s in enumerate(numerator.coeffs):
            weighted = [(-b, d, out[m - i]) for i, d in terms if i <= m]
            weighted.append((b, s, one))
            out.append(_combine(weighted, a))
        return PolySeries(out, self.order)

    def __truediv__(self, other: "PolySeries") -> "PolySeries":
        return other.reciprocal(self)

    def sqrt(self) -> "PolySeries":
        """Square root by coefficient recurrence; needs constant coefficient 1."""
        c0 = self.coeffs[0]
        if c0 != QPolynomial.one():
            raise SeriesPreconditionError(
                f"sqrt needs constant coefficient 1, got {c0!r}"
            )
        return self._power(Fraction(1, 2))

    def compose(self, inner: "PolySeries", den: "PolySeries | None" = None) -> "PolySeries":
        """self(inner(x) / den(x)), den being 1 when not given; the inner series
        must have zero constant term, and den a nonzero rational one.

        By Horner's rule from the innermost coefficient c_N of self: the partial
        sum that starts at c_j is multiplied by (inner / den)^j, whose valuation
        is j * v for v that of inner, so it is kept only through x^(order - j v).
        Each step is one series product by inner, which skips its zero
        coefficients, and one division by den over den's nonzero coefficients:
        with a sparse inner and den, O(order) polynomial products a step.
        """
        self._check_order(inner)
        if not inner.coeffs[0].is_zero:
            raise SeriesPreconditionError(
                f"composition needs zero inner constant term, got {inner.coeffs[0]!r}"
            )
        if den is not None:
            self._check_order(den)
            den._divisor_constant()
        n = self.order
        v = next((i for i, c in enumerate(inner.coeffs) if not c.is_zero), n + 1)
        top = n // v
        acc = PolySeries(self.coeffs[top : top + 1], n - top * v)
        for j in range(top - 1, -1, -1):
            k = n - j * v
            acc = PolySeries(acc.coeffs, k) * PolySeries(inner.coeffs, k)
            if den is not None:
                acc = PolySeries(den.coeffs, k).reciprocal(acc)
            acc = acc + self.coeffs[j]
        return acc

    def shift_down(self, m: int) -> "PolySeries":
        """Divide by x^m, 0 <= m <= order; the m lowest coefficients must
        vanish exactly."""
        if not 0 <= m <= self.order:
            raise SeriesPreconditionError(f"shift_down({m}): m must lie in 0..{self.order}")
        for i in range(m):
            if not self.coeffs[i].is_zero:
                raise SeriesPreconditionError(
                    f"shift_down({m}): coefficient of x^{i} is {self.coeffs[i]!r}, not 0"
                )
        return PolySeries(self.coeffs[m:], self.order - m)

    def __eq__(self, other):
        if not isinstance(other, PolySeries):
            return NotImplemented
        return self.order == other.order and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.order, self.coeffs))

    def __repr__(self):
        return f"PolySeries(order={self.order}, coeffs={list(self.coeffs)!r})"
