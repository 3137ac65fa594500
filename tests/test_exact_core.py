from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from narayana.exact_core import (
    IndeterminateMismatchError,
    PolySeries,
    QPolynomial,
    SeriesPreconditionError,
    _combine,
    binomial,
    finite_difference_check,
    horner,
)
from narayana.identities import IDENTITY_TAGS, check_identity, identity_min_n
from narayana.sequences import legendre_poly, narayana_poly

rationals = st.fractions(
    min_value=Fraction(-50), max_value=Fraction(50), max_denominator=12
)
poly_coeffs = st.lists(rationals, min_size=0, max_size=7)
# whole values arrive both as int and as Fraction(p, 1)
mixed_coeffs = st.lists(
    st.one_of(rationals, st.integers(-50, 50)), min_size=0, max_size=7
)


def make_poly(coeffs, var="q"):
    return QPolynomial(tuple(coeffs), var)


class TestBinomial:
    def test_pascal_row(self):
        assert [binomial(5, k) for k in range(6)] == [1, 5, 10, 10, 5, 1]

    def test_out_of_range_is_zero(self):
        assert binomial(4, -1) == 0
        assert binomial(4, 5) == 0

    def test_negative_upper_rejected(self):
        with pytest.raises(ValueError):
            binomial(-1, 0)

    @given(st.integers(1, 40), st.integers(0, 40))
    def test_pascal_recurrence(self, n, k):
        assert binomial(n, k) == binomial(n - 1, k - 1) + binomial(n - 1, k)


class TestQPolynomial:
    def test_trailing_zeros_normalized(self):
        assert QPolynomial((1, 2, 0, 0), "q") == QPolynomial((1, 2), "q")

    def test_degree_of_zero(self):
        assert QPolynomial.zero("q").degree == -1

    def test_constant_is_var_agnostic(self):
        c = QPolynomial.constant(3, "q")
        x = QPolynomial((0, 1), "x")
        assert (c + x).var == "x"
        assert c == QPolynomial.constant(3, "x")

    @pytest.mark.parametrize("scalar", [0, 3, -7, Fraction(1, 2), Fraction(6, 3)])
    def test_constant_hashes_as_its_scalar(self, scalar):
        # equal objects hash alike, so a set or dict key holds one of them
        for var in ("q", "x"):
            c = QPolynomial.constant(scalar, var)
            assert c == scalar and hash(c) == hash(scalar)
            assert len({scalar, c}) == 1 and {c: 1}[scalar] == 1
        assert len({QPolynomial.zero("q"), QPolynomial.zero("x"), 0}) == 1

    def test_non_constant_hash_keeps_its_indeterminate(self):
        q, x = QPolynomial((1, 2), "q"), QPolynomial((1, 2), "x")
        assert hash(q) == hash(((1, 2), "q")) and q != x
        assert len({q, QPolynomial((1, 2, 0), "q"), x}) == 2

    def test_mismatched_vars_rejected(self):
        q = QPolynomial((0, 1), "q")
        x = QPolynomial((0, 1), "x")
        with pytest.raises(IndeterminateMismatchError):
            q + x

    def test_product_example(self):
        q = QPolynomial((0, 1), "q")
        assert ((1 + q) * (1 - q)).coeffs == (Fraction(1), Fraction(0), Fraction(-1))

    def test_power_binomial_theorem(self):
        q = QPolynomial((0, 1), "q")
        p = (1 + q) ** 6
        assert [p.coefficient(i) for i in range(7)] == [
            binomial(6, i) for i in range(7)
        ]

    def test_call_horner(self):
        p = QPolynomial((1, -3, 2), "q")
        assert p(Fraction(5)) == 1 - 15 + 50

    def test_substitute_composes(self):
        p = QPolynomial((0, 0, 1), "q")
        inner = QPolynomial((1, 1), "x")
        assert p.substitute(inner) == QPolynomial((1, 2, 1), "x")

    def test_derivative_antiderivative_round_trip(self):
        p = QPolynomial((0, 1, 4, -2), "q")
        assert p.antiderivative().derivative() == p

    def test_antiderivative_constant_term_zero(self):
        p = QPolynomial((7, 2), "q")
        assert p.antiderivative().coefficient(0) == 0

    @given(poly_coeffs, poly_coeffs, poly_coeffs)
    @settings(max_examples=60)
    def test_ring_axioms(self, a, b, c):
        pa, pb, pc = make_poly(a), make_poly(b), make_poly(c)
        assert pa + pb == pb + pa
        assert pa * pb == pb * pa
        assert (pa + pb) * pc == pa * pc + pb * pc
        assert (pa * pb) * pc == pa * (pb * pc)

    @given(poly_coeffs, poly_coeffs, rationals)
    @settings(max_examples=60)
    def test_evaluation_is_ring_morphism(self, a, b, x):
        pa, pb = make_poly(a), make_poly(b)
        assert (pa * pb)(x) == pa(x) * pb(x)
        assert (pa + pb)(x) == pa(x) + pb(x)

    @given(poly_coeffs)
    def test_scalar_identities(self, a):
        p = make_poly(a)
        assert 1 * p == p
        assert 0 * p == QPolynomial.zero("q")


class TestFiniteDifference:
    @given(st.integers(0, 10))
    def test_r_below_n_vanishes(self, n):
        for r in range(n):
            assert finite_difference_check(n, r) == QPolynomial.zero("x")

    @given(st.integers(0, 8))
    def test_r_equal_n_is_factorial(self, n):
        import math

        expected = QPolynomial.constant(math.factorial(n), "x")
        assert finite_difference_check(n, n) == expected


class TestPolySeries:
    def test_geometric_reciprocal(self):
        one_minus_x = PolySeries([1, -1], 8)
        inv = one_minus_x.reciprocal()
        assert all(inv.coefficient(i) == QPolynomial.one("q") for i in range(9))

    def test_sqrt_of_square(self):
        s = PolySeries([1, 3, -2, 5], 10)
        assert (s * s).sqrt() == s

    def test_sqrt_requires_unit_constant(self):
        s = PolySeries([4, 1], 5)
        with pytest.raises(SeriesPreconditionError):
            s.sqrt()

    def test_reciprocal_requires_nonzero_constant(self):
        s = PolySeries([0, 1], 5)
        with pytest.raises(SeriesPreconditionError):
            s.reciprocal()

    def test_reciprocal_round_trip(self):
        s = PolySeries([2, -1, 3, 7], 9)
        prod = s * s.reciprocal()
        assert prod.coefficient(0) == QPolynomial.one("q")
        assert all(
            prod.coefficient(i) == QPolynomial.zero("q") for i in range(1, 10)
        )

    def test_compose_requires_zero_constant(self):
        outer = PolySeries([1, 1], 5)
        inner = PolySeries([1, 1], 5)
        with pytest.raises(SeriesPreconditionError):
            outer.compose(inner)

    def test_compose_geometric(self):
        # 1/(1-x) composed with 2x gives sum 2^n x^n
        outer = PolySeries([1, -1], 6).reciprocal()
        inner = PolySeries([0, 2], 6)
        got = outer.compose(inner)
        for i in range(7):
            assert got.coefficient(i) == QPolynomial.constant(2**i, "q")

    def test_shift_down_exactness_enforced(self):
        s = PolySeries([1, 2], 4)
        with pytest.raises(SeriesPreconditionError):
            s.shift_down(1)
        ok = PolySeries([0, 1, 5], 4).shift_down(1)
        assert ok.coefficient(0) == QPolynomial.one("q")
        assert ok.coefficient(1) == QPolynomial.constant(5, "q")

    @pytest.mark.parametrize("s, m", [
        (PolySeries([1, 2, 3], 3), -1),
        (PolySeries.zero(3), -1),
        (PolySeries.zero(3), 4),
        (PolySeries.zero(3), 5),
    ])
    def test_shift_down_outside_the_order_rejected(self, s, m):
        # a negative m would pad with coefficients never computed, and one past
        # the order would index beyond the stored coefficients
        with pytest.raises(SeriesPreconditionError, match=r"shift_down"):
            s.shift_down(m)

    def test_shift_down_by_the_whole_order(self):
        assert PolySeries([0, 0, 7], 2).shift_down(2) == PolySeries([7], 0)

    @given(st.lists(rationals, min_size=1, max_size=5), st.lists(rationals, min_size=1, max_size=5))
    @settings(max_examples=40)
    def test_mul_commutes(self, a, b):
        sa = PolySeries(a, 6)
        sb = PolySeries(b, 6)
        assert sa * sb == sb * sa


def assert_canonical(value):
    """Every stored coefficient is an int, or a Fraction that is not whole."""
    if isinstance(value, PolySeries):
        for c in value.coeffs:
            assert_canonical(c)
        return
    assert isinstance(value, QPolynomial), repr(value)
    for c in value.coeffs:
        assert type(c) is int or (
            type(c) is Fraction and c.denominator != 1
        ), f"stored coefficient {c!r} of {value!r}"


class TestCoefficientStorage:
    def test_whole_fraction_stored_as_int(self):
        p = QPolynomial((Fraction(4, 2), Fraction(1, 3), True), "q")
        assert [type(c) for c in p.coeffs] == [int, Fraction, int]
        assert_canonical(p)

    @pytest.mark.parametrize("bad", [0.5, 1.0, float("nan"), "1", None, 1j])
    def test_non_rational_coefficient_rejected(self, bad):
        with pytest.raises(TypeError):
            QPolynomial((1, bad), "q")
        with pytest.raises(TypeError):
            QPolynomial.constant(bad, "q")
        with pytest.raises(TypeError):
            QPolynomial.monomial(bad, 3, "q")
        with pytest.raises(TypeError):
            PolySeries([1, bad], 4)

    def test_non_rational_evaluation_point_rejected(self):
        with pytest.raises(TypeError):
            QPolynomial((1, 2), "q")(0.5)

    @given(mixed_coeffs, mixed_coeffs, st.integers(0, 4))
    @settings(max_examples=60)
    def test_ring_operations(self, a, b, e):
        pa, pb = make_poly(a), make_poly(b)
        assert_canonical(pa)
        for value in (pa + pb, pa - pb, -pa, pa * pb, pa**e, 3 * pa, pa + Fraction(1, 2)):
            assert_canonical(value)
        assert_canonical(pa.substitute(QPolynomial((1, Fraction(1, 2)), "x")))

    @given(mixed_coeffs)
    @settings(max_examples=60)
    def test_calculus(self, a):
        p = make_poly(a)
        anti = p.antiderivative()
        assert_canonical(anti)
        assert_canonical(p.derivative())
        assert anti.derivative() == p

    def test_antiderivative_has_exact_thirds(self):
        anti = QPolynomial((1, 1, 1), "q").antiderivative()
        assert anti.coeffs == (0, 1, Fraction(1, 2), Fraction(1, 3))
        assert_canonical(anti)

    @given(st.lists(mixed_coeffs, min_size=1, max_size=5))
    @settings(max_examples=40)
    def test_series_reciprocal_and_sqrt(self, cs):
        s = PolySeries([QPolynomial.one("q")] + [make_poly(c) for c in cs], 6)
        assert_canonical(s.reciprocal())
        assert_canonical(s.sqrt())

    def test_reciprocal_of_proper_fraction_constant(self):
        inv = PolySeries([Fraction(3, 2), 1], 6).reciprocal()
        assert inv.coefficient(0) == QPolynomial.constant(Fraction(2, 3))
        assert_canonical(inv)

    def test_sequences(self):
        for n in range(12):
            assert_canonical(narayana_poly(n))
            assert_canonical(legendre_poly(n, "standard"))
            assert_canonical(legendre_poly(n, "shifted"))

    @pytest.mark.parametrize("tag", IDENTITY_TAGS)
    def test_identity_sides(self, tag):
        start = identity_min_n(tag)
        for n in range(start, start + 4):
            result = check_identity(tag, n)
            assert result.equal
            for side in (result.lhs, result.rhs):
                if isinstance(side, QPolynomial):
                    assert_canonical(side)
                else:
                    assert isinstance(side, (int, Fraction)), repr(side)


# -- the series methods before the power recurrence and the triangular
#    compose, kept as references: dense sums, Horner, one QPolynomial per
#    partial sum


def _reference_mul(a, b):
    n = a.order
    out = [QPolynomial.zero() for _ in range(n + 1)]
    for i, x in enumerate(a.coeffs):
        if x.is_zero:
            continue
        for j in range(n + 1 - i):
            y = b.coeffs[j]
            if not y.is_zero:
                out[i + j] = out[i + j] + x * y
    return PolySeries(out, n)


def _reference_reciprocal(s):
    c0 = s.coeffs[0]
    if not c0.is_constant or c0.is_zero:
        raise SeriesPreconditionError(
            f"reciprocal needs a nonzero constant leading coefficient, got {c0!r}"
        )
    inv0 = Fraction(1) / c0.constant_value()
    out = [QPolynomial.constant(inv0)]
    for n in range(1, s.order + 1):
        acc = QPolynomial.zero()
        for i in range(1, n + 1):
            acc = acc + s.coeffs[i] * out[n - i]
        out.append(acc * (-inv0))
    return PolySeries(out, s.order)


def _reference_sqrt(s):
    c0 = s.coeffs[0]
    if c0 != QPolynomial.one():
        raise SeriesPreconditionError(f"sqrt needs constant coefficient 1, got {c0!r}")
    out = [QPolynomial.one()]
    for n in range(1, s.order + 1):
        acc = s.coeffs[n]
        for i in range(1, n):
            acc = acc - out[i] * out[n - i]
        out.append(acc * Fraction(1, 2))
    return PolySeries(out, s.order)


def _reference_power(s, e):
    result = PolySeries.one(s.order)
    for _ in range(e):
        result = _reference_mul(result, s)
    return result


def _reference_compose(outer, inner):
    if outer.order != inner.order:
        raise SeriesPreconditionError(
            f"truncation orders differ: {outer.order} vs {inner.order}"
        )
    if not inner.coeffs[0].is_zero:
        raise SeriesPreconditionError(
            f"composition needs zero inner constant term, got {inner.coeffs[0]!r}"
        )
    result = PolySeries.zero(outer.order)
    for c in reversed(outer.coeffs):
        result = _reference_mul(result, inner) + c
    return result


small_rationals = st.one_of(
    st.integers(-9, 9),
    st.fractions(min_value=Fraction(-9), max_value=Fraction(9), max_denominator=6),
)


@st.composite
def series_cases(draw, order=None, var=None, sparse=None):
    """A PolySeries with 0..3-degree coefficients; sparse ones are mostly zero."""
    order = draw(st.integers(0, 12)) if order is None else order
    var = draw(st.sampled_from("qx")) if var is None else var
    sparse = draw(st.booleans()) if sparse is None else sparse
    coefficient = st.lists(small_rationals, max_size=4)
    if sparse:
        coefficient = st.one_of(st.just([]), st.just([]), st.just([]), coefficient)
    cs = draw(st.lists(coefficient, min_size=order + 1, max_size=order + 1))
    return PolySeries([QPolynomial(c, var) for c in cs], order)


def _with_constant(s, c0):
    return PolySeries((QPolynomial.constant(c0),) + s.coeffs[1:], s.order)


def assert_same(got, expected):
    assert got == expected
    assert_canonical(got)


class TestSeriesAgainstReference:
    """The sparse power recurrence, the triangular compose and the one-list
    series product agree with the dense loops and Horner they replaced."""

    @given(series_cases(), st.data())
    @settings(max_examples=80, deadline=None)
    def test_mul(self, a, data):
        b = data.draw(series_cases(order=a.order, var=a.coeffs[0].var))
        assert_same(a * b, _reference_mul(a, b))

    @given(series_cases())
    @settings(max_examples=80, deadline=None)
    def test_sqrt(self, s):
        s = _with_constant(s, 1)
        assert_same(s.sqrt(), _reference_sqrt(s))

    @given(series_cases(), small_rationals.filter(bool))
    @settings(max_examples=80, deadline=None)
    def test_reciprocal(self, s, c0):
        s = _with_constant(s, c0)
        assert_same(s.reciprocal(), _reference_reciprocal(s))

    @given(series_cases(), st.booleans(), st.data())
    @settings(max_examples=60, deadline=None)
    def test_compose(self, outer, scalar_outer, data):
        var = outer.coeffs[0].var
        if scalar_outer:  # as in the Narayana compositions: C(x) of a series in q
            outer = PolySeries([c.coefficient(0) for c in outer.coeffs], outer.order)
            var = data.draw(st.sampled_from("qx"))
        inner = _with_constant(data.draw(series_cases(order=outer.order, var=var)), 0)
        assert_same(outer.compose(inner), _reference_compose(outer, inner))

    @given(st.sampled_from("qx"), small_rationals.filter(bool), st.data())
    @settings(max_examples=80, deadline=None)
    def test_division(self, var, c0, data):
        den = _with_constant(data.draw(series_cases(var=var)), c0)
        num = data.draw(series_cases(order=den.order, var=var))
        expected = _reference_mul(num, _reference_reciprocal(den))
        assert_same(den.reciprocal(num), expected)
        assert_same(num / den, expected)

    @given(series_cases(), st.booleans(), small_rationals.filter(bool), st.data())
    @settings(max_examples=60, deadline=None)
    def test_compose_over_a_denominator(self, outer, scalar_outer, c0, data):
        var = outer.coeffs[0].var
        if scalar_outer:
            outer = PolySeries([c.coefficient(0) for c in outer.coeffs], outer.order)
            var = data.draw(st.sampled_from("qx"))
        inner = _with_constant(data.draw(series_cases(order=outer.order, var=var)), 0)
        den = _with_constant(data.draw(series_cases(order=outer.order, var=var)), c0)
        assert_same(
            outer.compose(inner, den),
            _reference_compose(outer, _reference_mul(inner, _reference_reciprocal(den))),
        )

    @pytest.mark.parametrize("den", [
        PolySeries([0, 1], 5),
        PolySeries([QPolynomial((1, 1), "q"), 1], 5),
        PolySeries([1, 1], 4),
    ], ids=["zero-d0", "non-constant-d0", "order-mismatch"])
    def test_division_preconditions(self, den):
        with pytest.raises(SeriesPreconditionError):
            den.reciprocal(PolySeries([1, 2], 5))
        for inner in (PolySeries([0, 1], 5), PolySeries.zero(5)):
            with pytest.raises(SeriesPreconditionError):
                PolySeries([1, 1, 1], 5).compose(inner, den)

    @given(series_cases(order=6), st.sampled_from(
        [Fraction(-1, 2), Fraction(3, 2), Fraction(-2), Fraction(3), Fraction(-1, 3)]
    ))
    @settings(max_examples=40, deadline=None)
    def test_power(self, s, alpha):
        # y = s^(a/b) satisfies y^b == s^a
        s = _with_constant(s, 1)
        y = s._power(alpha)
        assert_canonical(y)
        a, b = alpha.numerator, alpha.denominator
        expected = _reference_power(s, abs(a))
        if a < 0:
            expected = _reference_reciprocal(expected)
        assert _reference_power(y, b) == expected

    def test_inverse_sqrt_is_reciprocal_of_sqrt(self):
        radicand = PolySeries([1, QPolynomial((0, -2), "x"), 1], 12)
        assert_same(
            radicand._power(Fraction(-1, 2)), _reference_reciprocal(_reference_sqrt(radicand))
        )

    @pytest.mark.parametrize(
        "method, series, args",
        [
            ("sqrt", PolySeries([4, 1], 5), ()),
            ("sqrt", PolySeries([QPolynomial((1, 1), "q"), 1], 5), ()),
            ("sqrt", PolySeries([0, 1], 5), ()),
            ("reciprocal", PolySeries([0, 1], 5), ()),
            ("reciprocal", PolySeries([QPolynomial((1, 1), "q"), 1], 5), ()),
            ("compose", PolySeries([1, 1], 5), (PolySeries([1, 1], 5),)),
            ("compose", PolySeries([1, 1], 5), (PolySeries([0, 1], 4),)),
        ],
    )
    def test_precondition_errors_unchanged(self, method, series, args):
        reference = {
            "sqrt": _reference_sqrt,
            "reciprocal": _reference_reciprocal,
            "compose": _reference_compose,
        }[method]
        with pytest.raises(SeriesPreconditionError) as expected:
            reference(series, *args)
        with pytest.raises(SeriesPreconditionError) as got:
            getattr(series, method)(*args)
        assert str(got.value) == str(expected.value)


# -- the series product against the one it replaced: one QPolynomial product
#    per pair of nonzero coefficients, each power's products then summed in
#    one list, the indeterminate taken from the non-constant products


def _reference_combine(products):
    acc, var = [], None
    for p in products:
        if not p.is_constant:
            if var not in (None, p.var):
                raise IndeterminateMismatchError(f"{var!r} and {p.var!r}")
            var = p.var
        acc.extend([0] * (len(p.coeffs) - len(acc)))
        for d, c in enumerate(p.coeffs):
            acc[d] += c
    return QPolynomial(acc, var or "q")


def _reference_pairwise_mul(a, b):
    n = a.order
    products = [[] for _ in range(n + 1)]
    for i, x in enumerate(a.coeffs):
        for j, y in enumerate(b.coeffs[: n + 1 - i]):
            if not (x.is_zero or y.is_zero):
                products[i + j].append(x * y)
    return PolySeries([_reference_combine(p) for p in products], n)


@st.composite
def mixed_series(draw, order, variables):
    """Coefficients that are zero, constant or of degree 1-3, each in one of
    the given indeterminates."""
    coefficient = st.builds(QPolynomial, st.one_of(
        st.just([]), small_rationals.map(lambda c: [c]),
        st.lists(small_rationals, min_size=2, max_size=4),
    ), st.sampled_from(variables))
    return PolySeries(draw(st.lists(coefficient, min_size=order + 1, max_size=order + 1)), order)


def assert_same_product(a, b):
    """a * b as the pairwise reference has it: the same coefficients, types and
    indeterminate at every power, or the same IndeterminateMismatchError."""
    try:
        expected = _reference_pairwise_mul(a, b)
    except IndeterminateMismatchError:
        with pytest.raises(IndeterminateMismatchError):
            a * b
        return
    got = a * b
    assert got.order == expected.order
    for g, e in zip(got.coeffs, expected.coeffs, strict=True):
        assert_identical(g, e)


class TestFusedSeriesProduct:
    @given(st.integers(0, 8), st.sampled_from(["q", "x", "qx"]), st.data())
    @settings(max_examples=150, deadline=None)
    def test_matches_pairwise_products(self, order, variables, data):
        a = data.draw(mixed_series(order, variables))
        assert_same_product(a, data.draw(mixed_series(order, variables)))

    @pytest.mark.parametrize("a, b", [
        (PolySeries.zero(4), PolySeries([1, QPolynomial((1, 2), "x")], 4)),
        (PolySeries([2, Fraction(1, 3), 0, 5], 4), PolySeries([Fraction(3, 2), 0, 7], 4)),
        (PolySeries([QPolynomial((3,), "x"), QPolynomial((0, 1), "q")], 3),
         PolySeries([QPolynomial((1, -1), "q"), QPolynomial((2,), "x")], 3)),
        (PolySeries([0, QPolynomial((1, 1), "x")], 3),
         PolySeries([1, QPolynomial((0, 1), "x")], 3)),
    ], ids=["zero", "constants", "constants-take-q", "in-x"])
    def test_zero_and_constant_coefficients(self, a, b):
        assert_same_product(a, b)
        assert_same_product(b, a)

    def test_mismatch_raises(self):
        # q and x meet at x^2 through a_1 b_1, and at x^1 through a_0 b_1 / a_1 b_0
        a = PolySeries([1, QPolynomial((0, 1), "q")], 2)
        b = PolySeries([1, QPolynomial((0, 1), "x")], 2)
        with pytest.raises(IndeterminateMismatchError):
            _reference_pairwise_mul(a, b)
        with pytest.raises(IndeterminateMismatchError):
            a * b

    def test_mismatch_past_the_order_is_not_formed(self):
        # a_1 b_1 would be q * x, but x^2 is past order 1 and is never multiplied
        a = PolySeries([0, QPolynomial((0, 1), "q")], 1)
        b = PolySeries([0, QPolynomial((0, 1), "x")], 1)
        assert_same_product(a, b)
        assert a * b == PolySeries.zero(1)


# -- horner against the sums it replaced: the loop acc * base + a with one
#    QPolynomial per step, and the power form sum_k a_k base^(m-k)


def _reference_horner(base, terms):
    acc = QPolynomial.zero(base.var)
    for a in terms:
        acc = acc * base + a
    return acc


def _reference_power_form(base, terms):
    total = QPolynomial.zero(base.var)
    for k, a in enumerate(terms):
        total = total + a * base ** (len(terms) - 1 - k)
    return total


def assert_identical(got, expected):
    assert got.coeffs == expected.coeffs
    assert [type(c) for c in got.coeffs] == [type(c) for c in expected.coeffs]
    assert got.var == expected.var


@st.composite
def horner_bases(draw, var="q"):
    """A base with int or Fraction coefficients, zero, or a nonzero constant."""
    coeffs = draw(st.one_of(
        st.lists(st.integers(-9, 9), min_size=2, max_size=4),
        st.lists(small_rationals, min_size=2, max_size=4),
        st.just([]),
        small_rationals.filter(bool).map(lambda c: [c]),
    ))
    return QPolynomial(coeffs, var)


def horner_terms(variables):
    """Terms that are ints, Fractions, or polynomials with Fraction
    coefficients in one of the given indeterminates; possibly none."""
    polys = st.builds(QPolynomial, poly_coeffs, st.sampled_from(variables))
    return st.lists(st.one_of(st.integers(-50, 50), rationals, polys), max_size=6)


class TestHornerAgainstReference:
    @given(horner_bases(), st.data())
    @settings(max_examples=150, deadline=None)
    def test_power_form(self, base, data):
        # a constant base combines with terms in any one indeterminate
        terms = data.draw(horner_terms("q" if base.degree > 0 else data.draw(st.sampled_from("qx"))))
        got = horner(base, terms)
        expected = _reference_power_form(base, terms)
        assert_canonical(got)
        if got.is_constant:  # the two sums may name a constant's indeterminate differently
            expected = QPolynomial(expected.coeffs, got.var)
        assert_identical(got, expected)

    @given(st.sampled_from("qx").flatmap(horner_bases), horner_terms("qx"))
    # a partial sum that cancels to a constant hands the indeterminate back
    @example(QPolynomial((2,), "q"),
             [QPolynomial((0, 1), "x"), QPolynomial((0, -2), "x"), 5])
    @settings(max_examples=150, deadline=None)
    def test_step_loop(self, base, terms):
        # the indeterminate, and whether it mismatches, as acc * base + a had it
        try:
            expected = _reference_horner(base, terms)
        except IndeterminateMismatchError:
            with pytest.raises(IndeterminateMismatchError):
                horner(base, terms)
            return
        assert_identical(horner(base, terms), expected)

    @given(st.sampled_from("qx").flatmap(horner_bases), horner_terms("qx"),
           st.lists(small_rationals, min_size=6, max_size=6))
    # a zero scale makes its term the zero polynomial, which mismatches nothing
    @example(QPolynomial((1, 1), "q"), [QPolynomial((0, 1), "q"), QPolynomial((0, 1), "x")],
             [1, 0, 1, 1, 1, 1])
    @settings(max_examples=150, deadline=None)
    def test_pair_is_its_product(self, base, terms, scales):
        # a (scale, term) pair sums as scale * term, indeterminate and errors included
        pairs = list(zip(scales, terms))
        try:
            expected = horner(base, [s * a for s, a in pairs])
        except IndeterminateMismatchError:
            with pytest.raises(IndeterminateMismatchError):
                horner(base, pairs)
            return
        assert_identical(horner(base, pairs), expected)

    @pytest.mark.parametrize("base", [QPolynomial((1, 1), "x"), QPolynomial((3,), "x"),
                                      QPolynomial.zero("x")])
    def test_no_terms_is_zero_in_base_var(self, base):
        assert_identical(horner(base, []), QPolynomial.zero("x"))
        assert_identical(horner(base, iter(())), QPolynomial.zero("x"))

    @pytest.mark.parametrize("terms", [[0.5], [1, 2.0], [2.0, 1], [QPolynomial((1, 1)), 0.25],
                                       [(0.5, QPolynomial((1, 1)))]])
    def test_float_term_rejected(self, terms):
        with pytest.raises(TypeError):
            horner(QPolynomial((1, 1), "q"), terms)

    @pytest.mark.parametrize("base, terms", [
        (QPolynomial((1, 1), "q"), [QPolynomial((0, 1), "x"), 1]),
        (QPolynomial((1, 1), "q"), [1, QPolynomial((0, 1), "x")]),
        (QPolynomial((2,), "q"), [QPolynomial((0, 1), "q"), QPolynomial((0, 1), "x")]),
    ])
    def test_term_in_other_indeterminate_rejected(self, base, terms):
        with pytest.raises(IndeterminateMismatchError):
            horner(base, terms)


# -- the unit and zero paths: _mul_into adds or subtracts b's row when its
#    factor weight * a[i] is 1 or -1, and horner skips a term's zero
#    coefficients and adds an unscaled term's as they are.  Each result is
#    checked against a reference whose products run through the other
#    operand's coefficients, and by value at a few points, which evaluation
#    finds with no polynomial product at all

_POINTS = (-2, Fraction(1, 3), 5)


def _value(term, x):
    """A horner term's value at x: a scalar, a polynomial or a (scale, polynomial) pair."""
    if type(term) is tuple:
        return term[0] * _value(term[1], x)
    return term(x) if isinstance(term, QPolynomial) else term


def assert_identical_with_values(got, expected, value_at):
    assert_identical(got, expected)
    assert_canonical(got)
    for x in _POINTS:
        assert got(x) == value_at(x), x


class TestUnitFactors:
    @pytest.mark.parametrize("weight", [Fraction(2, 3), Fraction(-2, 3)])
    def test_factor_that_becomes_a_unit_after_its_weight(self, weight):
        # 3/2 and -3/2 times the weight are 1 and -1, as Fractions; 4 stays scaled
        f = QPolynomial((Fraction(3, 2), 4, Fraction(-3, 2)), "x")
        g = QPolynomial((2, Fraction(1, 5), -7), "x")
        for a in (QPolynomial((Fraction(3, 2),), "x"), f):
            got = _combine([(weight, a, g)])
            # the reference multiplies through g's coefficients, none of them a unit
            expected = _reference_mul(PolySeries([g], 0), PolySeries([a * weight], 0)).coeffs[0]
            assert_identical_with_values(got, expected, lambda x: weight * a(x) * g(x))

    @pytest.mark.parametrize("units", [(1,), (-1,), (1, -1), (-1, 0, 1, 1), (0, -1, 3, -1)])
    def test_integer_unit_factors(self, units):
        a = QPolynomial(units, "x")
        b = QPolynomial((3, Fraction(-5, 2), 7), "x")
        assert_identical_with_values(a * b, b * a, lambda x: a(x) * b(x))
        # the series product's _combine multiplies through a's coefficients,
        # the reference through b's
        s, t = PolySeries([a, a + 2], 1), PolySeries([b, 3 * b], 1)
        got, expected = s * t, _reference_mul(t, s)
        for n in range(2):
            assert_identical_with_values(
                got.coeffs[n], expected.coeffs[n],
                lambda x: sum(s.coeffs[i](x) * t.coeffs[n - i](x) for i in range(n + 1)))

    @pytest.mark.parametrize("base", [QPolynomial((1, 1), "q"), QPolynomial((-1, 1), "q"),
                                      QPolynomial((-1, -1), "q"), QPolynomial((1, 2, 1), "q")])
    @pytest.mark.parametrize("terms", [
        # d = 1: unscaled int terms, added as they are
        [QPolynomial.monomial(3, 4), 5, QPolynomial.monomial(-2, 1), QPolynomial.monomial(1, 3)],
        # d = 1 with int scales, so each coefficient is multiplied
        [(3, QPolynomial.monomial(2, 3)), QPolynomial.monomial(-1, 2), (-1, QPolynomial.monomial(7, 1))],
        # d > 1: a Fraction coefficient and a Fraction scale
        [QPolynomial.monomial(Fraction(1, 3), 3), QPolynomial.monomial(2, 2),
         (Fraction(1, 2), QPolynomial.monomial(4, 1)), Fraction(-5, 6)],
    ], ids=["unscaled", "int-scales", "fractions"])
    def test_horner_over_padded_monomials(self, base, terms):
        expected = _reference_horner(base, [a[0] * a[1] if type(a) is tuple else a for a in terms])
        m = len(terms) - 1
        assert_identical_with_values(
            horner(base, terms), expected,
            lambda x: sum(_value(a, x) * base(x) ** (m - k) for k, a in enumerate(terms)))

    @pytest.mark.parametrize("c", [0, 3, True, Fraction(6, 2), Fraction(1, 3)])
    def test_monomial_pads_after_intake(self, c):
        p = QPolynomial.monomial(c, 3, "x")
        assert_identical(p, QPolynomial([0, 0, 0, c], "x"))
        assert all(type(z) is int for z in p.coeffs[:-1])
