import inspect
import random
import sys
from collections import Counter
from fractions import Fraction
from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from narayana import combinat, exact_core, identities, sequences, series
from narayana.exact_core import IndeterminateMismatchError, QPolynomial, binomial
from narayana.identities import (
    IDENTITY_TAGS,
    binomial_inverse,
    catalan_parity_scan,
    check_identity,
    f_poly,
    identity_min_n,
    integral_representation_check,
    left_inversion,
    left_inversion_forward,
    legendre_inverse,
    lemma_difference_argument,
)
from narayana.sequences import (
    catalan,
    catalan_half,
    fibonacci,
    legendre_poly,
    lucas,
    narayana_poly,
    pell,
)

rationals = st.fractions(
    min_value=Fraction(-30), max_value=Fraction(30), max_denominator=10
)


class TestRegistry:
    def test_tag_count(self):
        assert len(IDENTITY_TAGS) == 21

    def test_unknown_tag_rejected(self):
        with pytest.raises(ValueError):
            check_identity("collatz", 3)
        with pytest.raises(ValueError):
            identity_min_n("collatz")

    def test_below_min_n_rejected(self):
        with pytest.raises(ValueError):
            check_identity("alt_sum_310", 0)

    def test_check_result_is_an_immutable_record(self):
        result = check_identity("main_37", 2)
        assert type(result)._fields == ("identity", "n", "lhs", "rhs", "equal")
        assert result == ("main_37", 2, result.lhs, result.rhs, True)
        with pytest.raises(AttributeError):
            result.equal = False

    @pytest.mark.parametrize("tag", IDENTITY_TAGS)
    def test_sweep_small(self, tag):
        for n in range(identity_min_n(tag), 12):
            result = check_identity(tag, n)
            assert result.equal, (tag, n, result.lhs, result.rhs)

    @pytest.mark.parametrize("tag", IDENTITY_TAGS)
    def test_spot_checks_deeper(self, tag):
        for n in (23, 31):
            assert check_identity(tag, n).equal


class TestFrozenExamples:
    def test_main_37_n2_is_constant_two(self):
        r = check_identity("main_37", 2)
        assert r.lhs == QPolynomial.constant(2, "q")
        assert r.equal

    def test_main_38_n2_is_q_squared(self):
        r = check_identity("main_38", 2)
        assert r.rhs == QPolynomial((0, 0, 1), "q")
        assert r.equal

    def test_main_39_n1_is_two_q_cubed(self):
        r = check_identity("main_39", 1)
        assert r.lhs == QPolynomial((0, 0, 0, 2), "q")
        assert r.equal

    def test_parity_n3(self):
        r = check_identity("parity", 3)
        assert r.lhs == Fraction(1)
        assert r.rhs == Fraction(1)

    def test_pell_odd_n0(self):
        r = check_identity("app_pell_odd", 0)
        assert r.lhs == Fraction(2)
        assert r.equal

    def test_main_37_rhs_collapses_to_constant(self):
        # the right side is a polynomial in q whose higher coefficients must
        # all cancel; asserting that catches cancellation bugs early
        for n in range(8):
            r = check_identity("main_37", n)
            assert r.rhs.is_constant
            assert r.rhs.constant_value() == catalan(n)


class TestIntegralRepresentation:
    def test_requires_positive_n(self):
        with pytest.raises(ValueError):
            integral_representation_check(0)

    def test_sweep(self):
        for n in range(1, 20):
            assert integral_representation_check(n).equal

    def test_example_i_with_sign_corrected(self):
        # C_n = (-1)^{n+1} 2^{2n+1} * [antiderivative of P_{2n+1}(x-1) over (0,1)]
        from narayana.sequences import legendre_poly

        for n in range(6):
            shift = QPolynomial((-1, 1), "x")
            integrand = legendre_poly(2 * n + 1, "standard").substitute(shift)
            anti = integrand.antiderivative()
            value = (-1) ** (n + 1) * Fraction(2) ** (2 * n + 1) * (anti(1) - anti(0))
            assert value == catalan(n), n


class TestLemma:
    def test_direct_expansion_zero(self):
        for n in range(12):
            assert f_poly(n) == QPolynomial.zero("q")

    def test_difference_argument(self):
        for n in range(8):
            assert lemma_difference_argument(n)

    def test_window_reversal_symmetry(self):
        # even if f_n were nonzero, its construction forces the palindrome
        # f_n(q) = q^{2n+3} f_n(1/q); check the reversal map directly on the
        # summands before cancellation
        from narayana.exact_core import binomial

        n = 3
        deg = 2 * n + 2
        one_plus_q = QPolynomial((1, 1), "q")
        total = QPolynomial.zero("q")
        for k in range(2 * n + 2):
            total = total + (-1) ** k * binomial(2 * n + 1, k) * narayana_poly(
                k + 1
            ) * one_plus_q ** (2 * n + 1 - k)
        mirrored = QPolynomial(
            tuple(total.coefficient(deg + 1 - i) for i in range(deg + 2)), "q"
        )
        assert mirrored == total


@pytest.fixture
def narayana_mutant(monkeypatch):
    """Install a mutant of narayana_number at one index behind a cleared
    narayana_poly cache; the real one and a clean cache come back after."""

    def install(index, mutant):
        real = sequences.narayana_number
        monkeypatch.setattr(
            sequences, "narayana_number",
            lambda n, k: mutant(real, n, k) if n == index else real(n, k),
        )
        sequences.narayana_poly.cache_clear()

    yield install
    monkeypatch.undo()
    sequences.narayana_poly.cache_clear()


class TestLemmaIndependence:
    """The lemma is a second path: it reads narayana_poly's stored
    coefficients and binomials in integers, never f_poly or a polynomial
    product, and a wrong Narayana polynomial makes it fail."""

    def test_never_calls_f_poly(self, monkeypatch):
        def refuse(n):
            raise AssertionError("lemma_difference_argument called f_poly")

        monkeypatch.setattr(identities, "f_poly", refuse)
        for n in range(7):
            assert lemma_difference_argument(n)

    @pytest.mark.parametrize(
        "index, mutant",
        [
            (5, lambda real, n, k: 2 * real(n, k)),  # still palindromic
            (7, lambda real, n, k: real(n, k) + (k == 3)),  # low coefficient
            (6, lambda real, n, k: real(n, k) + (k == 5)),  # high coefficient
        ],
        ids=["N5-doubled", "N7,3-plus-one", "N6,5-plus-one"],
    )
    def test_wrong_narayana_poly_fails(self, narayana_mutant, index, mutant):
        narayana_mutant(index, mutant)
        for n in range(7):
            # f_n reads narayana_poly(1..2n+2) and nothing else
            assert lemma_difference_argument(n) == (index > 2 * n + 2), n

    def test_no_polynomial_products(self, monkeypatch):
        lemma_difference_argument(6)  # fill the narayana_poly cache it reads
        calls = Counter()

        def counting(name, f):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return f(*args, **kwargs)

            return wrapper

        for cls, attr in ((QPolynomial, "__init__"), (QPolynomial, "__mul__"),
                          (QPolynomial, "__rmul__"), (Fraction, "__mul__"),
                          (Fraction, "__rmul__")):
            monkeypatch.setattr(cls, attr, counting(f"{cls.__name__}.{attr}", vars(cls)[attr]))
        monkeypatch.setattr(exact_core, "finite_difference_check", counting(
            "finite_difference_check", exact_core.finite_difference_check))
        assert lemma_difference_argument(6)
        assert calls == Counter()
        # the counters are live: a polynomial product trips them
        narayana_poly(3) * narayana_poly(2)
        assert calls["QPolynomial.__mul__"] and calls["QPolynomial.__init__"]


class TestParityScan:
    def test_small(self):
        assert catalan_parity_scan(10) == [0, 1, 3, 7]

    def test_zero(self):
        assert catalan_parity_scan(0) == [0]

    def test_matches_power_form(self):
        got = catalan_parity_scan(600)
        assert got == [2**k - 1 for k in range(10) if 2**k - 1 <= 600]


class TestInverseRelations:
    def test_binomial_forward_on_ones(self):
        ones = [Fraction(1)] * 10
        assert binomial_inverse("forward", ones) == [
            Fraction(2) ** n for n in range(10)
        ]

    @given(st.lists(rationals, min_size=1, max_size=20))
    @settings(max_examples=50)
    def test_binomial_round_trip(self, seq):
        seq = [Fraction(x) for x in seq]
        assert binomial_inverse("backward", binomial_inverse("forward", seq)) == seq
        assert binomial_inverse("forward", binomial_inverse("backward", seq)) == seq

    @given(st.lists(rationals, min_size=1, max_size=20))
    @settings(max_examples=50)
    def test_legendre_round_trip(self, seq):
        seq = [Fraction(x) for x in seq]
        assert legendre_inverse("backward", legendre_inverse("forward", seq)) == seq
        assert legendre_inverse("forward", legendre_inverse("backward", seq)) == seq

    def test_legendre_recovers_narayana_from_catalan_shape(self):
        polys = [narayana_poly(k) for k in range(6)]
        forward = legendre_inverse("forward", polys)
        assert legendre_inverse("backward", forward) == polys

    def test_bad_direction_rejected(self):
        with pytest.raises(ValueError):
            binomial_inverse("sideways", [Fraction(1)])

    def test_left_inversion_recovers(self):
        random.seed(42)
        for s in (1, 2, 3):
            for p in (0, 1, 2):
                b = [Fraction(random.randint(-9, 9), random.randint(1, 5)) for _ in range(4)]
                length = s * (len(b) - 1) + 1 + p  # enough room to invert
                a = left_inversion_forward(s, p, b, max(length, 12))
                assert left_inversion(s, p, a)[: len(b)] == b, (s, p)

    def test_left_inversion_forward_rejects_empty_sequence(self):
        with pytest.raises(ValueError, match="left_inversion_forward"):
            left_inversion_forward(1, 0, [], 3)

    def test_left_inversion_forward_rejects_negative_length(self):
        with pytest.raises(ValueError, match="left_inversion_forward"):
            left_inversion_forward(1, 0, [Fraction(1, 2)], -1)


# -- per-term QPolynomial accumulation of each inverse relation: an independent
# reference for the integer kernel in identities._triangular --------------------


def _poly_seq(seq):
    return [a if isinstance(a, QPolynomial) else QPolynomial.constant(a) for a in seq]


def _reference_legendre(direction, seq):
    seq = _poly_seq(seq)
    out = []
    for n in range(len(seq)):
        acc = QPolynomial.zero(seq[n].var)
        for k in range(n + 1):
            if direction == "forward":
                acc = acc + binomial(n + k, n - k) * seq[k]
            else:
                c = Fraction((2 * k + 1) * binomial(2 * n + 1, n - k), 2 * n + 1)
                acc = acc + (-1) ** (n - k) * c * seq[k]
        out.append(acc)
    return out


def _reference_binomial(direction, seq):
    seq = _poly_seq(seq)
    sign = 1 if direction == "forward" else -1
    out = []
    for n in range(len(seq)):
        acc = QPolynomial.zero(seq[n].var)
        for k in range(n + 1):
            acc = acc + sign ** (n - k) * binomial(n, k) * seq[k]
        out.append(acc)
    return out


def _reference_left_forward(s, p, seq, length):
    seq = _poly_seq(seq)
    out = []
    for n in range(length):
        acc = QPolynomial.zero("q")
        for k in range(min(n // s, len(seq) - 1) + 1):
            acc = acc + binomial(n + p, s * k + p) * seq[k]
        out.append(acc)
    return out


def _reference_left(s, p, seq):
    seq = _poly_seq(seq)
    out = []
    n = 0
    while s * n <= len(seq) - 1:
        acc = QPolynomial.zero("q")
        for k in range(s * n + 1):
            acc = acc + (-1) ** (s * n - k) * binomial(s * n + p, k + p) * seq[k]
        out.append(acc)
        n += 1
    return out


def _relations(s, p, length):
    """(kernel, reference) pairs covering every direction of every relation."""
    return [
        (partial(legendre_inverse, "forward"), partial(_reference_legendre, "forward")),
        (partial(legendre_inverse, "backward"), partial(_reference_legendre, "backward")),
        (partial(binomial_inverse, "forward"), partial(_reference_binomial, "forward")),
        (partial(binomial_inverse, "backward"), partial(_reference_binomial, "backward")),
        (
            lambda seq: left_inversion_forward(s, p, seq, length),
            lambda seq: _reference_left_forward(s, p, seq, length),
        ),
        (partial(left_inversion, s, p), partial(_reference_left, s, p)),
    ]


wide_scalars = st.one_of(
    st.integers(-(10**6), 10**6),
    st.fractions(min_value=-(10**6), max_value=10**6, max_denominator=10**6),
)


@st.composite
def mixed_sequences(draw):
    """(indeterminate, sequence): ints, Fractions and polynomials in one
    indeterminate, with denominators up to 10^6 of either sign."""
    var = draw(st.sampled_from(["q", "x"]))
    poly = st.lists(wide_scalars, max_size=4).map(lambda cs: QPolynomial(cs, var))
    return var, draw(st.lists(st.one_of(wide_scalars, poly), min_size=1, max_size=8))


class TestInverseKernel:
    @given(
        mixed_sequences(),
        st.sampled_from([1, 2, 3]),
        st.sampled_from([0, 1, 2]),
        st.integers(0, 27),
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_per_term_reference(self, var_seq, s, p, length):
        var, seq = var_seq
        for kernel, reference in _relations(s, p, length):
            got = kernel(seq)
            assert got == reference(seq)
            for poly in got:
                assert all(
                    type(c) is int or (type(c) is Fraction and c.denominator != 1)
                    for c in poly.coeffs
                ), poly
                assert poly.is_constant or poly.var == var

    def test_mixed_indeterminates_rejected(self):
        seq = [QPolynomial((0, 1), "x"), Fraction(1, 3), QPolynomial((1, 1), "q")]
        for kernel, _ in _relations(1, 0, 3):
            with pytest.raises(IndeterminateMismatchError):
                kernel(seq)

    def test_no_per_term_polynomial_arithmetic(self, monkeypatch):
        counts = {"add": 0, "mul": 0, "new": 0}

        def counting(kind, method):
            def counted(*args, **kwargs):
                counts[kind] += 1
                return method(*args, **kwargs)

            return counted

        for attr, kind in (("__add__", "add"), ("__radd__", "add"), ("__mul__", "mul"),
                           ("__rmul__", "mul"), ("__init__", "new")):
            monkeypatch.setattr(QPolynomial, attr, counting(kind, vars(QPolynomial)[attr]))
        rng = random.Random(40)
        seq = [Fraction(rng.randint(-50, 50), rng.randint(1, 60)) for _ in range(40)]
        for kernel, _ in _relations(2, 1, 2 * 39 + 1):
            counts.update(add=0, mul=0, new=0)
            out = kernel(seq)
            assert counts["add"] == counts["mul"] == 0
            assert counts["new"] <= len(out) + len(seq)


# -- the power-form sums that Horner's rule replaced: each term built with a
# fresh power of its (1 +- q) factor and of q, as an independent reference ------

_Q = QPolynomial((0, 1), "q")
_X = QPolynomial((0, 1), "x")
_ONE_MINUS_Q = QPolynomial((1, -1), "q")
_ONE_PLUS_Q = QPolynomial((1, 1), "q")
_Q_MINUS_ONE = QPolynomial((-1, 1), "q")
_Q_SQUARED = QPolynomial((0, 0, 1), "q")


def _reference_narayana_direct(n, power_of_q):
    total = QPolynomial.zero("q")
    for k in range(1, n + 1):
        c = Fraction(binomial(n, k - 1) * binomial(n, k), n)
        total = total + c * power_of_q(k)
    return total


def _reference_coker_a1(n):
    lhs = _reference_narayana_direct(n, lambda k: _Q ** (k - 1))
    rhs = QPolynomial.zero("q")
    for k in range((n - 1) // 2 + 1):
        rhs = rhs + binomial(n - 1, 2 * k) * catalan(k) * _Q**k * _ONE_PLUS_Q ** (n - 2 * k - 1)
    return lhs, rhs


def _reference_coker_b1(n):
    lhs = _reference_narayana_direct(
        n, lambda k: _Q ** (2 * (k - 1)) * _ONE_PLUS_Q ** (2 * (n - k))
    )
    rhs = QPolynomial.zero("q")
    for k in range(n):
        rhs = rhs + binomial(n - 1, k) * catalan(k + 1) * _Q**k * _ONE_PLUS_Q**k
    return lhs, rhs


def _reference_new_expansion_c1(n):
    rhs = QPolynomial.zero("q")
    for k in range(n + 1):
        rhs = rhs + binomial(n + 1, k) * binomial(2 * n - k, n) * _Q_MINUS_ONE**k
    return narayana_poly(n), rhs * Fraction(1, n + 1)


def _reference_equivalent_b2(n):
    rhs = QPolynomial.zero("q")
    for k in range(n + 1):
        c = Fraction(binomial(n + k, n - k) * binomial(2 * k, k), k + 1)
        rhs = rhs + c * _Q_MINUS_ONE ** (n - k)
    return narayana_poly(n), rhs


def _reference_main_37(n):
    rhs = QPolynomial.zero("q")
    for k in range(n + 1):
        c = Fraction((2 * k + 1) * binomial(2 * n + 1, n - k), 2 * n + 1)
        rhs = rhs + c * narayana_poly(k) * _ONE_MINUS_Q ** (n - k)
    return QPolynomial.constant(identities._catalan_rec(n), "q"), rhs


def _reference_main_38(n):
    lhs = catalan_half(n) * _Q ** (n // 2 + 1) if n % 2 == 0 else QPolynomial.zero("q")
    rhs = QPolynomial.zero("q")
    for k in range(n + 1):
        term = binomial(n, k) * narayana_poly(k + 1) * _ONE_PLUS_Q ** (n - k)
        rhs = rhs + (-1) ** (n - k) * term
    return lhs, rhs


def _reference_main_39(n):
    rhs = QPolynomial.zero("q")
    for k in range(n + 1):
        nk1 = narayana_poly(k + 1).substitute(_Q_SQUARED)
        term = binomial(n, k) * nk1 * _ONE_MINUS_Q ** (2 * (n - k))
        rhs = rhs + (-1) ** (n - k) * term
    return catalan(n + 1) * _Q ** (n + 2), rhs


def _reference_simons_aa(n):
    one_plus_x = QPolynomial((1, 1), "x")
    lhs = QPolynomial.zero("x")
    rhs = QPolynomial.zero("x")
    for k in range(n + 1):
        c = binomial(n + k, n - k) * binomial(2 * k, k)
        lhs = lhs + (-1) ** (n - k) * c * one_plus_x**k
        rhs = rhs + c * _X**k
    return lhs, rhs


def _reference_f_poly(n):
    total = QPolynomial.zero("q")
    for k in range(2 * n + 2):
        term = binomial(2 * n + 1, k) * narayana_poly(k + 1) * _ONE_PLUS_Q ** (2 * n + 1 - k)
        total = total + (-1) ** k * term
    return total


def _reference_catlan2(n):
    rhs = QPolynomial.zero("q")
    for k in range(2 * n + 1):
        term = binomial(2 * n, k) * narayana_poly(k + 1) * _ONE_PLUS_Q ** (2 * n - k)
        rhs = rhs + (-1) ** k * term
    return catalan(n) * _Q ** (n + 1), rhs


def _reference_integral_representation(n):
    anti = legendre_poly(n, "shifted").antiderivative()
    value = QPolynomial.zero("q")
    for j in range(1, anti.degree + 1):
        value = value + anti.coefficient(j) * _Q**j * _Q_MINUS_ONE ** (n + 1 - j)
    return narayana_poly(n), value


def _reference_shifted_legendre(n):
    x_minus_1 = QPolynomial((-1, 1), "x")
    total = QPolynomial.zero("x")
    for k in range(n + 1):
        total = total + binomial(n + k, n - k) * binomial(2 * k, k) * x_minus_1**k
    return total


_REFERENCE_SIDES = {
    "coker_a1": _reference_coker_a1,
    "coker_b1": _reference_coker_b1,
    "new_expansion_c1": _reference_new_expansion_c1,
    "equivalent_b2": _reference_equivalent_b2,
    "main_37": _reference_main_37,
    "main_38": _reference_main_38,
    "main_39": _reference_main_39,
    "simons_aa": _reference_simons_aa,
    "lemma_f_zero": lambda n: (_reference_f_poly(n), QPolynomial.zero("q")),
    "catlan2": _reference_catlan2,
}


def _identical(got, want):
    """Same indeterminate, same stored coefficients, each of the same type."""
    return (
        got.var == want.var
        and got.coeffs == want.coeffs
        and [type(c) for c in got.coeffs] == [type(c) for c in want.coeffs]
    )


class TestHornerSums:
    @pytest.mark.parametrize("tag", sorted(_REFERENCE_SIDES))
    def test_sides_match_power_form(self, tag):
        for n in range(identity_min_n(tag), 13):
            result = check_identity(tag, n)
            want_lhs, want_rhs = _REFERENCE_SIDES[tag](n)
            assert _identical(result.lhs, want_lhs), (tag, n, result.lhs, want_lhs)
            assert _identical(result.rhs, want_rhs), (tag, n, result.rhs, want_rhs)

    def test_integral_representation_matches_power_form(self):
        for n in range(1, 13):
            result = integral_representation_check(n)
            want_lhs, want_rhs = _reference_integral_representation(n)
            assert _identical(result.lhs, want_lhs) and _identical(result.rhs, want_rhs), n

    def test_shifted_legendre_matches_power_form(self):
        for n in range(13):
            got = legendre_poly(n, "shifted")
            assert _identical(got, _reference_shifted_legendre(n)), n
            # and the contract: the standard form composed with 2x - 1
            assert got == legendre_poly(n, "standard").substitute(QPolynomial((-1, 2), "x"))

    def test_no_polynomial_powers(self, monkeypatch):
        # every check sums by Horner's rule and builds monomials directly, so
        # with the sequence caches warm no check raises a polynomial to a power
        top = 10
        for tag in IDENTITY_TAGS:
            for n in range(identity_min_n(tag), top + 1):
                check_identity(tag, n)
        calls = Counter()
        real = QPolynomial.__pow__

        def counting(self, e):
            calls[e] += 1
            return real(self, e)

        monkeypatch.setattr(QPolynomial, "__pow__", counting)
        for tag in IDENTITY_TAGS:
            for n in range(identity_min_n(tag), top + 1):
                assert check_identity(tag, n).equal
        for n in range(1, top + 1):
            assert integral_representation_check(n).equal
            legendre_poly.__wrapped__(n, "shifted")
        assert calls == Counter()
        # the counter is live: the power-form reference trips it
        _reference_coker_a1(4)
        assert calls


# -- the four Pell/Lucas/Fibonacci applications as separate bodies, one per
# identity, as an independent reference for the shared table rows ---------------


def _reference_app_pell_odd(n):
    lhs = 2 ** (n + 1) * catalan(2 * n + 1)
    rhs = Fraction(0)
    for k in range(2 * n + 1):
        term = binomial(2 * n, k) * narayana_poly(k + 1)(2) * pell(4 * n - 2 * k - 1)
        rhs += (-1) ** k * term
    return lhs, rhs


def _reference_app_pell_even(n):
    lhs = 2 ** (n + 1) * catalan(2 * n + 2)
    rhs = Fraction(0)
    for k in range(2 * n + 2):
        term = binomial(2 * n + 1, k) * narayana_poly(k + 1)(2) * pell(4 * n - 2 * k + 2)
        rhs += (-1) ** k * term
    return lhs, rhs


def _reference_app_lucas(n):
    lhs = 5 ** (n + 1) * catalan(2 * n + 1)
    rhs = Fraction(0)
    for k in range(2 * n + 1):
        term = (
            binomial(2 * n, k)
            * narayana_poly(k + 1)(5)
            * lucas(4 * n - 2 * k - 1)
            * Fraction(2) ** (4 * n - 2 * k - 1)
        )
        rhs += (-1) ** k * term
    return lhs, rhs


def _reference_app_fibonacci(n):
    lhs = 5 ** (n + 1) * catalan(2 * n + 2)
    rhs = Fraction(0)
    for k in range(2 * n + 2):
        term = (
            binomial(2 * n + 1, k)
            * narayana_poly(k + 1)(5)
            * fibonacci(4 * n - 2 * k + 1)
            * Fraction(2) ** (4 * n - 2 * k + 1)
        )
        rhs += (-1) ** k * term
    return lhs, rhs


_REFERENCE_APP_SIDES = {
    "app_pell_odd": _reference_app_pell_odd,
    "app_pell_even": _reference_app_pell_even,
    "app_lucas": _reference_app_lucas,
    "app_fibonacci": _reference_app_fibonacci,
}


class TestAppRecurrence:
    @pytest.mark.parametrize("tag", sorted(_REFERENCE_APP_SIDES))
    def test_rows_match_separate_bodies(self, tag):
        # lhs is point^{n+1} C_{m+1}, an int; rhs sums terms with 2^j, j >= -1
        for n in range(17):
            result = check_identity(tag, n)
            lhs, rhs = _REFERENCE_APP_SIDES[tag](n)
            assert result.lhs == lhs and type(result.lhs) is type(lhs) is int, (tag, n)
            assert result.rhs == rhs and type(result.rhs) is type(rhs) is Fraction, (tag, n)
            assert result.equal, (tag, n)


# -- mutation audit: one helper of the identities module patched at a time -------

_AUDIT_MAX_N = 8

def _undivided_horner(real, base, terms):
    """horner as if it dropped its final division by a common denominator of 2:
    the sum doubled whenever some term has a coefficient that is not an int.
    (A division by the true d, dropped, would go unseen here: every sum that
    identities passes to horner has whole coefficients at n <= 8, so d = 1.)"""
    terms = list(terms)
    coeffs = [c for a in terms for c in (a.coeffs if isinstance(a, QPolynomial) else (a,))]
    total = real(base, terms)
    return 2 * total if any(type(c) is not int for c in coeffs) else total


# helper -> mutant factory (given the real helper): one entry off by one each,
# and horner's two summing the terms in reverse order or skipping the division
_MUTANTS = {
    "narayana_poly": lambda real: lambda n: real(n) + (_Q if n == 5 else 0),
    "binomial": lambda real: lambda n, k: real(n, k) + ((n, k) == (7, 3)),
    "catalan": lambda real: lambda n: real(n) + (n == 4),
    "_catalan_rec": lambda real: lambda n: real(n) + (n == 4),
    "legendre_poly": lambda real: lambda n, form="standard": real(n, form) + (n == 3),
    "catalan_half": lambda real: lambda n: real(n) + (n == 4),
    "pell": lambda real: lambda n: real(n) + (n == 5),
    "lucas": lambda real: lambda n: real(n) + (n == 5),
    "fibonacci": lambda real: lambda n: real(n) + (n == 5),
    # two mutants of one helper: the name before the slash is what is patched
    "horner/reversed": lambda real: lambda base, terms: real(base, list(terms)[::-1]),
    "horner/undivided": lambda real: partial(_undivided_horner, real),
    # the helpers that compute one side of a registry row
    "expansion": lambda real: lambda family, n: real(family, n) + (_Q if n == 5 else 0),
    "_at_q_squared": lambda real: lambda p: real(p) + (_Q if p.degree == 4 else 0),
    "_narayana_direct": lambda real: lambda n: [
        c + (n == 5 and i == 1) for i, c in enumerate(real(n))
    ],
    "_alternating_catalan": lambda real: lambda m, b: real(m, b) + (m == 4),
    "_app_recurrence": lambda real: lambda n, *rest: real(n, *rest) + (n == 3),
}

# helper -> the checks that fail for some n <= 8 under its mutant; up to
# horner's own, the same sets as for the power-form sums, so the Horner
# evaluation catches no less
_CAUGHT_BY = {
    "narayana_poly": {
        "app_fibonacci", "app_lucas", "app_pell_even", "app_pell_odd", "catlan2",
        "equivalent_b2", "integral_representation", "lemma_f_zero", "main_37", "main_38",
        "main_39", "new_expansion_c1", "parity",
    },
    "binomial": {
        "alt_sum_310", "app_fibonacci", "app_pell_even", "app_qm1_39", "coker_a1", "coker_b1",
        "equivalent_b2", "lemma_f_zero", "main_37", "main_38", "main_39", "new_expansion_c1",
        "simons_aa",
    },
    "catalan": {
        "app_fibonacci", "app_pell_even", "app_pow2", "app_q1_38", "app_qm1_39",
        "app_touchard", "catlan2", "coker_b1", "main_39",
    },
    "_catalan_rec": {"app_q1_38", "app_qm1_39", "app_touchard", "main_37"},
    "legendre_poly": {"integral_representation", "legendre_reflection"},
    "catalan_half": {"main_38"},
    "pell": {"app_pell_odd"},
    "lucas": {"app_lucas"},
    "fibonacci": {"app_fibonacci"},
    "horner/reversed": {
        "catlan2", "coker_a1", "coker_b1", "equivalent_b2", "integral_representation",
        "lemma_f_zero", "main_37", "main_38", "main_39", "new_expansion_c1", "simons_aa",
    },
    # not coker_b1: its terms binomial * catalan are ints, which this mutant
    # leaves as they are
    "horner/undivided": {"equivalent_b2"},
    # (3.8)'s sum at m = 5 is -f_2; catlan2 sums it at even m only
    "expansion": {"lemma_f_zero", "main_37", "main_38", "main_39"},
    "_at_q_squared": {"main_39"},
    "_narayana_direct": {"coker_a1", "coker_b1"},
    "_alternating_catalan": {"app_q1_38", "app_qm1_39"},
    "_app_recurrence": {"app_fibonacci", "app_lucas", "app_pell_even", "app_pell_odd"},
}


def _failing_checks() -> set:
    """The registered checks and the integral representation that fail for
    some admissible n <= _AUDIT_MAX_N."""
    runs = [
        (tag, partial(check_identity, tag), range(identity_min_n(tag), _AUDIT_MAX_N + 1))
        for tag in IDENTITY_TAGS
    ]
    runs.append(("integral_representation", integral_representation_check,
                 range(1, _AUDIT_MAX_N + 1)))
    return {name for name, check, ns in runs if not all(check(n).equal for n in ns)}


class TestMutationAudit:
    def test_unmutated_checks_all_pass(self):
        assert _failing_checks() == set()

    @pytest.mark.parametrize("helper", sorted(_MUTANTS))
    def test_catch_set(self, monkeypatch, helper):
        name = helper.split("/")[0]
        monkeypatch.setattr(identities, name, _MUTANTS[helper](getattr(identities, name)))
        assert _failing_checks() == _CAUGHT_BY[helper]

    def test_zero_f_poly_is_a_blind_spot(self, monkeypatch, narayana_mutant):
        # lemma_f_zero compares f_poly with zero, so an f_poly that returns zero
        # passes it whatever narayana_poly holds; lemma_difference_argument
        # (criterion 9's second path) never calls f_poly and still fails
        monkeypatch.setattr(identities, "f_poly", lambda n: QPolynomial.zero("q"))
        narayana_mutant(5, lambda real, n, k: real(n, k) + (k == 2))
        for n in range(2, _AUDIT_MAX_N + 1):
            assert check_identity("lemma_f_zero", n).equal, n
            assert not lemma_difference_argument(n), n


# -- the two sides of each check, run apart ----------------------------------------

# what both sides of a check may share without it certifying itself: binomial,
# exact coefficient intake and the QPolynomial ring operations
_RING = {"binomial", "_as_scalar"} | {f"QPolynomial.{name}" for name in (
    "__init__", "zero", "one", "constant", "monomial", "_coerce", "_join_var", "degree",
    "is_zero", "is_constant", "coefficient", "__add__", "__neg__", "__sub__", "__rsub__",
    "__mul__", "__pow__", "__call__", "__eq__",
)}

# tag -> the narayana functions past _RING that both of its sides reach; the
# overlaps the identities docstring lists, and none for every other tag
_SHARED = {
    "coker_b1": {"horner"},
    "legendre_reflection": {"horner", "QPolynomial.substitute", "legendre_poly"},
}


def _qualnames() -> dict:
    """code object -> qualified name of each function and method the narayana
    modules define (a lambda or a comprehension has none).  Read from the
    functions, not from the frames, as Python 3.10's code has no qualname."""
    names = {}
    for module in (combinat, exact_core, identities, sequences, series):
        for obj in vars(module).values():
            for f in vars(obj).values() if isinstance(obj, type) else (obj,):
                f = inspect.unwrap(getattr(f, "fget", getattr(f, "__func__", f)))
                if getattr(f, "__module__", None) == module.__name__ and hasattr(f, "__code__"):
                    names[f.__code__] = f.__qualname__
    return names


def _reached(side, n: int, names: dict) -> set:
    """The narayana functions that side(n) enters.  The narayana_poly and
    legendre_poly caches are cleared first, as a cache hit enters no frame."""
    sequences.narayana_poly.cache_clear()
    sequences.legendre_poly.cache_clear()
    entered = set()

    def profile(frame, event, arg):
        if event == "call" and frame.f_code in names:
            entered.add(names[frame.f_code])

    sys.setprofile(profile)
    try:
        side(n)
    finally:
        sys.setprofile(None)
    return entered


def _shared(tag: str) -> set:
    """The narayana functions past _RING that both sides of tag reach at
    n = max(min_n, 5), each side run alone."""
    min_n, lhs, rhs = identities._REGISTRY[tag]
    n, names = max(min_n, 5), _qualnames()
    return (_reached(lhs, n, names) & _reached(rhs, n, names)) - _RING


class TestSideIndependence:
    @pytest.mark.parametrize("tag", IDENTITY_TAGS)
    def test_shared_helpers(self, tag):
        assert _shared(tag) == _SHARED.get(tag, set())

    def test_a_shared_helper_shows(self, monkeypatch):
        # the footprint is live: new_expansion_c1 with its lhs as its rhs too
        # shares narayana_poly, whose cached result would otherwise hide it
        min_n, lhs, _ = identities._REGISTRY["new_expansion_c1"]
        monkeypatch.setitem(identities._REGISTRY, "new_expansion_c1", (min_n, lhs, lhs))
        assert _shared("new_expansion_c1") == {"narayana_poly", "narayana_number"}
