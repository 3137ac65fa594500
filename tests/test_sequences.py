from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from narayana import identities, sequences
from narayana.exact_core import QPolynomial, binomial
from narayana.sequences import (
    assoc_narayana_poly,
    catalan,
    catalan_half,
    fibonacci,
    legendre_poly,
    lucas,
    narayana_number,
    narayana_poly,
    pell,
    recurrence_seq,
)

CATALAN_PREFIX = [1, 1, 2, 5, 14, 42, 132, 429, 1430, 4862, 16796]


def schroeder_oracle(top):
    """Large Schroeder numbers via their three-term recurrence, independent
    of any polynomial evaluation: (n+1) S_n = 3(2n-1) S_{n-1} - (n-2) S_{n-2}."""
    vals = [Fraction(1), Fraction(2)]
    for n in range(2, top + 1):
        s = (3 * (2 * n - 1) * vals[n - 1] - (n - 2) * vals[n - 2]) / (n + 1)
        vals.append(s)
    return vals[: top + 1]


class TestCatalan:
    def test_prefix(self):
        assert [catalan(n) for n in range(11)] == CATALAN_PREFIX

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            catalan(-1)

    @given(st.integers(1, 60))
    def test_segner_recurrence(self, n):
        assert catalan(n) == sum(catalan(i) * catalan(n - 1 - i) for i in range(n))

    def test_catalan_half(self):
        assert catalan_half(0) == 1
        assert catalan_half(1) == 0
        assert catalan_half(4) == 2
        assert catalan_half(10) == catalan(5)

    def test_whole_numbers_are_ints(self):
        # exact_core's rule: a whole rational is an int, never a Fraction
        # with denominator 1
        values = [catalan(n) for n in range(40)] + [catalan_half(n) for n in range(40)]
        values += [narayana_number(n, k) for n in range(20) for k in range(-1, n + 2)]
        values += [identities._catalan_rec(n) for n in range(40)]
        assert {type(v) for v in values} == {int}


class TestNarayana:
    def test_triangle_values(self):
        assert narayana_number(0, 0) == 1
        assert narayana_number(4, 2) == 6
        assert [narayana_number(4, k) for k in range(1, 5)] == [1, 6, 6, 1]

    def test_poly_small(self):
        assert narayana_poly(0) == QPolynomial.one("q")
        assert narayana_poly(1) == QPolynomial((0, 1), "q")
        assert narayana_poly(3) == QPolynomial((0, 1, 3, 1), "q")

    @given(st.integers(0, 60))
    def test_value_at_one_is_catalan(self, n):
        assert narayana_poly(n)(1) == catalan(n)

    def test_value_at_two_is_schroeder(self):
        oracle = schroeder_oracle(40)
        for n in range(41):
            assert narayana_poly(n)(2) == oracle[n]

    @given(st.integers(1, 40))
    def test_assoc_palindromic(self, n):
        p = assoc_narayana_poly(n)
        coeffs = [p.coefficient(i) for i in range(n)]
        assert coeffs == coeffs[::-1]

    @given(st.integers(1, 40))
    def test_assoc_is_quotient_by_q(self, n):
        full = narayana_poly(n)
        assert full.coefficient(0) == 0
        shifted = QPolynomial(
            tuple(full.coefficient(i + 1) for i in range(full.degree)), "q"
        )
        assert shifted == assoc_narayana_poly(n)

    @given(st.integers(1, 25))
    def test_parity_identity(self, r):
        assert narayana_poly(2 * r)(-1) == 0
        assert narayana_poly(2 * r + 1)(-1) == (-1) ** (r + 1) * catalan(r)


class TestLegendre:
    def test_standard_small(self):
        assert legendre_poly(0, "standard") == QPolynomial.one("x")
        assert legendre_poly(1, "standard") == QPolynomial((0, 1), "x")
        # P_2 = (3x^2 - 1)/2
        assert legendre_poly(2, "standard") == QPolynomial(
            (Fraction(-1, 2), 0, Fraction(3, 2)), "x"
        )

    @given(st.integers(0, 40))
    def test_shifted_matches_substitution(self, n):
        image = QPolynomial((-1, 2), "x")
        assert legendre_poly(n, "standard").substitute(image) == legendre_poly(
            n, "shifted"
        )

    @given(st.integers(2, 30))
    def test_bonnet_recurrence(self, n):
        x = QPolynomial((0, 1), "x")
        lhs = n * legendre_poly(n, "standard")
        rhs = (2 * n - 1) * x * legendre_poly(n - 1, "standard") - (
            n - 1
        ) * legendre_poly(n - 2, "standard")
        assert lhs == rhs

    @given(st.integers(0, 30))
    def test_value_at_one(self, n):
        assert legendre_poly(n, "standard")(1) == 1

    def test_unknown_form_rejected(self):
        with pytest.raises(ValueError):
            legendre_poly(3, "monic")


class TestRecurrences:
    def test_pell_prefix(self):
        assert [pell(n) for n in range(-1, 7)] == [1, 0, 1, 2, 5, 12, 29, 70]

    def test_lucas_prefix(self):
        assert [lucas(n) for n in range(-1, 7)] == [2, 1, 3, 4, 7, 11, 18, 29]

    def test_fibonacci_prefix(self):
        # indexed from -1 with G_0 = 1, so the positive terms run 1,2,3,5,...
        assert [fibonacci(n) for n in range(-1, 7)] == [0, 1, 1, 2, 3, 5, 8, 13]

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError):
            recurrence_seq("jacobsthal", 3)

    def test_index_below_minus_one_rejected(self):
        with pytest.raises(ValueError):
            pell(-2)

    @pytest.mark.parametrize("order", [range(300, -2, -1), range(-1, 301), [300, 7, 150, -1, 299]])
    def test_grown_values_match_a_fresh_loop(self, monkeypatch, order):
        # one list per sequence, grown on demand: any call order, a large index
        # first included, gives the values of the recurrence run from -1
        monkeypatch.setattr(sequences, "_recurrence_values", {})
        for name, (prev, cur, mult) in sequences._RECURRENCES.items():
            fresh = [prev, cur]
            while len(fresh) < 302:
                fresh.append(mult * fresh[-1] + fresh[-2])
            assert [recurrence_seq(name, n) for n in order] == [fresh[n + 1] for n in order]
            assert sequences._recurrence_values[name][:302] == fresh

    @given(st.sampled_from(["pell", "lucas", "fibonacci"]), st.integers(1, 40))
    def test_recurrence_holds(self, name, n):
        mult = {"pell": 2, "lucas": 1, "fibonacci": 1}[name]
        assert recurrence_seq(name, n) == mult * recurrence_seq(
            name, n - 1
        ) + recurrence_seq(name, n - 2)


class TestCrossChecks:
    @given(st.integers(0, 30))
    def test_central_binomial_vs_catalan(self, n):
        assert binomial(2 * n, n) == (n + 1) * catalan(n)

    @given(st.integers(1, 30))
    def test_narayana_row_sums(self, n):
        assert sum(narayana_number(n, k) for k in range(1, n + 1)) == catalan(n)
