from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from narayana import exact_core, series
from narayana.cli import _CHECKS
from narayana.exact_core import PolySeries, QPolynomial
from narayana.sequences import catalan, narayana_poly
from narayana.series import (
    _catalan_power,
    catalan_series,
    lagrange_coefficient_check,
    legendre_gf_check,
    omega_closed_form_check,
    omega_composition_check,
    omega_series,
)


class TestCatalanSeries:
    def test_coefficients_are_catalan(self):
        c = catalan_series(12)
        for n in range(13):
            assert c.coefficient(n) == QPolynomial.constant(catalan(n), "q")

    def test_coefficients_are_stored_as_int(self):
        assert all(type(p.coeffs[0]) is int for p in catalan_series(12).coeffs)

    @given(st.integers(1, 40))
    @settings(max_examples=15, deadline=None)
    def test_functional_equation(self, order):
        c = catalan_series(order)
        x = PolySeries([0, 1], order)
        residual = c - 1 - x * c * c
        assert residual == PolySeries.zero(order)


class TestOmega:
    def test_coefficients_are_narayana_polys(self):
        om = omega_series(10)
        for n in range(11):
            assert om.coefficient(n) == narayana_poly(n)

    def test_closed_form(self):
        r = omega_closed_form_check(16)
        assert r.equal

    @pytest.mark.parametrize("variant", ["first", "second"])
    def test_compositions(self, variant):
        assert omega_composition_check(variant, 14).equal

    @pytest.mark.parametrize("variant", ["first", "second"])
    def test_compositions_at_order_100(self, variant):
        # within Tier-1's time only because each composition step divides by
        # d^2 or e^2 instead of multiplying by a dense inner series
        assert omega_composition_check(variant, 100).equal

    def test_unknown_variant_rejected(self):
        with pytest.raises(ValueError):
            omega_composition_check("third", 5)


class TestLagrange:
    def test_sweep(self):
        for n in range(16):
            for k in range(n + 1):
                assert lagrange_coefficient_check(n, k).equal, (n, k)

    def test_k_above_n_rejected(self):
        with pytest.raises(ValueError):
            lagrange_coefficient_check(3, 4)


class TestLegendreGF:
    def test_through_order_16(self):
        assert legendre_gf_check(16).equal

    def test_small_orders(self):
        for order in (0, 1, 2, 5):
            assert legendre_gf_check(order).equal


def _reference_catalan_power(exponent, order, cache):
    """C(x)^exponent as a PolySeries, cached per (exponent, order) pair."""
    key = (exponent, order)
    if key not in cache:
        if exponent == 0:
            cache[key] = PolySeries.one(order)
        elif exponent <= 2:
            c = catalan_series(order)
            cache[(1, order)] = c
            cache[(2, order)] = c * c
        else:
            cache[key] = _reference_catalan_power(exponent - 2, order, cache) * (
                _reference_catalan_power(2, order, cache)
            )
    return cache[key]


class TestCatalanPowers:
    """C^(2k+1) grown once per exponent, in int, agrees with the series
    products it replaced whatever order the requests come in."""

    @given(st.lists(st.tuples(st.integers(0, 12), st.integers(0, 12)), min_size=1, max_size=12))
    @settings(max_examples=40, deadline=None)
    def test_matches_pair_keyed_products(self, requests):
        cache, reference = {}, {}
        original = series._catalan_power_cache
        series._catalan_power_cache = cache
        try:
            for k, order in requests:
                got = _catalan_power(2 * k + 1, order)
                expected = _reference_catalan_power(2 * k + 1, order, reference)
                assert [type(c) for c in got] == [int] * (order + 1)
                assert got == [p.constant_value() for p in expected.coeffs]
            # grown to the largest order asked of it, never rebuilt per order
            longest = {}
            for k, order in requests:
                for e in range(3, 2 * k + 2, 2):
                    longest[e] = max(longest.get(e, 0), order + 1)
            assert {e: len(cs) for e, cs in cache.items() if e > 1} == longest
        finally:
            series._catalan_power_cache = original

    def test_cache_is_keyed_by_exponent(self, monkeypatch):
        monkeypatch.setattr(series, "_catalan_power_cache", {})
        for n in range(9):
            for k in range(n + 1):
                assert lagrange_coefficient_check(n, k).equal
        assert sorted(series._catalan_power_cache) == list(range(1, 18, 2))


def _five_series_checks(order):
    """What `verify --max-n order` runs of this module's checks: cli._CHECKS'
    rows after integral_representation."""
    names = list(_CHECKS)
    series_names = names[names.index("integral_representation") + 1:]
    assert len(series_names) == 5, series_names
    for name in series_names:
        yield from _CHECKS[name][1](order)


class TestSeriesCost:
    def test_products_at_order_30(self, monkeypatch):
        # Series products are summed term by term in exact_core._combine, not
        # by QPolynomial.__mul__.  From cold caches these checks gave it 8,528
        # (weight, f, g) terms at order 30 before the compositions divided by
        # sparse series, and 3,071 after; allow at most half of the former.
        exact_core.clear_caches()
        terms = [0]
        real = exact_core._combine

        def counted(products, divisor=1):
            products = list(products)
            terms[0] += len(products)
            return real(products, divisor)

        monkeypatch.setattr(exact_core, "_combine", counted)
        assert all(r.equal for r in _five_series_checks(30))
        assert terms[0] <= 8528 // 2, terms[0]


class TestSidesAreIndependent:
    """Each series check's left side never calls narayana_poly, legendre_poly
    or binomial, so a wrong value from one of them makes the check fail."""

    @pytest.mark.parametrize(
        "attr, mutant, check",
        [
            ("narayana_poly", lambda real: lambda n: real(n) + (1 if n == 4 else 0),
             lambda: omega_closed_form_check(6)),
            ("narayana_poly", lambda real: lambda n: real(n) + (1 if n == 4 else 0),
             lambda: omega_composition_check("first", 6)),
            ("narayana_poly", lambda real: lambda n: real(n) + (1 if n == 4 else 0),
             lambda: omega_composition_check("second", 6)),
            ("legendre_poly", lambda real: lambda n, form: real(n, form) + (1 if n == 4 else 0),
             lambda: legendre_gf_check(6)),
            ("binomial", lambda real: lambda n, k: real(n, k) + (1 if n == 15 else 0),
             lambda: lagrange_coefficient_check(7, 2)),
        ],
        ids=["closed-form", "first", "second", "legendre-gf", "lagrange"],
    )
    def test_wrong_right_side_fails(self, monkeypatch, attr, mutant, check):
        assert check().equal
        monkeypatch.setattr(series, attr, mutant(getattr(series, attr)))
        assert not check().equal
