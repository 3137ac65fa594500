import contextlib
import inspect
import io
import random
import sys
import threading
import time
from collections import Counter
from fractions import Fraction
from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from narayana import cli, combinat, exact_core, identities, sequences, series
from narayana.cli import _CHECKS
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

    @pytest.mark.parametrize("n", [-1, -5])
    def test_difference_argument_rejects_negative_n(self, n):
        with pytest.raises(ValueError, match="lemma_difference_argument"):
            lemma_difference_argument(n)

    def test_difference_argument_at_200_in_seconds(self):
        # F_j(k) is grown as a value, k by k, not evaluated from its coefficients
        start = time.perf_counter()
        assert lemma_difference_argument(200)
        assert time.perf_counter() - start < 5

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
def fresh_caches():
    """Every memo empty for the test and after it, so that no cache hands a
    mutant its real values or keeps the mutant's."""
    exact_core.clear_caches()
    yield
    exact_core.clear_caches()


@pytest.fixture
def narayana_mutant(monkeypatch):
    """Install a mutant of narayana_number at one index behind cleared caches;
    the real one and clean caches come back after."""

    def install(index, mutant):
        real = sequences.narayana_number
        monkeypatch.setattr(
            sequences, "narayana_number",
            lambda n, k: mutant(real, n, k) if n == index else real(n, k),
        )
        exact_core.clear_caches()

    yield install
    monkeypatch.undo()
    exact_core.clear_caches()


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


def _ragged_polynomials(rng, length):
    """`length` polynomials in x of degree 0-5 with small rational coefficients,
    the zero polynomial among them."""
    seq = [
        QPolynomial([Fraction(rng.randint(-9, 9), rng.randint(1, 9))
                     for _ in range(rng.randint(0, 5))] + [Fraction(1, rng.randint(1, 9))], "x")
        for _ in range(length - 1)
    ]
    seq.insert(rng.randrange(length), QPolynomial.zero("x"))
    return seq


@pytest.fixture(scope="module")
def bench_size_cases():
    """(kernel, input, per-term reference output) at the benchmark's sizes:
    length-40 Fraction sequences and length-20 ragged polynomial sequences,
    each direction once and left inversion at every s in 1..3, p in 0..2."""
    rng = random.Random(17)
    sequences = [[Fraction(rng.randint(-50, 50), rng.randint(1, 60)) for _ in range(40)]
                 for _ in range(2)]
    sequences += [_ragged_polynomials(rng, 20) for _ in range(2)]
    cases = []
    for seq in sequences:
        pairs = _relations(1, 0, len(seq))[:4]
        for s in (1, 2, 3):
            for p in (0, 1, 2):
                pairs += _relations(s, p, s * (len(seq) - 1) + 1)[4:]
        cases += [(kernel, seq, reference(seq)) for kernel, reference in pairs]
    return cases


def _bench_size_misses(cases):
    """How many cases' kernel outputs differ from the reference in value,
    coefficient type or indeterminate."""
    return sum(
        len(got) != len(want) or not all(map(_identical, got, want))
        for got, want in ((kernel(seq), want) for kernel, seq, want in cases)
    )


def _wrong_parity(row):
    row = list(row)
    row[-1::-2] = [-c for c in row[-1::-2]]
    return row


def _stale(real):
    """The row reader serving row n + 1 as row n once its key has grown."""
    def stale(count, *key):
        grown = key in identities._rows_memo
        rows = real(count + 1, *key)
        return rows[1:] if grown else rows[:count]

    return stale


# kernel mutants the benchmark-size check must catch: name -> (attribute, mutant)
_KERNEL_MUTANTS = {
    "sign-on-wrong-parity": ("_alternate", lambda real: _wrong_parity),
    "stale-memo": ("_rows", _stale),
    "zip-drops-columns": ("zip_longest", lambda real: lambda *rows, fillvalue: zip(*rows)),
    "divisor-ignored": ("_triangular", lambda real: lambda name, seq, rows: real(
        name, seq, lambda m: ((weights, 1) for weights, _ in rows(m)))),
}


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

    def test_matches_per_term_reference_at_bench_sizes(self, bench_size_cases):
        assert _bench_size_misses(bench_size_cases) == 0

    @pytest.mark.parametrize("mutant", sorted(_KERNEL_MUTANTS))
    def test_bench_size_check_catches_mutant(
        self, monkeypatch, bench_size_cases, fresh_caches, mutant
    ):
        attr, make = _KERNEL_MUTANTS[mutant]
        monkeypatch.setattr(identities, attr, make(getattr(identities, attr)))
        assert _bench_size_misses(bench_size_cases) > 0

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
        scalars = [Fraction(rng.randint(-50, 50), rng.randint(1, 60)) for _ in range(40)]
        for seq in (scalars, _ragged_polynomials(rng, 20)):
            for kernel, _ in _relations(2, 1, 2 * (len(seq) - 1) + 1):
                counts.update(add=0, mul=0, new=0)
                out = kernel(seq)
                assert counts["add"] == counts["mul"] == 0
                assert counts["new"] <= len(out) + len(seq)


def _fresh_row(n, relation, *params):
    """Row n of a relation's weights, (weights, divisor), entry by entry from
    its formula: an independent reference for the rows in `_rows_memo`."""
    if relation == "legendre forward":
        return [binomial(n + k, n - k) for k in range(n + 1)], 1
    if relation == "legendre backward":
        return [(-1) ** (n - k) * (2 * k + 1) * binomial(2 * n + 1, n - k)
                for k in range(n + 1)], 2 * n + 1
    if relation.startswith("binomial"):
        sign = 1 if relation.endswith("forward") else -1
        return [sign ** (n - k) * binomial(n, k) for k in range(n + 1)], 1
    s, p = params
    if relation == "left forward":
        return [binomial(n + p, s * k + p) for k in range(n // s + 1)], 1
    return [(-1) ** (s * n - k) * binomial(s * n + p, k + p) for k in range(s * n + 1)], 1


def _bench_size_calls(lengths):
    """Every relation, each direction and left inversion at s in 1..3, p in 0..2,
    on a scalar sequence of each length, as at the benchmark's sizes."""
    rng = random.Random(23)
    for length in lengths:
        seq = [Fraction(rng.randint(-50, 50), rng.randint(1, 60)) for _ in range(length)]
        kernels = [kernel for kernel, _ in _relations(1, 0, length)[:4]]
        for s in (1, 2, 3):
            for p in (0, 1, 2):
                kernels += [kernel for kernel, _ in _relations(s, p, s * (length - 1) + 1)[4:]]
        for kernel in kernels:
            kernel(seq)


def _rejected_calls():
    seq = [Fraction(1, 2)] * 3
    calls = [partial(relation, "sideways", seq) for relation in (legendre_inverse, binomial_inverse)]
    for s, p, length in ((0, 0, 3), (1, -1, 3), (1, 0, -1), (1, 0, 2.0), (1, 0, None)):
        calls.append(partial(left_inversion_forward, s, p, seq, length))
    return calls + [partial(left_inversion, 0, 0, seq), partial(left_inversion, 1, -1, seq)]


class TestRowsMemo:
    @pytest.fixture(autouse=True)
    def cold_memo(self, monkeypatch):
        monkeypatch.setattr(identities, "_rows_memo", {})

    def test_memo_rows_equal_fresh_rows_at_bench_sizes(self):
        _bench_size_calls((20, 40))
        memo = identities._rows_memo
        assert {key[0] for key in memo} == set(identities._ROWS)
        assert {key[1:] for key in memo if key[0].startswith("left")} == {
            (s, p) for s in (1, 2, 3) for p in (0, 1, 2)
        }
        for key, rows in memo.items():
            s = key[1] if key[0].startswith("left") else 1
            assert len(rows) == {"left forward": 39 * s + 1, "left": 39 // s + 1}.get(key[0], 40)
            assert identities._rows(len(rows), *key) == [
                _fresh_row(n, *key) for n in range(len(rows))
            ], key
            assert all(type(w) is int for weights, _ in rows for w in weights), key

    def test_shorter_request_builds_no_row(self, monkeypatch):
        _bench_size_calls((40,))
        built = []

        def counting(name, row):
            def counted(n, *params):
                built.append((name, n))
                return row(n, *params)

            return counted

        monkeypatch.setattr(identities, "_ROWS", {
            name: counting(name, row) for name, row in identities._ROWS.items()
        })
        _bench_size_calls((40, 20, 1))
        assert built == []

    @pytest.mark.parametrize("warm", [False, True])
    def test_rejected_call_leaves_memo_as_it_was(self, warm):
        if warm:
            _bench_size_calls((7,))
        before = {key: list(rows) for key, rows in identities._rows_memo.items()}
        for call in _rejected_calls():
            with pytest.raises((ValueError, TypeError)):
                call()
        assert identities._rows_memo == before

    @pytest.mark.parametrize("arg", ["s", "p", "length"])
    @pytest.mark.parametrize("value", [1.5, 2.0, "1", None])
    @pytest.mark.parametrize("warm", [False, True])
    def test_non_integer_left_inversion_arguments_rejected(self, arg, value, warm):
        seq = [Fraction(1, 3), Fraction(2)]
        if warm:  # 2.0 == 2 would share a dict key with these rows
            for s in (1, 2):
                left_inversion(s, 2, left_inversion_forward(s, 2, seq, 2 * s + 1))
        before = {key: list(rows) for key, rows in identities._rows_memo.items()}
        args = {"s": 2, "p": 2, "length": 5, arg: value}
        with pytest.raises(TypeError, match=f"left_inversion_forward: {arg} must be an integer"):
            left_inversion_forward(args["s"], args["p"], seq, args["length"])
        if arg != "length":
            with pytest.raises(TypeError, match=f"left_inversion: {arg} must be an integer"):
                left_inversion(args["s"], args["p"], seq)
        assert identities._rows_memo == before

    def test_bool_arguments_pass_as_integers(self):
        seq = [Fraction(1, 3), Fraction(2), Fraction(-5, 7)]
        assert left_inversion_forward(True, False, seq, 3) == left_inversion_forward(1, 0, seq, 3)
        assert left_inversion(True, True, seq) == left_inversion(1, 1, seq)

    def test_threads_growing_shared_rows(self):
        rng = random.Random(29)
        lengths = list(range(5, 41))
        seqs = {m: [Fraction(rng.randint(-50, 50), rng.randint(1, 60)) for _ in range(m)]
                for m in lengths}
        cases = {m: [(kernel, reference(seqs[m])) for kernel, reference
                     in _relations(2, 1, 2 * (m - 1) + 1)] for m in lengths}
        misses, start = [], threading.Barrier(4, timeout=60)

        def round_trips(order):
            start.wait()
            for m in order:
                # Legendre, binomial: forward then backward; left inversion: forward, back
                outputs = [kernel(seqs[m]) for kernel, _ in cases[m]]
                misses.extend((m, i) for i, (got, (_, want)) in enumerate(zip(outputs, cases[m]))
                              if got != want)
                back = [legendre_inverse("backward", outputs[0]),
                        binomial_inverse("backward", outputs[2]), left_inversion(2, 1, outputs[4])]
                misses.extend((m, "round trip") for b in back if b != seqs[m])

        orders = [rng.sample(lengths, len(lengths)) for _ in range(4)]
        threads = [threading.Thread(target=round_trips, args=(order,)) for order in orders]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert misses == []
        for key, rows in identities._rows_memo.items():
            count = 79 if key[0] == "left forward" else 40
            assert rows == [_fresh_row(n, *key) for n in range(count)], key


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
        identities.expansion.cache_clear()  # but sum each expansion again
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


class TestIntegerFirstSums:
    """The expansions hand horner (scale, polynomial) pairs, so no summand is
    a polynomial product, and _app_recurrence sums in int with no Fraction
    arithmetic, one Fraction built at the end."""

    def test_expansions_form_no_polynomial_products(self, monkeypatch):
        tags = ("main_37", "main_38", "main_39")
        for tag in tags:  # fill the narayana_poly cache the expansions read
            check_identity(tag, 9)
        identities.expansion.cache_clear()  # but sum each expansion again
        calls = Counter()
        real = QPolynomial.__mul__

        def counting(self, other):
            calls["QPolynomial.__mul__"] += 1
            return real(self, other)

        monkeypatch.setattr(QPolynomial, "__mul__", counting)
        monkeypatch.setattr(QPolynomial, "__rmul__", counting)
        for family in "DPQ":
            for n in range(10):
                identities.expansion(family, n)
        for tag in tags:
            for n in range(10):
                assert check_identity(tag, n).equal, (tag, n)
        assert calls == Counter()
        # the counter is live: expansion_term multiplies its pair out
        identities.expansion_term("P", 3, 1)
        assert calls["QPolynomial.__mul__"]

    def test_app_recurrence_does_no_fraction_arithmetic(self, monkeypatch):
        for tag in _REFERENCE_APP_SIDES:  # fill the sequence caches
            check_identity(tag, 8)
        calls = Counter()

        def counting(name, f):
            def wrapper(*args):
                calls[name] += 1
                return f(*args)

            return wrapper

        for attr in ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
                     "__truediv__", "__rtruediv__", "__pow__", "__rpow__", "__neg__"):
            monkeypatch.setattr(Fraction, attr, counting(attr, vars(Fraction)[attr]))
        rows = [(identities._REGISTRY[tag][1], identities._REGISTRY[tag][2])
                for tag in sorted(_REFERENCE_APP_SIDES)]
        for n in range(9):
            for lhs, rhs in rows:
                got = rhs(n)
                assert type(got) is Fraction and got == lhs(n), n
        assert calls == Counter()
        # the counters are live: the separate body raises Fraction(2) to 2^j
        _reference_app_lucas(1)
        assert calls["__pow__"]


def _sweep_entries(max_n: int) -> tuple:
    """From cold caches, what `verify --identity all --max-n max_n` builds of
    the sums' n-independent pieces: the coefficients of each N_k(q^2) that
    _at_q_squared returns, each (polynomial, point) at which a polynomial is
    evaluated at 2 or 5, and each (family, n) that expansion is entered with,
    one Counter each.  Read from the frames entered, as a memo hit enters none."""
    exact_core.clear_caches()
    squares, values, sums = Counter(), Counter(), Counter()
    at_q_squared = inspect.unwrap(identities._at_q_squared).__code__
    evaluate = QPolynomial.__call__.__code__
    expansion = inspect.unwrap(identities.expansion).__code__

    def profile(frame, event, arg):
        if frame.f_code is at_q_squared and event == "return":
            squares[arg.coeffs] += 1
        elif frame.f_code is evaluate and event == "call" and frame.f_locals["value"] in (2, 5):
            values[frame.f_locals["self"].coeffs, frame.f_locals["value"]] += 1
        elif frame.f_code is expansion and event == "call":
            sums[frame.f_locals["family"], frame.f_locals["n"]] += 1

    sys.setprofile(profile)
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["verify", "--identity", "all", "--max-n", str(max_n)]) == 0
    finally:
        sys.setprofile(None)
    return squares, values, sums


class TestSweepCost:
    def test_each_summand_is_built_once(self):
        # At --max-n 16, main_39 reads N_1..N_17 at q^2, the Pell and
        # Lucas/Fibonacci sums N_1..N_34 at 2 and at 5, and main_38, catlan2 and
        # lemma_f_zero sum (3.8) at m <= 16, at 2n and at 2n + 1 <= 33.  Before
        # the memos the sweep built 153 N_k(q^2), made 1,190 evaluations and
        # entered expansion 85 times.
        squares, values, sums = _sweep_entries(16)
        q_squared = QPolynomial((0, 0, 1), "q")
        assert squares == Counter(
            narayana_poly(k).substitute(q_squared).coeffs for k in range(1, 18))
        assert values == Counter(
            (narayana_poly(k).coeffs, point) for k in range(1, 35) for point in (2, 5))
        assert sums == Counter(
            [(family, n) for family in "DQ" for n in range(17)]
            + [("P", m) for m in range(34)])

    def test_memos_match_their_plain_definitions(self):
        q_squared = QPolynomial((0, 0, 1), "q")
        for k in range(41):
            want = narayana_poly(k).substitute(q_squared)
            assert _identical(identities._at_q_squared(k), want), k
            for point in (2, 5):
                got = identities._narayana_at(k, point)
                assert got == narayana_poly(k)(point) and type(got) is int, (k, point)


# -- mutation audit: one helper of the identities module, or one exact_core
#    primitive on its class or module, patched at a time ----------------------

_AUDIT_MAX_N = 8

def _undivided_horner(real, base, terms):
    """horner as if it dropped its final division by a common denominator of 2:
    the sum doubled whenever some term has a coefficient that is not an int.
    A (scale, polynomial) term is read as horner takes it in, each coefficient
    times _as_scalar(scale).  (A division by the true d, dropped, would go
    unseen here: every sum that identities passes to horner has whole
    coefficients at n <= 8, so d = 1.)"""
    terms = list(terms)
    coeffs = [
        exact_core._as_scalar(scale) * c
        for scale, a in ((a if type(a) is tuple else (1, a)) for a in terms)
        for c in (a.coeffs if isinstance(a, QPolynomial) else (a,))
    ]
    total = real(base, terms)
    return 2 * total if any(type(c) is not int for c in coeffs) else total


def _dropped_cross_term(real, a, b):
    """The series product without a_1 b_1, one cross term of its x^2 coefficient."""
    product = real(a, b)
    if not isinstance(b, exact_core.PolySeries) or product.order < 2:
        return product
    coeffs = list(product.coeffs)
    coeffs[2] = coeffs[2] - a.coeffs[1] * b.coeffs[1]
    return exact_core.PolySeries(coeffs, product.order)


def _without_d2(real, den, numerator=None):
    """Series division as if its back-substitution dropped the d_2 term."""
    cs = list(den.coeffs)
    if len(cs) > 2:
        cs[2] = QPolynomial.zero()
    return real(exact_core.PolySeries(cs, den.order), numerator)


def _without_term(real, out, a, b, weight=1, *, at):
    """The one schoolbook product without its a[i] * b[j] term, (i, j) = at(a, b),
    in a product of two non-constants only: a product of constants keeps its one
    term, or a division by a constant would meet a zero and raise."""
    real(out, a, b, weight)
    if len(a) > 1 and len(b) > 1:
        i, j = at(a, b)
        out[i + j] -= weight * a[i] * b[j]


def _add_without_last(real, p, other, constants=False):
    """QPolynomial.__add__ as if it dropped the shorter operand's last coefficient
    (the second's, at equal lengths) when that operand is not a constant, or
    with `constants` a constant operand too."""
    other = QPolynomial._coerce(other, p.var)
    if other is NotImplemented:
        return NotImplemented
    long, short = (other, p) if len(p.coeffs) < len(other.coeffs) else (p, other)
    if constants or len(short.coeffs) > 1:
        short = QPolynomial(short.coeffs[:-1], short.var)
    return real(long, short)


def _power_weight_off(series_, alpha):
    """PolySeries._power with the weight of its i = 1 term at n = 1 one more than
    J.C.P. Miller's recurrence gives: the body of _power with that one change."""
    a, b = alpha.numerator, alpha.denominator
    terms = [(i, f) for i, f in enumerate(series_.coeffs) if i and not f.is_zero]
    out = [QPolynomial.one()]
    for n in range(1, series_.order + 1):
        weighted = [
            ((a + b) * i - b * n + (i == n == 1), f, out[n - i])
            for i, f in terms
            if i <= n and (a + b) * i != b * n
        ]
        out.append(exact_core._combine(weighted, b * n))
    return exact_core.PolySeries(out, series_.order)


def _late_compose(real, outer, inner, den=None):
    """compose as if Horner's rule started one coefficient late, at c_(N-1) for
    N = order // v: the same as composing with the innermost c_N set to 0."""
    n = outer.order
    v = next((i for i, c in enumerate(inner.coeffs) if not c.is_zero), n + 1)
    cs = list(outer.coeffs)
    cs[n // v] = QPolynomial.zero()
    return real(exact_core.PolySeries(cs, n), inner, den)


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
    "_at_q_squared": lambda real: lambda k: real(k) + (_Q if k == 4 else 0),
    "_narayana_direct": lambda real: lambda n: [
        c + (n == 5 and i == 1) for i, c in enumerate(real(n))
    ],
    "_alternating_catalan": lambda real: lambda m, b: real(m, b) + (m == 4),
    "_app_recurrence": lambda real: lambda n, *rest: real(n, *rest) + (n == 3),
    # a primitive of exact_core, patched on its class (as a function, which
    # binds as a method where a partial would not)
    "PolySeries.__mul__/dropped": lambda real: lambda a, b: _dropped_cross_term(real, a, b),
    "PolySeries.reciprocal/without_d2": lambda real: lambda den, numerator=None: _without_d2(
        real, den, numerator),
    "PolySeries._power/weight_off": lambda real: _power_weight_off,
    "PolySeries.compose/late": lambda real: lambda outer, inner, den=None: _late_compose(
        real, outer, inner, den),
    "QPolynomial.__add__/without_last": lambda real: lambda p, other: _add_without_last(
        real, p, other),
    "QPolynomial.__add__/drops_constant": lambda real: lambda p, other: _add_without_last(
        real, p, other, constants=True),
    # exact_core's one schoolbook product, which QPolynomial.__mul__, horner and
    # every series product reach
    "_mul_into/cross": lambda real: partial(_without_term, real, at=lambda a, b: (1, 1)),
    "_mul_into/leading": lambda real: partial(
        _without_term, real, at=lambda a, b: (len(a) - 1, len(b) - 1)),
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
    # patched in every module, it reaches narayana_poly's and legendre_poly's
    # coefficients and lagrange_coefficient's rhs
    "binomial": {
        "alt_sum_310", "app_fibonacci", "app_lucas", "app_pell_even", "app_pell_odd",
        "app_qm1_39", "catlan2", "coker_a1", "coker_b1", "equivalent_b2",
        "integral_representation", "lagrange_coefficient", "lemma_f_zero", "main_37",
        "main_38", "main_39", "new_expansion_c1", "omega_closed_form",
        "omega_composition_first", "omega_composition_second", "parity", "simons_aa",
    },
    "catalan": {
        "app_fibonacci", "app_pell_even", "app_pow2", "app_q1_38", "app_qm1_39",
        "app_touchard", "catlan2", "coker_b1", "main_39",
    },
    # through series._catalan_power it reaches C(x) too; omega_composition_second
    # sees its C_4 term at x^9 only, at order 9
    "_catalan_rec": {
        "app_q1_38", "app_qm1_39", "app_touchard", "lagrange_coefficient", "main_37",
        "omega_composition_first", "omega_composition_second",
    },
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
    # not omega_closed_form or legendre_gf: they take a series power and
    # scalar multiples, never a product of two series
    "PolySeries.__mul__/dropped": {"omega_composition_first", "omega_composition_second"},
    # the compositions divide by d^2 and e^2; the other series checks divide by
    # nothing
    "PolySeries.reciprocal/without_d2": {"omega_composition_first", "omega_composition_second"},
    # the Legendre radicand's inverse square root and the closed form's sqrt
    "PolySeries._power/weight_off": {"legendre_gf", "omega_closed_form"},
    # omega_composition_second at order 9 only: at order 8 the dropped C_4 term
    # lands at x^8 of the composition, which is then multiplied by x
    "PolySeries.compose/late": {"omega_composition_first", "omega_composition_second"},
    # every other polynomial sum runs in horner's own list or in _combine's
    "QPolynomial.__add__/without_last": {"omega_closed_form"},
    # a dropped constant leaves shift_down a series with a nonzero constant term
    "QPolynomial.__add__/drops_constant": {"omega_closed_form (raised)"},
    # not the scalar sums (alt_sum_310, app_*, parity, lagrange_coefficient), which
    # multiply no two non-constants; not main_39, whose running sum starts at q^2,
    # so that its q^1 coefficient is 0; not legendre_reflection (see
    # test_legendre_reflection_is_blind_to_products)
    "_mul_into/cross": {
        "catlan2", "coker_a1", "coker_b1", "equivalent_b2", "integral_representation",
        "legendre_gf", "lemma_f_zero", "main_37", "main_38", "new_expansion_c1",
        "omega_closed_form", "omega_composition_first", "omega_composition_second",
        "simons_aa",
    },
    # cross's set and main_39
    "_mul_into/leading": {
        "catlan2", "coker_a1", "coker_b1", "equivalent_b2", "integral_representation",
        "legendre_gf", "lemma_f_zero", "main_37", "main_38", "main_39", "new_expansion_c1",
        "omega_closed_form", "omega_composition_first", "omega_composition_second",
        "simons_aa",
    },
}


def _failing_checks() -> set:
    """The checks `verify` runs, read from cli._CHECKS, that fail for some
    admissible n (or order, or 0 <= k <= n) <= _AUDIT_MAX_N.  A series check
    run at its order alone (cli._at_max_n) runs at _AUDIT_MAX_N + 1 too, as
    some mutants show at odd orders only.  A check that raises an
    ArithmeticError or ValueError counts too, as "<check> (raised)"."""
    failing = set()
    for name, (_, results) in _CHECKS.items():
        at_order = results.__qualname__.startswith("_at_max_n.")
        orders = range(_AUDIT_MAX_N, _AUDIT_MAX_N + 1 + at_order)
        try:
            if not all(r.equal for max_n in orders for r in results(max_n)):
                failing.add(name)
        except (ArithmeticError, ValueError):
            failing.add(f"{name} (raised)")
    return failing


class TestMutationAudit:
    def test_unmutated_checks_all_pass(self):
        assert _failing_checks() == set()

    @pytest.mark.parametrize("helper", sorted(_MUTANTS))
    def test_catch_set(self, monkeypatch, fresh_caches, helper):
        owner, _, name = helper.split("/")[0].rpartition(".")
        # a bare name is an identities helper, or else an exact_core function
        target = (getattr(exact_core, owner) if owner
                  else identities if hasattr(identities, name) else exact_core)
        real = getattr(target, name)
        # binomial is patched in every module that binds it, so the series
        # and sequences callers run the mutant too
        binders = (combinat, exact_core, identities, sequences, series)
        for module in binders if name == "binomial" else (target,):
            monkeypatch.setattr(module, name, _MUTANTS[helper](real))
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

    def test_legendre_reflection_is_blind_to_products(self, monkeypatch, fresh_caches):
        # both sides substitute -1 - 2x and 1 + 2x into P_n through horner, and
        # P_n's coefficients vanish at every other degree, so a product linear in
        # each factor keeps (-1)^n P_n(-1 - 2x) = P_n(1 + 2x) however wrong it is;
        # integral_representation's shifted Legendre sums still fail
        monkeypatch.setattr(exact_core, "_mul_into", _MUTANTS["_mul_into/cross"](
            exact_core._mul_into))
        for n in range(identity_min_n("legendre_reflection"), _AUDIT_MAX_N + 1):
            assert check_identity("legendre_reflection", n).equal, n
        assert not all(integral_representation_check(n).equal
                       for n in range(1, _AUDIT_MAX_N + 1))

    def test_checks_are_blind_to_powers(self, monkeypatch, fresh_caches):
        # no check in cli._CHECKS takes a polynomial power, as every sum runs by
        # Horner's rule, so a power off by one at exponent 3 fails none;
        # criterion 5's closed forms, expansion_term's a(n, k) B^(n-k), fail
        # wherever n - k = 3
        real = QPolynomial.__pow__
        monkeypatch.setattr(QPolynomial, "__pow__", lambda p, e: real(p, e + (e == 3)))
        assert _failing_checks() == set()
        wrong = [
            (family, n, k) for family in "DPQ" for n in range(7) for k in range(n + 1)
            if getattr(combinat, f"family_{family}_weight")(n, k)
            != getattr(combinat, f"family_{family}_closed_form")(n, k)
        ]
        assert wrong == [(family, n, n - 3) for family in "DPQ" for n in range(3, 7)]


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
    "coker_b1": {"horner", "_mul_into"},
    "legendre_reflection": {"horner", "_mul_into", "QPolynomial.substitute", "legendre_poly"},
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
    """The narayana functions that side(n) enters.  Every memo is cleared
    first, as a cache hit enters no frame."""
    exact_core.clear_caches()
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


def _weight_sides_shared(family: str) -> set:
    """The narayana functions past _RING that both sides of criterion 5 reach
    for family at n = 5, k = 0..5: its weight sum and its closed form."""
    names = _qualnames()
    sides = [
        lambda n, side=side: [getattr(combinat, side)(n, k) for k in range(n + 1)]
        for side in (f"family_{family}_weight", f"family_{family}_closed_form")
    ]
    return (_reached(sides[0], 5, names) & _reached(sides[1], 5, names)) - _RING


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

    @pytest.mark.parametrize("family", "DPQ")
    def test_weight_sums_share_nothing_with_their_closed_forms(self, family):
        assert _weight_sides_shared(family) == set()

    def test_a_weight_read_from_its_closed_form_shows(self, monkeypatch):
        monkeypatch.setattr(combinat, "family_D_weight", combinat.family_D_closed_form)
        assert "expansion_term" in _weight_sides_shared("D")
