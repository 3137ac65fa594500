import hashlib
import math
import os
from collections import Counter
from fractions import Fraction
from functools import lru_cache, partial
from itertools import combinations, product
from math import prod

import pytest

from narayana import combinat as cb
from narayana import exact_core
from narayana.exact_core import QPolynomial, binomial
from narayana.sequences import catalan, catalan_half, narayana_poly


class TestDyckEnumeration:
    def test_counts_are_catalan(self):
        for n in range(9):
            assert len(cb.enumerate_dyck(n)) == catalan(n)

    def test_semilength_two(self):
        assert sorted(cb.enumerate_dyck(2)) == ["UDUD", "UUDD"]

    def test_cap_enforced(self):
        with pytest.raises(cb.EnumerationCapError):
            cb.enumerate_dyck(cb.DYCK_CAP + 20)

    def test_cap_raisable_via_env(self):
        before = os.environ.get("NARAYANA_CAP")
        os.environ["NARAYANA_CAP"] = str(cb.DYCK_CAP + 1)
        try:
            cb.enumerate_dyck(cb.DYCK_CAP + 1)
        finally:
            if before is None:
                del os.environ["NARAYANA_CAP"]
            else:
                os.environ["NARAYANA_CAP"] = before

    def test_non_integer_cap_names_the_variable(self, monkeypatch):
        monkeypatch.setenv("NARAYANA_CAP", "abc")
        with pytest.raises(ValueError, match="NARAYANA_CAP must be an integer, got 'abc'"):
            cb.enumerate_dyck(2)

    def test_negative_cap_names_the_variable(self, monkeypatch):
        # not taken as unset: a cap below every default is a mistake
        monkeypatch.setenv("NARAYANA_CAP", "-5")
        with pytest.raises(ValueError, match="NARAYANA_CAP must be nonnegative, got '-5'"):
            cb.enumerate_dyck(2)


class TestFamilyD:
    def test_semilength_one_elements(self):
        assert len(cb.enumerate_family_D(1, 1)) == 1
        assert len(cb.enumerate_family_D(1, 0)) == 2

    def test_weights_match_closed_form(self):
        for n in range(cb.FAMILY_D_CAP + 1):
            for k in range(n + 1):
                assert cb.family_D_weight(n, k) == cb.family_D_closed_form(n, k), (
                    n,
                    k,
                )

    def test_compositions_are_the_ordered_tuples_of_their_sum(self):
        for t in range(6):
            for p in range(1, 7):
                assert list(cb._compositions(t, p)) == sorted(
                    c for c in product(range(t + 1), repeat=p) if sum(c) == t
                ), (t, p)

    def test_compositions_count_and_order_up_to_d_cap(self):
        # up to the 2k + 1 = 17 parts of k = 8, the D cap, past what brute force reaches
        for t in range(6):
            for p in range(1, 2 * cb.FAMILY_D_CAP + 2):
                comps = list(cb._compositions(t, p))
                assert len(comps) == binomial(t + p - 1, p - 1), (t, p)
                assert all(a < b for a, b in zip(comps, comps[1:])), (t, p)
                assert all(len(c) == p and sum(c) == t and min(c) >= 0 for c in comps)

    def test_weight_sum_is_catalan(self):
        for n in range(7):
            total = QPolynomial.zero("q")
            for k in range(n + 1):
                total = total + cb.family_D_weight(n, k)
            assert total == QPolynomial.constant(catalan(n), "q")

    def test_flatten_preserves_semilength(self):
        for e in cb.enumerate_family_D(3, 1):
            flat = cb.flatten(e)
            assert len(flat.steps) == 6
            assert len(flat.tags) == 3

    def test_flatten_is_injective(self):
        # the involution acts on flattened paths, so no two decorated
        # elements may flatten alike (36,992 paths at n = 6)
        for n in range(7):
            flat = [cb.flatten(e) for k in range(n + 1) for e in cb.iter_family_D(n, k)]
            assert len(set(flat)) == len(flat), n
            dbar = cb.dbar_elements(n)
            assert len(set(dbar)) == len(dbar), n
        assert len(flat) == 36992

    def test_phi_is_weight_reversing_on_sample(self):
        for e in cb.enumerate_family_D(3, 1):
            p = cb.flatten(e)
            if all(t == 0 for t in p.tags):
                continue
            image = cb.phi(p)
            assert cb.phi(image) == p
            assert cb.path_weight(image) == -cb.path_weight(p)

    def test_stream_size_is_the_closed_count(self):
        # |D(n, k)| = (2k+1)/(2n+1) binom(2n+1, n-k) C_k 2^(n-k), from math.comb
        # alone: the Lagrange coefficient times the C_k base paths times the
        # sign choices
        totals = Counter()
        for n in range(8):
            for k in range(n + 1):
                c_k = math.comb(2 * k, k) // (k + 1)
                count = Fraction((2 * k + 1) * math.comb(2 * n + 1, n - k), 2 * n + 1)
                count *= c_k * 2 ** (n - k)
                size = sum(1 for _ in cb._iter_flat_family_D(n, k))
                assert size == count, (n, k)
                totals[n] += size
        assert totals[5] == 4978 and totals[7] == 281373

    def test_flat_enumeration_is_flatten_in_order(self):
        for n in range(7):
            for k in range(-1, n + 2):
                flat = list(cb._iter_flat_family_D(n, k))
                assert flat == [cb.flatten(e) for e in cb.iter_family_D(n, k)], (n, k)
                assert bool(flat) == (0 <= k <= n), (n, k)

    def test_phi_matches_component_scan(self):
        # every moving path of D and of its all-(+-q) subfamily, n <= 6
        for n in range(7):
            flat = [p for k in range(n + 1) for p in cb._iter_flat_family_D(n, k)]
            for p in flat + cb.dbar_elements(n):
                if any(p[1]):
                    assert cb.phi(p) == _reference_phi(p), p

    def test_dbar_elements_are_the_all_weighted_flat_paths(self):
        for n in range(7):
            assert cb.dbar_elements(n) == [
                p for k in range(n + 1) for p in cb._iter_flat_family_D(n, k) if all(p[1])
            ], n

    def test_dbar_counts_are_central_binomials(self):
        for n in range(9):
            assert len(cb.dbar_elements(n)) == binomial(2 * n, n), n

    @pytest.mark.parametrize("n, digest", [
        (7, "a1ee5d219a6b94e6b23ed5f8c4f55c4078b6ef271626d460d40e8d403e065746"),
        (8, "94fbe76cbf488c63823b9e831ffb90e63fd8e11df7d20667630ba10d870cf6dc"),
    ])
    def test_dbar_elements_above_the_test_sizes_are_pinned(self, n, digest):
        # recorded from a separately written enumerator of the same paths
        text = "\n".join(cb.serialize_path(p) for p in cb.dbar_elements(n))
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    def test_phi_rejects_unweighted_paths(self):
        for n in range(5):
            for steps in cb.enumerate_dyck(n):
                with pytest.raises(cb.FixedElementError):
                    cb.phi(cb.WeightedDyckPath(steps, (0,) * n))

    def test_components_cached_once_per_word(self):
        # at most one entry per Dyck word of semilength <= 6: C_0 + ... + C_6
        exact_core.clear_caches()
        assert cb.involution_verify("D", 6).certified
        assert 0 < cb._components.cache_info().currsize <= sum(map(catalan, range(7))) == 197

    @pytest.mark.parametrize("family", ["D", "Dbar"])
    def test_streamed_pairs_meet_the_public_paths(self, family):
        # inside the module a path is a plain (steps, tags) pair; the public
        # functions take it or its WeightedDyckPath alike, and phi returns
        # the named form
        for n in range(7):
            decorated = [cb.flatten(e) for k in range(n + 1) for e in cb.iter_family_D(n, k)]
            if family == "D":
                stream = [p for k in range(n + 1) for p in cb._iter_flat_family_D(n, k)]
            else:
                stream = cb.dbar_elements(n)
                decorated = [p for p in decorated if all(p.tags)]
            assert len(stream) == len(decorated), (family, n)
            for e, named in zip(stream, decorated):
                assert type(e) is tuple and e == named, (family, n, e)
                path = cb.WeightedDyckPath(*e)
                assert cb.serialize_path(e) == cb.serialize_path(path)
                assert cb.path_weight(e) == cb.path_weight(path)
                if cb._is_unweighted(e):
                    with pytest.raises(cb.FixedElementError):
                        cb.phi(path)
                    continue
                image = cb.phi(path)
                assert type(image) is cb.WeightedDyckPath and image == cb._phi(e), (n, e)
                assert type(cb._phi(e)) is tuple and cb.phi(e) == image, (n, e)

    @pytest.mark.parametrize("steps, tags", [
        ("UUDD", (1,)),  # a tag short
        ("UD", (1, 1)),  # a tag too many
        ("DU", (1,)),  # not a Dyck word: dips below the axis
        ("UUD", (1, 0)),  # not a Dyck word: ends above the axis
        ("UXDD", (1, 1)),  # a step that is neither U nor D
        ("UD", (2,)),  # a tag outside {-1, 0, 1}
    ])
    def test_public_path_functions_reject_malformed_paths(self, steps, tags):
        path = cb.WeightedDyckPath(steps, tags)
        for function in (cb.phi, cb.path_weight):
            with pytest.raises(ValueError, match="not a weighted Dyck path"):
                function(path)
            with pytest.raises(ValueError, match="not a weighted Dyck path"):
                function((steps, tags))
        # serialize_path, run on every line `enumerate` prints, checks only
        # the tags: their count and their values
        if len(tags) != steps.count("U") or not set(tags) <= {-1, 0, 1}:
            with pytest.raises(ValueError, match="not a weighted Dyck path"):
                cb.serialize_path(path)


def _reference_phi(p):
    """phi as a scan of the primitive components of each level in turn: find
    the rightmost one holding a +-q weight, then flip its first up-step or
    descend into its interior."""
    steps, tags = p[0], list(p[1])

    def flip(lo, hi, tag_lo):
        comps = []
        height = 0
        start, tstart, t = lo, tag_lo, tag_lo
        for i in range(lo, hi):
            if steps[i] == "U":
                height += 1
                t += 1
            else:
                height -= 1
            if height == 0:
                comps.append((start, i + 1, tstart, t))
                start, tstart = i + 1, t
        for si, sj, ti, tj in reversed(comps):
            if any(tags[x] for x in range(ti, tj)):
                if tags[ti]:
                    tags[ti] = -tags[ti]
                else:
                    flip(si + 1, sj - 1, ti + 1)
                return
        raise AssertionError("no component carries a +-q weight")

    flip(0, len(steps), 0)
    return cb.WeightedDyckPath(steps, tuple(tags))


class TestFamilyP:
    def test_base_case(self):
        trees = cb.enumerate_family_P(0, 0)
        assert trees == [("1", (("q", ()),))]
        assert cb.tree_weight(trees[0]) == QPolynomial((0, 1), "q")

    def test_n1_k0_weights(self):
        weights = sorted(
            tuple(cb.tree_weight(t).coeffs) for t in cb.enumerate_family_P(1, 0)
        )
        assert weights == [(0, -1), (0, 0, -1)]  # -q and -q^2

    def test_n1_k1_weight_sum(self):
        total = QPolynomial.zero("q")
        for t in cb.enumerate_family_P(1, 1):
            total = total + cb.tree_weight(t)
        assert total == QPolynomial((0, 1, 1), "q")  # N_2(q) = q + q^2

    def test_weight_sums_match_closed_form(self):
        for n in range(7):
            for k in range(n + 1):
                assert cb.family_P_weight(n, k) == cb.family_P_closed_form(n, k)

    def test_fixed_set_odd_is_empty(self):
        assert cb.fixed_set_P(3) == []
        assert cb.fixed_set_P(5) == []

    def test_fixed_set_four(self):
        trees = cb.fixed_set_P(4)
        assert len(trees) == 2
        total = QPolynomial.zero("q")
        for t in trees:
            assert cb.is_fixed_tree(t, "P")
            total = total + cb.tree_weight(t)
        assert total == QPolynomial.monomial(2, 3, "q")  # 2 q^3 = C_2 q^{4/2+1}

    def test_fixed_weight_law(self):
        for n in range(8):
            total = QPolynomial.zero("q")
            for t in cb.fixed_set_P(n):
                total = total + cb.tree_weight(t)
            if n % 2 == 0:
                expected = QPolynomial.monomial(catalan_half(n), n // 2 + 1, "q")
            else:
                expected = QPolynomial.zero("q")
            assert total == expected, n

    def test_psi_rejects_fixed_trees(self):
        with pytest.raises(cb.FixedElementError):
            cb.psi(cb.fixed_set_P(4)[0], "P")


class TestFamilyQ:
    def test_base_case(self):
        trees = cb.enumerate_family_Q(0, 0)
        assert [cb.serialize_tree(t) for t in trees] == ["1(q2)"]
        assert cb.tree_weight(trees[0]) == QPolynomial((0, 0, 1), "q")

    def test_n1_k0_weight(self):
        # -q^2 (1-q)^2 expanded low-first
        assert cb.family_Q_weight(1, 0) == QPolynomial((0, 0, -1, 2, -1), "q")

    def test_weight_sums_match_closed_form(self):
        for n in range(6):
            for k in range(n + 1):
                assert cb.family_Q_weight(n, k) == cb.family_Q_closed_form(n, k)

    def test_total_weight_law(self):
        for n in range(6):
            total = QPolynomial.zero("q")
            for k in range(n + 1):
                total = total + cb.family_Q_weight(n, k)
            assert total == QPolynomial.monomial(catalan(n + 1), n + 2, "q")

    def test_fixed_set_counts(self):
        # stars-and-bars over the edges of complete binary cores
        assert len(cb.fixed_set_Q(0)) == 1
        assert len(cb.fixed_set_Q(2)) == 2
        for t in cb.fixed_set_Q(3):
            assert cb.is_fixed_tree(t, "Q")

    def test_fixed_weight_law(self):
        for n in range(7):
            total = QPolynomial.zero("q")
            for t in cb.fixed_set_Q(n):
                total = total + cb.tree_weight(t)
            assert total == QPolynomial.monomial(catalan(n + 1), n + 2, "q"), n


class TestInvolutions:
    @pytest.mark.parametrize("family,top", [("D", 4), ("P", 5), ("Q", 4)])
    def test_certificates(self, family, top):
        for n in range(top + 1):
            report = cb.involution_verify(family, n)
            assert report.certified, (family, n, report.certificates)

    def test_pair_collection(self):
        report = cb.involution_verify("P", 2, collect_pairs=True)
        assert report.certified
        # every moving element appears in exactly one pair
        assert 2 * len(report.pairs) == report.size - report.fixed_count

    def test_unknown_family_rejected(self):
        with pytest.raises(ValueError):
            cb.involution_verify("R", 2)
        # and by the tree adapters, given a tree with a unary root or one without
        unary, other = cb.fixed_set_P(4)[0], cb.enumerate_family_P(2, 1)[0]
        assert cb._TOKENS[cb._word(unary)[0]][1] == 1 != cb._TOKENS[cb._word(other)[0]][1]
        for t in (unary, other):
            for adapter in (cb.is_fixed_tree, cb.psi):
                with pytest.raises(ValueError, match="unknown family 'X'"):
                    adapter(t, "X")

    def test_dbar_certifies_alternating_sum(self):
        for n in range(1, 7):
            report = cb.dbar_involution_check(n)
            assert report.certified, n
            assert report.fixed_count == 0
            assert report.total_weight == QPolynomial.zero("q")

    def test_dbar_requires_positive_n(self):
        with pytest.raises(ValueError):
            cb.dbar_involution_check(0)

    @pytest.mark.parametrize("family", ["P", "Q"])
    def test_psi_rejects_every_fixed_tree(self, family):
        for n in range(6):
            for t in getattr(cb, f"fixed_set_{family}")(n):
                with pytest.raises(cb.FixedElementError):
                    cb.psi(t, family)

    def test_fixed_test_once_per_element_and_image(self, monkeypatch):
        # the certifier tests each element; psi tests only the trees it does
        # not toggle, so its images cost at most one more test each
        calls = []
        real = cb._is_fixed_word

        def counting(w, family):
            calls.append(1)
            return real(w, family)

        monkeypatch.setattr(cb, "_is_fixed_word", counting)
        report = cb.involution_verify("P", 5)
        assert report.certified
        assert len(calls) <= report.size + (report.size - report.fixed_count)

    def test_tokens_interned_only_by_structural_psi(self, monkeypatch):
        # warm, the family's words are copied from cached shape words: a
        # structural psi case interns its two edited tokens, and each k and
        # the fixed set a handful more, never one per shape and k (P 6 has
        # 1,221 of those)
        n = 6
        cb.involution_verify("P", n)
        calls, structural = [], []
        real_token, real_toggle = cb._token, cb._toggle_word

        def counting_token(tag, degree):
            calls.append((tag, degree))
            return real_token(tag, degree)

        def counting_toggle(w):
            toggled = real_toggle(w)
            structural.append(toggled is None)
            return toggled

        monkeypatch.setattr(cb, "_token", counting_token)
        monkeypatch.setattr(cb, "_toggle_word", counting_toggle)
        report = cb.involution_verify("P", n)
        assert report.certified and sum(structural) > 400
        assert len(calls) - 2 * sum(structural) <= 4 * (n + 1)

    @pytest.mark.parametrize("family,top", [("P", 6), ("Q", 5)])
    def test_psi_matches_recursive_toggle(self, family, top):
        # the pre-order scan flips the same vertex as a recursive walk, so psi
        # is unchanged on every moving tree
        moving = 0
        for n in range(top + 1):
            for k in range(n + 1):
                for t in getattr(cb, f"enumerate_family_{family}")(n, k):
                    toggled = _reference_toggle(t)
                    expected = None if toggled is None else cb._word(toggled)
                    assert cb._toggle_word(cb._word(t)) == expected
                    if toggled is None and cb.is_fixed_tree(t, family):
                        continue
                    moving += 1
                    expected = toggled if toggled is not None else _reference_psi_rec(t, family)
                    assert cb.psi(t, family) == expected
        assert moving > 1000

    @pytest.mark.parametrize("leaf,neg", [("q", "mq"), ("q2", "mq2")])
    def test_rightmost_detach_inverts_attach(self, leaf, neg):
        # on the nested reference psi that the word psi is compared against
        def weighted(shape):
            return ("1", tuple(map(weighted, shape))) if shape else (leaf, ())

        subtrees = [
            (leaf, ()), ("1", ((leaf, ()),)), (neg, ((leaf, ()),)),
            weighted(((), ())), ("2q", (weighted(((), ())),)),
        ]
        trees = [
            weighted(shape) for v in range(1, 10, 2)
            for shape in _reference_complete_binary_shapes(v)
        ]
        assert len(trees) == 1 + 1 + 2 + 5 + 14
        for t in trees:
            assert _rightmost_detach(t, neg, leaf) is None
            for s in subtrees:
                assert _rightmost_detach(_rightmost_attach(t, s, neg), neg, leaf) == (t, s)

    def test_certifier_builds_no_nested_tree(self, monkeypatch):
        def nested(w):
            raise AssertionError("a nested tree was built")

        monkeypatch.setattr(cb, "_tree", nested)
        for family, n in (("P", 6), ("Q", 5)):
            report = cb.involution_verify(family, n, collect_pairs=True)
            assert report.certified and report.pairs, family


def _reference_toggle(t):
    """Flip the first pre-order non-root unary vertex weighted 1 or -1, by a
    recursive walk of the whole tree."""

    def walk(node, is_root):
        tag, children = node
        if not is_root and len(children) == 1 and tag in ("1", "m1"):
            return ("m1" if tag == "1" else "1", children)
        for i, child in enumerate(children):
            new_child = walk(child, False)
            if new_child is not None:
                return (tag, children[:i] + (new_child,) + children[i + 1 :])
        return None

    return walk(t, True)


def _reference_serialize(t):
    """The recursive serialiser the word serialiser replaced."""
    tag, children = t
    if not children:
        return tag
    return tag + "(" + " ".join(map(_reference_serialize, children)) + ")"


def _reference_key(t):
    """The weight as (coefficient, exponent), by a recursive walk."""
    coeff, exponent = cb._TAG_WEIGHTS[t[0]]
    for child in t[1]:
        c, e = _reference_key(child)
        coeff, exponent = coeff * c, exponent + e
    return coeff, exponent


def _is_fixed_nested(t, family):
    """psi's fixed set by the nested predicate: a unary root above a tree
    that `_reference_is_complete` accepts."""
    children = t[1]
    return len(children) == 1 and _reference_is_complete(
        children[0], cb._FAMILY[family]["transparent"]
    )


# -- nested references: the shapes, fixed sets and psi's structural cases on
# nested trees that the word code replaced, compared with it below ------------


@lru_cache(maxsize=None)
def _reference_children_seqs(total):
    """All ordered forests (tuples of shapes) with the given vertex total."""
    if total == 0:
        return ((),)
    out = []
    for first_size in range(1, total + 1):
        for first in _reference_tree_shapes(first_size):
            for rest in _reference_children_seqs(total - first_size):
                out.append((first,) + rest)
    return tuple(out)


@lru_cache(maxsize=None)
def _reference_tree_shapes(vertices):
    """All plane tree shapes with the given vertex count; a shape is its
    tuple of child shapes."""
    if vertices < 1:
        return ()
    return _reference_children_seqs(vertices - 1)


@lru_cache(maxsize=None)
def _reference_complete_binary_shapes(vertices):
    if vertices % 2 == 0:
        return ()
    if vertices == 1:
        return ((),)
    out = []
    for left_size in range(1, vertices - 1, 2):
        for left in _reference_complete_binary_shapes(left_size):
            for right in _reference_complete_binary_shapes(vertices - 1 - left_size):
                out.append((left, right))
    return tuple(out)


def _degrees(shape):
    """A nested shape's out-degrees in pre-order."""
    return (len(shape),) + tuple(d for child in shape for d in _degrees(child))


def _reference_fixed_set(n, family):
    """Fixed trees of psi: a root above a complete binary tree, with the
    family's transparent unary vertices (2q in Q, none in P) inserted into
    its edges."""
    info = cb._FAMILY[family]
    transparent = info["transparent"]
    out = []
    for k in range(n // 2 + 1):
        extra = n - 2 * k
        if extra and transparent is None:
            continue
        for shape in _reference_complete_binary_shapes(2 * k + 1):
            # 2k+1 edges: the root edge plus the 2k edges of the subtree
            for comp in cb._compositions(extra, 2 * k + 1):
                out.append(_chained_tree((shape,), info["leaf"], transparent, iter(comp)))
    return out


def _chained_tree(shape, leaf, transparent, lengths):
    """Weight `shape`, with a chain of next(lengths) transparent unary
    vertices above each child, taken in pre-order."""
    if not shape:
        return (leaf, ())
    return ("1", tuple(
        _chain(transparent, next(lengths), _chained_tree(child, leaf, transparent, lengths))
        for child in shape
    ))


def _chain(tag, length, node):
    for _ in range(length):
        node = (tag, (node,))
    return node


def _reference_is_complete(t, transparent):
    """Complete binary once unary vertices tagged `transparent` are skipped."""
    tag, children = t
    if not children:
        return True
    if len(children) == 2:
        return (_reference_is_complete(children[0], transparent)
                and _reference_is_complete(children[1], transparent))
    if len(children) == 1 and tag == transparent:
        return _reference_is_complete(children[0], transparent)
    return False


def _chase(t, transparent):
    """Skip a chain of transparent unary vertices; returns (chain length, core)."""
    chain = 0
    while len(t[1]) == 1 and t[0] == transparent:
        chain += 1
        t = t[1][0]
    return chain, t


def _rightmost_attach(t, subtree, neg):
    """Attach `subtree` under the rightmost leaf, retagged `neg` (weight -q)."""
    tag, children = t
    if not children:
        return (neg, (subtree,))
    new_last = _rightmost_attach(children[-1], subtree, neg)
    return (tag, children[:-1] + (new_last,))


def _rightmost_detach(t, neg, leaf):
    """The inverse of _rightmost_attach: (t with the first `neg` vertex on its
    rightmost path made a `leaf` leaf, that vertex's subtree), or None."""
    tag, children = t
    if tag == neg:
        return (leaf, ()), children[0]
    found = _rightmost_detach(children[-1], neg, leaf) if children else None
    if found is None:
        return None
    return (tag, children[:-1] + (found[0],)), found[1]


def _reference_psi_rec(t, family):
    """psi's structural cases, recursively on the nested tree."""
    info = cb._FAMILY[family]
    neg, leaf, transparent = info["neg"], info["leaf"], info["transparent"]
    tag, children = t

    if len(children) >= 2:
        first = children[0]
        if _reference_is_complete(first, transparent):
            modified = _rightmost_attach(first, children[1], neg)
            return (tag, (modified,) + children[2:])
        result = _reference_psi_rec((tag, (first,)), family)
        return (result[0], result[1] + children[1:])

    # unary root
    chain, core = _chase(children[0], transparent)
    if len(core[1]) > 2:
        inner = _reference_psi_rec(core, family)
        return (tag, (_chain(transparent, chain, inner),))

    # core has out-degree 1 or 2
    found = _rightmost_detach(core, neg, leaf)
    if found is not None and _reference_is_complete(found[0], transparent):
        return (tag, (_chain(transparent, chain, found[0]), found[1]))

    left, right = core[1]
    if not _reference_is_complete(left, transparent):
        result = _reference_psi_rec((core[0], (left,)), family)
        new_core = (result[0], result[1] + (right,))
    else:
        result = _reference_psi_rec((core[0], (right,)), family)
        new_core = (result[0], (left,) + result[1])
    return (tag, (_chain(transparent, chain, new_core),))


class TestShapesAndFixedSets:
    """The degree sequences and fixed words the word code generates, in the
    order of the nested shapes and fixed trees they replaced."""

    def test_shapes_in_nested_order(self):
        for v in range(12):
            assert cb._tree_shapes(v) == tuple(map(_degrees, _reference_tree_shapes(v))), v
            assert cb._complete_binary_shapes(v) == tuple(
                map(_degrees, _reference_complete_binary_shapes(v))
            ), v
        for total in range(11):
            assert cb._children_seqs(total) == tuple(
                tuple(d for shape in forest for d in _degrees(shape))
                for forest in _reference_children_seqs(total)
            ), total

    @pytest.mark.parametrize("leaf", ["q", "q2"])
    def test_shape_words_are_the_shapes_unmarked(self, leaf):
        for v in range(11):
            assert cb._shape_words(v, leaf) == tuple(
                (tuple(cb._token("1", d) if d else cb._token(leaf, 0) for d in degrees),
                 tuple(i for i, d in enumerate(degrees) if i and d == 1))
                for degrees in cb._tree_shapes(v)
            ), v

    @pytest.mark.parametrize("family,top", [("P", 9), ("Q", 8)])
    def test_fixed_sets_in_nested_order(self, family, top):
        for n in range(top + 1):
            got = getattr(cb, f"fixed_set_{family}")(n)
            assert got == _reference_fixed_set(n, family), (family, n)
            assert list(cb._fixed_words(n, family)) == list(map(cb._word, got))


class TestWords:
    """The pre-order words the certifier works on against the nested trees
    of the public functions: every element of P <= 6 and Q <= 5, every fixed
    tree and every psi image."""

    @staticmethod
    @lru_cache(maxsize=None)
    def trees(family, top):
        trees = [
            t for n in range(top + 1) for k in range(n + 1)
            for t in getattr(cb, f"enumerate_family_{family}")(n, k)
        ]
        images = [cb.psi(t, family) for t in trees if not _is_fixed_nested(t, family)]
        fixed = [t for n in range(top + 1) for t in getattr(cb, f"fixed_set_{family}")(n)]
        assert len(images) > 1000 and fixed
        return trees + images + fixed

    @pytest.mark.parametrize("family,top", [("P", 6), ("Q", 5)])
    def test_round_trips(self, family, top):
        for t in self.trees(family, top):
            w = cb._word(t)
            assert cb._tree(w) == t and cb._word(cb._tree(w)) == w
        for n in range(top + 1):
            for k in range(n + 1):
                for w in cb._iter_family_trees(n, k, family):
                    assert cb._word(cb._tree(w)) == w

    @pytest.mark.parametrize("family,top", [("P", 6), ("Q", 5)])
    def test_toggle_matches_recursive_walk(self, family, top):
        toggled = 0
        for t in self.trees(family, top):
            expected = _reference_toggle(t)
            got = cb._toggle_word(cb._word(t))
            assert got == (None if expected is None else cb._word(expected)), t
            toggled += got is not None
        assert toggled > 1000

    @pytest.mark.parametrize("family,top", [("P", 6), ("Q", 5)])
    def test_fixed_test_matches_nested_predicate(self, family, top):
        fixed = 0
        for t in self.trees(family, top):
            expected = _is_fixed_nested(t, family)
            assert cb._is_fixed_word(cb._word(t), family) == expected, t
            assert cb.is_fixed_tree(t, family) == expected, t
            fixed += expected
        assert fixed == 2 * sum(len(getattr(cb, f"fixed_set_{family}")(n)) for n in range(top + 1))

    def test_fixed_test_reads_out_degree_and_the_transparent_tag(self):
        # not the family's tags: any tag on a leaf or binary vertex is fine,
        # and a unary vertex only with the transparent tag
        leaf = ("x", ())
        assert cb.is_fixed_tree(("y", (("z", (leaf, leaf)),)), "P")
        assert cb.is_fixed_tree(("1", (("2q", (leaf,)),)), "Q")
        assert not cb.is_fixed_tree(("1", (("2q", (leaf,)),)), "P")
        assert not cb.is_fixed_tree(("1", (("1", (leaf, leaf, leaf)),)), "Q")
        assert not cb.is_fixed_tree(("1", (leaf, leaf)), "P")

    @pytest.mark.parametrize("family,top", [("P", 7), ("Q", 6)])
    def test_key_is_the_product_of_tag_weights(self, family, top):
        for n in range(top + 1):
            for k in range(n + 1):
                for w in cb._iter_family_trees(n, k, family):
                    weights = [cb._TAG_WEIGHTS[cb._TOKENS[token][0]] for token in w]
                    assert cb._word_key(w) == (
                        prod(c for c, _ in weights), sum(e for _, e in weights)
                    ), w

    @pytest.mark.parametrize("family,top", [("P", 6), ("Q", 5)])
    def test_serialiser_and_key_match_nested_walks(self, family, top):
        for t in self.trees(family, top):
            w = cb._word(t)
            assert cb._serialize_word(w) == cb.serialize_tree(t) == _reference_serialize(t)
            assert cb._word_key(w) == _reference_key(t)


class TestSerialization:
    def test_path_round_readable(self):
        p = cb.WeightedDyckPath("UUDD", (1, 0))
        s = cb.serialize_path(p)
        assert "U" in s and "D" in s

    def test_element_fields(self):
        assert cb.WeightedDyckPath._fields == ("steps", "tags")
        assert cb.DecoratedDyckElement._fields == ("k", "base", "insertions", "signs")

    def test_tree_serialization_deterministic(self):
        t = ("1", (("m1", (("q", ()),)),))
        assert cb.serialize_tree(t) == "1(m1(q))"


def _reference_certify(family, n, elements, is_fixed, apply, weight, serialize, expected_fixed,
                       collect_pairs=False):
    """The serialise-and-QPolynomial certifier the one-pass `_certify`
    replaced, kept as the reference it must agree with."""
    fixed = [e for e in elements if is_fixed(e)]
    moving = [e for e in elements if not is_fixed(e)]
    certs = {
        "multiset_closure": True,
        "self_inverse": True,
        "weight_reversal": True,
        "fixed_set_match": True,
        "total_weight": True,
    }
    counterexample = None
    pairs = []
    images = []
    seen_pairs = set()
    for e in moving:
        img = apply(e)
        images.append(img)
        if weight(img) != -weight(e):
            certs["weight_reversal"] = False
            counterexample = counterexample or serialize(e)
        if apply(img) != e:
            certs["self_inverse"] = False
            counterexample = counterexample or serialize(e)
        if collect_pairs:
            key = frozenset((serialize(e), serialize(img)))
            if key not in seen_pairs:
                seen_pairs.add(key)
                pairs.append((serialize(e), serialize(img)))
    if Counter(map(serialize, moving)) != Counter(map(serialize, images)):
        certs["multiset_closure"] = False
    if Counter(map(serialize, fixed)) != Counter(map(serialize, expected_fixed)):
        certs["fixed_set_match"] = False
    total = QPolynomial.zero("q")
    for e in elements:
        total = total + weight(e)
    fixed_weight = QPolynomial.zero("q")
    for e in expected_fixed:
        fixed_weight = fixed_weight + weight(e)
    if total != fixed_weight:
        certs["total_weight"] = False
    return cb.InvolutionReport(
        family, n, len(elements), len(fixed), certs, total, fixed_weight,
        pairs=pairs, counterexample=counterexample,
    )


def _is_all_ones(p):
    return all(t == 0 for t in p[1])


def _reference_report(family, n, collect_pairs):
    """The reference certifier on lists built as the old `involution_verify`
    and `dbar_involution_check` built them."""
    if family == "Dbar":
        return _reference_certify(
            "Dbar", n, cb.dbar_elements(n), _is_all_ones, cb.phi, cb.path_weight,
            cb.serialize_path, [], collect_pairs,
        )
    if family == "D":
        elements = [cb.flatten(e) for k in range(n + 1) for e in cb.iter_family_D(n, k)]
        expected = [cb.WeightedDyckPath(p, (0,) * n) for p in cb.enumerate_dyck(n)]
        return _reference_certify(
            "D", n, elements, _is_all_ones, cb.phi, cb.path_weight, cb.serialize_path,
            expected, collect_pairs,
        )
    elements = [t for k in range(n + 1) for t in cb._enumerate_family(n, k, family)]
    return _reference_certify(
        family, n, elements, lambda t: cb.is_fixed_tree(t, family),
        lambda t: cb.psi(t, family), cb.tree_weight, cb.serialize_tree,
        getattr(cb, f"fixed_set_{family}")(n), collect_pairs,
    )


def _report_fields(report):
    """Every field but `failures`, with each weight's coefficient types."""
    fields = dict(vars(report))
    del fields["failures"]
    for name in ("total_weight", "fixed_weight"):
        poly = fields[name]
        fields[name] = (poly.var, poly.coeffs, [type(c) for c in poly.coeffs])
    return fields


NO_FAILURES = dict.fromkeys(cb.CERTIFICATES, 0)


def _streamed_weight(family, n):
    """The plain sum of the weights of the elements the certifier is fed
    for `family` at n, read through whatever enumerators are in place now:
    what `total_weight` must be however many pairs close in the stream."""
    if family == "Dbar":
        return sum(map(cb.path_weight, cb.dbar_elements(n)), QPolynomial.zero("q"))
    elements = cb._involution(family)[1]
    stream = (e for k in range(n + 1) for e in elements(n, k))
    weight = cb.path_weight if family == "D" else lambda w: cb.tree_weight(cb._tree(w))
    return sum(map(weight, stream), QPolynomial.zero("q"))


class TestCertifier:
    @pytest.mark.parametrize("collect_pairs", [False, True])
    @pytest.mark.parametrize("family,top", [("D", 5), ("P", 6), ("Q", 5), ("Dbar", 6)])
    def test_matches_reference(self, family, top, collect_pairs):
        for n in range(1 if family == "Dbar" else 0, top + 1):
            if family == "Dbar":
                report = cb._certify(
                    "Dbar", n, cb.dbar_elements(n), _is_all_ones, cb.phi, cb._path_key,
                    cb.serialize_path, [], collect_pairs,
                )
                if not collect_pairs:
                    assert _report_fields(cb.dbar_involution_check(n)) == _report_fields(report)
            else:
                report = cb.involution_verify(family, n, collect_pairs=collect_pairs)
            expected = _reference_report(family, n, collect_pairs)
            assert _report_fields(report) == _report_fields(expected), (family, n)
            assert report.failures == NO_FAILURES, (family, n)

    @pytest.mark.parametrize("family,top", [("D", 5), ("Dbar", 6), ("P", 6), ("Q", 5)])
    def test_total_weight_is_the_plain_sum_of_the_stream(self, family, top):
        # closed pairs leave no tally, yet the total is every element's weight
        for n in range(1 if family == "Dbar" else 0, top + 1):
            report = (cb.dbar_involution_check(n) if family == "Dbar"
                      else cb.involution_verify(family, n))
            assert report.total_weight == _streamed_weight(family, n), (family, n)

    def test_report_record(self):
        # the constructor `_reference_certify` uses; fresh pairs and failures
        # per report; fields kept in order, compared and shown one by one
        zero = QPolynomial.zero("q")
        a = cb.InvolutionReport("P", 2, 3, 1, {}, zero, zero, counterexample="q")
        b = cb.InvolutionReport("P", 2, 3, 1, {}, zero, zero, pairs=[], counterexample="q")
        assert list(vars(a)) == [
            "family", "n", "size", "fixed_count", "certificates", "total_weight",
            "fixed_weight", "pairs", "counterexample", "failures",
        ]
        assert a == b and a.pairs == [] and a.failures == {}
        a.pairs.append(("x", "y"))
        a.failures["self_inverse"] = 1
        assert b.pairs == [] and b.failures == {} and a != b
        assert cb.InvolutionReport("P", 2, 3, 1, {}, zero, zero).pairs is not b.pairs
        assert a != ("P", 2, 3, 1, {}, zero, zero)
        assert repr(b) == (
            "InvolutionReport(family='P', n=2, size=3, fixed_count=1, certificates={}, "
            f"total_weight={zero!r}, fixed_weight={zero!r}, pairs=[], counterexample='q', "
            "failures={})"
        )
        assert b.certified

    def test_weights_are_monomials_of_their_keys(self):
        for p in cb.dbar_elements(3):
            assert cb.path_weight(p) == QPolynomial.monomial(*cb._path_key(p), "q")
        for t in cb.enumerate_family_Q(3, 1):
            assert cb.tree_weight(t) == QPolynomial.monomial(*cb._word_key(cb._word(t)), "q")

    def test_no_per_element_polynomials(self, monkeypatch):
        # only the two reported weights are built, however large the family
        calls = []
        init = QPolynomial.__init__

        def counting_init(self, *args, **kwargs):
            calls.append(1)
            init(self, *args, **kwargs)

        monkeypatch.setattr(QPolynomial, "__init__", counting_init)
        report = cb.involution_verify("P", 5)
        assert report.certified and report.size > 1000
        assert len(calls) <= 2

    @pytest.mark.parametrize("family,n", [("P", 5), ("Q", 4)])
    def test_each_pair_worked_once(self, monkeypatch, family, n):
        # psi runs twice per pair, from the member met first, and the second
        # member reuses its image's key, so only the first member, its image
        # and the expected fixed trees are weighed
        counts = Counter()

        def counting(name):
            real = getattr(cb, name)

            def wrapped(*args, **kwargs):
                counts[name] += 1
                return real(*args, **kwargs)

            monkeypatch.setattr(cb, name, wrapped)

        counting("_psi_word")
        counting("_word_key")
        report = cb.involution_verify(family, n)
        assert report.certified and report.size - report.fixed_count > 700
        assert counts["_psi_word"] <= report.size - report.fixed_count
        assert counts["_word_key"] <= report.size + len(getattr(cb, f"fixed_set_{family}")(n))


def _psi_table_P(n):
    """psi on every moving element of family P at n."""
    trees = [t for k in range(n + 1) for t in cb.enumerate_family_P(n, k)]
    return {t: cb.psi(t, "P") for t in trees if not cb.is_fixed_tree(t, "P")}


def _report_against_reference(family, n):
    """`involution_verify`'s report, checked with pairs and without against
    the reference certifier; the one without pairs is returned."""
    for collect_pairs in (True, False):
        report = cb.involution_verify(family, n, collect_pairs=collect_pairs)
        expected = _reference_report(family, n, collect_pairs)
        assert _report_fields(report) == _report_fields(expected), collect_pairs
    return report


class TestCertificateMutants:
    """Each broken involution or fixed set flips exactly the certificates
    that should catch it, with the expected failure counts, and the report
    still agrees with the reference certifier."""

    def test_weight_preserving_mutant(self, monkeypatch):
        # patched in `_phi`, which the public `phi` that the reference calls
        # looks up when called
        monkeypatch.setattr(cb, "_phi", lambda p: p)
        report = _report_against_reference("D", 3)
        moving = report.size - report.fixed_count
        assert moving > 0
        assert report.failures == {**NO_FAILURES, "weight_reversal": moving}
        assert [name for name, ok in report.certificates.items() if not ok] == ["weight_reversal"]
        assert report.counterexample is not None

    def test_non_self_inverse_mutant(self, monkeypatch):
        # rewire two pairs of equal weight into one 4-cycle: still a
        # weight-reversing bijection of the moving elements, not an involution
        table = _psi_table_P(4)
        a = next(iter(table))
        b = next(t for t in table if t not in (a, table[a])
                 and cb.tree_weight(t) == cb.tree_weight(a))
        a2, b2 = table[a], table[b]
        table.update({a2: b, b2: a})
        words = {cb._word(t): cb._word(image) for t, image in table.items()}
        monkeypatch.setattr(cb, "_psi_word", lambda w, family: words[w])
        report = _report_against_reference("P", 4)
        assert report.failures == {**NO_FAILURES, "self_inverse": 4}
        assert report.counterexample is not None

    def test_mutant_leaving_the_family(self, monkeypatch):
        # t0 goes to a tree with one vertex too many and the same weight as
        # its true image t1, and back; t1 still goes to t0
        real_psi = cb._psi_word
        t0 = next(t for t in cb.enumerate_family_P(3, 1) if not cb.is_fixed_tree(t, "P"))
        t1 = cb.psi(t0, "P")
        w0, outside = cb._word(t0), cb._word(("1", (t1,)))

        def mutant(w, family):
            if w == w0:
                return outside
            if w == outside:
                return w0
            return real_psi(w, family)

        monkeypatch.setattr(cb, "_psi_word", mutant)
        report = _report_against_reference("P", 3)
        assert report.failures == {**NO_FAILURES, "multiset_closure": 2, "self_inverse": 1}
        assert report.counterexample == cb.serialize_tree(t1)

    def test_mutant_onto_the_fixed_set(self, monkeypatch):
        # t0 goes to a fixed tree of its true image's weight, and back: t0's
        # own checks pass, so the fixed tree waits as an open image, yet it
        # is still counted as fixed when it is met; t1 still goes to t0
        real_psi = cb._psi_word
        fixed = cb._word(cb.fixed_set_P(4)[0])
        w0 = next(
            w for k in range(4) for w in cb._iter_family_trees(4, k, "P")
            if cb._word_key(w) == (-1, cb._word_key(fixed)[1])
        )
        t1 = cb.psi(cb._tree(w0), "P")

        def mutant(w, family):
            if w == w0:
                return fixed
            if w == fixed:
                return w0
            return real_psi(w, family)

        monkeypatch.setattr(cb, "_psi_word", mutant)
        report = _report_against_reference("P", 4)
        assert report.fixed_count == len(cb.fixed_set_P(4))
        assert report.failures == {**NO_FAILURES, "multiset_closure": 2, "self_inverse": 1}
        assert report.counterexample == cb.serialize_tree(t1)
        assert report.total_weight == _streamed_weight("P", 4)

    def test_mutant_onto_the_fixed_set_one_way(self, monkeypatch):
        # as above, but the fixed tree keeps the real psi, which raises on
        # it: t0 fails self-inverse instead of crashing the certifier, and
        # t1, whose image t0 no longer returns, fails too
        real_psi = cb._psi_word
        fixed = cb._word(cb.fixed_set_P(4)[0])
        w0 = next(
            w for k in range(4) for w in cb._iter_family_trees(4, k, "P")
            if cb._word_key(w) == (-1, cb._word_key(fixed)[1])
        )
        w1 = real_psi(w0, "P")
        monkeypatch.setattr(
            cb, "_psi_word", lambda w, family: fixed if w == w0 else real_psi(w, family)
        )
        report = cb.involution_verify("P", 4)
        assert report.fixed_count == len(cb.fixed_set_P(4))
        assert report.failures == {**NO_FAILURES, "multiset_closure": 2, "self_inverse": 2}
        assert report.total_weight == _streamed_weight("P", 4)
        first = next(
            w for k in range(5) for w in cb._iter_family_trees(4, k, "P") if w in (w0, w1)
        )
        assert report.counterexample == cb._serialize_word(first)

    def test_phi_onto_the_fixed_set(self, monkeypatch):
        # p goes to an all-1 path, which weighs 1, not -weight(p), and on
        # which phi raises; phi(p) still goes to p
        real_phi = cb._phi
        elements = [e for k in range(5) for e in cb._iter_flat_family_D(4, k)]
        p = next(e for e in elements if not cb._is_unweighted(e))
        q = real_phi(p)
        fixed = (p[0], (0,) * 4)
        monkeypatch.setattr(cb, "_phi", lambda path: fixed if path == p else real_phi(path))
        report = cb.involution_verify("D", 4)
        assert report.failures == {
            **NO_FAILURES, "multiset_closure": 2, "self_inverse": 2, "weight_reversal": 1,
        }
        assert report.total_weight == _streamed_weight("D", 4)
        first = next(e for e in elements if e in (p, q))
        assert report.counterexample == cb.serialize_path(first)

    def test_mutant_on_repeated_paths(self, monkeypatch):
        # D's flattened paths are all distinct at n <= 6, so the enumeration
        # here yields every moving element twice, as a non-injective flatten
        # would; each pair then opens and closes twice.  Both D enumerators
        # are doubled: the flat one feeds `involution_verify`, and the
        # decorated one the reference certifier
        real_iter, real_flat = cb.iter_family_D, cb._iter_flat_family_D

        def doubled(n, k):
            for e in real_iter(n, k):
                yield e
                if not cb._is_unweighted(cb.flatten(e)):
                    yield e

        def doubled_flat(n, k):
            for p in real_flat(n, k):
                yield p
                if not cb._is_unweighted(p):
                    yield p

        monkeypatch.setattr(cb, "iter_family_D", doubled)
        monkeypatch.setattr(cb, "_iter_flat_family_D", doubled_flat)
        report = _report_against_reference("D", 3)
        assert report.failures == NO_FAILURES and report.size == 2 * 101 - 5
        assert report.total_weight == _streamed_weight("D", 3)
        # p goes to a path one semilength longer with its true image's
        # weight, and back; both copies of p open that image, and neither
        # copy of q = phi(p) finds p sent back
        real_phi = cb._phi
        p = next(cb.flatten(e) for e in real_iter(3, 1))
        q = real_phi(p)

        def lengthened(path):
            steps, tags = path
            return steps + "UD", tags + (0,)

        swaps = {p: lengthened(q), lengthened(q): p}
        monkeypatch.setattr(cb, "_phi", lambda path: swaps.get(path) or real_phi(path))
        report = _report_against_reference("D", 3)
        assert report.failures == {**NO_FAILURES, "multiset_closure": 4, "self_inverse": 2}
        assert report.counterexample == cb.serialize_path(q)
        assert report.total_weight == _streamed_weight("D", 3)
        # q is sent out of the family too: every element passes its own
        # checks, and only the two pairs left open, twice each, show it
        swaps.update({q: lengthened(p), lengthened(p): q})
        report = _report_against_reference("D", 3)
        assert report.failures == {**NO_FAILURES, "multiset_closure": 8}
        assert report.counterexample is None
        assert report.total_weight == _streamed_weight("D", 3)

    def test_fixed_set_missing_an_element(self, monkeypatch):
        real = cb._fixed_words
        monkeypatch.setattr(cb, "_fixed_words", lambda n, family: list(real(n, family))[1:])
        report = _report_against_reference("P", 4)
        assert report.failures == {**NO_FAILURES, "fixed_set_match": 1, "total_weight": 1}
        assert report.counterexample is None

    def test_certificates_are_blind_to_the_stream_size(self, monkeypatch):
        # the five certificates say that phi or psi is a sign-reversing
        # involution on the stream it is fed, not that the stream is the whole
        # family: with one moving pair dropped or fed twice they all pass, and
        # only the element count moves.  A run-time count check (ROADMAP item 4)
        # would flip these to failures.  A dropped fixed element still fails
        # fixed_set_match and total_weight, which shows that the edit is live
        real = cb._certify

        def feed(edit):
            def certify(family, n, elements, is_fixed, apply, *rest):
                elements = list(elements)
                moving = next(e for e in elements if not is_fixed(e))
                fixed = next((e for e in elements if is_fixed(e)), None)  # none in P 5
                stream = edit(elements, [moving, apply(moving)], fixed)
                return real(family, n, stream, is_fixed, apply, *rest)

            monkeypatch.setattr(cb, "_certify", certify)

        def without(elements, dropped):
            for e in dropped:
                elements.remove(e)
            return elements

        for family, n, size in (("D", 5, 4978), ("P", 5, 1704), ("Q", 4, 777)):
            assert cb.involution_verify(family, n).size == size
            feed(lambda elements, pair, fixed: without(elements, pair))
            report = cb.involution_verify(family, n)
            assert report.certified and report.size == size - 2, (family, n)
            feed(lambda elements, pair, fixed: elements + pair)
            report = cb.involution_verify(family, n)
            assert report.certified and report.size == size + 2, (family, n)
            monkeypatch.setattr(cb, "_certify", real)
        feed(lambda elements, pair, fixed: without(elements, [fixed]))
        for family, n in (("D", 5), ("P", 4), ("Q", 4)):
            report = cb.involution_verify(family, n)
            assert report.failures == {**NO_FAILURES, "fixed_set_match": 1, "total_weight": 1}


# -- the closed forms and weight sums as separate bodies: each closed form with
# its own power of (1 -+ q) and, for Q, substitute(q^2); each weight sum with
# one loop pass per sign pattern or per choice of marked positions ------------

_ONE_MINUS_Q = QPolynomial((1, -1), "q")


def _reference_closed_form_D(n, k):
    c = Fraction((2 * k + 1) * binomial(2 * n + 1, n - k), 2 * n + 1)
    return c * narayana_poly(k) * _ONE_MINUS_Q ** (n - k)


def _reference_closed_form_P(n, k):
    return binomial(n, k) * narayana_poly(k + 1) * QPolynomial((-1, -1), "q") ** (n - k)


def _reference_closed_form_Q(n, k):
    base = narayana_poly(k + 1).substitute(QPolynomial((0, 0, 1), "q"))
    return (-1) ** (n - k) * binomial(n, k) * base * _ONE_MINUS_Q ** (2 * (n - k))


def _reference_weight_D(n, k):
    counts = [0] * (n + 1)
    u = n - k
    for base in cb._dyck_paths(k):
        peaks = sum(cb._base_tags(base))
        for comp in cb._compositions(u, 2 * k + 1):
            n_tuples = 1
            for m in comp:
                n_tuples *= len(cb._dyck_paths(m))
            for _ in range(n_tuples):
                for bits in range(1 << u):
                    j = bits.bit_count()
                    counts[peaks + j] += -1 if j & 1 else 1
    return QPolynomial(counts, "q")


def _reference_weight_tree(family, n, k):
    info = cb._FAMILY[family]
    if not 0 <= k <= n:
        return QPolynomial.zero("q")
    m = n - k
    marks = Counter()
    for tags in product(info["mark_weights"], repeat=m):
        marks[sum(e for _, e in tags)] += prod(c for c, _ in tags)
    leaf_coeff, leaf_exponent = info["leaf_weight"]
    counts = [0] * (leaf_exponent * (n + 2) + max(marks) + 1)
    for degrees in cb._tree_shapes(n + 2):
        unary = [i for i, d in enumerate(degrees) if d == 1 and i]
        leaves = degrees.count(0)
        if len(unary) < m:
            continue
        scale, base = leaf_coeff**leaves, leaf_exponent * leaves
        for _ in combinations(unary, m):
            for exponent, coeff in marks.items():
                counts[base + exponent] += scale * coeff
    return QPolynomial(counts, "q")


_REFERENCE_FAMILIES = {
    "D": (7, _reference_closed_form_D, _reference_weight_D),
    "P": (7, _reference_closed_form_P, lambda n, k: _reference_weight_tree("P", n, k)),
    "Q": (6, _reference_closed_form_Q, lambda n, k: _reference_weight_tree("Q", n, k)),
}


def _identical(got, want):
    """Same stored coefficients, each of the same type."""
    return got.coeffs == want.coeffs and [type(c) for c in got.coeffs] == [
        type(c) for c in want.coeffs
    ]


class TestAgainstSeparateBodies:
    @pytest.mark.parametrize("family", sorted(_REFERENCE_FAMILIES))
    def test_closed_form_is_the_expansion_summand(self, family):
        top, reference, _ = _REFERENCE_FAMILIES[family]
        closed = getattr(cb, f"family_{family}_closed_form")
        for n in range(top + 1):
            for k in range(n + 1):
                got, want = closed(n, k), reference(n, k)
                assert _identical(got, want), (family, n, k, got, want)

    @pytest.mark.parametrize("family", sorted(_REFERENCE_FAMILIES))
    def test_closed_form_and_weight_sum_share_the_domain(self, family):
        # outside 0 <= k <= n both sides are the zero polynomial
        closed = getattr(cb, f"family_{family}_closed_form")
        weight = getattr(cb, f"family_{family}_weight")
        for n in range(5):
            for k in (-1, n + 1):
                got, want = closed(n, k), weight(n, k)
                assert _identical(got, want) and got == QPolynomial.zero("q"), (family, n, k)

    @pytest.mark.parametrize("family", sorted(_REFERENCE_FAMILIES))
    def test_weight_sum_matches_per_element_loops(self, family):
        top, _, reference = _REFERENCE_FAMILIES[family]
        weight = getattr(cb, f"family_{family}_weight")
        for n in range(top + 1):
            for k in range(-1, n + 2):
                got, want = weight(n, k), reference(n, k)
                assert _identical(got, want), (family, n, k, got, want)


# -- _weight_sum mutants: the tally convolution feeds criterion 5's weight-sum
#    side only, so its catch sets are read from this file's weight tests ------


def _first_offset_dropped(real, m, mark_weights, classes):
    """_weight_sum as if its first class (offset, count) lost its offset."""
    classes = list(classes)
    return real(m, mark_weights, [(0, classes[0][1])] + classes[1:] if classes else [])


def _last_mark_product_dropped(real, m, mark_weights, classes):
    """_weight_sum as if its tally missed the last m-fold mark product, every
    mark the last weight c q^e, when m >= 1: c^m q^(e m) less per element."""
    classes = list(classes)
    total = real(m, mark_weights, classes)
    if m:
        c, e = mark_weights[-1]
        for offset, count in classes:
            total = total - QPolynomial.monomial(count * c**m, offset + e * m, "q")
    return total


_WEIGHT_SUM_MUTANTS = {
    "first_offset_dropped": _first_offset_dropped,
    "last_mark_product_dropped": _last_mark_product_dropped,
}

# the tests above that read a family's weight sum, as Class.test, or
# Class.test[family] for a test that takes its family
_WEIGHT_TESTS = (
    "TestFamilyD.test_weights_match_closed_form", "TestFamilyD.test_weight_sum_is_catalan",
    "TestFamilyP.test_weight_sums_match_closed_form", "TestFamilyQ.test_n1_k0_weight",
    "TestFamilyQ.test_weight_sums_match_closed_form", "TestFamilyQ.test_total_weight_law",
    *(f"TestAgainstSeparateBodies.test_weight_sum_matches_per_element_loops[{family}]"
      for family in sorted(_REFERENCE_FAMILIES)),
)

# mutant -> the weight tests that fail under it, read from a real run
_WEIGHT_SUM_CAUGHT_BY = {
    # Q(1, 0)'s first class, the shape with no unary vertex to mark, counts 0
    "first_offset_dropped": set(_WEIGHT_TESTS) - {"TestFamilyQ.test_n1_k0_weight"},
    "last_mark_product_dropped": set(_WEIGHT_TESTS),
}


def _failing_weight_tests() -> set:
    """The names in _WEIGHT_TESTS whose test fails when run."""
    failing = set()
    for name in _WEIGHT_TESTS:
        cls, test, *family = name.rstrip("]").replace("[", ".").split(".")
        try:
            getattr(globals()[cls](), test)(*family)
        except AssertionError:
            failing.add(name)
    return failing


class TestWeightSumMutants:
    def test_unmutated_weight_tests_pass(self):
        assert _failing_weight_tests() == set()

    @pytest.mark.parametrize("mutant", sorted(_WEIGHT_SUM_MUTANTS))
    def test_catch_set(self, monkeypatch, mutant):
        real = cb._weight_sum
        monkeypatch.setattr(cb, "_weight_sum", partial(_WEIGHT_SUM_MUTANTS[mutant], real))
        assert _failing_weight_tests() == _WEIGHT_SUM_CAUGHT_BY[mutant]
