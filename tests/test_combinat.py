import os

import pytest

from narayana import combinat as cb
from narayana.exact_core import QPolynomial
from narayana.sequences import catalan, catalan_half


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


class TestFamilyD:
    def test_semilength_one_elements(self):
        assert len(cb.enumerate_family_D(1, 1)) == 1
        assert len(cb.enumerate_family_D(1, 0)) == 2

    def test_weights_match_closed_form(self):
        for n in range(7):
            for k in range(n + 1):
                assert cb.family_D_weight(n, k) == cb.family_D_closed_form(n, k), (
                    n,
                    k,
                )

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

    def test_phi_is_weight_reversing_on_sample(self):
        for e in cb.enumerate_family_D(3, 1):
            p = cb.flatten(e)
            if all(t == 0 for t in p.tags):
                continue
            image = cb.phi(p)
            assert cb.phi(image) == p
            assert cb.path_weight(image) == -cb.path_weight(p)


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

    def test_dbar_certifies_alternating_sum(self):
        for n in range(1, 7):
            report = cb.dbar_involution_check(n)
            assert report.certified, n
            assert report.fixed_count == 0
            assert report.total_weight == QPolynomial.zero("q")

    def test_dbar_requires_positive_n(self):
        with pytest.raises(ValueError):
            cb.dbar_involution_check(0)


class TestSerialization:
    def test_path_round_readable(self):
        p = cb.WeightedDyckPath("UUDD", (1, 0))
        s = cb.serialize_path(p)
        assert "U" in s and "D" in s

    def test_tree_serialization_deterministic(self):
        t = ("1", (("m1", (("q", ()),)),))
        assert cb.serialize_tree(t) == "1(m1(q))"
