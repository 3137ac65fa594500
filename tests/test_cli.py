import hashlib
import itertools
import json
import pathlib
import subprocess
import sys
from fractions import Fraction

import pytest

from narayana import combinat, exact_core, identities, sequences, series
from narayana.cli import (
    _CHECKS, _SEQUENCES, EXIT_MISMATCH, EXIT_OK, EXIT_USAGE, ROW_TABLE_CAP, TABLE_CAP,
    build_parser, main,
)
from narayana.identities import IDENTITY_TAGS

# non-identity check -> records it emits at --max-n 3
NON_IDENTITY_CHECKS = {
    "integral_representation": 3,
    "omega_closed_form": 1,
    "omega_composition_first": 1,
    "omega_composition_second": 1,
    "legendre_gf": 1,
    "lagrange_coefficient": 10,
}

# sha256 of `verify --identity all --max-n 6 --format json` before the checks
# moved into one table
ALL_MAX_N_6_JSON_SHA256 = "44e89d1953ca58f1df99a13c8a8383559567ce7602a3ac8b6fc4629aecb42390"

# sha256 of `verify --identity all` stdout before the series layer's sparse
# power recurrence, triangular compose and grown Catalan powers: the
# benchmark's argv (--max-n 14 --format json) and --max-n 20 text
ALL_MAX_N_14_JSON_SHA256 = "ae7c0b8f02b3f233f0bd71f7aa0d4c668d456555cf3ccede55fa27e5a23a020b"
ALL_MAX_N_20_TEXT_SHA256 = "985759b07ed5c7a55eb360d3ba4066abcaf695a68407404e215108079de273f6"
# and of `verify --identity all --max-n 30` text before the identity sums were
# evaluated by Horner's rule
ALL_MAX_N_30_TEXT_SHA256 = "ed48553cc8b0725a94b2c672cf4e0fad7393961d2e0edceef6cb73079d3ac27d"
# and at the default cap, --max-n 50 text, kept since the Horner sums
ALL_MAX_N_50_TEXT_SHA256 = "f7dfb8f6c23f8188cbeddcb679b85697d1a76835dbed582ac9b9848608eee610"

# sha256 of the writer's largest outputs, recorded before verify, table and
# involution printed every value through one writer
WRITER_SHA256 = {
    ("verify", "--identity", "all", "--max-n", "50", "--format", "json"):
        "a5c425804129d2c0dc688136bffebb89bef92315267a2009892c3ce60fd5f03d",
    ("table", "--sequence", "legendre", "--max-n", "300", "--format", "json"):
        "63bd5e845225e4a79ba1249d42aec780459e01638fa18b17e46b8fd7f99b0c58",
    ("table", "--sequence", "narayana_poly", "--max-n", "300", "--format", "json"):
        "a771c80108379a47ecf9193b9ea0a6d349b3019e2b5c942b0b7196fd0e59bcd6",
}

# sha256 of stdout before the one-pass certifier and the streamed `enumerate`;
# the larger sizes before psi's rightmost-path walk became one recursion
INVOLUTION_PAIRS_SHA256 = {
    ("D", "4"): "409ad13520972762275c71da4b04769120a208848e88aee18e4095047b150687",
    ("P", "5"): "835b8a424776030e982c075cd2b1680ea6670b8c78c6451b3c4893eaa550da05",
    ("Q", "4"): "a45f9c6dc3aee656af47b5dc8dec5b6bf36613d69175a23472839a0065e679a5",
    ("P", "6"): "7287cae2ecbd2c2b07a94369eea66532d04753ca5ab87b3000907d6758dd27a9",
    ("Q", "5"): "a810b2a6359d528464d21a97e83c7e10f778919ff34003b26b6b13f45775085f",
    ("D", "5"): "613a1b9f66c02f40d15b5e8729a5ea151c59e544a84e2b068513d9e1fb12e99f",
}
ENUMERATE_SHA256 = {
    ("dyck", "4"): "94f4f24c801b142717d32cd90d5cf01013be84ca3fef31edbcbed93c89c54abc",
    ("D", "4"): "66b8fe2e35fbff19d462753e9de325733840ca646ddce0cd6375e6cad55fa0ba",
    ("P", "5"): "9d4cabf74ccd8eba2cf2a637b198ac237806400c8b9c9ec7d974f1ed96010b50",
    ("Q", "4"): "7d840ca999fd74e301ef13c2afd0a951d22c2fdb15acf978a9217a4629553faa",
    ("D", "4", "2"): "ceecffee4e6d40df360c634ddaf7d1cac6949d85cd6539a2e9ad9e2e30fe297a",
    ("P", "5", "3"): "825a0821a5ce87bbacec1895f14f16e43cce55143807f95175cfc6547f59fe53",
}


def _plain(v):
    """A check side or table value as nested lists of str, each coefficient
    read through Fraction."""
    if isinstance(v, exact_core.PolySeries):
        return [_plain(p) for p in v.coeffs]
    if isinstance(v, exact_core.QPolynomial):
        v = v.coeffs
    if type(v) is tuple:
        return [str(Fraction(c)) for c in v]
    return str(Fraction(v))


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestVerify:
    def test_single_identity_text(self, capsys):
        code, out, err = run(
            capsys, "verify", "--identity", "main_37", "--max-n", "4"
        )
        assert code == EXIT_OK
        lines = out.strip().splitlines()
        assert len(lines) == 5
        assert all(line.endswith("ok") for line in lines)

    def test_json_lines_parse(self, capsys):
        code, out, _ = run(
            capsys,
            "verify",
            "--identity",
            "main_38",
            "--max-n",
            "3",
            "--format",
            "json",
        )
        assert code == EXIT_OK
        records = [json.loads(line) for line in out.strip().splitlines()]
        assert [r["n"] for r in records] == [0, 1, 2, 3]
        assert all(r["equal"] for r in records)
        assert list(records[0]) == ["identity", "n", "lhs", "rhs", "equal"]

    def test_json_writer_matches_json_dumps(self, capsys):
        # every line `verify --identity all --max-n 14 --format json` prints,
        # and every table sequence's rows, against json.dumps of a structure
        # built here from the same values
        expected = [
            json.dumps({"identity": r.identity, "n": r.n, "lhs": _plain(r.lhs),
                        "rhs": _plain(r.rhs), "equal": r.equal})
            for _, results in _CHECKS.values() for r in results(14)
        ]
        _, out, _ = run(capsys, "verify", "--identity", "all", "--max-n", "14", "--format", "json")
        assert out.splitlines() == expected
        for name, (_, rows) in _SEQUENCES.items():
            expected = [
                json.dumps({"n": n, "coefficients" if type(v) is tuple else "value": _plain(v)})
                for n, v in rows(14)
            ]
            _, out, _ = run(
                capsys, "table", "--sequence", name, "--max-n", "14", "--format", "json"
            )
            assert out.splitlines() == expected, name

    @pytest.mark.parametrize("argv", WRITER_SHA256, ids=["verify-50-json", "legendre-300-json",
                                                         "narayana-poly-300-json"])
    def test_writer_largest_outputs_are_pinned(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert (code, err) == (EXIT_OK, "")
        assert hashlib.sha256(out.encode()).hexdigest() == WRITER_SHA256[argv]

    def test_rationals_rendered_as_p_over_q(self, capsys):
        code, out, _ = run(
            capsys,
            "verify",
            "--identity",
            "app_lucas",
            "--max-n",
            "0",
            "--format",
            "json",
        )
        assert code == EXIT_OK
        record = json.loads(out.strip())
        assert isinstance(record["lhs"], str)

    def test_unknown_identity_is_usage_error(self, capsys):
        code, out, err = run(capsys, "verify", "--identity", "zeta", "--max-n", "3")
        assert code == EXIT_USAGE
        assert out == ""
        assert "zeta" in err.splitlines()[-1]

    def test_below_min_n_is_usage_error(self, capsys):
        code, _, err = run(
            capsys, "verify", "--identity", "alt_sum_310", "--max-n", "0"
        )
        assert code == EXIT_USAGE

    def test_non_identity_below_min_n_is_usage_error(self, capsys):
        code, out, err = run(
            capsys, "verify", "--identity", "integral_representation", "--max-n", "0"
        )
        assert code == EXIT_USAGE
        assert out == ""
        assert "requires n >= 1" in err

    def test_all_walks_the_check_table_in_order(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--identity", "all", "--max-n", "3", "--format", "json"
        )
        assert code == EXIT_OK
        names = [json.loads(line)["identity"] for line in out.splitlines()]
        blocks = [name for name, _ in itertools.groupby(names)]
        assert blocks == list(_CHECKS)
        assert list(_CHECKS) == list(IDENTITY_TAGS) + list(NON_IDENTITY_CHECKS)

    @pytest.mark.parametrize("name", NON_IDENTITY_CHECKS)
    def test_non_identity_check_alone(self, capsys, name):
        code, out, _ = run(
            capsys, "verify", "--identity", name, "--max-n", "3", "--format", "json"
        )
        assert code == EXIT_OK
        records = [json.loads(line) for line in out.splitlines()]
        assert len(records) == NON_IDENTITY_CHECKS[name]
        assert all(r["identity"] == name and r["equal"] for r in records)

    def test_all_output_is_pinned(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--identity", "all", "--max-n", "6", "--format", "json"
        )
        assert code == EXIT_OK
        assert hashlib.sha256(out.encode()).hexdigest() == ALL_MAX_N_6_JSON_SHA256

    @pytest.mark.parametrize(
        "argv, digest",
        [
            (("--max-n", "14", "--format", "json"), ALL_MAX_N_14_JSON_SHA256),
            (("--max-n", "20"), ALL_MAX_N_20_TEXT_SHA256),
            (("--max-n", "30"), ALL_MAX_N_30_TEXT_SHA256),
            (("--max-n", "50"), ALL_MAX_N_50_TEXT_SHA256),
        ],
        ids=["14-json", "20-text", "30-text", "50-text"],
    )
    def test_series_sizes_output_is_pinned(self, capsys, argv, digest):
        code, out, err = run(capsys, "verify", "--identity", "all", *argv)
        assert code == EXIT_OK
        assert err == ""
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_all_small(self, capsys):
        code, out, _ = run(capsys, "verify", "--identity", "all", "--max-n", "3")
        assert code == EXIT_OK
        assert "MISMATCH" not in out

    def test_deterministic_output(self, capsys):
        first = run(capsys, "verify", "--identity", "main_39", "--max-n", "5")
        second = run(capsys, "verify", "--identity", "main_39", "--max-n", "5")
        assert first == second

    @pytest.mark.parametrize("max_n", ["51", "1000000000"])
    def test_verify_max_n_over_cap(self, capsys, monkeypatch, max_n):
        monkeypatch.delenv("NARAYANA_CAP", raising=False)
        code, out, err = run(capsys, "verify", "--identity", "parity", "--max-n", max_n)
        assert code == EXIT_USAGE
        assert out == ""
        assert err == (
            f"verify: --max-n: n={max_n} exceeds cap 50 (set NARAYANA_CAP to raise it)\n"
        )

    @pytest.mark.parametrize("cap, max_n", [(None, "50"), ("51", "51")])
    def test_verify_max_n_within_cap(self, capsys, monkeypatch, cap, max_n):
        if cap is None:
            monkeypatch.delenv("NARAYANA_CAP", raising=False)
        else:
            monkeypatch.setenv("NARAYANA_CAP", cap)
        code, out, _ = run(capsys, "verify", "--identity", "parity", "--max-n", max_n)
        assert code == EXIT_OK
        assert out.splitlines()[-1].startswith(f"parity n={max_n} ")


@pytest.fixture
def wrong_narayana_poly(monkeypatch):
    """N_3(q) gets one more q^2 (3 -> 4) everywhere, behind cleared caches;
    the real one and clean caches come back after."""
    real = sequences.narayana_number
    monkeypatch.setattr(
        sequences, "narayana_number",
        lambda n, k: real(n, k) + (n == 3 and k == 2),
    )
    exact_core.clear_caches()
    yield
    monkeypatch.undo()
    exact_core.clear_caches()


class TestMismatchLocation:
    """A failed check names its first differing coefficient on stderr;
    stdout keeps its one record per result."""

    @pytest.mark.parametrize(
        "identity, where",
        [
            ("new_expansion_c1", "new_expansion_c1 n=3 first differs at degree 2: lhs=4 rhs=3"),
            ("omega_closed_form",
             "omega_closed_form n=4 first differs at x^3 degree 2: lhs=3 rhs=4"),
            ("parity", "parity n=3 first differs at lhs=2 rhs=1"),
        ],
        ids=["polynomial", "series", "scalar"],
    )
    def test_first_difference_on_stderr(self, capsys, wrong_narayana_poly, identity, where):
        code, out, err = run(capsys, "verify", "--identity", identity, "--max-n", "4")
        assert code == EXIT_MISMATCH
        assert err == f"verify: {where}\n"
        records = out.splitlines()
        assert sum(line.endswith(" MISMATCH") for line in records) == 1

    def test_no_stderr_when_equal(self, capsys):
        code, _, err = run(capsys, "verify", "--identity", "omega_closed_form", "--max-n", "4")
        assert code == EXIT_OK
        assert err == ""


class TestTable:
    def test_catalan_csv(self, capsys):
        code, out, _ = run(capsys, "table", "--sequence", "catalan", "--max-n", "5")
        assert code == EXIT_OK
        assert out.strip().splitlines() == [
            "0,1",
            "1,1",
            "2,2",
            "3,5",
            "4,14",
            "5,42",
        ]

    def test_narayana_poly_rows_low_degree_first(self, capsys):
        code, out, _ = run(
            capsys, "table", "--sequence", "narayana_poly", "--max-n", "3"
        )
        assert code == EXIT_OK
        assert out.strip().splitlines()[3] == "3,0,1,3,1"

    def test_recurrence_sequences_start_at_minus_one(self, capsys):
        code, out, _ = run(capsys, "table", "--sequence", "pell", "--max-n", "3")
        assert code == EXIT_OK
        assert out.strip().splitlines()[0] == "-1,1"

    def test_json_format(self, capsys):
        code, out, _ = run(
            capsys,
            "table",
            "--sequence",
            "schroeder",
            "--max-n",
            "5",
            "--format",
            "json",
        )
        assert code == EXIT_OK
        values = [json.loads(line)["value"] for line in out.strip().splitlines()]
        assert values == ["1", "2", "6", "22", "90", "394"]

    def test_unknown_sequence_rejected(self, capsys):
        code, _, err = run(capsys, "table", "--sequence", "motzkin", "--max-n", "3")
        assert code == EXIT_USAGE


    @pytest.mark.parametrize("max_n", [str(TABLE_CAP + 1), "1000000000"])
    def test_max_n_over_cap(self, capsys, monkeypatch, max_n):
        monkeypatch.delenv("NARAYANA_CAP", raising=False)
        code, out, err = run(capsys, "table", "--sequence", "catalan", "--max-n", max_n)
        assert code == EXIT_USAGE
        assert out == ""
        assert err == (
            f"table: --max-n: n={max_n} exceeds cap {TABLE_CAP} "
            "(set NARAYANA_CAP to raise it)\n"
        )

    @pytest.mark.parametrize("cap, max_n", [(None, TABLE_CAP), (str(TABLE_CAP + 1), TABLE_CAP + 1)])
    def test_max_n_within_cap(self, capsys, monkeypatch, cap, max_n):
        if cap is None:
            monkeypatch.delenv("NARAYANA_CAP", raising=False)
        else:
            monkeypatch.setenv("NARAYANA_CAP", cap)
        code, out, _ = run(capsys, "table", "--sequence", "catalan", "--max-n", str(max_n))
        assert code == EXIT_OK
        lines = out.splitlines()
        assert len(lines) == max_n + 1
        assert lines[-1].startswith(f"{max_n},")

    @pytest.mark.parametrize("sequence", ["legendre", "narayana_poly", "narayana_number"])
    def test_coefficient_rows_have_their_own_cap(self, capsys, monkeypatch, sequence):
        # a row holds n + 1 coefficients, so these tables stop sooner
        monkeypatch.delenv("NARAYANA_CAP", raising=False)
        max_n = str(ROW_TABLE_CAP + 1)
        code, out, err = run(capsys, "table", "--sequence", sequence, "--max-n", max_n)
        assert code == EXIT_USAGE
        assert out == ""
        assert err == (
            f"table: --max-n: n={max_n} exceeds cap {ROW_TABLE_CAP} "
            "(set NARAYANA_CAP to raise it)\n"
        )
        monkeypatch.setenv("NARAYANA_CAP", max_n)
        code, out, _ = run(capsys, "table", "--sequence", sequence, "--max-n", max_n)
        assert code == EXIT_OK
        assert out.splitlines()[-1].startswith(f"{max_n},")


class TestInvolution:
    @pytest.mark.parametrize("family", ["D", "P", "Q"])
    def test_families_pass(self, capsys, family):
        code, out, _ = run(capsys, "involution", "--family", family, "--n", "3")
        assert code == EXIT_OK
        assert out.count("pass") == 5

    def test_emit_pairs(self, capsys):
        code, out, _ = run(
            capsys, "involution", "--family", "P", "--n", "2", "--emit-pairs"
        )
        assert code == EXIT_OK
        assert "pair:" in out

    def test_cap_is_usage_error(self, capsys):
        code, _, err = run(capsys, "involution", "--family", "D", "--n", "99")
        assert code == EXIT_USAGE

    @pytest.mark.parametrize("family,n", INVOLUTION_PAIRS_SHA256)
    def test_output_is_pinned(self, capsys, family, n):
        code, out, _ = run(capsys, "involution", "--family", family, "--n", n, "--emit-pairs")
        assert code == EXIT_OK
        assert hashlib.sha256(out.encode()).hexdigest() == INVOLUTION_PAIRS_SHA256[family, n]

    def test_failure_counts_go_to_stderr(self, capsys, monkeypatch):
        _, passing, _ = run(capsys, "involution", "--family", "D", "--n", "3")
        monkeypatch.setattr(combinat, "phi", lambda p: p)  # keeps every weight
        report = combinat.involution_verify("D", 3)
        code, out, err = run(capsys, "involution", "--family", "D", "--n", "3")
        assert code == EXIT_MISMATCH
        assert out == passing.replace("weight_reversal: pass", "weight_reversal: FAIL")
        assert err == (
            f"counterexample: {report.counterexample}\n"
            f"failures: weight_reversal={report.size - report.fixed_count}\n"
        )

    def test_image_on_the_fixed_set_is_a_reported_failure(self, capsys, monkeypatch):
        # psi is undefined on the fixed tree a mutant sends w0 to, so
        # checking that image's image raises inside the certifier, which
        # counts it as w0's failure and still prints every certificate
        real_psi = combinat._psi_word
        fixed = combinat._word(combinat.fixed_set_P(4)[0])
        w0 = next(
            w for k in range(4) for w in combinat._iter_family_trees(4, k, "P")
            if combinat._word_key(w) == (-1, combinat._word_key(fixed)[1])
        )
        monkeypatch.setattr(
            combinat, "_psi_word", lambda w, family: fixed if w == w0 else real_psi(w, family)
        )
        code, out, err = run(capsys, "involution", "--family", "P", "--n", "4")
        assert code == EXIT_MISMATCH
        assert "certificate multiset_closure: FAIL\ncertificate self_inverse: FAIL\n" in out
        assert out.count(": pass") == 3
        assert err.endswith("failures: multiset_closure=2 self_inverse=2\n")


class TestEnumerate:
    def test_dyck(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--family", "dyck", "--n", "2")
        assert code == EXIT_OK
        assert sorted(out.split()) == ["UDUD", "UUDD"]

    @pytest.mark.parametrize("family, line", [
        ("dyck", "(empty)"), ("D", "(empty)"), ("P", "1(q)"), ("Q", "1(q2)"),
    ])
    def test_size_zero_prints_its_one_element(self, capsys, family, line):
        # the empty path is written "(empty)" for D as for dyck, never as a blank line
        code, out, _ = run(capsys, "enumerate", "--family", family, "--n", "0")
        assert code == EXIT_OK
        assert out == line + "\n"

    def test_family_p_with_k(self, capsys):
        code, out, _ = run(
            capsys, "enumerate", "--family", "P", "--n", "1", "--k", "0"
        )
        assert code == EXIT_OK
        assert sorted(out.split()) == ["1(m1(q))", "1(mq(q))"]

    @pytest.mark.parametrize(
        "argv",
        [
            ["--family", "D", "--n", "-2"],
            ["--family", "P", "--n", "3", "--k", "7"],
            ["--family", "Q", "--n", "2", "--k", "-1"],
        ],
    )
    def test_out_of_range_size_is_usage_error(self, capsys, argv):
        code, out, err = run(capsys, "enumerate", *argv)
        assert code == EXIT_USAGE
        assert out == ""
        # "enumerate: …" from main, or argparse's "narayana enumerate: …"
        assert "enumerate: " in err.splitlines()[-1]

    def test_k_with_dyck_is_usage_error(self, capsys):
        code, out, err = run(capsys, "enumerate", "--family", "dyck", "--n", "2", "--k", "1")
        assert code == EXIT_USAGE
        assert out == ""
        assert err.startswith("enumerate: ") and err.count("\n") == 1

    @pytest.mark.parametrize("argv", ENUMERATE_SHA256)
    def test_output_is_pinned(self, capsys, argv):
        family, n, *k = argv
        code, out, _ = run(capsys, "enumerate", "--family", family, "--n", n,
                           *(["--k", k[0]] if k else []))
        assert code == EXIT_OK
        assert hashlib.sha256(out.encode()).hexdigest() == ENUMERATE_SHA256[argv]

    @pytest.mark.parametrize("family", ["D", "P", "Q"])
    def test_streams_without_building_the_family(self, capsys, monkeypatch, family):
        def refuse(*args, **kwargs):
            raise AssertionError("enumerate built a whole family list")

        monkeypatch.setattr(combinat, f"enumerate_family_{family}", refuse)
        code, out, _ = run(capsys, "enumerate", "--family", family, "--n", "2")
        assert code == EXIT_OK
        assert out.count("\n") > 1

    def test_cap_is_checked_before_output(self, capsys):
        code, out, err = run(capsys, "enumerate", "--family", "P", "--n", "99")
        assert code == EXIT_USAGE
        assert out == ""
        assert err == (
            "enumerate: enumerate_family_P: n=99 exceeds cap 9 (set NARAYANA_CAP to raise it)\n"
        )

    @pytest.mark.parametrize("argv, err", [
        (("involution", "--family", "P", "--n", "10"),
         "involution: involution_verify(P): n=10 exceeds cap 9"),
        (("involution", "--family", "D", "--n", "9"),
         "involution: involution_verify(D): n=9 exceeds cap 8"),
        (("involution", "--family", "Q", "--n", "9"),
         "involution: involution_verify(Q): n=9 exceeds cap 8"),
        (("enumerate", "--family", "dyck", "--n", "13"),
         "enumerate: enumerate_dyck: n=13 exceeds cap 12"),
    ])
    def test_cap_error_names_the_command(self, capsys, monkeypatch, argv, err):
        monkeypatch.delenv("NARAYANA_CAP", raising=False)
        code, out, got = run(capsys, *argv)
        assert code == EXIT_USAGE
        assert out == ""
        assert got == err + " (set NARAYANA_CAP to raise it)\n"

    @pytest.mark.parametrize("family", ["D", "P", "Q"])
    def test_negative_involution_size_is_usage_error(self, capsys, monkeypatch, family):
        def refuse(*args, **kwargs):
            raise AssertionError("involution ran with a negative --n")

        monkeypatch.setattr(combinat, "involution_verify", refuse)
        code, out, err = run(capsys, "involution", "--family", family, "--n", "-1")
        assert code == EXIT_USAGE
        assert out == ""
        assert "--n" in err.splitlines()[-1] and "-1" in err.splitlines()[-1]

    def test_missing_subcommand_is_usage_error(self, capsys):
        assert main([]) == EXIT_USAGE

    def test_bad_flag_is_usage_error(self, capsys):
        assert main(["enumerate", "--family", "dyck"]) == EXIT_USAGE


# every usage error, as (argv, what the last line of stderr must name): a bad
# size on each command, an unknown name, and each rule that joins two options
USAGE_ERRORS = [
    *(
        ((command, *first, option, value), option)
        for command, first, option in (
            ("verify", ("--identity", "parity"), "--max-n"),
            ("table", ("--sequence", "catalan"), "--max-n"),
            ("involution", ("--family", "D"), "--n"),
            ("enumerate", ("--family", "P"), "--n"),
        )
        for value in ("-1", "x")
    ),
    (("verify", "--identity", "zeta", "--max-n", "3"), "zeta"),
    (("table", "--sequence", "motzkin", "--max-n", "3"), "motzkin"),
    (("verify", "--identity", "parity", "--max-n", "0"), "parity"),
    (("enumerate", "--family", "dyck", "--n", "2", "--k", "1"), "--k"),
    (("enumerate", "--family", "P", "--n", "3", "--k", "4"), "--k"),
]


class TestUsageErrors:
    """A usage error is written by argparse or by main, never by a command
    body: exit 1, nothing on stdout, no traceback, and a last stderr line
    that names the command and the option or value at fault.  argparse's
    own wording differs between Python versions, so it is not pinned."""

    @pytest.mark.parametrize(
        "argv, named", USAGE_ERRORS, ids=[" ".join(argv) for argv, _ in USAGE_ERRORS]
    )
    def test_rejected(self, capsys, argv, named):
        code, out, err = run(capsys, *argv)
        assert code == EXIT_USAGE
        assert out == ""
        assert "Traceback" not in err
        last = err.splitlines()[-1]
        assert f"{argv[0]}: " in last and named in last, err

    def test_benchmark_argv_parses(self):
        args = build_parser().parse_args(
            ["verify", "--identity", "all", "--max-n", "14", "--format", "json"]
        )
        assert (args.command, args.identity, args.max_n, args.format) == (
            "verify", "all", 14, "json"
        )


class TestErrorContract:
    @pytest.mark.parametrize(
        "exc, code",
        [
            (ArithmeticError("congruence fails at k=3"), EXIT_MISMATCH),
            (ZeroDivisionError("division by zero"), EXIT_MISMATCH),
            (RecursionError("maximum recursion depth exceeded"), EXIT_USAGE),
        ],
    )
    def test_error_exits_without_traceback(self, capsys, monkeypatch, exc, code):
        def results(max_n):
            raise exc

        monkeypatch.setitem(_CHECKS, "main_37", (0, results))
        got, out, err = run(capsys, "verify", "--identity", "main_37", "--max-n", "2")
        assert got == code
        assert out == ""
        assert err == f"error: {exc}\n"

    # each prints far more than a pipe and the reader's buffer hold
    @pytest.mark.parametrize("argv", [
        ["verify", "--identity", "all", "--max-n", "50"],
        ["involution", "--family", "Q", "--n", "5", "--emit-pairs"],
        ["table", "--sequence", "legendre", "--max-n", "300", "--format", "json"],
    ])
    def test_closed_pipe_exits_without_traceback(self, argv):
        # as `narayana ... | head -n 1`: the reader closes after one line
        root = pathlib.Path(__file__).resolve().parent.parent
        proc = subprocess.Popen(
            [sys.executable, "-c",
             "import sys; from narayana.cli import main; sys.exit(main())", *argv],
            cwd=root, env={"PYTHONPATH": str(root / "src")},
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        )
        assert proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read().decode()
        proc.stderr.close()
        assert proc.wait(timeout=60) == EXIT_USAGE
        assert err == ""  # no traceback, and no "Exception ignored" at exit


class TestBenchContract:
    """bench/layers.py wraps and reads these names; a refactor that drops one
    breaks `bench/run.py --trace 1` without failing any other test."""

    def test_wrapped_and_read_attributes_exist(self):
        for cls, attrs in (
            (exact_core.QPolynomial, ("__init__", "__add__", "__radd__", "__mul__",
                                      "__rmul__", "__pow__", "substitute", "__call__")),
            (exact_core.PolySeries, ("__mul__", "__rmul__", "compose", "sqrt", "reciprocal")),
        ):
            for attr in attrs:
                assert callable(vars(cls).get(attr)), f"{cls.__name__}.{attr}"
        assert callable(exact_core.finite_difference_check)
        for attr in ("omega_closed_form_check", "omega_composition_check",
                     "legendre_gf_check", "lagrange_coefficient_check"):
            assert callable(getattr(series, attr)), attr
        assert type(series._catalan_power_cache) is dict
        for attr in ("check_identity", "integral_representation_check",
                     "lemma_difference_argument", "legendre_inverse", "binomial_inverse",
                     "left_inversion_forward", "left_inversion"):
            assert callable(getattr(identities, attr)), attr
        for cached in (sequences.narayana_poly, sequences.legendre_poly, combinat._dyck_paths,
                       combinat._children_seqs, combinat._tree_shapes,
                       combinat._complete_binary_shapes):
            assert cached.cache_info() is not None

    def test_traced_cli_pass_reports_the_series_layer(self):
        root = pathlib.Path(__file__).resolve().parent.parent
        proc = subprocess.run(
            [sys.executable, str(root / "bench" / "worker.py"), "cli", "1",
             "verify", "--identity", "all", "--max-n", "3"],
            cwd=root, env={"PYTHONPATH": str(root / "src")},
            capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == EXIT_OK, proc.stderr
        report = json.loads(proc.stderr.split("bench-report ", 1)[1])
        assert report["failures"] == []
        metrics = report["metrics"]
        for name in ("exact_core.series_mul.self_s", "exact_core.series_compose.self_s",
                     "exact_core.series_sqrt.self_s", "exact_core.series_reciprocal.self_s",
                     "series.legendre_gf.s", "series.lagrange.s",
                     "series.catalan_power_cache.entries"):
            assert metrics[name] > 0, name
