"""Command-line surface: verify identities, print sequence tables, run
involution certificates, and enumerate the weighted families.

Exit codes: 0 all checks pass, 1 usage or configuration error, 2 a
mathematical check failed.  All output is exact: rationals render as "p/q"
(or "p" when integral) and polynomials as low-degree-first coefficient lists.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import combinat, identities, sequences, series
from .exact_core import PolySeries, QPolynomial

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_MISMATCH = 2
VERIFY_CAP = 50  # largest `verify --max-n` unless NARAYANA_CAP raises it
TABLE_CAP = 1000  # largest `table --max-n` unless NARAYANA_CAP raises it
ROW_TABLE_CAP = 300  # the same for a sequence of coefficient rows (output ~ n^3)


def _text(v, quoted: bool = False) -> str:
    """The one writer of a value on stdout: a polynomial (or a table row's
    coefficient tuple) as the JSON list of its coefficients' str, a series as
    the list of those, and a scalar bare, or as a JSON string if `quoted`.
    Every str here holds only digits, "-" and "/", which JSON writes as they
    are."""
    if isinstance(v, PolySeries):
        return "[" + ", ".join(map(_text, v.coeffs)) + "]"
    if isinstance(v, QPolynomial):
        v = v.coeffs
    if isinstance(v, tuple):
        return '["' + '", "'.join(map(str, v)) + '"]' if v else "[]"
    text = str(v)
    return f'"{text}"' if quoted else text


def _first_difference(lhs, rhs) -> str:
    """Where two unequal check sides first differ: the x-power of a series,
    then the degree of a polynomial coefficient, then both values."""
    if isinstance(lhs, PolySeries) and isinstance(rhs, PolySeries):
        for m, (a, b) in enumerate(zip(lhs.coeffs, rhs.coeffs)):
            if a != b:
                return f"x^{m} " + _first_difference(a, b)
    elif isinstance(lhs, QPolynomial) or isinstance(rhs, QPolynomial):
        lhs, rhs = (QPolynomial._coerce(v, "q") for v in (lhs, rhs))
        for d in range(max(len(lhs.coeffs), len(rhs.coeffs))):
            a, b = lhs.coefficient(d), rhs.coefficient(d)
            if a != b:
                return f"degree {d}: lhs={_text(a)} rhs={_text(b)}"
    return f"lhs={_text(lhs)} rhs={_text(rhs)}"


def _emit_check(result, fmt: str):
    if fmt == "json":
        print(
            f'{{"identity": "{result.identity}", "n": {result.n}, '
            f'"lhs": {_text(result.lhs, True)}, "rhs": {_text(result.rhs, True)}, '
            f'"equal": {"true" if result.equal else "false"}}}'
        )
    else:
        status = "ok" if result.equal else "MISMATCH"
        print(
            f"{result.identity} n={result.n} "
            f"lhs={_text(result.lhs)} rhs={_text(result.rhs)} {status}"
        )


def _per_n(min_n, check):
    return min_n, lambda max_n: (check(n) for n in range(min_n, max_n + 1))


def _at_max_n(min_n, check):
    return min_n, lambda max_n: (check(max_n),)


# check name -> (least --max-n it accepts, results(max_n)); `--identity all`
# walks it in this order.  The lambdas look each check up at call time, so a
# wrapped module attribute is what runs.
_CHECKS = {
    **{
        tag: _per_n(
            identities.identity_min_n(tag), lambda n, t=tag: identities.check_identity(t, n)
        )
        for tag in identities.IDENTITY_TAGS
    },
    "integral_representation": _per_n(1, lambda n: identities.integral_representation_check(n)),
    "omega_closed_form": _at_max_n(1, lambda n: series.omega_closed_form_check(n)),
    "omega_composition_first": _at_max_n(1, lambda n: series.omega_composition_check("first", n)),
    "omega_composition_second": _at_max_n(1, lambda n: series.omega_composition_check("second", n)),
    "legendre_gf": _at_max_n(0, lambda n: series.legendre_gf_check(n)),
    "lagrange_coefficient": (0, lambda max_n: (
        series.lagrange_coefficient_check(n, k) for n in range(max_n + 1) for k in range(n + 1)
    )),
}


def _cmd_verify(args) -> int:
    max_n = args.max_n
    combinat._check_cap(max_n, VERIFY_CAP, "--max-n")
    if args.identity == "all":
        names = [name for name, (min_n, _) in _CHECKS.items() if max_n >= min_n]
    elif max_n < _CHECKS[args.identity][0]:
        raise ValueError(f"identity {args.identity} requires n >= {_CHECKS[args.identity][0]}")
    else:
        names = [args.identity]

    all_equal = True
    for name in names:
        for result in _CHECKS[name][1](max_n):
            _emit_check(result, args.format)
            if not result.equal:
                print(
                    f"verify: {result.identity} n={result.n} first differs at "
                    + _first_difference(result.lhs, result.rhs),
                    file=sys.stderr,
                )
            all_equal = all_equal and result.equal
    return EXIT_OK if all_equal else EXIT_MISMATCH


def _rows(value, start=0, cap=TABLE_CAP):
    return cap, lambda max_n: ((n, value(n)) for n in range(start, max_n + 1))


def _coefficients(p: QPolynomial, n: int) -> tuple:
    return tuple(p.coefficient(i) for i in range(n + 1))


# sequence name -> (largest --max-n, rows(max_n) of (n, value or coefficient tuple))
_SEQUENCES = {
    "narayana_poly": _rows(
        lambda n: _coefficients(sequences.narayana_poly(n), n), cap=ROW_TABLE_CAP
    ),
    "legendre": _rows(
        lambda n: _coefficients(sequences.legendre_poly(n, "standard"), n), cap=ROW_TABLE_CAP
    ),
    "narayana_number": _rows(
        lambda n: tuple(sequences.narayana_number(n, k) for k in range(n + 1)),
        cap=ROW_TABLE_CAP,
    ),
    "catalan": _rows(lambda n: sequences.catalan(n)),
    "schroeder": _rows(lambda n: sequences.narayana_poly(n)(2)),
    "pell": _rows(lambda n: sequences.recurrence_seq("pell", n), start=-1),
    "fibonacci": _rows(lambda n: sequences.recurrence_seq("fibonacci", n), start=-1),
    "lucas": _rows(lambda n: sequences.recurrence_seq("lucas", n), start=-1),
}


def _cmd_table(args) -> int:
    cap, rows = _SEQUENCES[args.sequence]
    combinat._check_cap(args.max_n, cap, "--max-n")
    for n, value in rows(args.max_n):
        if args.format == "json":
            key = "coefficients" if isinstance(value, tuple) else "value"
            print(f'{{"n": {n}, "{key}": {_text(value, True)}}}')
        else:
            cells = value if isinstance(value, tuple) else (value,)
            print(",".join(map(str, (n, *cells))))
    return EXIT_OK


def _cmd_involution(args) -> int:
    report = combinat.involution_verify(args.family, args.n, collect_pairs=args.emit_pairs)
    print(
        f"family={report.family} n={report.n} "
        f"elements={report.size} fixed={report.fixed_count}"
    )
    for name, passed in report.certificates.items():
        print(f"certificate {name}: {'pass' if passed else 'FAIL'}")
    print(
        f"total_weight={_text(report.total_weight)} "
        f"fixed_weight={_text(report.fixed_weight)}"
    )
    if args.emit_pairs:
        for a, b in report.pairs:
            print(f"pair: {a} <-> {b}")
    if not report.certified:
        if report.counterexample:
            print(f"counterexample: {report.counterexample}", file=sys.stderr)
        failed = " ".join(f"{name}={count}" for name, count in report.failures.items() if count)
        print(f"failures: {failed}", file=sys.stderr)
        return EXIT_MISMATCH
    return EXIT_OK


def _cmd_enumerate(args) -> int:
    n, k, family = args.n, args.k, args.family
    if k is not None and family == "dyck":
        raise ValueError("--k does not apply to --family dyck")
    if k is not None and not 0 <= k <= n:
        raise ValueError(f"--k must be in 0..{n}, got {k}")
    # the cap is checked before anything is printed; the family then streams
    if family == "dyck":
        lines = combinat.enumerate_dyck(n)
    else:
        lines = combinat.serialized_family(family, n, range(n + 1) if k is None else (k,))
    for line in lines:
        print(line or "(empty)")  # the empty path, at n = 0
    return EXIT_OK


def _size(text: str) -> int:
    """The type of --n and --max-n: a nonnegative integer."""
    try:
        n = int(text)
    except ValueError:
        n = -1
    if n < 0:
        raise argparse.ArgumentTypeError(f"expected a nonnegative integer, got {text!r}")
    return n


def _formatter(prog: str) -> argparse.HelpFormatter:
    """argparse's own formatter at the width it would pick: COLUMNS, else the
    terminal's, else 80, less 2, read as shutil.get_terminal_size reads it.
    argparse imports shutil (and with it bz2, lzma and zlib) for this width
    alone, once for each of the formatters that building the parser makes."""
    try:
        columns = int(os.environ["COLUMNS"])
    except (KeyError, ValueError):
        columns = 0
    if columns <= 0:
        try:
            columns = os.get_terminal_size(sys.__stdout__.fileno()).columns
        except (AttributeError, ValueError, OSError):
            columns = 0
    return argparse.HelpFormatter(prog, width=(columns or 80) - 2)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="narayana",
        description="Exact verification of Narayana/Catalan/Legendre identities.",
        formatter_class=_formatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser(
        "verify", help="check identities exactly", formatter_class=_formatter
    )
    p_verify.add_argument("--identity", choices=(*_CHECKS, "all"), metavar="NAME", required=True)
    p_verify.add_argument("--max-n", type=_size, required=True)
    p_verify.add_argument("--format", choices=("text", "json"), default="text")
    p_verify.set_defaults(func=_cmd_verify)

    p_table = sub.add_parser(
        "table", help="print a sequence/polynomial table", formatter_class=_formatter
    )
    p_table.add_argument("--sequence", choices=_SEQUENCES, metavar="NAME", required=True)
    p_table.add_argument("--max-n", type=_size, required=True)
    p_table.add_argument("--format", choices=("csv", "json"), default="csv")
    p_table.set_defaults(func=_cmd_table)

    p_inv = sub.add_parser(
        "involution", help="run involution certificates", formatter_class=_formatter
    )
    p_inv.add_argument("--family", choices=("D", "P", "Q"), required=True)
    p_inv.add_argument("--n", type=_size, required=True)
    p_inv.add_argument("--emit-pairs", action="store_true")
    p_inv.set_defaults(func=_cmd_involution)

    p_enum = sub.add_parser(
        "enumerate", help="list family elements", formatter_class=_formatter
    )
    p_enum.add_argument("--family", choices=("dyck", "D", "P", "Q"), required=True)
    p_enum.add_argument("--n", type=_size, required=True)
    p_enum.add_argument("--k", type=int, default=None)
    p_enum.set_defaults(func=_cmd_enumerate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse has printed its usage error (exit 2) or the help (exit 0)
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe raises here, not in the exit flush
        return code
    except BrokenPipeError:
        # the reader closed stdout early, as `| head` does: what is still
        # buffered goes to devnull, so the exit flush raises no second error
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_USAGE
    except ValueError as exc:  # a cap or a rule that joins two options
        print(f"{args.command}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except RecursionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ArithmeticError as exc:  # a mathematical check failed
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MISMATCH


if __name__ == "__main__":
    sys.exit(main())
