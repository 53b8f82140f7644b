"""Command-line interface.

Subcommands: ``coeffs`` (exact coefficient listing of an irregular solution),
``eval`` (numeric grid of either solution), ``table`` (all solutions up to
n_max), ``verify`` (oracle suite with exit code), ``shell`` (piecewise
matching demo).  Rational coefficients are always serialized as "num/den"
strings so exactness survives the pipe.

Exit codes: 0 success, 1 verification/runtime failure (any ArithmeticError,
such as QuadratureFailure or ZeroDenominator, or OSError), 2 no root in the
shell scan, 64 usage error (any ValueError).
"""

from __future__ import annotations

import argparse
import io
import json
import math
import sys
from json.encoder import encode_basestring_ascii as _json_str

from . import __version__, numeval, oracle, shellmatch
from .closedform import (
    InvalidQuantumNumbers,
    QuantumNumbers,
    assemble_R1,
    assemble_R2,
)
from .ratpoly import RatPoly

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_NO_ROOT = 2
EXIT_USAGE = 64

# Sample set for the principal-value cross-checks, run per state on R2's own
# polynomials: small (n, l), i.e. (n_r, m) = (0, 1), (1, 1), (2, 1), (0, 3),
# (1, 3), (0, 5), (2, 3), (1, 5), with several abscissas x = 2 kappa r each,
# all within the quadrature oracle's rated range.
PV_SAMPLES: list[tuple[int, int, tuple[float, ...]]] = [
    (1, 0, (0.5, 1.0, 2.0)),
    (2, 0, (0.5, 1.0, 2.0)),
    (3, 0, (1.0, 2.0)),
    (2, 1, (0.5, 2.0)),
    (3, 1, (1.0,)),
    (3, 2, (1.0,)),
    (4, 1, (2.0,)),
    (4, 2, (0.5,)),
]


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # argparse default exits 2; keep 2 for no-root
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _rat_text(num: int, den: int) -> str:
    """A reduced rational as ``str(Fraction)`` writes it: "num" or "num/den"."""
    return str(num) if den == 1 else f"{num}/{den}"


def _rat_texts(q: RatPoly, qn: QuantumNumbers) -> dict[int, str]:
    return {k: _rat_text(num, den) for k, num, den in q.ratio_terms(qn.x_per_r)}


def _json_rats(q: RatPoly, qn: QuantumNumbers, pad: str) -> str:
    """json.dumps({"power": "num/den", ...}, indent=2) of the nonzero
    coefficients in r of a nonzero q (as P and L are for every state), nested
    at indent pad; keys and texts are digits, "-" and "/", written unescaped."""
    items = [f'{pad}  "{k}": "{_rat_text(num, den)}"' for k, num, den in q.ratio_terms(qn.x_per_r)]
    return "{\n" + ",\n".join(items) + f"\n{pad}}}"


# Every command computes its whole result before it writes, so that a command
# that fails writes nothing, then hands _write a generator of pieces, each the
# text of at most _RUN rows or reports (or of one table record), so that no
# document is held whole: the output's memory is one piece's text.
_RUN = 256


def _runs(items: list, text, sep: str = ""):
    """sep.join of text(run) over the runs of at most _RUN items of items, in
    pieces: one per run, each after the first led by sep."""
    for i in range(0, len(items), _RUN):
        yield (sep if i else "") + text(items[i:i + _RUN])


def _write(out_path: str | None, pieces) -> None:
    """The one sink: writes each text piece as it comes, to sys.stdout as it
    is at the call, or to out_path, opened only now."""
    if out_path in (None, "-"):
        out = sys.stdout
        raw = getattr(out, "buffer", None)
        if not isinstance(raw, io.RawIOBase):
            for piece in pieces:
                out.write(piece)
            return
        # unbuffered stdout writes straight through to a raw file, whose short
        # count the text layer drops: the rest is written again, so that a
        # closed pipe fails the next write
        for piece in pieces:
            data = memoryview(piece.encode(out.encoding, out.errors))
            while data:
                data = data[raw.write(data):]
    else:
        with open(out_path, "w", encoding="utf-8") as fh:
            for piece in pieces:
                fh.write(piece)


def _json_floats(text: str) -> str:
    """text with repr's non-finite floats inf and nan written as json writes
    them, Infinity and NaN; no key or fixed token of the eval and shell
    documents holds either word, and a verify row passes it its float alone."""
    return text.replace("inf", "Infinity").replace("nan", "NaN")


def _json_rows(rows: list, template: str):
    """The pieces of json.dumps(rows, indent=2), nested at indent 2, of a list
    of float rows, each written by template."""
    if not rows:
        yield "[]"
        return
    yield "[\n"
    yield from _runs(rows, lambda run: _json_floats(",\n".join([template % row for row in run])), ",\n")
    yield "\n  ]"


def _header() -> str:
    return f"# coulombwf {__version__}\n"


# -- latex rendering ---------------------------------------------------------


def _latex_coeff_times_power(num: int, den: int, k: int) -> str:
    """|num|/den r^k; the caller writes the sign."""
    num = abs(num)
    if k == 0:
        return str(num) if den == 1 else rf"\frac{{{num}}}{{{den}}}"
    r_pow = "r" if abs(k) == 1 else rf"r^{{{abs(k)}}}"
    if k < 0:
        top = str(num)
        bottom = r_pow if den == 1 else f"{den}{r_pow}"
        return rf"\frac{{{top}}}{{{bottom}}}"
    if den == 1:
        return r_pow if num == 1 else f"{num}{r_pow}"
    return rf"\frac{{{num}}}{{{den}}}{r_pow}"


def _latex_poly(q: RatPoly, qn: QuantumNumbers) -> str:
    """q, a polynomial in x = 2 kappa r, written in r."""
    if q.is_zero():
        return "0"
    parts = []
    for k, num, den in q.ratio_terms(qn.x_per_r):
        term = _latex_coeff_times_power(num, den, k)
        if num < 0:
            parts.append(f"-{term}")
        else:
            parts.append(f"+{term}" if parts else term)
    return "".join(parts)


def _latex_exponent(n: int, sign: str) -> str:
    return rf"e^{{{sign}r}}" if n == 1 else rf"e^{{{sign}r/{n}}}"


def _latex_ei_lower(qn: QuantumNumbers) -> str:
    num, den = qn.x_per_r.as_integer_ratio()
    body = "r" if num == 1 else f"{num}r"
    return f"-{body}" if den == 1 else f"-{body}/{den}"


def _latex_R2(r2) -> str:
    qn = r2.qn
    return (
        rf"R_2({qn.n},{qn.l},r) = \left({_latex_poly(r2.P, qn)}\right) "
        rf"{_latex_exponent(qn.n, '')} + \left({_latex_poly(r2.L, qn)}\right) "
        rf"{_latex_exponent(qn.n, '-')} "
        rf"\int_{{{_latex_ei_lower(qn)}}}^{{\infty}} \frac{{e^{{-s}}}}{{s}}\,ds"
    )


# -- coeffs ------------------------------------------------------------------


# The coefficient documents are written as json.dumps(doc, indent=2) would
# write them, from templates: indent selects json's pure-Python encoder, and
# building the dict and encoding it took 1.5 to 2.5 times as long per document.
def _coeffs_json(r2, pad: str, table: bool = False) -> str:
    """The coeffs document of R2, nested at indent pad: P in r as q_plus and
    L in r as q_ei, and for the table the same L text as R1's r1_q_minus."""
    qn, inner = r2.qn, pad + "  "
    ell = _json_rats(r2.L, qn, inner)
    fields = [f'"n": {qn.n}', f'"l": {qn.l}',
              f'"q_plus": {_json_rats(r2.P, qn, inner)}',
              f'"q_ei": {ell}',
              f'"ei_arg_scale": "{-qn.x_per_r}"']
    if table:
        fields.append(f'"r1_q_minus": {ell}')
    return "{\n" + ",\n".join([inner + f for f in fields]) + f"\n{pad}}}"


def _coeffs_csv_rows(q_plus: RatPoly, q_ei: RatPoly, qn: QuantumNumbers) -> str:
    """One "power,q_plus,q_ei" row per power in r where either coefficient is
    nonzero, from polynomials in x = 2 kappa r; a zero coefficient is an
    empty field."""
    plus, ei = _rat_texts(q_plus, qn), _rat_texts(q_ei, qn)
    return "".join([f"{k},{plus.get(k, '')},{ei.get(k, '')}\n"
                    for k in sorted(plus.keys() | ei.keys())])


def cmd_coeffs(args) -> int:
    r2 = assemble_R2(QuantumNumbers(args.n, args.l))
    if args.format == "json":
        text = _coeffs_json(r2, "") + "\n"
    elif args.format == "csv":
        text = _header() + "power,q_plus,q_ei\n" + _coeffs_csv_rows(r2.P, r2.L, r2.qn)
    else:
        text = _header() + _latex_R2(r2) + "\n"
    _write(args.out, [text])
    return EXIT_OK


# -- eval ----------------------------------------------------------------------


def _parse_grid(grid_arg: str) -> list[float]:
    try:
        start_s, stop_s, count_s = grid_arg.split(":")
        start, stop, count = float(start_s), float(stop_s), int(count_s)
    except ValueError as exc:
        raise ValueError(f"grid must be start:stop:count, got {grid_arg!r}") from exc
    if not (math.isfinite(start) and math.isfinite(stop)):
        raise ValueError(f"grid start and stop must be finite, got {grid_arg!r}")
    if count < 0:
        raise ValueError("grid count must be >= 0")
    if start <= 0 or stop < start:
        raise ValueError("grid must be positive and increasing")
    if count == 1:
        return [start]
    try:
        span, last = stop - start, float(count - 1)
    except OverflowError:
        raise ValueError("grid count overflows double precision") from None
    grid = [start + i * span / last for i in range(count)]
    if not all(map(math.isfinite, grid)):
        raise ValueError(f"grid points overflow double precision, got {grid_arg!r}")
    return grid


# one row of json.dumps(doc, indent=2): indent selects the pure-Python
# encoder, about 3.5 times slower than this template on a 2000-point grid
_JSON_ROW = '    {\n      "r": %r,\n      "value": %r,\n      "est_rel_error": %r\n    }'


def _eval_json(qn: QuantumNumbers, which: str, rows: list):
    yield f'{{\n  "n": {qn.n},\n  "l": {qn.l},\n  "which": {json.dumps(which)},\n  "rows": '
    yield from _json_rows(rows, _JSON_ROW)
    yield "\n}\n"


def _eval_csv(rows: list):
    yield _header() + "r,value,est_rel_error\n"
    yield from _runs(rows, lambda run: "".join([f"{r!r},{v!r},{e!r}\n" for r, v, e in run]))


def cmd_eval(args) -> int:
    qn = QuantumNumbers(args.n, args.l)
    grid = _parse_grid(args.grid)
    rows = numeval.eval_grid(assemble_R1(qn) if args.which == "R1" else assemble_R2(qn), grid)
    _write(args.out, _eval_json(qn, args.which, rows) if args.format == "json" else _eval_csv(rows))
    return EXIT_OK


# -- table ---------------------------------------------------------------------


# A table record is one piece: its text alone is about 3n rows, a hundred at
# n = 30.
def _table_json(forms: list):
    for i, r2 in enumerate(forms):
        yield ("[\n  " if i == 0 else ",\n  ") + _coeffs_json(r2, "  ", table=True)
    yield "\n]\n"


def _table_csv(forms: list):
    yield _header() + "n,l,part,power,coeff\n"
    for r2 in forms:
        n, l = r2.qn.n, r2.qn.l
        ell, p = _rat_texts(r2.L, r2.qn), _rat_texts(r2.P, r2.qn)
        yield "".join([f"{n},{l},{part},{k},{text}\n"
                       for part, texts in (("r1_q_minus", ell), ("q_plus", p), ("q_ei", ell))
                       for k, text in texts.items()])


def _table_latex(forms: list):
    yield _header()
    for r2 in forms:
        yield _latex_R2(r2) + "\n"


def cmd_table(args) -> int:
    if args.nmax < 1:
        raise InvalidQuantumNumbers("n_max must be >= 1")
    # R2's L is R1's polynomial, so its text, reduced once, is written as r1_q_minus too
    forms = [assemble_R2(QuantumNumbers(n, l)) for n in range(1, args.nmax + 1) for l in range(n)]
    writer = {"json": _table_json, "csv": _table_csv}.get(args.format, _table_latex)
    _write(args.out, writer(forms))
    return EXIT_OK


# -- verify ----------------------------------------------------------------------


ALL_CHECKS = ("ode", "wronskian", "golden", "pv", "split", "integral")


def run_verify(n_max: int, checks: set[str]) -> list[oracle.VerificationReport]:
    reports: list[oracle.VerificationReport] = []
    if "golden" in checks:
        reports += oracle.golden_table_check()
    if checks & {"ode", "wronskian"}:
        for n in range(1, n_max + 1):
            for l in range(n):
                reports += oracle.symbolic_checks(QuantumNumbers(n, l), checks)
    if checks & {"pv", "split"}:
        # one pass per sample; every pv row is written before any split row
        per_sample = [oracle.pv_checks(QuantumNumbers(n, l), xs, checks) for n, l, xs in PV_SAMPLES]
        for column in zip(*per_sample):
            reports += column
    if "integral" in checks:
        for n_r, m in ((0, 1), (1, 1), (0, 3), (2, 1), (1, 3)):
            reports.append(oracle.first_integral_closed_form_check(n_r, m))
    return reports


# A report's fields are the row's keys and columns, in order.  Each row is
# written from a template, as the eval and coeffs writers are: json.dumps of
# vars(rep) took about 3.5 times as long.
def _verify_json_row(rep) -> str:
    """json.dumps(vars(rep)) + "\n" of one report, whose passed and exact
    are bools and residual_norm a float."""
    n, l = rep.n, rep.l
    return (f'{{"n": {"null" if n is None else n}, "l": {"null" if l is None else l}, '
            f'"check": {_json_str(rep.check)}, "passed": {"true" if rep.passed else "false"}, '
            f'"residual_norm": {_json_floats(repr(rep.residual_norm))}, '
            f'"exact": {"true" if rep.exact else "false"}, "details": {_json_str(rep.details)}}}\n')


def _verify_json(reports: list):
    return _runs(reports, lambda run: "".join(map(_verify_json_row, run)))


_VERIFY_CSV_ROW = '%s,%s,%s,%s,%r,%s,"%s"\n'


def _verify_csv_row(rep) -> str:
    n, l = rep.n, rep.l
    return _VERIFY_CSV_ROW % ("" if n is None else n, "" if l is None else l, rep.check,
                              "True" if rep.passed else "False", rep.residual_norm,
                              "True" if rep.exact else "False", rep.details)


def _verify_csv(reports: list):
    yield _header() + "n,l,check,passed,residual_norm,exact,details\n"
    yield from _runs(reports, lambda run: "".join(map(_verify_csv_row, run)))


def cmd_verify(args) -> int:
    if args.nmax < 1:
        raise ValueError(f"nmax must be >= 1, got {args.nmax}")
    checks = set(args.checks.split(",")) if args.checks is not None else set(ALL_CHECKS)
    unknown = checks - set(ALL_CHECKS)
    if unknown:
        raise ValueError(f"unknown checks: {sorted(unknown)}; choose from {ALL_CHECKS}")
    reports = run_verify(args.nmax, checks)
    _write(args.out, _verify_json(reports) if args.format == "json" else _verify_csv(reports))
    n_failed = sum(1 for rep in reports if not rep.passed)
    if n_failed:
        print(f"{n_failed} of {len(reports)} checks FAILED", file=sys.stderr)
        return EXIT_FAIL
    print(f"all {len(reports)} checks passed", file=sys.stderr)
    return EXIT_OK


# -- shell -------------------------------------------------------------------


_SHELL_GRID_ROW = "    [\n      %r,\n      %r\n    ]"
_SHELL_FLOATS = ("a", "b_star", "c1", "c2", "mismatch")


def _shell_json(result, grid):
    """The pieces of json.dumps(doc, indent=2) + "\n" of the shell document
    of a MatchResult, from a template as cmd_eval writes its rows, since
    indent selects json's pure-Python encoder: n and l, five floats, the four
    continuity floats and, unless grid is None, its (r, u) rows."""
    fields = [f'"n": {result.qn.n}', f'"l": {result.qn.l}']
    fields += [f'"{key}": {getattr(result, key)!r}' for key in _SHELL_FLOATS]
    continuity = ",\n".join([f'    "{key}": {v!r}' for key, v in result.continuity.items()])
    fields.append(f'"continuity": {{\n{continuity}\n  }}')
    head = _json_floats("{\n  " + ",\n  ".join(fields))
    if grid is None:
        yield head + "\n}\n"
        return
    yield head + ',\n  "grid": '
    yield from _json_rows(grid, _SHELL_GRID_ROW)
    yield "\n}\n"


def _shell_csv(result, grid):
    lines = [_header(), "key,value\n", f"n,{result.qn.n}\n", f"l,{result.qn.l}\n"]
    lines += [f"{key},{getattr(result, key)!r}\n" for key in _SHELL_FLOATS]
    lines += [f"continuity_{key},{val!r}\n" for key, val in result.continuity.items()]
    if grid is not None:
        lines.append("r,u\n")
    yield "".join(lines)
    yield from _runs(grid or [], lambda run: "".join([f"{r!r},{u!r}\n" for r, u in run]))


def cmd_shell(args) -> int:
    if args.grid_points < 0:
        raise ValueError(f"grid-points must be >= 0, got {args.grid_points}")
    try:
        b_min_s, b_max_s = args.b_range.split(":")
        b_range = (float(b_min_s), float(b_max_s))
    except ValueError as exc:
        raise ValueError(f"b-range must be min:max, got {args.b_range!r}") from exc
    qn = QuantumNumbers(args.n, args.l)
    try:
        result = shellmatch.match_shell(qn, args.a, b_range)
    except shellmatch.NoRootInRange as exc:
        sys.stderr.write(f"no root: {exc}\n")
        sys.stderr.write("b,mismatch\n")
        for b, f in exc.scan:
            sys.stderr.write(f"{b!r},{f!r}\n")
        return EXIT_NO_ROOT
    grid = shellmatch.piecewise_grid(result, args.grid_points) if args.grid_points else None
    _write(args.out, (_shell_json if args.format == "json" else _shell_csv)(result, grid))
    return EXIT_OK


# -- wiring --------------------------------------------------------------------


def build_parser() -> _Parser:
    parser = _Parser(prog="coulombwf",
                     description="Exact regular/irregular Coulomb bound-state radial solutions")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)
    parser.commands = sub.choices  # the subcommand parsers by name, for main

    p = sub.add_parser("coeffs", help="exact coefficients of an irregular solution")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--l", type=int, required=True)
    p.add_argument("--format", choices=("json", "csv", "latex"), default="json")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_coeffs)

    p = sub.add_parser("eval", help="numeric values on an r grid")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--l", type=int, required=True)
    p.add_argument("--which", choices=("R1", "R2"), default="R2")
    p.add_argument("--grid", required=True, metavar="START:STOP:COUNT")
    p.add_argument("--format", choices=("json", "csv"), default="csv")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("table", help="all solutions with n <= nmax")
    p.add_argument("--nmax", type=int, required=True)
    p.add_argument("--format", choices=("json", "csv", "latex"), default="json")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_table)

    p = sub.add_parser("verify", help="run oracle checks; exit 0 iff all pass")
    p.add_argument("--nmax", type=int, default=4)
    p.add_argument("--checks", default=None, help=f"comma list from {ALL_CHECKS}")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("shell", help="piecewise Coulomb-shell matching demo")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--l", type=int, required=True)
    p.add_argument("--a", type=float, required=True)
    p.add_argument("--b-range", required=True, metavar="MIN:MAX")
    p.add_argument("--grid-points", type=int, default=0)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_shell)

    return parser


# Built once per process: parse_args keeps no state in the parser, and
# rebuilding the subcommand tree on every call cost more than a small
# request itself.
_PARSER = build_parser()


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    # a known command's argv goes straight to its own parser, parsed once
    command = _PARSER.commands.get(argv[0]) if argv else None
    try:
        args = command.parse_args(argv[1:]) if command else _PARSER.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    # exact documents of large states print integers past the default 4300
    # digits: lift the limit only while the command runs, so that it still
    # guards the parsed argv (0 means no limit, as before Python 3.10.7)
    digits = getattr(sys, "get_int_max_str_digits", int)()
    if digits:
        sys.set_int_max_str_digits(0)
    try:
        return args.func(args)
    except ValueError as exc:
        sys.stderr.write(f"coulombwf: error: {exc}\n")
        return EXIT_USAGE
    except (ArithmeticError, OSError) as exc:
        sys.stderr.write(f"coulombwf: failure: {exc}\n")
        return EXIT_FAIL
    finally:
        if digits:
            sys.set_int_max_str_digits(digits)


def entry() -> None:
    sys.exit(main())
