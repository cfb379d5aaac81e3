"""Command line interface.

Subcommands: classify, surfaces, lemma, trace, parse.  Output is plain
text by default; --json (and --csv for surfaces) switch formats.  Exit
codes: 0 success, 1 unusable input (bad syntax or bad arguments), 2 a
domain error (input parsed but cannot be classified), 3 an internal
invariant violation.  All output is deterministic for a given input.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from bisect import bisect_left
from csv import writer as csv_writer
from functools import cache
from json.encoder import encode_basestring_ascii as _quote
from typing import IO

from .errors import (
    DegenerateTangleError,
    DomainError,
    InvariantError,
    ParseError,
    PretzelRepError,
    UnsupportedInputError,
)
from .linktrace import PretzelKnot, component_count, pretzel_diagram, pretzel_knot
from .repclassify import (
    RepReport,
    _montesinos_triple,
    representativity_bounds,
)
from .surfacescan import AssignmentScan, scan_assignments, scannable_knot
from .slopelemma import enumerate_solutions
from .tanglecalc import (
    Closure,
    Montesinos,
    Pretzel,
    PretzelTriple,
    RationalTangle,
    Sum,
    TangleExpr,
    is_large_algebraic,
    parse_expr,
    print_expr,
)

__all__ = ["run", "main", "build_parser"]

_RANGE = re.compile(r"(-?[0-9]+):(-?[0-9]+)")


class _UsageError(PretzelRepError):
    """Bad command line arguments; exits 1 like a syntax error."""


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # values like -3:3 or -1/2 are arguments, not option strings
        self._negative_number_matcher = re.compile(r"^-\d")

    def error(self, message):  # argparse would sys.exit(2); we map to 1
        raise _UsageError(message)


@cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and shared by every run."""
    parser = _Parser(prog="pretzelrep", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_classify = sub.add_parser("classify", help="representativity bounds report")
    p_classify.add_argument("expr", nargs="?", help="expression, e.g. P(-2,3,5)")
    p_classify.add_argument("--range", dest="range_spec", metavar="A:B",
                            help="classify all pretzel knots with entries in A..B")
    p_classify.add_argument("--json", action="store_true")
    p_classify.set_defaults(handler=_cmd_classify)

    p_surfaces = sub.add_parser("surfaces", help="candidate surface scan")
    p_surfaces.add_argument("expr", help="pretzel expression P(p,q,r)")
    fmt = p_surfaces.add_mutually_exclusive_group()
    fmt.add_argument("--json", action="store_true")
    fmt.add_argument("--csv", action="store_true")
    p_surfaces.set_defaults(handler=_cmd_surfaces)

    p_lemma = sub.add_parser("lemma", help="reciprocal-sum solutions with parameters")
    p_lemma.add_argument("--max", dest="max_c", type=int, required=True,
                         metavar="N", help="largest allowed c, at least 2")
    p_lemma.add_argument("--json", action="store_true")
    p_lemma.set_defaults(handler=_cmd_lemma)

    p_trace = sub.add_parser("trace", help="planar diagram code and components")
    p_trace.add_argument("expr", help="pretzel expression P(p,q,r)")
    p_trace.add_argument("--json", action="store_true")
    p_trace.set_defaults(handler=_cmd_trace)

    p_parse = sub.add_parser("parse", help="parse and reprint an expression")
    p_parse.add_argument("expr", help="tangle expression")
    p_parse.add_argument("--json", action="store_true")
    p_parse.set_defaults(handler=_cmd_parse)
    return parser


def run(argv: list[str] | None = None,
        out: IO[str] | None = None,
        err: IO[str] | None = None) -> int:
    """Execute one command line; returns the exit code without exiting."""
    out = sys.stdout if out is None else out
    err = sys.stderr if err is None else err
    parser = build_parser()
    try:
        try:
            args = parser.parse_args(argv)
        except SystemExit as exc:  # --help prints and exits 0
            return int(exc.code or 0)
        args.handler(args, out)
        return 0
    except (_UsageError, ParseError) as exc:
        print(f"error: {exc}", file=err)
        return 1
    except DomainError as exc:
        print(f"error: {exc}", file=err)
        return 2
    except InvariantError as exc:
        print(f"internal error: {exc}", file=err)
        return 3


def main() -> None:
    try:
        code = run()
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed the pipe early (e.g. `| head`); point stdout at
        # devnull so the flush at interpreter exit cannot raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(1)
    sys.exit(code)


# --- classify ---


def _cmd_classify(args, out) -> None:
    if (args.expr is None) == (args.range_spec is None):
        raise _UsageError("classify needs exactly one of an expression or --range A:B")
    if args.range_spec is not None:
        _classify_range(args.range_spec, args.json, out)
        return
    expression = parse_expr(args.expr)
    knot = _classified_knot(expression)
    report = representativity_bounds(expression if knot is None else knot)
    if args.json:
        out.write(_report_json(args.expr, expression, knot, report, "") + "\n")
    else:
        for line in _report_text(expression, knot, report):
            print(line, file=out)


def _range_bounds(spec: str) -> tuple[int, int]:
    m = _RANGE.fullmatch(spec)
    if m is None:
        raise _UsageError(f"--range expects A:B with integers, got {spec!r}")
    try:
        low, high = int(m.group(1)), int(m.group(2))
    except ValueError:  # beyond the interpreter's int-string digit limit
        raise _UsageError("--range bound has too many digits") from None
    if low > high:
        raise _UsageError(f"--range bounds are out of order: {spec}")
    return low, high


def _classify_range(spec: str, as_json: bool, out) -> None:
    """Write each knot triple's report as soon as it is classified.

    Memory stays flat however large the box: nothing is kept between
    triples, and the JSON array's brackets and commas are written here.
    """
    low, high = _range_bounds(spec)
    if as_json:
        def render(text: str, knot: PretzelKnot, report: RepReport) -> str:
            return _report_json(text, None, knot, report, "  ")
        lead, separator, close, empty = "[\n  ", ",\n  ", "\n]\n", "[]\n"
    else:
        render = _range_line
        lead, separator, close, empty = "", "\n", "\n", ""
    written = False
    for entries in _knot_triples(low, high):
        knot = pretzel_knot(PretzelTriple(*entries))
        text = "P(%d,%d,%d)" % entries
        out.write(lead + render(text, knot, representativity_bounds(knot)))
        lead, written = separator, True
    out.write(close if written else empty)


def _knot_triples(low: int, high: int):
    """The nondecreasing triples of nonzero entries in low..high with at
    most one even entry, in combinations_with_replacement order."""
    values = [v for v in range(low, high + 1) if v != 0]
    odds = [v for v in values if v % 2]
    for i, a in enumerate(values):
        for j in range(i, len(values)):
            b = values[j]
            if a % 2 or b % 2:  # with one even entry so far, c must be odd
                tail = values[j:] if a % 2 and b % 2 else odds[bisect_left(odds, b):]
                for c in tail:
                    yield a, b, c


def _range_line(text: str, knot: PretzelKnot, report: RepReport) -> str:
    if report.exact is not None:
        bounds = f"r={report.exact} exact"
    else:
        bounds = f"r in [{report.lower},{report.upper}]"
    line = f"{text}  {bounds}"
    if report.torus is not None:
        if report.torus.params is not None:
            p, q = report.torus.params
            line += f"  torus=({p},{q})"
        else:
            line += "  torus=yes"
    return line


def _classified_knot(expression: TangleExpr) -> PretzelKnot | None:
    """The validated knot of a pretzel or Montesinos form, else None."""
    if isinstance(expression, Pretzel):
        return pretzel_knot(expression.triple)
    if isinstance(expression, Montesinos):
        return pretzel_knot(_montesinos_triple(expression))
    return None


def _report_text(expression: TangleExpr, knot: PretzelKnot | None,
                 report: RepReport) -> list[str]:
    lines = [f"input: {print_expr(expression)}"]
    if knot is not None:
        kind = "pretzel" if isinstance(expression, Pretzel) else "montesinos"
        lines.append(f"kind: {kind}")
        lines.append("normalized: P(%d,%d,%d)" % knot.canonical)
        lines.append(f"mirror: {'yes' if knot.mirror else 'no'}")
        lines.append("knot: yes")
        lines.append(f"bridge bound: {report.bridge_upper}")
        if report.torus is not None:
            if report.torus.params is not None:
                p, q = report.torus.params
                lines.append(f"torus: ({p},{q})")
            else:
                lines.append("torus: yes (parameters not tracked)")
    else:
        lines.append("kind: closure")
        lines.append(f"large algebraic: {'yes' if is_large_algebraic(expression) else 'no'}")
    if report.exact is not None:
        lines.append(f"bounds: lower={report.lower} upper={report.upper} exact={report.exact}")
    else:
        lines.append(f"bounds: lower={report.lower} upper={report.upper}")
    lines.append("rules:")
    for rule in report.rules:
        lines.append(f"  - {rule.name} [{_effect_text(rule)}]: {rule.citation}")
    if knot is not None:
        rows = _surface_rows(knot)
        if rows is None:
            lines.append("surfaces: not computed (degenerate twist parameters)")
        else:
            structural = [row for row in rows if row.structural]
            if structural:
                lines.append("surfaces:")
                lines.extend(f"  {_row_text(row)}" for row in structural)
            else:
                lines.append("surfaces: none")
    return lines


def _effect_text(rule) -> str:
    if rule.sets == "upper":
        effect = f"upper <= {rule.value}"
    elif rule.sets == "exact":
        effect = f"exact = {rule.value}"
    else:
        effect = "info"
    if rule.conditional:
        effect += ", conditional"
    return effect


def _surface_rows(knot: PretzelKnot) -> list[AssignmentScan] | None:
    try:
        return scan_assignments(knot)
    except DegenerateTangleError:
        return None


# --- JSON templates ---
#
# Each template is the text json.dumps(obj, indent=2) writes for one
# object at nesting depth 0, with %-fields for its values; _at() shifts
# it to the depth where the object sits.  Nested values arrive already
# rendered at their own depth.  Key order follows docs/schemas/.

_REPORT = """{
  "input": %s,
  "kind": "%s",
  "normalized": %s,
  "mirror": %s,
  "is_knot": %s,
  "large_algebraic": %s,
  "bridge_upper": %s,
  "torus": %s,
  "lower": %d,
  "upper": %d,
  "exact": %s,
  "rules": %s,
  "surfaces": %s
}"""

_TORUS = """{
  "params": %s
}"""

_RULE = """{
  "name": %s,
  "citation": %s,
  "sets": %s,
  "value": %s,
  "conditional": %s
}"""

_SURFACES = """{
  "input": %s,
  "normalized": %s,
  "mirror": %s,
  "rows": %s
}"""

_ROW = """{
  "types": "%s",
  "slopes": [
    %d,
    %d,
    %d
  ],
  "arcs": %s,
  "sheets": %s,
  "chi": %s,
  "genus": %s,
  "structural": %s,
  "verdict": "%s",
  "family": %s,
  "reason": %s
}"""

# arcs, sheets, chi, genus and structural of a row that failed the
# existence filters
_UNMEASURED = ("null", "null", "null", "null", "false")


@cache
def _at(template: str, pad: str) -> str:
    """The template with every line after the first indented by pad."""
    return template.replace("\n", "\n" + pad)


def _scalar(value) -> str:
    """JSON text of None, a bool, an int or a str, as json.dumps writes it."""
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, str):
        return _quote(value)
    return str(value)


@cache
def _constant(text: str | None) -> str:
    """_scalar of one of the package's fixed reason or family texts."""
    return _scalar(text)


def _array(items: list[str], pad: str) -> str:
    """JSON array of rendered items, its opening bracket at indent pad."""
    if not items:
        return "[]"
    inner = "\n" + pad + "  "
    return "[" + inner + ("," + inner).join(items) + "\n" + pad + "]"


def _ints(values, pad: str) -> str:
    return "null" if values is None else _array([str(v) for v in values], pad)


@cache
def _rules_json(rules: tuple, pad: str) -> str:
    """The rules block; a handful of distinct blocks cover every report."""
    template = _at(_RULE, pad + "  ")
    return _array([template % (_scalar(rule.name), _scalar(rule.citation),
                               _scalar(rule.sets), _scalar(rule.value),
                               _scalar(rule.conditional)) for rule in rules], pad)


def _report_json(input_text: str, expression: TangleExpr | None,
                 knot: PretzelKnot | None, report: RepReport, pad: str) -> str:
    """One classify report as JSON, its opening brace at indent pad; a
    range report passes no expression."""
    inner = pad + "  "
    if knot is not None:
        kind = "montesinos" if isinstance(expression, Montesinos) else "pretzel"
        # normalized, mirror, is_knot, large_algebraic
        fields = (_ints(knot.canonical, inner), _scalar(knot.mirror), "true", "null")
        rows = _surface_rows(knot)
        surfaces = "null" if rows is None else _array(
            [_row_json(row, inner + "  ") for row in rows], inner)
    else:
        kind = "closure"
        fields = ("null", "null", "null", _scalar(is_large_algebraic(expression)))
        surfaces = "null"
    torus = "null" if report.torus is None else (
        _at(_TORUS, inner) % _ints(report.torus.params, inner + "  "))
    return _at(_REPORT, pad) % (
        _quote(input_text), kind, *fields, _scalar(report.bridge_upper), torus,
        report.lower, report.upper, _scalar(report.exact),
        _rules_json(report.rules, inner), surfaces)


# --- surfaces ---


def _cmd_surfaces(args, out) -> None:
    knot = scannable_knot(_parse_pretzel_argument(args.expr, "surfaces"))
    rows = scan_assignments(knot)
    if args.json:
        out.write(_SURFACES % (
            _quote(args.expr), _ints(knot.canonical, "  "), _scalar(knot.mirror),
            _array([_row_json(row, "    ") for row in rows], "  ")) + "\n")
    elif args.csv:
        table = csv_writer(out, lineterminator="\n")
        table.writerow(["types", "slope_1", "slope_2", "slope_3", "arcs",
                        "sheet_1", "sheet_2", "sheet_3", "chi", "genus",
                        "structural", "verdict", "family", "reason"])
        for row in rows:
            table.writerow(_row_csv(row))
    else:
        print(f"input: {args.expr}", file=out)
        print("normalized: P(%d,%d,%d)" % knot.canonical, file=out)
        for row in rows:
            print(_row_text(row), file=out)


def _parse_pretzel_argument(text: str, command: str) -> PretzelTriple:
    expression = parse_expr(text)
    if not isinstance(expression, Pretzel):
        raise UnsupportedInputError(f"{command} expects a pretzel form P(p,q,r)")
    return expression.triple


def _row_text(row: AssignmentScan) -> str:
    types = "".join(row.tangle_types)
    s1, s2, s3 = row.boundary_slopes
    text = f"types={types} slopes=({s1},{s2},{s3})"
    if row.structural:
        h1, h2, h3 = row.sheets
        text += (f" arcs={row.arcs} sheets=({h1},{h2},{h3})"
                 f" chi={row.chi} genus={row.genus_val}")
    text += f" verdict={'accepted' if row.accepted else 'rejected'}"
    if row.family is not None:
        text += f" family={row.family}"
    if row.reason is not None:
        text += f" reason={row.reason}"
    return text


def _row_csv(row: AssignmentScan) -> list:
    def opt(value):
        return "" if value is None else value

    sheets = row.sheets if row.sheets is not None else (None, None, None)
    return ["".join(row.tangle_types), *row.boundary_slopes, opt(row.arcs),
            *(opt(h) for h in sheets), opt(row.chi), opt(row.genus_val),
            "true" if row.structural else "false",
            "accepted" if row.accepted else "rejected",
            opt(row.family), opt(row.reason)]


def _row_json(row: AssignmentScan, pad: str) -> str:
    """One scan row as JSON, its opening brace at indent pad."""
    if row.structural:
        measures = (_scalar(row.arcs), _ints(row.sheets, pad + "  "),
                    _scalar(row.chi), _scalar(row.genus_val), "true")
    else:
        measures = _UNMEASURED
    return _at(_ROW, pad) % (
        "".join(row.tangle_types), *row.boundary_slopes, *measures,
        "accepted" if row.accepted else "rejected",
        _constant(row.family), _constant(row.reason))


# --- lemma ---


def _cmd_lemma(args, out) -> None:
    if args.max_c < 2:
        raise _UsageError(f"--max must be at least 2, got {args.max_c}")
    solutions = enumerate_solutions(args.max_c)
    if args.json:
        _emit_json([{"a": s.a, "b": s.b, "c": s.c,
                     "k": s.k, "l": s.l, "d": s.d} for s in solutions], out)
    else:
        for s in solutions:
            print(f"{s.a} {s.b} {s.c} | k={s.k} l={s.l} d={s.d}", file=out)


# --- trace ---


def _cmd_trace(args, out) -> None:
    triple = _parse_pretzel_argument(args.expr, "trace")
    code = pretzel_diagram(triple.entries())
    components = component_count(code)
    pd = [list(crossing) for crossing in code.crossings]
    if args.json:
        _emit_json({"twists": list(triple.entries()),
                    "crossings": len(pd),
                    "components": components,
                    "pd": pd}, out)
    else:
        print(f"crossings: {len(pd)}", file=out)
        print(f"components: {components}", file=out)
        print(f"pd: {json.dumps(pd, separators=(',', ':'))}", file=out)


# --- parse ---


def _cmd_parse(args, out) -> None:
    expression = parse_expr(args.expr)
    if args.json:
        _emit_json({"input": args.expr,
                    "printed": print_expr(expression),
                    "tree": _tree_json(expression)}, out)
    else:
        print(print_expr(expression), file=out)


def _tree_json(expression: TangleExpr) -> dict:
    if isinstance(expression, RationalTangle):
        return {"kind": "rational", "slope": str(expression.slope)}
    if isinstance(expression, Sum):
        return {"kind": "sum",
                "left": _tree_json(expression.left),
                "right": _tree_json(expression.right)}
    if isinstance(expression, Pretzel):
        return {"kind": "pretzel", "entries": list(expression.triple.entries())}
    if isinstance(expression, Montesinos):
        return {"kind": "montesinos", "slopes": [str(f) for f in expression.slopes]}
    return {"kind": "closure", "inner": _tree_json(expression.inner)}


def _emit_json(obj, out) -> None:
    print(json.dumps(obj, indent=2), file=out)


if __name__ == "__main__":
    main()
