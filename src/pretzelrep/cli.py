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
from operator import itemgetter
from typing import IO

from .errors import (
    DegenerateTangleError,
    DomainError,
    InvariantError,
    ParseError,
    PretzelRepError,
    UnsupportedInputError,
)
from .linktrace import (
    PretzelKnot,
    component_count,
    diagram_twists,
    pretzel_diagram,
    pretzel_knot,
)
from .repclassify import RepReport, pretzel_form_knot, representativity_bounds
from .surfacescan import (TYPE_B, TYPINGS, SurfacePattern, Verdict, existence_verdicts,
                          scan_assignments, scannable_knot)
from .slopelemma import enumerate_solutions
from .tanglecalc import (
    Montesinos,
    Pretzel,
    PretzelTriple,
    RationalTangle,
    Sum,
    TangleExpr,
    is_large_algebraic,
    max_digits,
    parse_expr,
    print_expr,
)

__all__ = ["run", "main", "build_parser"]

_RANGE = re.compile(r"(-?[0-9]+):(-?[0-9]+)")

# largest lemma --max: about 2.5 s and 131 MB, as text or JSON
LEMMA_MAX = 200_000
# widest classify --range box, e.g. -60:60: about 1.0 s as text, 3.0 s as JSON
RANGE_MAX_WIDTH = 121


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
    knot = pretzel_form_knot(expression)
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
    if any(len(bound.lstrip("-")) > max_digits() for bound in m.groups()):
        raise _UsageError("--range bound has too many digits")
    low, high = int(m.group(1)), int(m.group(2))
    if low > high:
        raise _UsageError(f"--range bounds are out of order: {spec}")
    width = high - low + 1
    if width > RANGE_MAX_WIDTH:
        raise _UsageError(f"--range box is {width} values wide, "
                          f"more than the limit of {RANGE_MAX_WIDTH}")
    return low, high


def _classify_range(spec: str, as_json: bool, out) -> None:
    """Write each knot triple's report as soon as it is classified.

    Memory stays flat however large the box: nothing is kept between
    triples, and the JSON array's brackets and commas are written here.
    """
    low, high = _range_bounds(spec)
    if not as_json:
        for entries in _knot_triples(low, high):
            report = representativity_bounds(pretzel_knot(entries))
            seen = _LINES.get(id(report))
            if seen is None:
                seen = _LINES[id(report)] = (report, _range_template(report))
            out.write(seen[1] % entries)
        return
    lead = "[\n  "
    for entries in _knot_triples(low, high):
        knot = pretzel_knot(entries)
        out.write(lead + _report_json("P(%d,%d,%d)" % entries, None, knot,
                                      representativity_bounds(knot), "  "))
        lead = ",\n  "
    out.write("[]\n" if lead == "[\n  " else "\n]\n")


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


# the text line template per report, by identity (each entry holds its report)
_LINES: dict[int, tuple[RepReport, str]] = {}


def _range_template(report: RepReport) -> str:
    """The text line of a range report, with a %d field for each entry."""
    if report.exact is not None:
        line = f"P(%d,%d,%d)  r={report.exact} exact"
    else:
        line = f"P(%d,%d,%d)  r in [{report.lower},{report.upper}]"
    if report.torus is not None:
        if report.torus.params is not None:
            p, q = report.torus.params
            line += f"  torus=({p},{q})"
        else:
            line += "  torus=yes"
    return line + "\n"


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


def _surface_rows(knot: PretzelKnot) -> list[SurfacePattern] | None:
    try:
        return scan_assignments(knot)
    except DegenerateTangleError:
        return None


# --- JSON templates ---
#
# _object() builds, from a key list in docs/schemas/ order, the text
# json.dumps(obj, indent=2) writes for one object at nesting depth 0,
# with a %-field for each value; _at() shifts a template to the depth
# where the object sits.  Nested values arrive already rendered at their
# own depth.


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


def _object(keys: str, **values: str) -> str:
    """Template of an object with the space-separated keys; a value is a
    %s field unless values gives its own template, written at depth 1."""
    fields = [f'"{key}": {values.get(key, "%s")}' for key in keys.split()]
    return "{\n  " + ",\n  ".join(fields) + "\n}"


_TEXT = '"%s"'  # a value the render call passes as the bare string

_REPORT = _object("input kind normalized mirror is_knot large_algebraic bridge_upper "
                  "torus lower upper exact rules surfaces", kind=_TEXT)
_TORUS = _object("params")
_RULE = _object("name citation sets value conditional")
_SURFACES = _object("input normalized mirror rows")
_ROW = _object("types slopes arcs sheets chi genus structural verdict family reason",
               types=_TEXT, slopes=_array(["%s"] * 3, "  "), verdict=_TEXT)
_LEMMA_ROW = _object("a b c k l d")
_TRACE = _object("twists crossings components pd")
_CROSSING = _array(["%d"] * 4, "")

# arcs, sheets, chi, genus and structural of a row that failed the
# existence filters
_UNMEASURED = ("null", "null", "null", "null", "false")
# where p, q, r, then each slope of the eight rows, sit in (p, q, r, p+1, q+1, r+1)
_REPORT_INTS = itemgetter(0, 1, 2, *[i + 3 * (ty == TYPE_B) for types in TYPINGS
                                     for i, ty in enumerate(types)])


@cache
def _rules_json(rules: tuple, pad: str) -> str:
    """The rules block; a handful of distinct blocks cover every report."""
    template = _at(_RULE, pad + "  ")
    return _array([template % (_scalar(rule.name), _scalar(rule.citation),
                               _scalar(rule.sets), _scalar(rule.value),
                               _scalar(rule.conditional)) for rule in rules], pad)


# the template of a report whose eight rows fail the existence filters, by
# the identity of its report and verdicts, which are shared and held here
_REJECTED_REPORTS: dict[tuple, tuple[RepReport, tuple, str]] = {}


def _report_json(input_text: str, expression: TangleExpr | None,
                 knot: PretzelKnot | None, report: RepReport, pad: str) -> str:
    """One classify report as JSON, its opening brace at indent pad; a
    range report passes no expression.  A knot none of whose rows passes
    the existence filters fills one cached template."""
    if knot is None:
        fields = ("null", "null", "null", _scalar(is_large_algebraic(expression)))
        return _fill_report(_quote(input_text), "closure", fields, report, "null", pad)
    kind = "montesinos" if isinstance(expression, Montesinos) else "pretzel"
    try:
        verdicts = existence_verdicts(knot.canonical)
    except DegenerateTangleError:  # a unit twist has no scan rows
        verdicts = None
    key = (id(report), id(verdicts), kind, knot.mirror, pad)
    seen = _REJECTED_REPORTS.get(key)
    if seen is None:  # only rejected-only verdicts are cached, so test them on a miss
        if verdicts is None or None in verdicts:
            fields = (_ints(knot.canonical, pad + "  "), _scalar(knot.mirror), "true", "null")
            surfaces = "null" if verdicts is None else _array(
                [_row_json(row, pad + "    ") for row in scan_assignments(knot)], pad + "  ")
            return _fill_report(_quote(input_text), kind, fields, report, surfaces, pad)
        fields = (_ints(["%d"] * 3, pad + "  "), _scalar(knot.mirror), "true", "null")
        seen = _REJECTED_REPORTS[key] = (report, verdicts, _fill_report(
            "%s", kind, fields, report, _rejected_rows(verdicts, pad + "  "), pad))
    a, b, c = knot.canonical
    return seen[2] % (_quote(input_text), *_REPORT_INTS((a, b, c, a + 1, b + 1, c + 1)))


def _fill_report(input_json: str, kind: str, fields: tuple, report: RepReport,
                 surfaces: str, pad: str) -> str:
    """_REPORT at indent pad; fields renders normalized to large_algebraic."""
    inner = pad + "  "
    torus = "null" if report.torus is None else (
        _at(_TORUS, inner) % _ints(report.torus.params, inner + "  "))
    return _at(_REPORT, pad) % (
        input_json, kind, *fields, _scalar(report.bridge_upper), torus,
        report.lower, report.upper, _scalar(report.exact),
        _rules_json(report.rules, inner), surfaces)


# --- surfaces ---


def _cmd_surfaces(args, out) -> None:
    knot = scannable_knot(_parse_pretzel_argument(args.expr, "surfaces"))
    rows = scan_assignments(knot)
    if args.json:
        out.write(_SURFACES % (_quote(args.expr), _ints(knot.canonical, "  "),
                               _scalar(knot.mirror),
                               _array([_row_json(row, "    ") for row in rows], "  ")) + "\n")
        return
    if args.csv:
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


def _row_text(row: SurfacePattern) -> str:
    types = "".join(row.tangle_types)
    s1, s2, s3 = row.boundary_slopes
    text = f"types={types} slopes=({s1},{s2},{s3})"
    if row.structural:
        h1, h2, h3 = row.sheets
        text += (f" arcs={row.arcs} sheets=({h1},{h2},{h3})"
                 f" chi={row.chi} genus={row.genus_val}")
    verdict = row.verdict
    text += f" verdict={'accepted' if verdict.accepted else 'rejected'}"
    if verdict.family is not None:
        text += f" family={verdict.family}"
    if verdict.reason is not None:
        text += f" reason={verdict.reason}"
    return text


def _row_csv(row: SurfacePattern) -> list:
    def opt(value):
        return "" if value is None else value

    sheets = row.sheets if row.sheets is not None else (None, None, None)
    return ["".join(row.tangle_types), *row.boundary_slopes, opt(row.arcs),
            *(opt(h) for h in sheets), opt(row.chi), opt(row.genus_val),
            "true" if row.structural else "false",
            "accepted" if row.verdict.accepted else "rejected",
            opt(row.verdict.family), opt(row.verdict.reason)]


def _rejected_rows(verdicts: tuple[Verdict, ...], pad: str) -> str:
    """The array of eight rows that failed the existence filters, with a
    %d field for each slope; a few distinct blocks cover every range."""
    row = _at(_ROW, pad + "  ")
    return _array([row % ("".join(types), "%d", "%d", "%d", *_UNMEASURED, "rejected",
                          _constant(v.family), _constant(v.reason))
                   for types, v in zip(TYPINGS, verdicts)], pad)


def _row_json(row: SurfacePattern, pad: str) -> str:
    """One scan row as JSON, its opening brace at indent pad."""
    if row.structural:
        measures = (_scalar(row.arcs), _ints(row.sheets, pad + "  "),
                    _scalar(row.chi), _scalar(row.genus_val), "true")
    else:
        measures = _UNMEASURED
    return _at(_ROW, pad) % (
        "".join(row.tangle_types), *row.boundary_slopes, *measures,
        "accepted" if row.verdict.accepted else "rejected",
        _constant(row.verdict.family), _constant(row.verdict.reason))


# --- lemma ---


def _cmd_lemma(args, out) -> None:
    if args.max_c < 2:
        raise _UsageError(f"--max must be at least 2, got {args.max_c}")
    if args.max_c > LEMMA_MAX:
        raise _UsageError(f"--max must be at most {LEMMA_MAX}, got {args.max_c}")
    solutions = enumerate_solutions(args.max_c)
    if not args.json:
        _write_items(out, "", "%d %d %d | k=%d l=%d d=%d\n", solutions, "", "")
    elif solutions:
        _write_items(out, "[\n  ", _at(_LEMMA_ROW, "  "), solutions, ",\n  ", "\n]\n")
    else:
        out.write("[]\n")


# lemma and trace write their rows this many at a time, under 600 KB
_ITEMS_PER_WRITE = 8192


def _write_items(out, head: str, template: str, items, separator: str, tail: str) -> None:
    """Write head, then template % item for each item with separator
    between them, then tail; head goes out only when there are items."""
    lead = head
    for start in range(0, len(items), _ITEMS_PER_WRITE):
        out.write(lead + separator.join([template % item
                                         for item in items[start:start + _ITEMS_PER_WRITE]]))
        lead = separator
    out.write(tail)


# --- trace ---


def _cmd_trace(args, out) -> None:
    twists = diagram_twists(_parse_pretzel_argument(args.expr, "trace"))
    code = pretzel_diagram(twists)
    components = component_count(code)
    crossings = code.crossings
    if not args.json:
        # the pd line as json.dumps(separators=(",", ":")) writes it
        _write_items(out, f"crossings: {len(crossings)}\ncomponents: {components}\npd: [",
                     "[%d,%d,%d,%d]", crossings, ",", "]\n")
        return
    # the pd array, never empty, closes the object; its items go where %s is
    head, tail = (_TRACE % (_ints(twists, "  "), len(crossings), components,
                            _array(["%s"], "  "))).split("%s")
    _write_items(out, head, _at(_CROSSING, "    "), crossings, ",\n    ", tail + "\n")


# --- parse ---


def _cmd_parse(args, out) -> None:
    expression = parse_expr(args.expr)
    if args.json:
        print(json.dumps({"input": args.expr,
                          "printed": print_expr(expression),
                          "tree": _tree_json(expression)}, indent=2), file=out)
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
        return {"kind": "pretzel", "entries": list(expression.triple)}
    if isinstance(expression, Montesinos):
        return {"kind": "montesinos", "slopes": [str(f) for f in expression.slopes]}
    return {"kind": "closure", "inner": _tree_json(expression.inner)}


if __name__ == "__main__":
    main()
