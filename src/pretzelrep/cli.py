"""Command line interface.

Subcommands: classify, surfaces, lemma, trace, parse.  Output is plain
text by default; --json (and --csv for surfaces) switch formats.  Exit
codes: 0 success, 1 unusable input (bad syntax or bad arguments) or
output that cannot be written, 2 a domain error (input parsed but
cannot be classified), 3 an internal invariant violation, 130 an
interrupt (Ctrl-C).  All output is deterministic for a given input.
"""

from __future__ import annotations

import argparse
import errno
import io
import json
import os
import re
import sys
from bisect import bisect_left
from contextlib import redirect_stdout
from csv import writer as csv_writer
from functools import cache
from itertools import islice, repeat
from json.encoder import encode_basestring_ascii as _quote
from typing import IO

from .errors import (
    DomainError,
    InvariantError,
    ParseError,
    PretzelRepError,
    UnsupportedInputError,
)
from .linktrace import diagram_twists, pretzel_crossings, trace_components
from .repclassify import RepReport, knot_report, pretzel_form_knot, representativity_bounds
from .surfacescan import decode_fields, scan_fields, scannable_knot
from .slopelemma import enumerate_solutions
from .tanglecalc import (
    Montesinos,
    Pretzel,
    RationalTangle,
    Sum,
    TangleExpr,
    canonical_entries,
    max_digits,
    parse_expr,
    print_expr,
)

__all__ = ["run", "main", "build_parser"]

_RANGE = re.compile(r"(-?[0-9]+):(-?[0-9]+)")

# largest lemma --max: about 0.8-0.9 s and 40-42 MB, as text or JSON
LEMMA_MAX = 200_000
# widest classify --range box, e.g. -60:60: about 0.3 s as text, 1.2 s as JSON
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

    def _print_message(self, message, file=None):
        # argparse drops a failed write; --help that cannot be written exits 1
        if message:
            (file or sys.stderr).write(message)


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
    # each subcommand's own parser by name, for run to call directly
    parser.subcommand_parsers = sub.choices
    return parser


def run(argv: list[str] | None = None,
        out: IO[str] | None = None,
        err: IO[str] | None = None) -> int:
    """Execute one command line; returns the exit code without exiting."""
    out = sys.stdout if out is None else out
    err = sys.stderr if err is None else err
    argv = sys.argv[1:] if argv is None else argv
    parser = build_parser()
    # a leading subcommand goes straight to its own parser, which the
    # top-level parser would hand the rest of argv to; any other argv
    # (none, a flag first, an unknown command) needs the top-level one
    command = parser.subcommand_parsers.get(argv[0]) if argv else None
    try:
        try:
            with redirect_stdout(out):  # so that --help prints to out
                args = (parser.parse_args(argv) if command is None
                        else command.parse_args(argv[1:]))
        except SystemExit as exc:  # --help prints and exits 0
            return int(exc.code or 0)
        args.handler(args, out)
        return 0
    except (_UsageError, ParseError, DomainError) as exc:
        err.write(f"error: {exc}\n")
        return 2 if isinstance(exc, DomainError) else 1
    except InvariantError as exc:
        err.write(f"internal error: {exc}\n")
        return 3


class _ClosedStdout(io.TextIOBase):
    """The stdout of a process started without one: every write fails."""

    def write(self, text):
        raise OSError(errno.EBADF, os.strerror(errno.EBADF))


def main() -> None:
    # the error lines are written after the command, where a stderr that
    # cannot take them changes no exit code
    out, err = sys.stdout or _ClosedStdout(), io.StringIO()
    try:
        code = run(out=out, err=err)
        out.flush()
    except KeyboardInterrupt:
        code = 130
    except (OSError, UnicodeEncodeError) as exc:
        # writing failed: the reader closed the pipe early (e.g. `| head`),
        # which needs no message, or stdout is closed, full or cannot encode
        # the text
        if not isinstance(exc, BrokenPipeError):
            err.write(f"error: cannot write output: {getattr(exc, 'strerror', None) or exc}\n")
        _to_devnull(sys.stdout)
        code = 1
    try:
        if sys.stderr is not None:
            sys.stderr.write(err.getvalue())
            sys.stderr.flush()
    except OSError:
        _to_devnull(sys.stderr)
    sys.exit(code)


def _to_devnull(stream) -> None:
    """Point a standard stream that failed at devnull, so that the flush
    at exit cannot raise again."""
    if stream is not None:
        os.dup2(os.open(os.devnull, os.O_WRONLY), stream.fileno())


# --- classify ---


def _cmd_classify(args, out) -> None:
    if (args.expr is None) == (args.range_spec is None):
        raise _UsageError("classify needs exactly one of an expression or --range A:B")
    if args.range_spec is not None:
        _classify_range(args.range_spec, args.json, out)
        return
    expression = parse_expr(args.expr)
    knot = pretzel_form_knot(expression)
    if knot is None:
        kind, canonical, mirror = "closure", None, None
        report = representativity_bounds(expression)
    else:
        kind = "pretzel" if isinstance(expression, Pretzel) else "montesinos"
        canonical, mirror = knot
        report = knot_report(canonical, mirror)
    if args.json:
        out.write(_report_json(args.expr, kind, canonical, mirror, report, "") + "\n")
    else:
        out.write("\n".join(_report_text(expression, kind, canonical, mirror, report)) + "\n")


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
        # every generated triple is a knot, so its canonical form decides
        for entries in _knot_triples(low, high):
            report = knot_report(*canonical_entries(entries))
            seen = _TEMPLATES.get(id(report))
            if seen is None:
                seen = _TEMPLATES[id(report)] = (report, _range_template(report))
            out.write(seen[-1] % entries)
        return
    lead = "[\n  "
    for entries in _knot_triples(low, high):
        canonical, mirror = canonical_entries(entries)
        out.write(lead + _report_json("P(%d,%d,%d)" % entries, "pretzel", canonical, mirror,
                                      knot_report(canonical, mirror), "  "))
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


# every classify template: a range text line's by its report's identity, a
# JSON report's by the identities of its report and scan shapes with its
# kind, mirror flag and indent; each entry holds the objects its key names
_TEMPLATES: dict[int | tuple, tuple] = {}


def _range_template(report: RepReport) -> str:
    """The text line of a range report, with a %d field for each entry."""
    if report.exact is not None:
        line = f"P(%d,%d,%d)  r={report.exact} exact"
    else:
        line = f"P(%d,%d,%d)  r in [{report.lower},{report.upper}]"
    if report.torus is not None:
        params = report.torus.params
        line += "  torus=yes" if params is None else "  torus=(%d,%d)" % params
    return line + "\n"


def _report_text(expression: TangleExpr, kind: str, canonical: tuple | None,
                 mirror: bool | None, report: RepReport) -> list[str]:
    lines = [f"input: {print_expr(expression)}", f"kind: {kind}"]
    if canonical is not None:
        lines.append("normalized: P(%d,%d,%d)" % canonical)
        lines.append(f"mirror: {'yes' if mirror else 'no'}")
        lines.append("knot: yes")
        lines.append(f"bridge bound: {report.bridge_upper}")
        if report.torus is not None:
            params = report.torus.params
            lines.append("torus: yes (parameters not tracked)" if params is None
                         else "torus: (%d,%d)" % params)
    else:
        lines.append(f"large algebraic: {'yes' if report.large_algebraic else 'no'}")
    exact = "" if report.exact is None else f" exact={report.exact}"
    lines.append(f"bounds: lower={report.lower} upper={report.upper}{exact}")
    lines.append("rules:")
    for rule in report.rules:
        lines.append(f"  - {rule.name} [{_effect_text(rule)}]: {rule.citation}")
    if canonical is not None:
        shapes, values = scan_fields(canonical)
        if shapes is None:
            lines.append("surfaces: not computed (degenerate twist parameters)")
        else:  # the structural rows, whose arcs are set
            rows = [f"  {_row_text(_row(row))}" for row in decode_fields(shapes, values)
                    if row[3] is not None]
            lines += ["surfaces:", *rows] if rows else ["surfaces: none"]
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


# --- JSON templates ---
#
# json.dumps lays out every JSON output.  Each output shape (a report,
# a surfaces object, a lemma row, the trace object, a crossing) is
# dumped once with "%d" or "%s" strings where its values go, and each
# output is one % fill of that template.


def _template(obj, pad: str) -> str:
    """json.dumps(obj, indent=2) as a %-template, every line after the
    first indented by pad: each string that is exactly "%d" or "%s"
    becomes that field, and every other % is doubled."""
    text = json.dumps(obj, indent=2).replace("%", "%%")
    # an unescaped quote before %% opens a string, so the match is a whole string
    return re.sub(r'(?<!\\)"%%([ds])"', r"%\1", text).replace("\n", "\n" + pad)


def _row(row: tuple) -> dict:
    """A row of decode_fields as its fields in output order."""
    types, verdict, slopes, arcs, sheets, chi, genus = row
    return {"types": "".join(types), "slopes": slopes, "arcs": arcs, "sheets": sheets,
            "chi": chi, "genus": genus, "structural": arcs is not None,
            "verdict": "accepted" if verdict.accepted else "rejected",
            "family": verdict.family, "reason": verdict.reason}


def _report_template(report: RepReport, kind: str, mirror: bool | None,
                     shapes: tuple | None, pad: str) -> str:
    """A classify report with a %s field for the input and, for a knot
    (mirror not None), a %d field for each canonical entry, then those
    of the scan rows with the given shapes; shapes is None when the
    report has no scan."""
    knot = mirror is not None
    torus = report.torus
    return _template({
        "input": "%s", "kind": kind, "normalized": ["%d"] * 3 if knot else None,
        "mirror": mirror, "is_knot": True if knot else None,
        "large_algebraic": report.large_algebraic, "bridge_upper": report.bridge_upper,
        "torus": None if torus is None else {
            "params": None if torus.params is None else list(torus.params)},
        "lower": report.lower, "upper": report.upper, "exact": report.exact,
        "rules": [{"name": rule.name, "citation": rule.citation, "sets": rule.sets,
                   "value": rule.value, "conditional": rule.conditional}
                  for rule in report.rules],
        "surfaces": None if shapes is None else [*map(_row, decode_fields(shapes, repeat("%d")))],
    }, pad)


@cache
def _surfaces_template(mirror: bool, shapes: tuple) -> str:
    """A surfaces object with a %s field for the input and a %d field
    for each canonical entry, then those of the rows."""
    return _template({"input": "%s", "normalized": ["%d"] * 3, "mirror": mirror,
                      "rows": [*map(_row, decode_fields(shapes, repeat("%d")))]}, "")


_LEMMA_ROW = _template(dict.fromkeys(("a", "b", "c", "k", "l", "d"), "%d"), "  ")
# the trace object before and after its pd items, which are written in chunks;
# a diagram has at least one crossing, so the pd array is never empty
_TRACE_HEAD, _TRACE_TAIL = _template({"twists": ["%d"] * 3, "crossings": "%d",
                                      "components": "%d", "pd": ["%s"]}, "").split("%s")
_CROSSING = _template(["%d"] * 4, "    ")


def _report_json(input_text: str, kind: str, canonical: tuple | None,
                 mirror: bool | None, report: RepReport, pad: str) -> str:
    """One classify report as JSON, its opening brace at indent pad: the
    template of its report, kind, mirror flag and scan shapes (none for
    a closure, whose canonical and mirror are None, or a unit twist),
    filled with the input and, for a knot, its canonical triple and scan values."""
    shapes, values = (None, ()) if canonical is None else scan_fields(canonical)
    key = (id(report), id(shapes), kind, mirror, pad)
    seen = _TEMPLATES.get(key)
    if seen is None:
        seen = _TEMPLATES[key] = (report, shapes, _report_template(
            report, kind, mirror, shapes, pad))
    return seen[-1] % (_quote(input_text), *(canonical or ()), *values)


# --- surfaces ---


def _cmd_surfaces(args, out) -> None:
    canonical, mirror = scannable_knot(_parse_pretzel_argument(args.expr, "surfaces"))
    shapes, values = scan_fields(canonical)
    if args.json:
        out.write(_surfaces_template(mirror, shapes) % (
            _quote(args.expr), *canonical, *values) + "\n")
        return
    rows = [*map(_row, decode_fields(shapes, values))]
    if args.csv:
        buffer = io.StringIO()
        table = csv_writer(buffer, lineterminator="\n")
        table.writerow(["types", "slope_1", "slope_2", "slope_3", "arcs",
                        "sheet_1", "sheet_2", "sheet_3", "chi", "genus",
                        "structural", "verdict", "family", "reason"])
        table.writerows(map(_row_csv, rows))
        out.write(buffer.getvalue())
    else:
        lines = [f"input: {args.expr}", "normalized: P(%d,%d,%d)" % canonical,
                 *map(_row_text, rows)]
        out.write("\n".join(lines) + "\n")


def _parse_pretzel_argument(text: str, command: str) -> tuple[int, int, int]:
    expression = parse_expr(text)
    if not isinstance(expression, Pretzel):
        raise UnsupportedInputError(f"{command} expects a pretzel form P(p,q,r)")
    return expression.triple


def _row_text(row: dict) -> str:
    """A scan row as key=value words, a tuple as (a,b,c), without None or structural."""
    return " ".join([f"{key}=({value[0]},{value[1]},{value[2]})" if isinstance(value, tuple)
                     else f"{key}={value}"
                     for key, value in row.items() if value is not None and key != "structural"])


def _row_csv(row: dict) -> list:
    """A scan row as CSV cells; the csv writer writes None as empty."""
    return [row["types"], *row["slopes"], row["arcs"], *(row["sheets"] or [None] * 3),
            row["chi"], row["genus"], "true" if row["structural"] else "false", row["verdict"],
            row["family"], row["reason"]]


# --- lemma ---


def _cmd_lemma(args, out) -> None:
    if args.max_c < 2:
        raise _UsageError(f"--max must be at least 2, got {args.max_c}")
    if args.max_c > LEMMA_MAX:
        raise _UsageError(f"--max must be at most {LEMMA_MAX}, got {args.max_c}")
    solutions = enumerate_solutions(args.max_c)
    if not args.json:
        _write_items(out, "", "%d %d %d | k=%d l=%d d=%d\n", solutions, "", "")
    else:
        _write_items(out, "[\n  ", _LEMMA_ROW, solutions, ",\n  ", "\n]\n")


# lemma and trace write their rows this many at a time, under 600 KB
_ITEMS_PER_WRITE = 8192


def _write_items(out, head: str, template: str, items, separator: str, tail: str) -> None:
    """Write head, then template % item for each item of the iterable
    items with separator between them, then tail; head goes out only
    when there are items."""
    items = iter(items)
    lead = head
    while lines := [template % item for item in islice(items, _ITEMS_PER_WRITE)]:
        out.write(lead + separator.join(lines))
        lead = separator
    out.write(tail)


# --- trace ---


def _cmd_trace(args, out) -> None:
    twists = diagram_twists(_parse_pretzel_argument(args.expr, "trace"))
    crossings = sum(map(abs, twists))
    # the header names the components before the pd items, so the crossings
    # are generated twice, to be traced and then written, and never held
    components = trace_components(lambda: pretzel_crossings(twists), 2 * crossings)
    if not args.json:
        # the pd line as json.dumps(separators=(",", ":")) writes it
        _write_items(out, f"crossings: {crossings}\ncomponents: {components}\npd: [",
                     "[%d,%d,%d,%d]", pretzel_crossings(twists), ",", "]\n")
        return
    _write_items(out, _TRACE_HEAD % (*twists, crossings, components), _CROSSING,
                 pretzel_crossings(twists), ",\n    ", _TRACE_TAIL + "\n")


# --- parse ---


def _cmd_parse(args, out) -> None:
    expression = parse_expr(args.expr)
    if args.json:
        out.write(json.dumps({"input": args.expr,
                              "printed": print_expr(expression),
                              "tree": _tree_json(expression)}, indent=2) + "\n")
    else:
        out.write(print_expr(expression) + "\n")


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
