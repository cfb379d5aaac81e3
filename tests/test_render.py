"""Streamed JSON output against json.dumps(obj, indent=2), and scan
rows in text and CSV against a layout of the scan's own rows.

The command line fills templates that json.dumps lays out once per
output shape and streams a range report by report.  Here the expected
output is built independently: dicts assembled from
representativity_bounds and scan_assignments, encoded by json.dumps.
The command line lays out every scan row, in each format, from the
fields of scan_fields; the text and CSV rows are checked against lines
and cells built here from the SurfacePattern rows of scan_assignments
and enumerate_patterns.  The trace and lemma outputs are checked
against their first rendering: the diagram as a list of lists, and one
print per text line.
"""

import csv
import io
import json
from itertools import combinations_with_replacement
from math import comb
from random import Random

import pytest

from pretzelrep import (
    DegenerateTangleError,
    Verdict,
    canonical_entries,
    enumerate_patterns,
    enumerate_solutions,
    is_large_algebraic,
    parse_expr,
    pretzel_diagram,
    pretzel_form_knot,
    pretzel_knot,
    representativity_bounds,
    run,
    scan_assignments,
    scan_fields,
)
from pretzelrep import cli
from pretzelrep.cli import _report_json, _report_template, _template
from pretzelrep.linktrace import knot_components


def run_cli(args, out=None):
    out = io.StringIO() if out is None else out
    err = io.StringIO()
    code = run(args, out, err)
    assert code == 0 and err.getvalue() == ""
    return out.getvalue() if isinstance(out, io.StringIO) else None


def dumps(obj) -> str:
    return json.dumps(obj, indent=2) + "\n"


def row_obj(row) -> dict:
    return {
        "types": "".join(row.tangle_types),
        "slopes": list(row.boundary_slopes),
        "arcs": row.arcs,
        "sheets": None if row.sheets is None else list(row.sheets),
        "chi": row.chi,
        "genus": row.genus_val,
        "structural": row.structural,
        "verdict": "accepted" if row.verdict.accepted else "rejected",
        "family": row.verdict.family,
        "reason": row.verdict.reason,
    }


def surfaces_obj(triple):
    try:
        rows = scan_assignments(triple)
    except DegenerateTangleError:
        return None
    return [row_obj(row) for row in rows]


def report_obj(text: str, kind: str, triple, report=None) -> dict:
    """The classify --json object for a pretzel, Montesinos or closure
    input, with its own report unless one is given."""
    report = representativity_bounds(parse_expr(text)) if report is None else report
    obj = {"input": text, "kind": kind}
    if triple is not None:
        canonical, mirror = canonical_entries(triple)
        obj.update(normalized=list(canonical), mirror=mirror,
                   is_knot=True, large_algebraic=None)
    else:
        obj.update(normalized=None, mirror=None, is_knot=None,
                   large_algebraic=is_large_algebraic(parse_expr(text)))
    obj["bridge_upper"] = report.bridge_upper
    if report.torus is None:
        obj["torus"] = None
    else:
        params = report.torus.params
        obj["torus"] = {"params": None if params is None else list(params)}
    obj.update(lower=report.lower, upper=report.upper, exact=report.exact)
    obj["rules"] = [{"name": r.name, "citation": r.citation, "sets": r.sets,
                     "value": r.value, "conditional": r.conditional}
                    for r in report.rules]
    obj["surfaces"] = None if triple is None else surfaces_obj(triple)
    return obj


def knot_triples(low: int, high: int):
    """Sorted triples in the box with at most one even entry (knots)."""
    values = [v for v in range(low, high + 1) if v != 0]
    for entries in combinations_with_replacement(values, 3):
        if sum(e % 2 == 0 for e in entries) <= 1:
            yield tuple(entries)


def expected_range(low: int, high: int) -> str:
    return dumps([report_obj("P(%d,%d,%d)" % t, "pretzel", t)
                  for t in knot_triples(low, high)])


def random_boxes(seed: int, count: int):
    rng = Random(seed)
    for _ in range(count):
        low = rng.randint(-12, 12)
        yield low, rng.randint(low, min(12, low + 12))


# -5:5 holds both survivors and their mirrors, unit twists, structural
# rows and every sign class of canonical triple
BOXES = [(2, 2), (1, 1), (-3, 3), (-5, 5), *random_boxes(2024, 6)]


@pytest.mark.parametrize("low,high", BOXES, ids=[f"{a}:{b}" for a, b in BOXES])
def test_range_json_matches_json_dumps(low, high):
    assert run_cli(["classify", "--range", f"{low}:{high}", "--json"]) == expected_range(low, high)


def test_box_holds_every_report_path():
    triples = [tuple(t) for t in knot_triples(-5, 5)]
    canonical = {canonical_entries(t) for t in triples}
    assert {((-2, 3, 3), False), ((-2, 3, 3), True), ((-2, 3, 5), False),
            ((-2, 3, 5), True)} <= canonical
    assert any(1 in t or -1 in t for t in triples)
    scannable = [t for t in triples if 1 not in t and -1 not in t]
    assert any(enumerate_patterns(t) and not representativity_bounds(
        parse_expr("P({},{},{})".format(*t))).exact for t in scannable)


def rejected_blocks(bound: int) -> list[tuple[int, int, int]]:
    """One canonical knot triple in [-bound, bound] per distinct shapes
    tuple of scan_fields with no structural row."""
    blocks = {}
    values = [v for v in range(-bound, bound + 1) if abs(v) >= 2]
    for entries in combinations_with_replacement(values, 3):
        if knot_components(entries) == 1:
            canonical, _ = pretzel_knot(entries)
            shapes = scan_fields(canonical)[0]
            if not any(structural for _, _, structural in shapes):
                blocks.setdefault(shapes, canonical)
    return list(blocks.values())


BLOCKS = rejected_blocks(40)
# a torus survivor's report and a non-survivor's, each rendered in turn
# around the rows of a rejected-only knot
REPORTS = [representativity_bounds(parse_expr(text)) for text in ("P(2,-3,-5)", "P(3,5,7)")]


@pytest.mark.parametrize("canonical", BLOCKS, ids=str)
def test_rejected_only_report_matches_json_dumps(canonical):
    assert [report.torus is not None for report in REPORTS] == [True, False]
    for entries in (canonical, tuple(-e for e in canonical)):
        p, q, r = entries
        for kind, text in (("pretzel", f"P({p},{q},{r})"), ("montesinos", f"M(1/{p},1/{q},1/{r})")):
            expression = parse_expr(text)
            mirror = entries != canonical
            assert pretzel_form_knot(expression) == (canonical, mirror)
            for report in REPORTS:
                obj = report_obj(text, kind, tuple(entries), report)
                for pad in ("", "  "):
                    expected = json.dumps(obj, indent=2).replace("\n", "\n" + pad)
                    assert _report_json(text, kind, canonical, mirror, report, pad) == expected


@pytest.mark.parametrize("pad", ["", "  "], ids=["pad0", "pad2"])
def test_template_is_json_dumps_with_whole_string_fields(pad):
    def expected(obj):
        return json.dumps(obj, indent=2).replace("\n", "\n" + pad)

    # no field: a literal %, a %d inside a longer string or after an
    # escaped quote, nesting, None and bools all come out as json.dumps has them
    plain = {"share": "100%", "inner": "x%dy", "tail": "%d ", "quoted": '"%d', "pair": "%s%s",
             "nested": [[1, [None, True]], {"off": False, "none": None, "empty": []}], "e": {}}
    assert _template(plain, pad) % () == expected(plain)
    # the whole strings "%d" and "%s" are fields, wherever they sit
    template = _template({"n": "%d", "list": [["%s", "%d%%"], "%d"], "text": "%%"}, pad)
    assert template % (7, '"x"', -3) == expected(
        {"n": 7, "list": [["x", "%d%%"], -3], "text": "%%"})


# every JSON path of the command line but parse, whose tree has no fixed shape
JSON_COMMANDS = [
    ["classify", "--range", "-5:5", "--json"],
    ["classify", "P(-2,3,5)", "--json"],
    ["classify", "P(2,-3,-5)", "--json"],
    ["classify", "M(1/3,1/5,1/7)", "--json"],
    ["classify", "C((1/3+1/5)+(1/2+1/7))", "--json"],
    ["classify", "P(1,3,5)", "--json"],
    ["surfaces", "P(-2,3,5)", "--json"],
    ["surfaces", "P(3,5,7)", "--json"],
    ["trace", "P(-2,3,3)", "--json"],
    ["lemma", "--max", "15", "--json"],
]


def test_templates_are_made_once_per_shape(monkeypatch):
    monkeypatch.setattr(cli, "_TEMPLATES", {})
    run_cli(["classify", "--range", "-25:25", "--json"], Chunks())
    assert len(cli._TEMPLATES) <= 64
    first = [run_cli(args) for args in JSON_COMMANDS]
    calls = []
    encode = json.dumps

    def counted(*args, **kwargs):
        calls.append(args)
        return encode(*args, **kwargs)

    monkeypatch.setattr(json, "dumps", counted)
    assert [run_cli(args) for args in JSON_COMMANDS] == first
    assert calls == []


def test_second_range_json_pass_asks_for_no_report_template(monkeypatch):
    # -5:5 holds structural rows and unit twists, and a closure has no scan:
    # once one pass has kept the template of every report, the next asks for none
    commands = [["classify", "--range", "-5:5", "--json"],
                ["classify", "C((1/3+1/5)+(1/2+1/7))", "--json"]]
    first = [run_cli(args) for args in commands]
    calls = []

    def counted(*args):
        calls.append(args)
        return _report_template(*args)

    monkeypatch.setattr(cli, "_report_template", counted)
    assert [run_cli(args) for args in commands] == first
    assert calls == []


def test_each_template_is_built_once_and_held_once(monkeypatch):
    # the two closure kinds, each classified twice, add one template each
    monkeypatch.setattr(cli, "_TEMPLATES", {})
    calls = []

    def counted(*args):
        calls.append(args)
        return _report_template(*args)

    monkeypatch.setattr(cli, "_report_template", counted)
    run_cli(["classify", "--range", "-12:12", "--json"], Chunks())
    knots = len(cli._TEMPLATES)
    for text in ["C((1/3+1/5)+(1/2+1/7))", "C(1/3+(1/2+1/5))"] * 2:
        run_cli(["classify", text, "--json"])
    assert len(calls) == len(cli._TEMPLATES) == knots + 2


def test_empty_range_prints_empty_array():
    assert run_cli(["classify", "--range", "2:2", "--json"]) == "[]\n"
    assert run_cli(["classify", "--range", "2:2"]) == ""


def random_triples(seed: int, count: int):
    rng = Random(seed)
    fixed = [(-2, 3, 3), (-2, 3, 5), (2, -3, -3), (5, -2, 3), (1, 1, 1),
             (-1, -1, -1), (1, 3, -5), (-1, 4, 7), (-6, 9, 17)]
    triples = [tuple(t) for t in fixed]
    while len(triples) < count:
        entries = tuple(rng.choice([-1, 1]) * rng.randint(1, 40) for _ in range(3))
        if sum(e % 2 == 0 for e in entries) <= 1:
            triples.append(tuple(entries))
    return triples


TRIPLES = random_triples(7, 60)


@pytest.mark.parametrize("triple", TRIPLES, ids=[str(tuple(t)) for t in TRIPLES])
def test_classify_json_matches_json_dumps(triple):
    p, q, r = triple
    pretzel = f"P({p},{q},{r})"
    assert run_cli(["classify", pretzel, "--json"]) == dumps(report_obj(pretzel, "pretzel", triple))
    montesinos = f"M(1/{p}, 1/{q}, 1/{r})"
    assert (run_cli(["classify", montesinos, "--json"])
            == dumps(report_obj(montesinos, "montesinos", triple)))


# the last two keep whitespace that JSON escapes in the echoed input
CLOSURES = ["C((1/3+1/5)+(1/2+1/7))", "C(1/3+(1/2+1/5))", "C(P(1,2,3)+3)",
            "\tC(1/2+1/3)", "C(1/2 + 1/3)\u00a0"]


@pytest.mark.parametrize("text", CLOSURES)
def test_closure_json_matches_json_dumps(text):
    assert run_cli(["classify", text, "--json"]) == dumps(report_obj(text, "closure", None))


# P(3,5,7) and P(-3,5,7): every row fails the sign pattern, or the reciprocal sum
SCANNABLE = [(3, 5, 7), (-3, 5, 7),
             *(t for t in TRIPLES if min(map(abs, t)) > 1)]


def triple_id(triple) -> str:
    # the case names these tests have always carried, from when a triple
    # was a named class rather than a plain tuple
    return "PretzelTriple(p=%d, q=%d, r=%d)" % triple


@pytest.mark.parametrize("triple", SCANNABLE, ids=triple_id)
def test_surfaces_json_matches_json_dumps(triple):
    text = "P( %d, %d, %d )" % triple
    canonical, mirror = canonical_entries(triple)
    expected = {"input": text, "normalized": list(canonical),
                "mirror": mirror, "rows": surfaces_obj(triple)}
    assert run_cli(["surfaces", text, "--json"]) == dumps(expected)


def row_text(row) -> str:
    """A scan row as the surfaces text and the classify surfaces: block print it."""
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


def row_csv(row) -> list:
    """A scan row as the cells of surfaces --csv."""
    def opt(value):
        return "" if value is None else value

    sheets = row.sheets if row.sheets is not None else (None, None, None)
    return ["".join(row.tangle_types), *row.boundary_slopes, opt(row.arcs),
            *(opt(h) for h in sheets), opt(row.chi), opt(row.genus_val),
            "true" if row.structural else "false",
            "accepted" if row.verdict.accepted else "rejected",
            opt(row.verdict.family), opt(row.verdict.reason)]


CSV_HEADER = ["types", "slope_1", "slope_2", "slope_3", "arcs", "sheet_1", "sheet_2",
              "sheet_3", "chi", "genus", "structural", "verdict", "family", "reason"]


@pytest.mark.parametrize("triple", SCANNABLE, ids=triple_id)
def test_surfaces_text_and_csv_match_the_scan(triple):
    text = "P( %d, %d, %d )" % triple
    rows = scan_assignments(triple)
    lines = [f"input: {text}", "normalized: P(%d,%d,%d)" % canonical_entries(triple)[0],
             *map(row_text, rows)]
    assert run_cli(["surfaces", text]) == "".join(f"{line}\n" for line in lines)
    table = io.StringIO()
    writer = csv.writer(table, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    for row in rows:
        writer.writerow(row_csv(row))
    assert run_cli(["surfaces", text, "--csv"]) == table.getvalue()


@pytest.mark.parametrize("triple", TRIPLES, ids=[str(tuple(t)) for t in TRIPLES])
def test_classify_text_surfaces_block_matches_the_scan(triple):
    try:
        structural = enumerate_patterns(triple)
    except DegenerateTangleError:
        expected = ["surfaces: not computed (degenerate twist parameters)"]
    else:
        expected = (["surfaces:", *(f"  {row_text(row)}" for row in structural)]
                    if structural else ["surfaces: none"])
    p, q, r = triple
    for text in (f"P({p},{q},{r})", f"M(1/{p}, 1/{q}, 1/{r})"):
        lines = run_cli(["classify", text]).splitlines()
        start = next(i for i, line in enumerate(lines) if line.startswith("surfaces"))
        assert lines[start:] == expected, text


class Chunks:
    """An output stream that keeps each write separately."""

    def __init__(self):
        self.chunks = []

    def write(self, text):
        self.chunks.append(text)


@pytest.mark.parametrize("flags", [["--json"], []], ids=["json", "text"])
def test_range_streams_one_report_at_a_time(flags):
    low, high = -12, 12
    reports = sum(1 for _ in knot_triples(low, high))
    out = Chunks()
    run_cli(["classify", "--range", f"{low}:{high}", *flags], out)
    chunks = [c for c in out.chunks if c]
    assert len(chunks) >= reports
    assert max(len(c) for c in chunks) <= 64 * 1024


def test_cached_range_json_compares_no_verdicts(monkeypatch):
    # 7:15 has no unit twist and no structural row: once its templates
    # are cached, no verdict is compared
    calls = []
    eq = Verdict.__eq__

    def counted(self, other):
        calls.append(other)
        return eq(self, other)

    first = run_cli(["classify", "--range", "7:15", "--json"])
    monkeypatch.setattr(Verdict, "__eq__", counted)
    assert run_cli(["classify", "--range", "7:15", "--json"]) == first
    assert calls == []


def test_range_matches_single_classify():
    # the box holds unit twists and links, which the range skips
    reports = json.loads(run_cli(["classify", "--range", "-7:7", "--json"]))
    values = [v for v in range(-7, 8) if v != 0]
    odd = sum(1 for v in values if v % 2)
    even = len(values) - odd
    # multisets of three entries with no even entry, or with exactly one
    assert len(reports) == comb(odd + 2, 3) + even * comb(odd + 1, 2)
    knots = [t for t in combinations_with_replacement(values, 3)
             if sum(1 for e in t if e % 2 == 0) <= 1]
    for triple, report in zip(knots, reports, strict=True):
        single = run_cli(["classify", "P({},{},{})".format(*triple), "--json"])
        assert report == json.loads(single), triple


def range_line_from_report(triple, report: str) -> str:
    """The range line built from the bounds: and torus: facts of a
    single classify text report."""
    facts = dict(line.split(": ", 1) for line in report.splitlines()
                 if ": " in line and not line.startswith(" "))
    bounds = dict(fact.split("=") for fact in facts["bounds"].split())
    line = "P({},{},{})".format(*triple)
    if "exact" in bounds:
        line += f"  r={bounds['exact']} exact"
    else:
        line += f"  r in [{bounds['lower']},{bounds['upper']}]"
    torus = facts.get("torus")
    if torus == "yes (parameters not tracked)":
        line += "  torus=yes"
    elif torus is not None:
        line += f"  torus={torus}"
    return line


def test_range_text_matches_single_classify():
    lines = run_cli(["classify", "--range", "-7:7"]).splitlines()
    values = [v for v in range(-7, 8) if v != 0]
    knots = [t for t in combinations_with_replacement(values, 3)
             if sum(1 for e in t if e % 2 == 0) <= 1]
    for triple, line in zip(knots, lines, strict=True):
        single = run_cli(["classify", "P({},{},{})".format(*triple)])
        assert line == range_line_from_report(triple, single), triple
    # unit twists with the (1,1,1) torus class, both survivors and their
    # mirrors, and knots with an even entry
    assert "P(1,1,1)  r in [1,2]  torus=yes" in lines
    tori = {line.split("torus=")[1] for line in lines if "torus=(" in line}
    assert tori == {"(3,4)", "(3,-4)", "(3,5)", "(3,-5)"}
    assert any(e % 2 == 0 for t in knots for e in t)


def old_trace(entries, as_json: bool) -> str:
    pd = [list(crossing) for crossing in pretzel_diagram(entries)]
    components = knot_components(entries)
    if as_json:
        return dumps({"twists": list(entries), "crossings": len(pd),
                      "components": components, "pd": pd})
    out = io.StringIO()
    print(f"crossings: {len(pd)}", file=out)
    print(f"components: {components}", file=out)
    print(f"pd: {json.dumps(pd, separators=(',', ':'))}", file=out)
    return out.getvalue()


def trace_triples(seed: int, count: int):
    rng = Random(seed)
    return [tuple(rng.choice([-1, 1]) * rng.randint(1, 30) for _ in range(3))
            for _ in range(count)]


@pytest.mark.parametrize("flags", [["--json"], []], ids=["json", "text"])
def test_trace_matches_list_rendering(flags):
    for entries in [(-2, 3, 3), (1, 1, 1), (2, 4, 6), *trace_triples(11, 40)]:
        text = "P({},{},{})".format(*entries)
        assert run_cli(["trace", text, *flags]) == old_trace(entries, bool(flags)), entries


@pytest.mark.parametrize("flags", [["--json"], []], ids=["json", "text"])
def test_trace_is_written_in_bounded_chunks(flags):
    # 16,384 crossings fill two writes exactly; 30,002 (1.9 MB of JSON)
    # end in a partial one
    for entries in [(-2, 3, 16379), (-2, 3, 29997)]:
        out = Chunks()
        run_cli(["trace", "P({},{},{})".format(*entries), *flags], out)
        assert len(out.chunks) > 2
        assert max(len(c) for c in out.chunks) <= 600_000
        assert "".join(out.chunks) == old_trace(entries, bool(flags)), entries


def test_lemma_text_matches_print_per_line():
    for max_c in range(2, 401):
        out = io.StringIO()
        for a, b, c, k, l, d in enumerate_solutions(max_c):
            print(f"{a} {b} {c} | k={k} l={l} d={d}", file=out)
        assert run_cli(["lemma", "--max", str(max_c)]) == out.getvalue(), max_c


@pytest.mark.parametrize("max_c", [2, 3, 6, 15, 61, 128, 299, 400])
def test_lemma_json_matches_json_dumps(max_c):
    expected = dumps([{"a": a, "b": b, "c": c, "k": k, "l": l, "d": d}
                      for a, b, c, k, l, d in enumerate_solutions(max_c)])
    assert run_cli(["lemma", "--max", str(max_c), "--json"]) == expected
