"""Streamed JSON output against json.dumps(obj, indent=2).

The command line renders reports and scan rows from hand-written
templates and streams a range report by report.  Here the expected
output is built independently: dicts assembled from
representativity_bounds and scan_assignments, encoded by json.dumps.
"""

import io
import json
from itertools import combinations_with_replacement
from math import comb
from random import Random

import pytest

from pretzelrep import (
    DegenerateTangleError,
    PretzelTriple,
    is_large_algebraic,
    normalize_pretzel,
    parse_expr,
    representativity_bounds,
    run,
    scan_assignments,
)


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
        "verdict": "accepted" if row.accepted else "rejected",
        "family": row.family,
        "reason": row.reason,
    }


def surfaces_obj(triple):
    try:
        rows = scan_assignments(triple)
    except DegenerateTangleError:
        return None
    return [row_obj(row) for row in rows]


def report_obj(text: str, kind: str, triple) -> dict:
    """The classify --json object for a pretzel, Montesinos or closure input."""
    report = representativity_bounds(parse_expr(text))
    obj = {"input": text, "kind": kind}
    if triple is not None:
        canonical, mirror = normalize_pretzel(triple)
        obj.update(normalized=list(canonical.entries()), mirror=mirror,
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
            yield PretzelTriple(*entries)


def expected_range(low: int, high: int) -> str:
    return dumps([report_obj(f"P({t.p},{t.q},{t.r})", "pretzel", t)
                  for t in knot_triples(low, high)])


def random_boxes(seed: int, count: int):
    rng = Random(seed)
    for _ in range(count):
        low = rng.randint(-12, 12)
        yield low, rng.randint(low, min(12, low + 12))


BOXES = [(2, 2), (1, 1), (-3, 3), *random_boxes(2024, 6)]


@pytest.mark.parametrize("low,high", BOXES, ids=[f"{a}:{b}" for a, b in BOXES])
def test_range_json_matches_json_dumps(low, high):
    assert run_cli(["classify", "--range", f"{low}:{high}", "--json"]) == expected_range(low, high)


def test_empty_range_prints_empty_array():
    assert run_cli(["classify", "--range", "2:2", "--json"]) == "[]\n"
    assert run_cli(["classify", "--range", "2:2"]) == ""


def random_triples(seed: int, count: int):
    rng = Random(seed)
    fixed = [(-2, 3, 3), (-2, 3, 5), (2, -3, -3), (5, -2, 3), (1, 1, 1),
             (-1, -1, -1), (1, 3, -5), (-1, 4, 7), (-6, 9, 17)]
    triples = [PretzelTriple(*t) for t in fixed]
    while len(triples) < count:
        entries = tuple(rng.choice([-1, 1]) * rng.randint(1, 40) for _ in range(3))
        if sum(e % 2 == 0 for e in entries) <= 1:
            triples.append(PretzelTriple(*entries))
    return triples


TRIPLES = random_triples(7, 60)


@pytest.mark.parametrize("triple", TRIPLES, ids=[str(t.entries()) for t in TRIPLES])
def test_classify_json_matches_json_dumps(triple):
    p, q, r = triple.entries()
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


@pytest.mark.parametrize("triple", [t for t in TRIPLES if min(map(abs, t.entries())) > 1],
                         ids=str)
def test_surfaces_json_matches_json_dumps(triple):
    text = f"P( {triple.p}, {triple.q}, {triple.r} )"
    canonical, mirror = normalize_pretzel(triple)
    expected = {"input": text, "normalized": list(canonical.entries()),
                "mirror": mirror, "rows": surfaces_obj(triple)}
    assert run_cli(["surfaces", text, "--json"]) == dumps(expected)


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
