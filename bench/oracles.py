"""Output oracles that do not come from the code under test.

Everything here is written from the paper's statements and the
documented output formats, never by calling ``pretzelrep``:

- the survivor set {(-2,3,3), (-2,3,5)} is the only canonical triple with
  exact representativity 3 and with an accepted surface;
- a 3-pretzel is a knot exactly when at most one entry is even, and has
  max(1, #even entries) components;
- the canonical triple is the sorted triple or its sorted mirror,
  whichever is lexicographically larger;
- the lemma solutions are enumerated from the divisors of a^2, since
  1/a = 1/b + 1/c is (b - a)(c - a) = a^2;
- tangle trees are printed by the grammar's canonical spelling.

A checker takes the exit code, stdout and stderr of one command.  It
returns a Counter of what it saw (reports, surface rows, lemma
solutions) or raises Mismatch.
"""

from __future__ import annotations

import csv
import json
import re
from collections import Counter
from fractions import Fraction
from itertools import combinations_with_replacement
from math import comb, gcd

SURVIVORS = {(-2, 3, 3): 4, (-2, 3, 5): 5}  # canonical triple -> torus q
TYPES = tuple(a + b + c for a in "AB" for b in "AB" for c in "AB")


class Mismatch(Exception):
    """An output disagrees with its oracle."""


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise Mismatch(message)


# --- the harness's own mathematics ---


def evens(triple) -> int:
    return sum(1 for e in triple if e % 2 == 0)


def components(triple) -> int:
    return max(1, evens(triple))


def canonical(triple) -> tuple[tuple[int, int, int], bool]:
    plain = tuple(sorted(triple))
    mirror = tuple(sorted(-e for e in triple))
    return (mirror, True) if mirror > plain else (plain, False)


def box_values(low: int, high: int) -> list[int]:
    return [v for v in range(low, high + 1) if v != 0]


def box_triples(low: int, high: int) -> int:
    """Triples a range command visits: multisets of three box values."""
    return comb(len(box_values(low, high)) + 2, 3)


def knot_count(low: int, high: int) -> int:
    """Knot triples in the box by parity alone: all odd, or one even."""
    values = box_values(low, high)
    e = evens(values)
    o = len(values) - e
    return comb(o + 2, 3) + e * comb(o + 1, 2)


def knot_triples(low: int, high: int) -> list[tuple[int, int, int]]:
    """Knot triples in the order a range command reports them."""
    return [t for t in combinations_with_replacement(box_values(low, high), 3)
            if evens(t) <= 1]


def pretzel_facts(triple) -> dict:
    """What a classification report must say about a pretzel knot."""
    canon, mirror = canonical(triple)
    q = SURVIVORS.get(canon)
    torus = None
    if q is not None:
        torus = [3, -q if mirror else q]
    elif canon == (1, 1, 1):
        torus = "yes"
    small = min(abs(e) for e in triple) == 1
    return {
        "normalized": list(canon),
        "mirror": mirror,
        "bridge_upper": 2 if small else 3,
        "torus": torus,
        "lower": 3 if q else 1,
        "upper": 3 if q else 2,
        "exact": 3 if q else None,
    }


def lemma_solutions(max_c: int) -> list[tuple[int, int, int]]:
    """Every 1 <= a < b <= c <= max_c with 1/a = 1/b + 1/c, sorted.

    b = a + u and c = a + a^2/u for each divisor u <= a of a^2; c >= 2a
    bounds a by max_c // 2.
    """
    top = max_c // 2
    smallest = list(range(top + 1))
    for p in range(2, int(top ** 0.5) + 1):
        if smallest[p] == p:
            for multiple in range(p * p, top + 1, p):
                if smallest[multiple] == multiple:
                    smallest[multiple] = p
    found = []
    for a in range(1, top + 1):
        divisors = [1]
        n = a
        while n > 1:
            p, power = smallest[n], 0
            while n % p == 0:
                n //= p
                power += 2
            divisors = [d * p ** i for d in divisors for i in range(power + 1)]
        square = a * a
        found.extend((a, a + u, a + square // u) for u in divisors
                     if u <= a and a + square // u <= max_c)
    found.sort()
    return found


# --- tangle trees: ("rational", Fraction), ("sum", l, r),
#     ("pretzel", (p, q, r)), ("montesinos", (f, ...)), ("closure", t) ---


def spell(tree) -> str:
    """Canonical spelling: no spaces, parentheses only where needed."""
    if tree[0] == "closure":
        return f"C({_spell_tangle(tree[1])})"
    return _spell_tangle(tree)


def _spell_tangle(tree) -> str:
    if tree[0] == "sum":
        return f"{_spell_tangle(tree[1])}+{_spell_term(tree[2])}"
    return _spell_term(tree)


def _spell_term(tree) -> str:
    kind = tree[0]
    if kind == "rational":
        return str(tree[1])
    if kind == "pretzel":
        return "P({},{},{})".format(*tree[1])
    if kind == "montesinos":
        return "M(" + ",".join(str(f) for f in tree[1]) + ")"
    return f"({_spell_tangle(tree)})"


def tree_json(tree) -> dict:
    kind = tree[0]
    if kind == "rational":
        return {"kind": "rational", "slope": str(tree[1])}
    if kind == "sum":
        return {"kind": "sum", "left": tree_json(tree[1]), "right": tree_json(tree[2])}
    if kind == "pretzel":
        return {"kind": "pretzel", "entries": list(tree[1])}
    if kind == "montesinos":
        return {"kind": "montesinos", "slopes": [str(f) for f in tree[1]]}
    return {"kind": "closure", "inner": tree_json(tree[1])}


def _leaves(tree) -> list[Fraction] | None:
    if tree[0] == "rational":
        return [tree[1]]
    if tree[0] == "sum":
        left, right = _leaves(tree[1]), _leaves(tree[2])
        return None if left is None or right is None else left + right
    return None


def large_algebraic(closure) -> bool:
    """C(T1+T2) with each half a sum of at least two slopes 1/m, |m| >= 2."""
    inner = closure[1]
    if inner[0] != "sum":
        return False
    for half in inner[1:]:
        leaves = _leaves(half)
        if leaves is None or len(leaves) < 2:
            return False
        if not all(abs(f.numerator) == 1 and f.denominator >= 2 for f in leaves):
            return False
    return True


# --- surface rows, as (types, slopes, structural, accepted, arcs, sheets, chi, genus) ---


def check_rows(rows, canon, complete: bool) -> Counter:
    """Rows of a scan of the canonical triple; accepted only for survivors."""
    if complete:
        expect(tuple(r[0] for r in rows) == TYPES, "scan rows are not AAA..BBB")
    accepted = 0
    for types, slopes, structural, ok, arcs, sheets, chi, genus in rows:
        expected = tuple(m if t == "A" else m + 1 for t, m in zip(types, canon))
        expect(tuple(slopes) == expected, f"{types} slopes {slopes} for {canon}")
        if structural:
            x, y, z = slopes
            expect(sum(1 for s in slopes if s < 0) == 1, f"slopes {slopes} signs")
            expect(y * z + x * z + x * y == 0, f"slopes {slopes} reciprocal sum")
            expect(all(h * abs(s) == arcs for h, s in zip(sheets, slopes)),
                   f"sheets {sheets} for arcs {arcs}")
            expect(chi == sum(sheets) - arcs and genus * 2 == 2 - chi,
                   f"chi {chi} genus {genus}")
        else:
            expect(not ok, f"non-structural row {types} accepted")
        accepted += bool(ok)
    expect(bool(accepted) == (canon in SURVIVORS),
           f"{canon}: {accepted} accepted rows")
    structural = sum(1 for r in rows if r[2])
    # a scan has eight rows; a classify text report lists only the structural ones
    return Counter(rows=len(TYPES), structural=structural, accepted=accepted)


def _json_row(row) -> tuple:
    return (row["types"], row["slopes"], row["structural"],
            row["verdict"] == "accepted", row["arcs"], row["sheets"],
            row["chi"], row["genus"])


_TEXT_ROW = re.compile(
    r"types=([AB]{3}) slopes=\((-?\d+),(-?\d+),(-?\d+)\)"
    r"(?: arcs=(\d+) sheets=\((\d+),(\d+),(\d+)\) chi=(-?\d+) genus=(\d+))?"
    r" verdict=(accepted|rejected)")


def _text_row(line: str) -> tuple:
    m = _TEXT_ROW.match(line.strip())
    expect(m is not None, f"unreadable surface row {line!r}")
    g = m.groups()
    structural = g[4] is not None
    num = int if structural else (lambda _: None)
    return (g[0], [int(s) for s in g[1:4]], structural, g[10] == "accepted",
            num(g[4]), [int(s) for s in g[5:8]] if structural else None,
            num(g[8]), num(g[9]))


def _csv_row(cells: list[str]) -> tuple:
    structural = cells[10] == "true"
    num = int if structural else (lambda _: None)
    return (cells[0], [int(s) for s in cells[1:4]], structural,
            cells[11] == "accepted", num(cells[4]),
            [int(s) for s in cells[5:8]] if structural else None,
            num(cells[8]), num(cells[9]))


# --- checkers ---


def check_error(code: int, out: str, err: str, fragment: str = "") -> Counter:
    """A domain error: exit 2, nothing on stdout, the fragment on stderr."""
    expect(code == 2, f"exit {code}, expected 2")
    expect(out == "" and err.startswith("error:") and fragment in err,
           f"error output {err!r}, expected {fragment!r}")
    return Counter()


def _ok(code: int, err: str) -> None:
    expect(code == 0, f"exit {code}: {err.strip()!r}")


def check_range_text(low: int, high: int):
    expected = "".join(_range_line(t) + "\n" for t in knot_triples(low, high))
    reports = knot_count(low, high)
    expect(expected.count("\n") == reports, "harness enumeration disagrees with parity count")

    def check(code, out, err):
        _ok(code, err)
        expect(out == expected, "range report lines differ from the oracle")
        return Counter(reports=reports, visited=box_triples(low, high))
    return check


def _range_line(triple) -> str:
    facts = pretzel_facts(triple)
    line = "P({},{},{})  ".format(*triple)
    line += "r=3 exact" if facts["exact"] else "r in [1,2]"
    torus = facts["torus"]
    if torus == "yes":
        line += "  torus=yes"
    elif torus is not None:
        line += "  torus=({},{})".format(*torus)
    return line


def check_range_json(low: int, high: int):
    triples = knot_triples(low, high)
    expect(len(triples) == knot_count(low, high), "harness enumeration disagrees with parity count")

    def check(code, out, err):
        _ok(code, err)
        stats = Counter(visited=box_triples(low, high))
        count = 0
        for count, report in enumerate(_json_array(out), 1):
            expect(count <= len(triples), "more reports than knot triples")
            stats += _check_report_json(report, triples[count - 1], "pretzel")
        expect(count == len(triples), f"{count} reports, expected {len(triples)}")
        return stats
    return check


def _json_array(text: str):
    """Elements of a top-level JSON array, decoded one at a time."""
    decoder = json.JSONDecoder()
    pos = text.index("[") + 1
    while True:
        while text[pos] in " \n\r\t,":
            pos += 1
        if text[pos] == "]":
            expect(text[pos + 1:].strip() == "", "trailing output after the array")
            return
        item, pos = decoder.raw_decode(text, pos)
        yield item


def _check_report_json(obj: dict, triple, kind: str) -> Counter:
    facts = pretzel_facts(triple)
    expect(obj["kind"] == kind and obj["is_knot"] is True, f"kind of {triple}")
    torus = obj["torus"]
    seen = {key: obj[key] for key in facts if key != "torus"}
    seen["torus"] = None if torus is None else (torus["params"] or "yes")
    expect(seen == facts, f"report for {triple}: {seen} != {facts}")
    stats = Counter(reports=1)
    if facts["bridge_upper"] == 2:
        expect(obj["surfaces"] is None, f"{triple} has a degenerate scan")
        return stats
    rows = [_json_row(r) for r in obj["surfaces"]]
    return stats + check_rows(rows, tuple(facts["normalized"]), complete=True)


def check_classify_pretzel(triple, kind: str, printed: str, text: str, as_json: bool):
    """A text report echoes the printed input, a JSON one the raw text."""
    k = components(triple)
    if 0 in triple:
        return lambda code, out, err: check_error(code, out, err, "zero")
    if k > 1:
        return lambda code, out, err: check_error(code, out, err, f"{k} components")

    def check(code, out, err):
        _ok(code, err)
        if as_json:
            obj = json.loads(out)
            expect(obj["input"] == text, f"input {obj['input']!r}")
            return _check_report_json(obj, triple, kind)
        return _check_report_text(out, triple, kind, printed)
    return check


def _check_report_text(out: str, triple, kind: str, printed: str) -> Counter:
    lines = out.splitlines()
    head = dict(line.split(": ", 1) for line in lines
                if ": " in line and not line.startswith(" "))
    facts = pretzel_facts(triple)
    expect(head["input"] == printed and head["kind"] == kind and head["knot"] == "yes",
           f"report head {head}")
    bounds = {k: int(v) for k, v in (f.split("=") for f in head["bounds"].split())}
    torus = head.get("torus")
    if torus is not None:
        torus = "yes" if torus.startswith("yes") else [int(v) for v in torus.strip("()").split(",")]
    seen = {
        "normalized": [int(v) for v in head["normalized"][2:-1].split(",")],
        "mirror": head["mirror"] == "yes",
        "bridge_upper": int(head["bridge bound"]),
        "torus": torus,
        "lower": bounds["lower"],
        "upper": bounds["upper"],
        "exact": bounds.get("exact"),
    }
    expect(seen == facts, f"report for {triple}: {seen} != {facts}")
    surfaces = [line for line in lines if line.startswith("surfaces")]
    expect(len(surfaces) == 1, "one surfaces line")
    stats = Counter(reports=1)
    if facts["bridge_upper"] == 2:
        expect(surfaces[0].startswith("surfaces: not computed"), f"{triple} has a degenerate scan")
        return stats
    rows = [_text_row(line) for line in lines if line.startswith("  types=")]
    expect(all(r[2] for r in rows), "classify lists only structural rows")
    expect(bool(rows) == (surfaces[0] == "surfaces:"), "surfaces header")
    return stats + check_rows(rows, tuple(facts["normalized"]), complete=False)


def check_classify_closure(tree, text: str, as_json: bool):
    if tree[1][0] != "sum":
        return check_error
    large = large_algebraic(tree)
    printed = spell(tree)

    def check(code, out, err):
        _ok(code, err)
        if as_json:
            obj = json.loads(out)
            seen = (obj["input"], obj["kind"], obj["large_algebraic"],
                    obj["lower"], obj["upper"], obj["exact"], obj["surfaces"])
            expect(seen == (text, "closure", large, 1, 3 if large else 4, None, None),
                   f"closure report {seen}")
        else:
            lines = out.splitlines()
            expect(lines[:3] == [f"input: {printed}", "kind: closure",
                                 f"large algebraic: {'yes' if large else 'no'}"]
                   and lines[3] == f"bounds: lower=1 upper={3 if large else 4}",
                   f"closure report {lines[:4]}")
        return Counter(reports=1)
    return check


def check_surfaces(triple, text: str, fmt: str):
    if min(abs(e) for e in triple) < 2:
        return check_error
    k = components(triple)
    if k > 1:
        return lambda code, out, err: check_error(code, out, err, f"{k} components")
    canon, mirror = canonical(triple)

    def check(code, out, err):
        _ok(code, err)
        if fmt == "json":
            obj = json.loads(out)
            expect((obj["input"], obj["normalized"], obj["mirror"])
                   == (text, list(canon), mirror), "surfaces head")
            rows = [_json_row(r) for r in obj["rows"]]
        elif fmt == "csv":
            table = list(csv.reader(out.splitlines()))
            expect(table[0][:2] == ["types", "slope_1"] and len(table[0]) == 14, "csv header")
            rows = [_csv_row(cells) for cells in table[1:]]
        else:
            lines = out.splitlines()
            expect(lines[:2] == [f"input: {text}", "normalized: P({},{},{})".format(*canon)],
                   "surfaces head")
            rows = [_text_row(line) for line in lines[2:]]
        return check_rows(rows, canon, complete=True)
    return check


def check_trace(triple, as_json: bool):
    if 0 in triple:
        return lambda code, out, err: check_error(code, out, err, "zero")
    crossings = sum(abs(t) for t in triple)

    def check(code, out, err):
        _ok(code, err)
        if as_json:
            obj = json.loads(out)
            expect(obj["twists"] == list(triple), "trace twists")
            seen = (obj["crossings"], obj["components"])
            pd = obj["pd"]
            expect(all(len(c) == 4 for c in pd), "pd crossings have four arcs")
        else:
            lines = out.splitlines()
            expect(len(lines) == 3 and lines[0].startswith("crossings: ")
                   and lines[1].startswith("components: ") and lines[2].startswith("pd: "),
                   "trace lines")
            seen = (int(lines[0][11:]), int(lines[1][12:]))
            pd = _compact_pd(lines[2][4:])
        expect(seen == (crossings, components(triple)),
               f"trace {triple}: {seen} != {(crossings, components(triple))}")
        _check_arcs(pd, crossings)
        return Counter()
    return check


_CROSSING = re.compile(r"\[(\d+),(\d+),(\d+),(\d+)\]")


def _compact_pd(text: str):
    """Crossings of a compact pd list, read lazily to keep memory flat."""
    expect(text.startswith("[[") and text.endswith("]]"), "pd list")
    end = 0
    for m in _CROSSING.finditer(text, 1):
        expect(m.start() == end + 1, "pd list separators")
        end = m.end()
        yield map(int, m.groups())
    expect(end == len(text) - 1, "pd list end")


def _check_arcs(pd, crossings: int) -> None:
    """n crossings use the arc labels 1..2n, each exactly twice."""
    uses = bytearray(2 * crossings + 1)
    seen = 0
    for crossing in pd:
        seen += 1
        for label in crossing:
            expect(0 < label <= 2 * crossings and uses[label] < 2, f"arc label {label}")
            uses[label] += 1
    expect(seen == crossings, f"{seen} crossings in pd, expected {crossings}")
    expect(uses.count(2) == 2 * crossings, "every arc label is used twice")


def check_lemma(solutions, as_json: bool):
    """The solutions of the lemma, in order, each with a valid (k, l, d)."""
    def check(code, out, err):
        _ok(code, err)
        if as_json:
            rows = ((s["a"], s["b"], s["c"], s["k"], s["l"], s["d"]) for s in json.loads(out))
        else:
            rows = map(_lemma_line, out.splitlines())
        count = 0
        # solutions first: zip then stops without consuming an extra row
        for count, (solution, row) in enumerate(zip(solutions, rows), 1):
            a, b, c, k, l, d = row
            expect((a, b, c) == solution, f"lemma line {count}: {row[:3]} != {solution}")
            expect(k < l <= 2 * k and gcd(k, l) == 1 and d >= 1
                   and (a, b, c) == (k * (l - k) * d, l * (l - k) * d, k * l * d),
                   f"parameters k={k} l={l} d={d} for {(a, b, c)}")
        expect(count == len(solutions) and next(rows, None) is None,
               f"lemma output length differs from {len(solutions)} solutions")
        return Counter(solutions=count)
    return check


def _lemma_line(line: str) -> tuple:
    abc, kld = line.split(" | ")
    return (*map(int, abc.split()), *(int(f.split("=")[1]) for f in kld.split()))


def check_parse(tree, text: str, as_json: bool):
    printed = spell(tree)
    expected = {"input": text, "printed": printed, "tree": tree_json(tree)}

    def check(code, out, err):
        _ok(code, err)
        if as_json:
            expect(json.loads(out) == expected, f"parse of {text!r}")
        else:
            expect(out == printed + "\n", f"parse of {text!r}: {out!r} != {printed!r}")
        return Counter()
    return check
