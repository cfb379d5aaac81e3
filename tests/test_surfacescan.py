from collections import Counter
from fractions import Fraction
from itertools import combinations_with_replacement, product
from math import gcd

import pytest

from pretzelrep import (
    DegenerateTangleError,
    InvariantError,
    NotAKnotError,
    PretzelRepError,
    SurfacePattern,
    Verdict,
    enumerate_patterns,
    euler_characteristic,
    canonical_entries,
    genus,
    is_knot,
    parametrize,
    pretzel_knot,
    scan_assignments,
    scan_fields,
    scannable_knot,
    torus_pretzel,
)
from pretzelrep.linktrace import knot_components
from pretzelrep.surfacescan import TYPINGS, _disk_verdict


def _single_pattern(p, q, r):
    patterns = enumerate_patterns((p, q, r))
    assert len(patterns) == 1
    return patterns[0]


def test_pattern_for_233():
    pattern = _single_pattern(-2, 3, 3)
    assert pattern.tangle_types == ("A", "B", "B")
    assert pattern.boundary_slopes == (-2, 4, 4)
    assert pattern.arcs == 4
    assert pattern.sheets == (2, 1, 1)
    assert pattern.longitudes == 8
    assert pattern.chi == 0
    assert pattern.genus_val == 1
    assert pattern.verdict == Verdict(True, None, "Type (1)")


def test_pattern_for_235():
    pattern = _single_pattern(-2, 3, 5)
    assert pattern.tangle_types == ("A", "A", "B")
    assert pattern.boundary_slopes == (-2, 3, 6)
    assert pattern.arcs == 6
    assert pattern.sheets == (3, 2, 1)
    assert pattern.longitudes == 12
    assert pattern.chi == 0
    assert pattern.genus_val == 1
    assert pattern.verdict == Verdict(True, None, "Type (2)")


def test_no_pattern_for_237():
    assert enumerate_patterns((-2, 3, 7)) == []


def test_twin_family_rejected_above_d_two():
    # (-3,5,5) is the twin-family triple with d = 3
    pattern = _single_pattern(-3, 5, 5)
    assert pattern.boundary_slopes == (-3, 6, 6)
    assert pattern.sheets == (2, 1, 1)
    assert pattern.chi == -2
    assert pattern.genus_val == 2
    assert pattern.verdict == Verdict(
        False, "d=2 required; compressing disk exists", "Type (1)"
    )


def test_consecutive_family_rejected_above_k_two():
    # (-3,4,11) has parameters k = 3, d = 1
    pattern = _single_pattern(-3, 4, 11)
    assert pattern.boundary_slopes == (-3, 4, 12)
    assert pattern.sheets == (4, 3, 1)
    assert pattern.verdict == Verdict(
        False, "k=2 required; compressing disk exists", "Type (2)"
    )
    # (-4,5,19) has k = 4, d = 1
    pattern = _single_pattern(-4, 5, 19)
    assert pattern.chi == -10
    assert pattern.genus_val == 6
    assert pattern.verdict.reason == "k=2 required; compressing disk exists"


def test_consecutive_family_rejected_above_d_one():
    # (-6,9,17) has parameters k = 2, d = 3
    pattern = _single_pattern(-6, 9, 17)
    assert pattern.boundary_slopes == (-6, 9, 18)
    assert pattern.sheets == (3, 2, 1)
    assert pattern.verdict == Verdict(
        False, "d=1 required; compressing disk exists", "Type (2)"
    )


def test_mirror_and_permutation_give_same_patterns():
    reference = enumerate_patterns((-2, 3, 3))
    assert enumerate_patterns((2, -3, -3)) == reference
    assert enumerate_patterns((3, -2, 3)) == reference


def test_scan_rows_for_233():
    rows = scan_assignments((-2, 3, 3))
    assert len(rows) == 8
    assert [r.tangle_types for r in rows] == [
        ("A", "A", "A"), ("A", "A", "B"), ("A", "B", "A"), ("A", "B", "B"),
        ("B", "A", "A"), ("B", "A", "B"), ("B", "B", "A"), ("B", "B", "B"),
    ]
    accepted = [r for r in rows if r.verdict.accepted]
    assert len(accepted) == 1 and accepted[0].tangle_types == ("A", "B", "B")
    for row in rows:
        if not row.structural:
            assert row.verdict.reason is not None
            assert row.arcs is None and row.sheets is None
            with pytest.raises(InvariantError):
                genus(row)


def test_scan_structural_failure_reasons():
    # slopes (-2,3,5) miss the reciprocal sum
    rows = {r.tangle_types: r for r in scan_assignments((-2, 3, 5))}
    assert rows[("A", "A", "A")].verdict.reason == "boundary slopes fail 1/p' + 1/q' + 1/r' = 0"
    # all-positive and doubly-negative sign patterns
    rows = {r.tangle_types: r for r in scan_assignments((3, 5, 7))}
    assert rows[("A", "A", "A")].verdict.reason == "requires exactly one negative boundary slope"
    # (-6,9,15) with types ABA reaches slopes (-6,10,15) where
    # lcm(6,10,15) = 30 > 15
    rows = {r.tangle_types: r for r in scan_assignments((-6, 9, 15))}
    assert rows[("A", "B", "A")].verdict.reason == "common denominator exceeds the largest boundary slope"
    # (-3,3,4) with types BBA reaches slopes (-2,4,4) where the first
    # region is single-disk but carries 2 sheets
    rows = {r.tangle_types: r for r in scan_assignments((-3, 3, 4))}
    assert rows[("B", "B", "A")].verdict.reason == "single-disk region must meet the surface in one sheet"
    # (-3,5,6) with types ABA reaches slopes (-3,6,6) where the last
    # region is parallel-disk but carries a single sheet
    rows = {r.tangle_types: r for r in scan_assignments((-3, 5, 6))}
    assert rows[("A", "B", "A")].verdict.reason == "parallel-disk region needs at least two sheets"


def test_scan_rejects_bad_triples():
    with pytest.raises(DegenerateTangleError):
        scan_assignments((1, 3, 3))
    with pytest.raises(DegenerateTangleError):
        scan_assignments((0, 3, 3))
    with pytest.raises(NotAKnotError):
        enumerate_patterns((2, 4, 6))


def test_euler_characteristic_recomputes():
    pattern = _single_pattern(-3, 5, 5)
    assert euler_characteristic(pattern) == pattern.chi == -2
    assert genus(pattern) == 2


def test_euler_characteristic_rejects_inconsistent_counts():
    pattern = _single_pattern(-2, 3, 3)
    broken = SurfacePattern(pattern.tangle_types, pattern.boundary_slopes,
                            pattern.arcs, (3, 1, 1), pattern.longitudes,
                            pattern.chi, pattern.genus_val, pattern.verdict)
    with pytest.raises(InvariantError):
        euler_characteristic(broken)
    broken = SurfacePattern(pattern.tangle_types, pattern.boundary_slopes,
                            pattern.arcs, pattern.sheets, 6,
                            pattern.chi, pattern.genus_val, pattern.verdict)
    with pytest.raises(InvariantError):
        euler_characteristic(broken)


def test_genus_of_synthetic_sphere():
    # consistent counts with chi = 2: slopes (-1,2,2), N = 2, sheets (2,1,1)
    verdict = Verdict(False, "synthetic", None)
    sphere = SurfacePattern(("A", "B", "B"), (-1, 2, 2), 2, (2, 1, 1), 4, 2, 0, verdict)
    assert euler_characteristic(sphere) == 2
    assert genus(sphere) == 0


def test_genus_rejects_odd_characteristic():
    # consistent counts but chi = 3 - 2 = 1
    verdict = Verdict(False, "synthetic", None)
    odd = SurfacePattern(("B", "B", "B"), (-2, 2, 2), 2, (1, 1, 1), 4, 1, 0, verdict)
    with pytest.raises(InvariantError):
        genus(odd)
    # consistent counts but chi = 6 - 2 = 4, even and above a sphere's 2
    large = SurfacePattern(("B", "B", "B"), (-1, 1, 1), 2, (2, 2, 2), 4, 4, 0,
                           Verdict(True, None, "Type (1)"))
    with pytest.raises(InvariantError, match="^Euler characteristic 4 exceeds 2$"):
        genus(large)


# named for final_filter, the public wrapper of _disk_verdict that added
# only a rebuild check no scan row can fail
def test_final_filter_rejects_row_outside_the_consecutive_family():
    # 1/6 = 1/10 + 1/15 solves the lemma with (k, l) = (3, 5), but no scan
    # row has it: the denominator filter forces l = k + 1
    with pytest.raises(InvariantError,
                       match=r"^\(6,10,15\) is not a solution with l = k \+ 1, c = kld$"):
        _disk_verdict((-6, 10, 15))
    # slopes with no negative entry
    with pytest.raises(InvariantError,
                       match=r"^slopes \(3, 5, 7\) have no sign pattern \(-,\+,\+\)$"):
        _disk_verdict((3, 5, 7))


_STRUCTURAL_REASONS = {
    "requires exactly one negative boundary slope",
    "boundary slopes fail 1/p' + 1/q' + 1/r' = 0",
    "common denominator exceeds the largest boundary slope",
    "single-disk region must meet the surface in one sheet",
    "parallel-disk region needs at least two sheets",
}


def test_patterns_reconstruct_their_triple():
    values = [v for v in range(-12, 13) if abs(v) >= 2]
    for entries in combinations_with_replacement(values, 3):
        if knot_components(entries) != 1:
            continue
        triple = tuple(entries)
        canonical, _ = canonical_entries(triple)
        rows = scan_assignments(triple)
        for row in rows:
            if row.structural:
                # a type A region has slope m, a type B region slope m + 1
                slopes = row.boundary_slopes
                assert tuple(s - (ty == "B") for ty, s in zip(row.tangle_types, slopes)) == canonical
                assert _disk_verdict(row.boundary_slopes) == row.verdict
                assert euler_characteristic(row) == row.chi
            else:
                assert (row.arcs, row.sheets, row.longitudes, row.chi,
                        row.genus_val) == (None, None, None, None, None)
                assert not row.verdict.accepted and row.verdict.family is None
                assert row.verdict.reason in _STRUCTURAL_REASONS
        patterns = enumerate_patterns(triple)
        assert patterns == [row for row in rows if row.structural]
        for pattern in patterns:
            rebuilt = tuple(
                s if ty == "A" else s - 1
                for ty, s in zip(pattern.tangle_types, pattern.boundary_slopes)
            )
            assert rebuilt == canonical
            # closed form for the Euler characteristic, checked exactly
            a = -min(pattern.boundary_slopes)
            assert pattern.chi == pattern.arcs * (Fraction(2, a) - 1)
            assert pattern.chi % 2 == 0
            assert genus(pattern) == pattern.genus_val


SIGN_PATTERN = Verdict(False, "requires exactly one negative boundary slope")
RECIPROCAL_SUM = Verdict(False, "boundary slopes fail 1/p' + 1/q' + 1/r' = 0")


def scanned_fields(canonical):
    """scan_fields(canonical) as read off the rows of scan_assignments."""
    rows = scan_assignments(canonical)
    values = []
    for row in rows:
        values += row.boundary_slopes
        if row.structural:
            values += (row.arcs, *row.sheets, row.chi, row.genus_val)
    return tuple((row.tangle_types, row.verdict, row.structural) for row in rows), tuple(values)


# the test_existence_verdicts_* tests, named for the function that
# scan_fields replaced, check the shapes and values of scan_fields,
# screened or scanned, against the rows of scan_assignments
@pytest.mark.parametrize("entries,canonical,structural", [
    ((3, 5, 7), (3, 5, 7), None),            # no negative entry
    ((-3, 5, 7), (-3, 5, 7), ()),            # one
    ((-3, -5, 7), (-5, -3, 7), None),        # two, kept unmirrored
    ((-3, -5, -7), (3, 5, 7), None),         # three, mirrored to none
    ((-2, 3, 3), (-2, 3, 3), (("A", "B", "B"),)),
    ((3, -2, 5), (-2, 3, 5), (("A", "A", "B"),)),
    ((-3, 5, 5), (-3, 5, 5), (("A", "B", "B"),)),  # structural, then rejected
], ids=str)
def test_existence_verdicts_by_sign_class(entries, canonical, structural):
    assert pretzel_knot(tuple(entries))[0] == canonical
    shapes, values = scan_fields(canonical)
    assert (shapes, values) == scanned_fields(canonical)
    if structural is None:  # every slope triple fails the sign pattern
        assert shapes == tuple((types, SIGN_PATTERN, False) for types in TYPINGS)
    else:
        assert tuple(types for types, _, passed in shapes if passed) == structural
        assert {verdict for _, verdict, passed in shapes if not passed} == {RECIPROCAL_SUM}


def test_existence_verdicts_reject_unit_twists():
    # a knot with a unit twist has no scan: an answer, not an error
    for entries in ((-1, 3, 5), (1, 1, 1), (1, 3, 5)):
        assert scan_fields(pretzel_knot(entries)[0]) == (None, ()), entries
    # the validating entry points refuse it, with one message
    message = "twist parameters must have absolute value >= 2, got (1, 3, 5)"
    for check in (scannable_knot, scan_assignments):
        with pytest.raises(DegenerateTangleError) as refused:
            check((1, 3, 5))
        assert str(refused.value) == message, check


def test_existence_verdicts_match_the_scan():
    values = [v for v in range(-25, 26) if abs(v) >= 2]
    checked = structural = 0
    for entries in combinations_with_replacement(values, 3):
        if knot_components(entries) != 1:
            continue
        canonical, _ = pretzel_knot(tuple(entries))
        rows = scan_assignments(canonical)
        assert [row.tangle_types for row in rows] == list(TYPINGS)
        assert scan_fields(canonical) == scanned_fields(canonical), entries
        checked += 1
        for row in rows:
            if row.structural:
                # every structural row is in the consecutive family l = k + 1,
                # and the twin family is its case k = 1
                a = -min(row.boundary_slopes)
                b = sorted(row.boundary_slopes)[1]
                k, l = a // gcd(a, b), b // gcd(a, b)
                assert l == k + 1, entries
                assert (row.verdict.family == "Type (1)") is (k == 1), entries
                structural += 1
    assert checked == 9800
    assert structural == 32


def elimination_table(bound):
    """(knots, unit twists, distinct shapes, rows per verdict) from
    scan_fields over every knot triple with entries in [-bound, bound];
    the rows are counted once per distinct shapes tuple, by verdict."""
    values = [v for v in range(-bound, bound + 1) if v]
    knots = [entries for entries in combinations_with_replacement(values, 3)
             if knot_components(entries) == 1]
    by_shapes = Counter(scan_fields(pretzel_knot(entries)[0])[0] for entries in knots)
    unit_twists = by_shapes.pop(None)
    verdicts = Counter()
    for shapes, count in by_shapes.items():
        for _, verdict, _ in shapes:
            verdicts[verdict] += count
    return len(knots), unit_twists, len(by_shapes), verdicts


def test_elimination_table_from_the_scan():
    knots, unit_twists, distinct, verdicts = elimination_table(25)
    assert (knots, unit_twists, distinct) == (11700, 1900, 18)
    assert verdicts == {
        SIGN_PATTERN: 39104,
        RECIPROCAL_SUM: 39162,
        Verdict(False, "single-disk region must meet the surface in one sheet"): 84,
        Verdict(False, "parallel-disk region needs at least two sheets"): 10,
        Verdict(False, "common denominator exceeds the largest boundary slope"): 8,
        Verdict(False, "d=2 required; compressing disk exists", "Type (1)"): 22,
        Verdict(True, None, "Type (1)"): 2,
        Verdict(False, "d=1 required; compressing disk exists", "Type (2)"): 2,
        Verdict(False, "k=2 required; compressing disk exists", "Type (2)"): 4,
        Verdict(True, None, "Type (2)"): 2,
    }
    # every scanned knot has eight rows
    assert sum(verdicts.values()) == 8 * (knots - unit_twists) == 78400


def _knot_scans(bound):
    """scan_assignments of every knot triple with entries in [-bound, bound]."""
    values = [v for v in range(-bound, bound + 1) if abs(v) >= 2]
    return [scan_assignments(entries) for entries in combinations_with_replacement(values, 3)
            if knot_components(entries) == 1]


def test_scan_rows_share_at_most_ten_verdicts():
    # five existence verdicts and five family verdicts, each one object;
    # the rows are held, so no id is reused by a freed verdict
    rows = [row for scan in _knot_scans(25) for row in scan]
    assert len(rows) == 8 * 9800
    assert len({id(row.verdict) for row in rows}) <= 10


def test_structural_rows_match_the_closed_form():
    # each structural row is one (k, d) of the consecutive family l = k + 1
    scanned = {(row.tangle_types, row.boundary_slopes, row.sheets, row.verdict.accepted)
               for scan in _knot_scans(25) for row in scan if row.structural}
    closed = set()
    for k in range(1, 26):
        for d in range(1, 26 // (k * (k + 1)) + 1):
            a, b, c = parametrize(k, k + 1, d)
            types = ("A", "A" if k >= 2 else "B", "B")
            slopes = (-a, b, c)
            entries = [s - (ty == "B") for ty, s in zip(types, slopes)]
            if all(2 <= abs(m) <= 25 for m in entries) and sum(m % 2 == 0 for m in entries) <= 1:
                accepted = (k, d) in ((1, 2), (2, 1))
                closed.add((types, slopes, (k + 1, k, 1), accepted))
    assert scanned == closed
    assert len(closed) == 16
    assert sum(accepted for *_, accepted in closed) == 2


def _outcome(call, *args):
    """call(*args), or the type and message of its error."""
    try:
        return call(*args)
    except PretzelRepError as exc:
        return type(exc), str(exc)


def test_library_calls_take_plain_tuples():
    # every call that takes a (p, q, r) tuple also takes it as a list,
    # with the same result or the same error
    outcomes = Counter()
    for entries in product(range(-6, 7), repeat=3):
        triple = list(entries)
        for call in (pretzel_knot, scannable_knot, scan_assignments, enumerate_patterns,
                     is_knot, torus_pretzel):
            result = _outcome(call, entries)
            assert result == _outcome(call, triple), (call.__name__, entries)
            # an error is (type, message); pretzel_knot's pair starts with a triple
            error = isinstance(result, tuple) and isinstance(result[0], type)
            outcomes[call.__name__, result[0] if error else "ok"] += 1
    # the box reaches every check: zero twists, unit twists, links, knots
    assert {kind for _, kind in outcomes} == {"ok", DegenerateTangleError, NotAKnotError}
    assert outcomes["scan_assignments", "ok"] > 0
    # a list goes in, but the canonical triple is a plain tuple
    assert type(pretzel_knot([-2, 3, 5])[0]) is tuple


RECIPROCAL_SUM_ROWS = tuple((types, RECIPROCAL_SUM, False) for types in TYPINGS)


@pytest.mark.parametrize("entries,typing,reason", [
    ((-16, 23, 39), 7, "common denominator exceeds the largest boundary slope"),
    ((-21, 39, 39), 7, "single-disk region must meet the surface in one sheet"),
    ((-19, 37, 38), 2, "parallel-disk region needs at least two sheets"),
], ids=str)
def test_existence_verdicts_past_a_zero_reciprocal_sum(entries, typing, reason):
    # one typing clears the reciprocal sum and fails a later filter
    expected = list(RECIPROCAL_SUM_ROWS)
    expected[typing] = (TYPINGS[typing], Verdict(False, reason), False)
    canonical, _ = pretzel_knot(entries)
    shapes, values = scan_fields(canonical)
    assert shapes == tuple(expected)
    assert (shapes, values) == scanned_fields(canonical)
    assert scan_fields(canonical)[0] is shapes  # shared, not rebuilt


def test_existence_verdicts_match_the_scan_with_one_negative_entry():
    values = [v for v in range(-40, 41) if abs(v) >= 2]
    screened = fallback = 0
    for entries in combinations_with_replacement(values, 3):
        if (entries[0] > 0 or entries[1] < 0 or knot_components(entries) != 1
                or canonical_entries(entries)[0] != entries):
            continue
        canonical, _ = pretzel_knot(entries)
        shapes, fields = scan_fields(canonical)
        assert (shapes, fields) == scanned_fields(canonical), entries
        assert scan_fields(canonical)[0] is shapes, entries
        if shapes == RECIPROCAL_SUM_ROWS:
            screened += 1
        else:
            fallback += 1
    assert screened > 0 and fallback > 0
