from fractions import Fraction
from itertools import combinations_with_replacement

import pytest

from pretzelrep import (
    DegenerateTangleError,
    InvariantError,
    NotAKnotError,
    PretzelTriple,
    SurfacePattern,
    Verdict,
    enumerate_patterns,
    euler_characteristic,
    final_filter,
    genus,
    normalize_pretzel,
    scan_assignments,
)
from pretzelrep.linktrace import knot_components


def _single_pattern(p, q, r):
    patterns = enumerate_patterns(PretzelTriple(p, q, r))
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
    assert enumerate_patterns(PretzelTriple(-2, 3, 7)) == []


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
    reference = enumerate_patterns(PretzelTriple(-2, 3, 3))
    assert enumerate_patterns(PretzelTriple(2, -3, -3)) == reference
    assert enumerate_patterns(PretzelTriple(3, -2, 3)) == reference


def test_scan_rows_for_233():
    rows = scan_assignments(PretzelTriple(-2, 3, 3))
    assert len(rows) == 8
    assert [r.tangle_types for r in rows] == [
        ("A", "A", "A"), ("A", "A", "B"), ("A", "B", "A"), ("A", "B", "B"),
        ("B", "A", "A"), ("B", "A", "B"), ("B", "B", "A"), ("B", "B", "B"),
    ]
    accepted = [r for r in rows if r.accepted]
    assert len(accepted) == 1 and accepted[0].tangle_types == ("A", "B", "B")
    for row in rows:
        if not row.structural:
            assert row.reason is not None
            assert row.arcs is None and row.sheets is None


def test_scan_structural_failure_reasons():
    # slopes (-2,3,5) miss the reciprocal sum
    rows = {r.tangle_types: r for r in scan_assignments(PretzelTriple(-2, 3, 5))}
    assert rows[("A", "A", "A")].reason == "boundary slopes fail 1/p' + 1/q' + 1/r' = 0"
    # all-positive and doubly-negative sign patterns
    rows = {r.tangle_types: r for r in scan_assignments(PretzelTriple(3, 5, 7))}
    assert rows[("A", "A", "A")].reason == "requires exactly one negative boundary slope"
    # (-6,9,15) with types ABA reaches slopes (-6,10,15) where
    # lcm(6,10,15) = 30 > 15
    rows = {r.tangle_types: r for r in scan_assignments(PretzelTriple(-6, 9, 15))}
    assert rows[("A", "B", "A")].reason == "common denominator exceeds the largest boundary slope"
    # (-3,3,4) with types BBA reaches slopes (-2,4,4) where the first
    # region is single-disk but carries 2 sheets
    rows = {r.tangle_types: r for r in scan_assignments(PretzelTriple(-3, 3, 4))}
    assert rows[("B", "B", "A")].reason == "single-disk region must meet the surface in one sheet"
    # (-3,5,6) with types ABA reaches slopes (-3,6,6) where the last
    # region is parallel-disk but carries a single sheet
    rows = {r.tangle_types: r for r in scan_assignments(PretzelTriple(-3, 5, 6))}
    assert rows[("A", "B", "A")].reason == "parallel-disk region needs at least two sheets"


def test_scan_rejects_bad_triples():
    with pytest.raises(DegenerateTangleError):
        scan_assignments(PretzelTriple(1, 3, 3))
    with pytest.raises(DegenerateTangleError):
        scan_assignments(PretzelTriple(0, 3, 3))
    with pytest.raises(NotAKnotError):
        enumerate_patterns(PretzelTriple(2, 4, 6))


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


def test_final_filter_rejects_mismatched_triple():
    pattern = _single_pattern(-2, 3, 3)
    with pytest.raises(InvariantError):
        final_filter(pattern, PretzelTriple(-2, 3, 5))


def test_patterns_reconstruct_their_triple():
    values = [v for v in range(-12, 13) if abs(v) >= 2]
    for entries in combinations_with_replacement(values, 3):
        if knot_components(entries) != 1:
            continue
        triple = PretzelTriple(*entries)
        canonical, _ = normalize_pretzel(triple)
        for pattern in enumerate_patterns(triple):
            rebuilt = tuple(
                s if ty == "A" else s - 1
                for ty, s in zip(pattern.tangle_types, pattern.boundary_slopes)
            )
            assert rebuilt == canonical.entries()
            # closed form for the Euler characteristic, checked exactly
            a = -min(pattern.boundary_slopes)
            assert pattern.chi == pattern.arcs * (Fraction(2, a) - 1)
            assert pattern.chi % 2 == 0
            assert genus(pattern) == pattern.genus_val
