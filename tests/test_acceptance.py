"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest -v -s tests/test_acceptance.py` to see the lines; the
test names carry the same numbering.
"""

import time
from fractions import Fraction
from itertools import combinations_with_replacement, product
from random import Random

from test_cli import CASES, run_cli

from pretzelrep import (
    Pretzel,
    SlopeCondition,
    TorusInfo,
    brute_force_solutions,
    canonical_entries,
    component_count,
    enumerate_patterns,
    enumerate_solutions,
    genus,
    is_knot,
    parse_expr,
    pretzel_diagram,
    print_expr,
    representativity_bounds,
    slope_condition,
    tangle_string_bound,
    torus_pretzel,
)
from pretzelrep.linktrace import knot_components
from test_slopelemma import _parameter_matches

SURVIVORS = {(-2, 3, 3), (-2, 3, 5)}


def _check(number, description, ok):
    line = f"{'PASS' if ok else 'FAIL'} criterion {number}: {description}"
    print(line)
    assert ok, line


def _canonical(entries):
    return canonical_entries(entries)[0]


def test_criterion_1_desk_scale_scan():
    start = time.perf_counter()
    values = [v for v in range(-50, 51) if abs(v) >= 2]
    accepted, exact = set(), set()
    for entries in combinations_with_replacement(values, 3):
        if knot_components(entries) != 1:
            continue
        triple = tuple(entries)
        if any(p.verdict.accepted for p in enumerate_patterns(triple)):
            accepted.add(_canonical(entries))
        if representativity_bounds(Pretzel(triple)).exact == 3:
            exact.add(_canonical(entries))
    elapsed = time.perf_counter() - start
    _check(1, f"entries in [-50,50]: surface scan accepts exactly "
              f"(-2,3,3) and (-2,3,5), classifier agrees, {elapsed:.2f}s < 10s",
           accepted == SURVIVORS and exact == SURVIVORS and elapsed < 10.0)


def test_criterion_2_survivor_patterns_exact():
    ok = True
    (p233,) = enumerate_patterns((-2, 3, 3))
    ok &= p233.tangle_types == ("A", "B", "B")
    ok &= p233.boundary_slopes == (-2, 4, 4)
    ok &= (p233.arcs, p233.sheets, p233.longitudes) == (4, (2, 1, 1), 8)
    ok &= (p233.chi, p233.genus_val) == (0, 1)
    ok &= p233.verdict.accepted and p233.verdict.family == "Type (1)"
    (p235,) = enumerate_patterns((-2, 3, 5))
    ok &= p235.tangle_types == ("A", "A", "B")
    ok &= p235.boundary_slopes == (-2, 3, 6)
    ok &= (p235.arcs, p235.sheets, p235.longitudes) == (6, (3, 2, 1), 12)
    ok &= (p235.chi, p235.genus_val) == (0, 1)
    ok &= p235.verdict.accepted and p235.verdict.family == "Type (2)"
    _check(2, "survivor patterns match the worked slope, sheet, arc and "
              "Euler characteristic values exactly", bool(ok))


def test_criterion_3_lemma_enumeration_vs_oracle():
    start = time.perf_counter()
    enumerated = enumerate_solutions(300)
    triples = [s[:3] for s in enumerated]
    ok = triples == sorted(triples)
    ok &= len(set(triples)) == len(triples)
    ok &= set(triples) == set(brute_force_solutions(300))
    for a, b, c in triples:
        if a >= 2 and len(_parameter_matches(a, b, c)) != 1:
            ok = False
            break
    elapsed = time.perf_counter() - start
    _check(3, f"parametrized enumeration to 300 equals the brute-force "
              f"oracle with unique parameters, {elapsed:.2f}s < 5s",
           bool(ok) and elapsed < 5.0)


def test_criterion_4_closed_form_euler_characteristic():
    ok = True
    values = [v for v in range(-20, 21) if abs(v) >= 2]
    for entries in combinations_with_replacement(values, 3):
        if knot_components(entries) != 1:
            continue
        for pattern in enumerate_patterns(tuple(entries)):
            a = -min(pattern.boundary_slopes)
            ok &= pattern.chi == pattern.arcs * (Fraction(2, a) - 1)
            ok &= genus(pattern) == (2 - pattern.chi) // 2
    _check(4, "chi = N(2/|p'| - 1) and genus = (2 - chi)/2 hold exactly "
              "for every pattern with entries up to 20", bool(ok))


def test_criterion_5_tracing_matches_parity():
    ok = True
    values = [v for v in range(-9, 10) if v != 0]
    for entries in product(values, repeat=3):
        evens = sum(1 for e in entries if e % 2 == 0)
        count = component_count(pretzel_diagram(entries))
        ok &= count == max(1, evens)
        ok &= is_knot(tuple(entries)) is (count == 1)
    ok &= is_knot((-2, 3, 3)) and is_knot((-2, 3, 5))
    _check(5, "diagram tracing over [-9,9] reproduces the parity "
              "component count rule", bool(ok))


def test_criterion_6_slope_condition_reference_values():
    ok = slope_condition(3, Fraction(3, 10)) == SlopeCondition.CONDITION_I
    ok &= slope_condition(3, Fraction(3, 8)) == SlopeCondition.CONDITION_II
    ok &= slope_condition(3, Fraction(1, 4)) == SlopeCondition.CONDITION_I
    _check(6, "3/10, 3/8 and 1/4 classify as I, II and I at a 3-twist "
              "region", bool(ok))


def test_criterion_7_torus_identification():
    ok = torus_pretzel((-2, 3, 3)) == TorusInfo((3, 4))
    ok &= torus_pretzel((2, -3, -3)) == TorusInfo((3, -4))
    ok &= torus_pretzel((-2, 3, 5)) == TorusInfo((3, 5))
    ok &= torus_pretzel((2, -3, -5)) == TorusInfo((3, -5))
    ok &= torus_pretzel((1, 1, 1)) == TorusInfo(None)
    ok &= torus_pretzel((-1, -1, -1)) == TorusInfo(None)
    torus_canonicals = {(-2, 3, 3), (-2, 3, 5), (1, 1, 1)}
    rng = Random(5113)
    checked = 0
    while checked < 200:
        entries = tuple(rng.choice([v for v in range(-30, 31) if v != 0])
                        for _ in range(3))
        if _canonical(entries) in torus_canonicals:
            continue
        ok &= torus_pretzel(tuple(entries)) is None
        checked += 1
    _check(7, "torus parameters for the special triples and None on 200 "
              "seeded random others", bool(ok))


def test_criterion_8_decomposition_bound_rules():
    ok = tangle_string_bound(1) == 2
    ok &= tangle_string_bound(2) == 4
    conway = representativity_bounds(parse_expr("C(1/3+(1/2+1/5))"))
    ok &= (conway.upper, conway.lower) == (4, 1)
    ok &= conway.rules[0].name == "tangle-string-bound"
    ok &= conway.rules[0].conditional
    large = representativity_bounds(parse_expr("C((1/3+1/5)+(1/2+1/7))"))
    ok &= (large.upper, large.lower) == (3, 1)
    ok &= large.rules[0].name == "large-algebraic-bound"
    ok &= large.rules[0].conditional
    _check(8, "string number 1 and 2 give bounds 2 and 4, closures get "
              "the conditional 4 or sharpened 3", bool(ok))


def test_criterion_9_round_trip_and_stable_output():
    from conftest import random_expr

    rng = Random(20114)
    ok = True
    for _ in range(1000):
        tree = random_expr(rng)
        ok &= parse_expr(print_expr(tree)) == tree
    for _, args in CASES:
        ok &= run_cli(args) == run_cli(args)
    _check(9, "1000 seeded expressions round-trip and every command "
              "produces byte-identical output across runs", bool(ok))
