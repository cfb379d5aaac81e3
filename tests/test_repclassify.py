import re
from itertools import combinations_with_replacement, permutations, product
from random import Random

import pytest

from conftest import random_tangle
from pretzelrep import (
    AppliedRule,
    Closure,
    DegenerateTangleError,
    InvalidParameterError,
    NotAKnotError,
    Pretzel,
    RepReport,
    TorusInfo,
    UnsupportedInputError,
    Sum,
    canonical_entries,
    is_large_algebraic,
    knot_report,
    parse_expr,
    pretzel_knot,
    representativity_bounds,
    tangle_string_bound,
    torus_pretzel,
)
from pretzelrep.linktrace import knot_components


# the citation of each pretzel rule, as the classifier states it
CITATIONS = {rule.name: rule.citation for text in ["P(1,1,1)", "P(-2,3,3)", "P(-3,5,5)"]
             for rule in representativity_bounds(parse_expr(text)).rules}


def _bounds(text) -> RepReport:
    return representativity_bounds(parse_expr(text))


def test_torus_pretzel_lookup():
    assert torus_pretzel((-2, 3, 3)) == TorusInfo((3, 4))
    assert torus_pretzel((2, -3, -3)) == TorusInfo((3, -4))
    assert torus_pretzel((-2, 3, 5)) == TorusInfo((3, 5))
    assert torus_pretzel((2, -3, -5)) == TorusInfo((3, -5))
    assert torus_pretzel((1, 1, 1)) == TorusInfo(None)
    assert torus_pretzel((-1, -1, -1)) == TorusInfo(None)
    assert torus_pretzel((-3, 5, 5)) is None
    assert torus_pretzel((3, 5, 7)) is None


def test_tangle_string_bound():
    assert tangle_string_bound(1) == 2
    assert tangle_string_bound(2) == 4
    assert tangle_string_bound(3) == 6
    with pytest.raises(InvalidParameterError):
        tangle_string_bound(0)


def test_exact_classification():
    for text, params in [("P(-2,3,3)", (3, 4)), ("P(-2,3,5)", (3, 5)),
                         ("P(2,-3,-5)", (3, -5)), ("P(3,3,-2)", (3, 4))]:
        report = _bounds(text)
        assert (report.lower, report.upper, report.exact) == (3, 3, 3)
        assert report.torus == TorusInfo(params)
        assert report.bridge_upper == 3


def test_excluded_classification():
    report = _bounds("P(-3,5,5)")
    assert (report.lower, report.upper, report.exact) == (1, 2, None)
    assert report.torus is None
    assert report.bridge_upper == 3
    names = [rule.name for rule in report.rules]
    assert names == ["bridge-number-bound", "representativity-at-most-two"]


def test_degenerate_classification():
    report = _bounds("P(1,1,1)")
    assert (report.lower, report.upper, report.exact) == (1, 2, None)
    assert report.torus == TorusInfo(None)
    assert report.bridge_upper == 2
    names = [rule.name for rule in report.rules]
    assert names == ["bridge-number-bound", "small-twist-reduction",
                     "torus-knot-identification"]
    for entries, bridge in [((-2, 3, 5), 3), ((-3, 5, 7), 3), ((1, 1, 1), 2), ((1, 3, 3), 2)]:
        assert representativity_bounds(Pretzel(tuple(entries))).bridge_upper == bridge
    with pytest.raises(NotAKnotError):
        representativity_bounds(Pretzel((2, 4, 6)))
    with pytest.raises(DegenerateTangleError):
        representativity_bounds(Pretzel((0, 3, 3)))


def test_montesinos_input():
    report = _bounds("M(-1/2,1/3,1/5)")
    assert report.exact == 3
    assert report.torus == TorusInfo((3, 5))


def test_large_algebraic_closure():
    report = _bounds("C((1/3+1/5)+(1/2+1/7))")
    assert (report.lower, report.upper, report.exact) == (1, 3, None)
    assert report.bridge_upper is None and report.torus is None
    (rule,) = report.rules
    assert rule.name == "large-algebraic-bound"
    assert rule.conditional is True


def test_plain_closure_gets_string_bound():
    report = _bounds("C(1/3+(1/2+1/5))")
    assert (report.lower, report.upper, report.exact) == (1, 4, None)
    (rule,) = report.rules
    assert rule.name == "tangle-string-bound"
    assert rule.conditional is True


def test_report_carries_the_large_algebraic_decision():
    # the closure goldens' inputs, then seeded random closures of a sum
    rng = Random(2009)
    closures = [parse_expr("C((1/3+1/5)+(1/2+1/7))"), parse_expr("C(1/3+(1/2+1/5))")]
    closures += [Closure(Sum(random_tangle(rng, 1), random_tangle(rng, 1))) for _ in range(300)]
    decided = {representativity_bounds(e).large_algebraic for e in closures}
    for expression in closures:
        assert (representativity_bounds(expression).large_algebraic
                == is_large_algebraic(expression)), expression
    assert decided == {True, False}
    for text in ["P(-2,3,5)", "P(1,1,1)", "P(2,-3,-3)", "P(3,5,7)", "M(1/3,1/5,1/7)"]:
        assert _bounds(text).large_algebraic is None, text
    values = [v for v in range(-9, 10) if v != 0]
    for entries in combinations_with_replacement(values, 3):
        if knot_components(entries) == 1:
            assert representativity_bounds(Pretzel(entries)).large_algebraic is None


_NO_RULE = ("no classification rule applies; expected P(p,q,r), M(1/p,1/q,1/r) "
            "or a top-level closure C(T1+T2)")
_NOT_PRETZEL = ("only Montesinos forms M(1/p,1/q,1/r) with three unit-numerator "
                "slopes classify as pretzels")
_NO_SPHERE = "closure of a single tangle carries no decomposing sphere; expected C(T1+T2)"


def test_unsupported_inputs():
    for text, message in [("1/2", _NO_RULE), ("M(2/5,1/2,1/3)", _NOT_PRETZEL),
                          ("M(1/2,1/3)", _NOT_PRETZEL), ("1/2+1/3", _NO_RULE)]:
        with pytest.raises(UnsupportedInputError, match=f"^{re.escape(message)}$"):
            _bounds(text)
    for text in ["C(1/2)", "C(P(-2,3,5))"]:
        with pytest.raises(UnsupportedInputError, match=f"^{re.escape(_NO_SPHERE)}$"):
            _bounds(text)


def test_knot_and_pretzel_form_share_one_report():
    # a validated knot and its pretzel form reach the same report object:
    # a torus triple, its mirror, a unit twist and an ordinary knot
    for triple in [(-2, 3, 5), (2, -3, -5), (1, 3, 5), (-3, 5, 7)]:
        assert knot_report(*pretzel_knot(triple)) is representativity_bounds(
            Pretzel(triple)), triple


def test_knot_report_is_the_full_classification():
    # the range text path's shortcut reaches the report object that
    # validating the triple does, for every order of each knot and its mirror
    for triple in product(range(-9, 10), repeat=3):
        try:
            pretzel_knot(triple)
        except (DegenerateTangleError, NotAKnotError):
            continue
        for entries in permutations(triple):
            for given in (entries, tuple(-e for e in entries)):
                assert knot_report(*canonical_entries(given)) is representativity_bounds(
                    Pretzel(given)), given


def test_link_input_rejected():
    with pytest.raises(NotAKnotError) as info:
        _bounds("P(2,4,6)")
    assert "3 components" in str(info.value)


def test_permutation_gives_identical_report():
    for entries in [(-2, 3, 5), (-3, 5, 5), (1, 3, 5)]:
        reference = representativity_bounds(Pretzel(tuple(entries)))
        for perm in permutations(entries):
            report = representativity_bounds(Pretzel(tuple(perm)))
            assert report == reference


def test_mirror_preserves_bounds():
    values = [v for v in range(-6, 7) if v != 0]
    for entries in combinations_with_replacement(values, 3):
        if knot_components(entries) != 1:
            continue
        triple = tuple(entries)
        report = representativity_bounds(Pretzel(triple))
        mirror = representativity_bounds(Pretzel(tuple(-e for e in entries)))
        assert (report.lower, report.upper, report.exact) == (
            mirror.lower, mirror.upper, mirror.exact)
        assert [r.name for r in report.rules] == [r.name for r in mirror.rules]


def _replay(report: RepReport):
    lower, upper, exact = 1, None, None
    for rule in report.rules:
        if rule.sets == "upper":
            upper = rule.value if upper is None else min(upper, rule.value)
        elif rule.sets == "exact":
            exact = rule.value
            lower = max(lower, rule.value)
            upper = rule.value if upper is None else min(upper, rule.value)
    return lower, upper, exact


def test_rules_replay_to_reported_bounds():
    values = [v for v in range(-5, 6) if v != 0]
    for entries in combinations_with_replacement(values, 3):
        if knot_components(entries) != 1:
            continue
        report = representativity_bounds(Pretzel(tuple(entries)))
        assert _replay(report) == (report.lower, report.upper, report.exact)
    for text in ["C((1/3+1/5)+(1/2+1/7))", "C(1/3+(1/2+1/5))"]:
        report = _bounds(text)
        assert _replay(report) == (report.lower, report.upper, report.exact)


def _per_call_report(entries) -> RepReport:
    # the report as each call used to build it
    canonical = canonical_entries(entries)[0]
    lower, upper, exact, bridge = 1, 2, None, 3
    if 1 in entries or -1 in entries:
        rule, bridge = ("small-twist-reduction", "upper", 2), 2
    elif canonical in {(-2, 3, 3), (-2, 3, 5)}:
        rule, lower, upper, exact = ("representativity-equals-three", "exact", 3), 3, 3, 3
    else:
        rule = ("representativity-at-most-two", "upper", 2)
    rules = [("bridge-number-bound", "upper", 3), rule]
    torus = torus_pretzel(tuple(entries))
    if torus is not None:
        rules.append(("torus-knot-identification", None, None))
    return RepReport(lower, upper, exact, tuple(AppliedRule(name, CITATIONS[name], sets, value)
                                                for name, sets, value in rules), torus, bridge)


def test_one_class_shares_one_report():
    for first, second in [((-3, 5, 5), (3, 5, 7)), ((-2, 3, 5), (5, -2, 3)),
                          ((2, -3, -3), (-3, 2, -3)), ((1, 1, 1), (-1, -1, -1)),
                          ((1, 3, 5), (-1, 4, 7))]:
        assert (representativity_bounds(Pretzel(first))
                is representativity_bounds(Pretzel(second))), (first, second)


def test_one_closure_kind_shares_one_report():
    for first, second in [("C((1/3+1/5)+(1/2+1/7))", "C((1/-2+1/9)+(1/4+1/3+1/5))"),
                          ("C(1/3+(1/2+1/5))", "C(P(1,2,3)+3)")]:
        assert _bounds(first) is _bounds(second), (first, second)


def test_reports_are_a_few_constants():
    values = [v for v in range(-9, 10) if v != 0]
    reports = {}
    for entries in combinations_with_replacement(values, 3):
        if knot_components(entries) != 1:
            continue
        report = representativity_bounds(Pretzel(entries))
        assert report == _per_call_report(entries), entries
        reports[id(report)] = report
    assert len(reports) == 7
