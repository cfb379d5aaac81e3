from itertools import combinations_with_replacement, permutations

import pytest

from pretzelrep import (
    DegenerateTangleError,
    InvalidParameterError,
    NotAKnotError,
    Pretzel,
    PretzelTriple,
    RepReport,
    TorusInfo,
    UnsupportedInputError,
    bridge_upper,
    parse_expr,
    representativity_bounds,
    tangle_string_bound,
    torus_pretzel,
)
from pretzelrep.linktrace import knot_components


def _bounds(text) -> RepReport:
    return representativity_bounds(parse_expr(text))


def test_bridge_upper():
    assert bridge_upper(PretzelTriple(-2, 3, 5)) == 3
    assert bridge_upper(PretzelTriple(-3, 5, 7)) == 3
    assert bridge_upper(PretzelTriple(1, 1, 1)) == 2
    assert bridge_upper(PretzelTriple(1, 3, 3)) == 2
    with pytest.raises(NotAKnotError):
        bridge_upper(PretzelTriple(2, 4, 6))
    with pytest.raises(DegenerateTangleError):
        bridge_upper(PretzelTriple(0, 3, 3))


def test_torus_pretzel_lookup():
    assert torus_pretzel(PretzelTriple(-2, 3, 3)) == TorusInfo((3, 4))
    assert torus_pretzel(PretzelTriple(2, -3, -3)) == TorusInfo((3, -4))
    assert torus_pretzel(PretzelTriple(-2, 3, 5)) == TorusInfo((3, 5))
    assert torus_pretzel(PretzelTriple(2, -3, -5)) == TorusInfo((3, -5))
    assert torus_pretzel(PretzelTriple(1, 1, 1)) == TorusInfo(None)
    assert torus_pretzel(PretzelTriple(-1, -1, -1)) == TorusInfo(None)
    assert torus_pretzel(PretzelTriple(-3, 5, 5)) is None
    assert torus_pretzel(PretzelTriple(3, 5, 7)) is None


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


def test_unsupported_inputs():
    for text in ["1/2", "M(2/5,1/2,1/3)", "M(1/2,1/3)", "1/2+1/3"]:
        with pytest.raises(UnsupportedInputError):
            _bounds(text)
    with pytest.raises(UnsupportedInputError):
        _bounds("C(1/2)")


def test_link_input_rejected():
    with pytest.raises(NotAKnotError) as info:
        _bounds("P(2,4,6)")
    assert "3 components" in str(info.value)


def test_permutation_gives_identical_report():
    for entries in [(-2, 3, 5), (-3, 5, 5), (1, 3, 5)]:
        reference = representativity_bounds(Pretzel(PretzelTriple(*entries)))
        for perm in permutations(entries):
            report = representativity_bounds(Pretzel(PretzelTriple(*perm)))
            assert report == reference


def test_mirror_preserves_bounds():
    values = [v for v in range(-6, 7) if v != 0]
    for entries in combinations_with_replacement(values, 3):
        if knot_components(entries) != 1:
            continue
        triple = PretzelTriple(*entries)
        report = representativity_bounds(Pretzel(triple))
        mirror = representativity_bounds(Pretzel(triple.mirrored()))
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
        report = representativity_bounds(Pretzel(PretzelTriple(*entries)))
        assert _replay(report) == (report.lower, report.upper, report.exact)
    for text in ["C((1/3+1/5)+(1/2+1/7))", "C(1/3+(1/2+1/5))"]:
        report = _bounds(text)
        assert _replay(report) == (report.lower, report.upper, report.exact)
