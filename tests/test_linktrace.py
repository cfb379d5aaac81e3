from collections import Counter
from itertools import product
from random import Random

import pytest

from pretzelrep import (
    DegenerateTangleError,
    InvalidPDCodeError,
    NotAKnotError,
    PDCode,
    PretzelTriple,
    component_count,
    is_knot,
    pretzel_diagram,
    pretzel_knot,
)
from pretzelrep.linktrace import knot_components


def _arc_multiset(code):
    return Counter(arc for crossing in code.crossings for arc in crossing)


def _parity_components(entries):
    # classical count for 3-strand pretzels: one component per even
    # entry, or a single one when no entry is even
    evens = sum(1 for e in entries if e % 2 == 0)
    return max(1, evens)


def test_trefoil_diagram():
    code = pretzel_diagram([1, 1, 1])
    assert len(code.crossings) == 3
    assert all(count == 2 for count in _arc_multiset(code).values())
    assert component_count(code) == 1


def test_diagram_arc_counts():
    for twists in [[2], [3], [-2, 3], [1, 1, 1], [-2, 3, 3], [2, -3, 4, -5]]:
        code = pretzel_diagram(twists)
        assert len(code.crossings) == sum(abs(t) for t in twists)
        counts = _arc_multiset(code)
        assert len(counts) == 2 * sum(abs(t) for t in twists)
        assert all(count == 2 for count in counts.values())


def test_component_examples():
    assert component_count(pretzel_diagram([-2, 3, 3])) == 1
    assert component_count(pretzel_diagram([-2, 3, 5])) == 1
    assert component_count(pretzel_diagram([2, 2, 2])) == 3
    assert component_count(pretzel_diagram([2, 4, 5])) == 2


def test_is_knot_examples():
    assert is_knot(PretzelTriple(-2, 3, 3)) is True
    assert is_knot(PretzelTriple(3, 5, 7)) is True
    assert is_knot(PretzelTriple(2, 4, 5)) is False
    assert is_knot(PretzelTriple(2, 2, 2)) is False


def test_zero_twist_rejected():
    with pytest.raises(DegenerateTangleError):
        pretzel_diagram([2, 0, 3])
    with pytest.raises(DegenerateTangleError):
        pretzel_diagram([])
    with pytest.raises(DegenerateTangleError):
        is_knot(PretzelTriple(2, 0, 3))


def test_malformed_code_rejected():
    with pytest.raises(InvalidPDCodeError):
        component_count(PDCode(((1, 2, 3, 4),)))
    with pytest.raises(InvalidPDCodeError):
        component_count(PDCode(((1, 1, 2, 2), (1, 3, 3, 4))))


def test_tracing_matches_parity_window():
    # exhaustive over nonzero entries in [-5, 5]; the acceptance suite
    # widens this to [-9, 9]
    values = [v for v in range(-5, 6) if v != 0]
    for entries in product(values, repeat=3):
        count = component_count(pretzel_diagram(entries))
        assert count == _parity_components(entries), entries
        assert is_knot(PretzelTriple(*entries)) is (count == 1)


def test_fast_parity_helper_matches_tracing():
    values = [v for v in range(-4, 5) if v != 0]
    for entries in product(values, repeat=3):
        traced = component_count(pretzel_diagram(entries)) == 1
        assert (knot_components(entries) == 1) is traced


def test_reversal_and_mirror_preserve_components():
    rng = Random(97)
    for _ in range(60):
        twists = [rng.choice([v for v in range(-6, 7) if v != 0])
                  for _ in range(rng.randint(1, 5))]
        count = component_count(pretzel_diagram(twists))
        assert component_count(pretzel_diagram(twists[::-1])) == count
        assert component_count(pretzel_diagram([-t for t in twists])) == count


def test_not_a_knot_message_counts_traced_components():
    values = [v for v in range(-6, 7) if v != 0]
    for entries in product(values, repeat=3):
        traced = component_count(pretzel_diagram(entries))
        if traced == 1:
            assert pretzel_knot(PretzelTriple(*entries)).entries == entries
            continue
        with pytest.raises(NotAKnotError) as info:
            pretzel_knot(PretzelTriple(*entries))
        assert str(info.value) == f"not a knot ({traced} components)", entries
