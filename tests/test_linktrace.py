import tracemalloc
from collections import Counter
from itertools import permutations, product
from random import Random

import pytest

from pretzelrep import (
    DegenerateTangleError,
    InvalidParameterError,
    InvalidPDCodeError,
    NotAKnotError,
    canonical_entries,
    component_count,
    is_knot,
    pretzel_crossings,
    pretzel_diagram,
    pretzel_knot,
    scannable_knot,
    trace_components,
)
from pretzelrep.linktrace import MAX_CROSSINGS, diagram_twists, knot_components


def _arc_multiset(code):
    return Counter(arc for crossing in code for arc in crossing)


def _parity_components(entries):
    # classical count for 3-strand pretzels: one component per even
    # entry, or a single one when no entry is even
    evens = sum(1 for e in entries if e % 2 == 0)
    return max(1, evens)


def test_trefoil_diagram():
    code = pretzel_diagram([1, 1, 1])
    assert len(code) == 3
    assert all(count == 2 for count in _arc_multiset(code).values())
    assert component_count(code) == 1


def test_diagram_arc_counts():
    for twists in [[2], [3], [-2, 3], [1, 1, 1], [-2, 3, 3], [2, -3, 4, -5]]:
        code = pretzel_diagram(twists)
        assert len(code) == sum(abs(t) for t in twists)
        counts = _arc_multiset(code)
        assert len(counts) == 2 * sum(abs(t) for t in twists)
        assert all(count == 2 for count in counts.values())


def test_component_examples():
    assert component_count(pretzel_diagram([-2, 3, 3])) == 1
    assert component_count(pretzel_diagram([-2, 3, 5])) == 1
    assert component_count(pretzel_diagram([2, 2, 2])) == 3
    assert component_count(pretzel_diagram([2, 4, 5])) == 2


def test_is_knot_examples():
    assert is_knot((-2, 3, 3)) is True
    assert is_knot((3, 5, 7)) is True
    assert is_knot((2, 4, 5)) is False
    assert is_knot((2, 2, 2)) is False


def test_zero_twist_rejected():
    with pytest.raises(DegenerateTangleError):
        pretzel_diagram([2, 0, 3])
    with pytest.raises(DegenerateTangleError):
        pretzel_diagram([])
    with pytest.raises(DegenerateTangleError):
        is_knot((2, 0, 3))


def test_malformed_code_rejected():
    with pytest.raises(InvalidPDCodeError):
        component_count(((1, 2, 3, 4),))
    with pytest.raises(InvalidPDCodeError):
        component_count(((1, 1, 2, 2), (1, 3, 3, 4)))


def test_tracing_matches_parity_window():
    # exhaustive over nonzero entries in [-5, 5]; the acceptance suite
    # widens this to [-9, 9]
    values = [v for v in range(-5, 6) if v != 0]
    for entries in product(values, repeat=3):
        count = component_count(pretzel_diagram(entries))
        assert count == _parity_components(entries), entries
        assert is_knot(tuple(entries)) is (count == 1)


def test_fast_parity_helper_matches_tracing():
    values = [v for v in range(-4, 5) if v != 0]
    for entries in product(values, repeat=3):
        assert knot_components(entries) == component_count(pretzel_diagram(entries)), entries


def test_validators_return_the_canonical_entries_pair():
    # a knot validates to what canonical_entries returns, from a tuple or a list
    values = [v for v in range(-9, 10) if v != 0]
    for entries in product(values, repeat=3):
        if knot_components(entries) != 1:
            continue
        expected = canonical_entries(entries)
        for triple in (entries, list(entries)):
            assert pretzel_knot(triple) == expected, entries
            if min(map(abs, entries)) >= 2:
                assert scannable_knot(triple) == expected, entries


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
            assert pretzel_knot(tuple(entries)) == canonical_entries(entries)
            continue
        with pytest.raises(NotAKnotError) as info:
            pretzel_knot(tuple(entries))
        assert str(info.value) == f"not a knot ({traced} components)", entries


def _outcome(triple):
    """pretzel_knot's result, or the type and message of its error."""
    try:
        return pretzel_knot(triple)
    except (DegenerateTangleError, NotAKnotError) as exc:
        return type(exc), str(exc)


def _brute_canonical(entries):
    # the largest nondecreasing rearrangement of the triple or its
    # mirror; the mirror flag is set only when the triple has no such
    # rearrangement itself
    plain = {p for p in permutations(entries) if list(p) == sorted(p)}
    mirrored = {p for p in permutations(tuple(-e for e in entries)) if list(p) == sorted(p)}
    canonical = max(plain | mirrored)
    return canonical, canonical not in plain


def test_tuple_and_triple_inputs_agree():
    values = range(-6, 7)
    outcomes = Counter()
    for entries in product(values, repeat=3):
        from_tuple = _outcome(entries)
        assert from_tuple == _outcome(list(entries)), entries
        canonical, mirror = canonical_entries(entries)
        # a knot validates to its canonical pair, anything else to (type, message)
        outcomes["knot" if from_tuple == (canonical, mirror) else from_tuple[0]] += 1
        assert (canonical, mirror) == canonical_entries(list(entries))
        assert (canonical, mirror) == _brute_canonical(entries), entries
    # the box holds knots, zero twists and links
    assert set(outcomes) == {"knot", DegenerateTangleError, NotAKnotError}


def _reference_component_count(code):
    # a dict-based union-find with a separate find, kept as an
    # independent reference for component_count
    seen = {}
    for crossing in code:
        for arc in crossing:
            seen[arc] = seen.get(arc, 0) + 1
    assert all(count == 2 for count in seen.values())
    parent = {arc: arc for arc in seen}

    def find(arc):
        root = arc
        while parent[root] != root:
            root = parent[root]
        while parent[arc] != root:
            parent[arc], arc = root, parent[arc]
        return root

    for a, b, c, d in code:
        parent[find(a)] = find(c)
        parent[find(b)] = find(d)
    return sum(1 for arc in parent if find(arc) == arc)


def _relabeled(code, rng):
    labels = list(range(1, 2 * len(code) + 1))
    rng.shuffle(labels)
    return tuple(tuple(labels[arc - 1] for arc in crossing) for crossing in code)


def test_component_count_matches_reference():
    rng = Random(2026)
    for regions in range(1, 8):
        for _ in range(30):
            twists = [rng.choice([-1, 1]) * rng.randint(1, 9) for _ in range(regions)]
            code = pretzel_diagram(twists)
            expected = _reference_component_count(code)
            assert component_count(code) == expected, twists
            relabeled = _relabeled(code, rng)
            assert component_count(relabeled) == expected, twists
            assert _reference_component_count(relabeled) == expected, twists


def test_component_count_of_shuffled_crossings_matches_reference():
    # out of stream order, many arcs stay open paths at once, so the open
    # path ends that trace_components keeps grow with the diagram
    rng = Random(2033)
    for regions in range(1, 6):
        for _ in range(30):
            twists = [rng.choice([-1, 1]) * rng.randint(1, 9) for _ in range(regions)]
            code = list(pretzel_diagram(twists))
            rng.shuffle(code)
            assert component_count(code) == _reference_component_count(code), twists
            assert trace_components(lambda: iter(code), 2 * len(code)) \
                == _reference_component_count(code), twists


MALFORMED = [
    ("label 0", ((0, 1, 1, 2), (2, 3, 3, 4)), "arc 0 is outside the labels 1..4"),
    ("label above 2n", ((1, 2, 3, 4), (4, 3, 2, 5)), "arc 5 is outside the labels 1..4"),
    ("label used three times", ((1, 1, 2, 2), (1, 3, 3, 4)),
     "arc 1 appears 3 times, expected exactly 2"),
    ("missing label", ((1, 1, 2, 2), (3, 3, 2, 2)), "arc 2 appears 4 times, expected exactly 2"),
    ("label used 400 times", ((1, 1, 1, 1),) * 100, "arc 1 appears 400 times, expected exactly 2"),
    # the 256th use of a label is the first count that a byte cannot hold
    ("label used 256 times", ((1, 1, 1, 1),) * 64 + ((2, 2, 3, 3),) * 64,
     "arc 1 appears 256 times, expected exactly 2"),
    ("three slots", ((1, 1, 2), (2, 3, 3, 4, 4)), "crossing 0 has 3 slots, expected 4"),
    ("empty last crossing", ((1, 2, 2, 1), ()), "crossing 1 has 0 slots, expected 4"),
    ("empty first crossing", ((), (1, 2, 2, 1)), "crossing 0 has 0 slots, expected 4"),
    ("no labels", ((),), "crossing 0 has 0 slots, expected 4"),
    # a label below 1 would index the tracer's tables from the end
    ("label -1", ((1, 2, -1, 1),), "arc -1 is outside the labels 1..2"),
    ("label -3", ((1, 2, -3, 1),), "arc -3 is outside the labels 1..2"),
    ("label 10**30", ((1, 2, 10 ** 30, 1),), f"arc {10 ** 30} is outside the labels 1..2"),
    ("label -10**30", ((1, 2, -10 ** 30, 1),), f"arc {-10 ** 30} is outside the labels 1..2"),
]


@pytest.mark.parametrize("crossings,message", [case[1:] for case in MALFORMED],
                         ids=[case[0] for case in MALFORMED])
def test_malformed_labels_rejected(crossings, message):
    with pytest.raises(InvalidPDCodeError) as info:
        component_count(crossings)
    assert str(info.value) == message


# a 3,004-crossing code: a fault at crossing 2500 is past the first
# chunk that trace_components takes
LONG_CODE = pretzel_diagram([-2, 3, 2999])


def _long_code_with(index, crossing):
    return LONG_CODE[:index] + (crossing,) + LONG_CODE[index + 1:]


ITERATED = MALFORMED + [
    ("late label 0", _long_code_with(2500, (0, 1, 1, 2)), "arc 0 is outside the labels 1..6008"),
    ("late label above 2n", _long_code_with(2500, (6009, 1, 1, 2)),
     "arc 6009 is outside the labels 1..6008"),
    ("late three slots", _long_code_with(2500, (1, 2, 3)), "crossing 2500 has 3 slots, expected 4"),
    ("late repeated crossing", _long_code_with(2500, LONG_CODE[2499]),
     f"arc {LONG_CODE[2499][0]} appears 3 times, expected exactly 2"),
]


@pytest.mark.parametrize("crossings,message", [case[1:] for case in ITERATED],
                         ids=[case[0] for case in ITERATED])
def test_trace_components_of_an_iterator_names_the_fault(crossings, message):
    with pytest.raises(InvalidPDCodeError) as expected:
        component_count(crossings)
    with pytest.raises(InvalidPDCodeError) as info:
        trace_components(lambda: iter(crossings), 2 * len(crossings))
    assert str(info.value) == str(expected.value) == message


def test_trace_components_names_a_label_missing_from_a_short_stream():
    # labels 1 and 2 are used twice each, but the count promises 1..4
    with pytest.raises(InvalidPDCodeError) as info:
        trace_components(lambda: iter([(1, 1, 2, 2)]), 4)
    assert str(info.value) == "arc 3 appears 0 times, expected exactly 2"


def test_streamed_crossings_are_the_diagram():
    for twists in ([1], [-2, 3, 5], [2, -4, 7, -1], [-3000, 1, 2]):
        assert tuple(pretzel_crossings(twists)) == pretzel_diagram(twists)
        assert trace_components(lambda: pretzel_crossings(twists), 2 * sum(map(abs, twists))) \
            == component_count(pretzel_diagram(twists))


def test_streamed_crossings_check_the_twists_at_the_call():
    with pytest.raises(DegenerateTangleError):
        pretzel_crossings([2, 0, 3])
    with pytest.raises(InvalidParameterError):
        pretzel_crossings([-2, 3, MAX_CROSSINGS])


def _contract_message(crossings):
    """The error message the PD code contract gives these crossings, or
    None for a valid code: every label in 1..2n, four slots to a
    crossing, every label used exactly twice, checked in that order."""
    size = 2 * len(crossings)
    labels = [label for crossing in crossings for label in crossing]
    if any(not 1 <= label <= size for label in labels):
        low, high = min(labels), max(labels)
        return f"arc {low if low < 1 else high} is outside the labels 1..{size}"
    for index, crossing in enumerate(crossings):
        if len(crossing) != 4:
            return f"crossing {index} has {len(crossing)} slots, expected 4"
    counts = Counter(labels)
    if any(counts[arc] != 2 for arc in range(1, size + 1)):
        # named by the first slot whose label has the wrong count
        arc = next(label for label in labels if counts[label] != 2)
        return f"arc {arc} appears {counts[arc]} times, expected exactly 2"
    return None


def _strand_components(crossings):
    """Components of a valid code by depth-first search over the arcs,
    each crossing joining slots 0 with 2 and 1 with 3."""
    neighbours = {arc: [] for crossing in crossings for arc in crossing}
    for a, b, c, d in crossings:
        neighbours[a].append(c)
        neighbours[c].append(a)
        neighbours[b].append(d)
        neighbours[d].append(b)
    seen, components = set(), 0
    for arc in neighbours:
        if arc not in seen:
            components += 1
            stack = [arc]
            while stack:
                here = stack.pop()
                if here not in seen:
                    seen.add(here)
                    stack.extend(neighbours[here])
    return components


def test_component_count_follows_the_contract_on_random_codes():
    rng = Random(2024)
    valid = 0
    for _ in range(20_000):
        n = rng.randint(1, 4)
        size = 2 * n
        if rng.random() < 0.5:
            # each label twice, so only a slot count can be off
            labels = [*range(1, size + 1)] * 2
            rng.shuffle(labels)
        else:
            low, high = (1, size) if rng.random() < 0.5 else (-size - 2, size + 2)
            labels = [rng.randint(low, high) for _ in range(5 * n)]
        crossings = []
        for _ in range(n):
            slots = rng.choice((3, 5)) if rng.random() < 0.1 else 4
            crossings.append(tuple(labels[:slots]))
            del labels[:slots]
        crossings = tuple(crossings)
        expected = _contract_message(crossings)
        if expected is None:
            valid += 1
            assert component_count(crossings) == _strand_components(crossings), crossings
        else:
            with pytest.raises(InvalidPDCodeError) as info:
                component_count(crossings)
            assert str(info.value) == expected, crossings
    assert valid > 1000, valid


def test_empty_code_has_no_components():
    assert component_count(()) == 0


def test_component_count_memory_is_below_the_diagram():
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        code = pretzel_diagram([-2, 3, 100001])
        diagram = tracemalloc.get_traced_memory()[0] - before
        tracemalloc.reset_peak()
        start = tracemalloc.get_traced_memory()[0]
        assert component_count(code) == 1
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert peak <= 0.75 * diagram, (peak, diagram)


def test_crossing_budget():
    assert diagram_twists((-2, 3, MAX_CROSSINGS - 5)) == [-2, 3, MAX_CROSSINGS - 5]
    with pytest.raises(InvalidParameterError) as info:
        diagram_twists((-2, 3, MAX_CROSSINGS - 4))
    assert str(info.value) == (f"the diagram would have {MAX_CROSSINGS + 1} crossings, "
                               f"more than the limit of {MAX_CROSSINGS}")
    with pytest.raises(InvalidParameterError):
        pretzel_diagram([10 ** 30])
    # a zero twist is reported before the size
    with pytest.raises(DegenerateTangleError):
        pretzel_diagram([0, 1, 10 ** 30])
