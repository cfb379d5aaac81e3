from fractions import Fraction
from math import gcd, isqrt

import pytest

from pretzelrep import (
    InvalidParameterError,
    SlopeCondition,
    brute_force_solutions,
    enumerate_solutions,
    parametrize,
    slope_condition,
    slopelemma,
)
from pretzelrep.errors import InvariantError


def test_parametrize_examples():
    assert parametrize(1, 2, 1) == (1, 2, 2)
    assert parametrize(2, 3, 1) == (2, 3, 6)
    assert parametrize(3, 5, 1) == (6, 10, 15)
    assert parametrize(1, 2, 2) == (2, 4, 4)


def test_parametrize_solves_equation():
    for k in range(1, 12):
        for l in range(k + 1, 2 * k + 1):
            if gcd(k, l) != 1:
                continue
            for d in (1, 2, 5):
                a, b, c = parametrize(k, l, d)
                assert Fraction(-1, a) + Fraction(1, b) + Fraction(1, c) == 0
                assert 1 <= a < b <= c


def test_parametrize_rejects_bad_parameters():
    with pytest.raises(InvalidParameterError):
        parametrize(2, 4, 1)  # not coprime
    with pytest.raises(InvalidParameterError):
        parametrize(2, 5, 1)  # l > 2k
    with pytest.raises(InvalidParameterError):
        parametrize(2, 2, 1)  # l = k
    with pytest.raises(InvalidParameterError):
        parametrize(0, 1, 1)
    with pytest.raises(InvalidParameterError):
        parametrize(1, 2, 0)


def test_enumerate_checks_every_row(monkeypatch):
    def off_by_one(k, l, d):
        a, b, c = parametrize(k, l, d)
        return a, b, c + 1

    monkeypatch.setattr(slopelemma, "parametrize", off_by_one)
    with pytest.raises(InvariantError) as info:
        list(enumerate_solutions(10))
    assert str(info.value) == "(1,2,3) does not match k=1 l=2 d=1"


@pytest.mark.parametrize("corrupt,message", [
    (lambda a, b, c: (a, a, c), "(1,1,2) has no parameters k < l"),
    (lambda a, b, c: (0, 0, c), "(0,0,2) has no parameters k < l"),
], ids=["a equals b", "a and b zero"])
def test_enumerate_names_a_row_without_parameters(monkeypatch, corrupt, message):
    # l = k or gcd(a, b) = 0 would divide by zero while decoding the row
    monkeypatch.setattr(slopelemma, "parametrize", lambda k, l, d: corrupt(*parametrize(k, l, d)))
    with pytest.raises(InvariantError) as info:
        list(enumerate_solutions(10))
    assert str(info.value) == message


def test_enumerate_rows_are_plain_parametrized_tuples():
    rows = list(enumerate_solutions(2000))
    assert rows
    for row in rows:
        assert type(row) is tuple
        a, b, c, k, l, d = row
        assert row == (*parametrize(k, l, d), k, l, d)


def test_brute_force_examples():
    assert brute_force_solutions(2) == [(1, 2, 2)]
    assert brute_force_solutions(4) == [(1, 2, 2), (2, 4, 4)]
    assert brute_force_solutions(5) == [(1, 2, 2), (2, 4, 4)]
    assert brute_force_solutions(6) == [(1, 2, 2), (2, 3, 6), (2, 4, 4), (3, 6, 6)]
    # checked by hand: all solutions of -1/a + 1/b + 1/c = 0 with c <= 15
    assert brute_force_solutions(15) == [
        (1, 2, 2), (2, 3, 6), (2, 4, 4), (3, 4, 12), (3, 6, 6),
        (4, 6, 12), (4, 8, 8), (5, 10, 10), (6, 10, 15), (6, 12, 12),
        (7, 14, 14),
    ]


def test_enumerate_matches_brute_force():
    # the acceptance suite runs this at 300; keep the module test quick
    for max_c in (2, 3, 10, 60):
        enumerated = enumerate_solutions(max_c)
        triples = [s[:3] for s in enumerated]
        assert triples == sorted(triples)
        assert len(set(triples)) == len(triples)
        assert set(triples) == set(brute_force_solutions(max_c))


def test_enumerate_below_smallest_solution():
    assert list(enumerate_solutions(1)) == []


def _parameter_matches(a, b, c):
    found = []
    for k in range(1, isqrt(c) + 1):
        for l in range(k + 1, 2 * k + 1):
            if gcd(k, l) != 1 or c % (k * l):
                continue
            d = c // (k * l)
            if a == k * (l - k) * d and b == l * (l - k) * d:
                found.append((k, l, d))
    return found


def test_every_solution_has_unique_parameters():
    for a, b, c in brute_force_solutions(120):
        matches = _parameter_matches(a, b, c)
        if a >= 2:
            assert len(matches) == 1, (a, b, c, matches)
        else:
            assert len(matches) >= 1, (a, b, c)


def test_slope_condition_reference_values():
    # boundary fractions of the two survivor surfaces at a 3-twist region
    assert slope_condition(3, Fraction(3, 10)) == SlopeCondition.CONDITION_I
    assert slope_condition(3, Fraction(3, 8)) == SlopeCondition.CONDITION_II
    assert slope_condition(3, Fraction(1, 4)) == SlopeCondition.CONDITION_I
    assert slope_condition(3, Fraction(3, 5)) == SlopeCondition.NONE


def test_condition_two_needs_numerator_above_one():
    # 1/2 against m = 3 satisfies a*m = b + 1 but a = 1 falls under
    # condition I only, which it fails
    assert slope_condition(3, Fraction(1, 2)) == SlopeCondition.NONE


def test_single_disk_slope_satisfies_condition_one():
    for m in range(1, 201):
        assert slope_condition(m, Fraction(1, m + 1)) == SlopeCondition.CONDITION_I


def test_enumeration_parametrizes_only_pairs_with_rows(monkeypatch):
    # a pair (k, l) with kl > max_c gives no row, so it is never parametrized
    calls = []

    def counted(k, l, d):
        calls.append((k, l, d))
        return parametrize(k, l, d)

    monkeypatch.setattr(slopelemma, "parametrize", counted)
    assert [row[:3] for row in enumerate_solutions(300)] == brute_force_solutions(300)
    assert calls and all(k * l <= 300 for k, l, _ in calls)
