import io
import json
from fractions import Fraction
from random import Random

import pytest

from conftest import random_expr
from pretzelrep import (
    MAX_DIGITS,
    MAX_NESTING,
    Closure,
    Montesinos,
    ParseError,
    Pretzel,
    RationalTangle,
    ShapeError,
    Sum,
    canonical_entries,
    is_large_algebraic,
    parse_expr,
    print_expr,
    run,
)


def test_parse_pretzel():
    assert parse_expr("P(-2,3,5)") == Pretzel((-2, 3, 5))
    assert type(parse_expr("P(-2,3,5)").triple) is tuple


def test_parse_rational_and_integer():
    assert parse_expr("1/2") == RationalTangle(Fraction(1, 2))
    assert parse_expr("-3") == RationalTangle(Fraction(-3))
    assert parse_expr("2/-4") == RationalTangle(Fraction(-1, 2))


def test_parse_montesinos():
    assert parse_expr("M(1/2,-1/3,1/7)") == Montesinos(
        (Fraction(1, 2), Fraction(-1, 3), Fraction(1, 7))
    )
    assert parse_expr("M(5)") == Montesinos((Fraction(5),))


def test_parse_sum_left_associative():
    tree = parse_expr("1/2+1/3+1/4")
    assert tree == Sum(
        Sum(RationalTangle(Fraction(1, 2)), RationalTangle(Fraction(1, 3))),
        RationalTangle(Fraction(1, 4)),
    )


def test_parse_parenthesized_right_sum():
    tree = parse_expr("1/2+(1/3+1/4)")
    assert tree == Sum(
        RationalTangle(Fraction(1, 2)),
        Sum(RationalTangle(Fraction(1, 3)), RationalTangle(Fraction(1, 4))),
    )


def test_parse_closure():
    tree = parse_expr("C((1/3+1/5)+(1/2+1/7))")
    assert isinstance(tree, Closure)
    assert isinstance(tree.inner, Sum)
    assert isinstance(tree.inner.left, Sum)
    assert isinstance(tree.inner.right, Sum)


def test_parse_whitespace_insensitive():
    spaced = " C( ( 1/3 + 1/5 ) + ( 1/2 + 1/7 ) ) "
    assert parse_expr(spaced) == parse_expr("C((1/3+1/5)+(1/2+1/7))")
    assert parse_expr("P( -2 , 3 , 5 )") == parse_expr("P(-2,3,5)")


def test_parse_rejects_zero_denominator():
    with pytest.raises(ParseError):
        parse_expr("1/0")
    with pytest.raises(ParseError):
        parse_expr("M(1/2,3/0)")


def test_parse_rejects_nested_closure():
    with pytest.raises(ParseError):
        parse_expr("C(C(1/2))")
    with pytest.raises(ParseError):
        parse_expr("1/2+C(1/3)")


def test_parse_rejects_trailing_input():
    with pytest.raises(ParseError):
        parse_expr("P(1,2,3)x")


def test_parse_rejects_unbalanced():
    with pytest.raises(ParseError):
        parse_expr("C((1/2+1/3)")
    with pytest.raises(ParseError):
        parse_expr("P(1,2")


def test_parse_error_carries_position():
    with pytest.raises(ParseError) as info:
        parse_expr("P(1,2,x)")
    assert info.value.position == 6


def test_parse_rejects_non_ascii_digits():
    with pytest.raises(ParseError) as info:
        parse_expr("P(-2,\u0663,5)")  # ARABIC-INDIC DIGIT THREE
    assert info.value.position == 5


def test_parse_rejects_oversized_literal():
    with pytest.raises(ParseError) as info:
        parse_expr("1/" + "9" * 5000)
    assert info.value.position == 2
    assert "too long" in str(info.value)
    # the sign is not a digit
    assert parse_expr("-" + "9" * MAX_DIGITS) == RationalTangle(Fraction(1 - 10**MAX_DIGITS))
    with pytest.raises(ParseError) as info:
        parse_expr("P(2,3," + "9" * (MAX_DIGITS + 1) + ")")
    assert info.value.position == 6


def test_print_examples():
    assert print_expr(parse_expr("P( -2, 3, 5 )")) == "P(-2,3,5)"
    assert print_expr(parse_expr("M( 1/2 , -1/3 )")) == "M(1/2,-1/3)"
    assert print_expr(parse_expr("(1/2+1/3)+1/4")) == "1/2+1/3+1/4"
    assert print_expr(parse_expr("1/2+(1/3+1/4)")) == "1/2+(1/3+1/4)"
    assert print_expr(parse_expr("C(1/2+1/3)")) == "C(1/2+1/3)"


def test_print_rejects_nested_closure_tree():
    bad = Sum(Closure(RationalTangle(Fraction(1, 2))), RationalTangle(Fraction(1, 3)))
    with pytest.raises(ShapeError):
        print_expr(bad)


def test_round_trip_seeded_trees():
    rng = Random(4021)
    for _ in range(300):
        tree = random_expr(rng)
        assert parse_expr(print_expr(tree)) == tree


def test_normalize_examples():
    assert canonical_entries((3, -2, 3)) == ((-2, 3, 3), False)
    assert canonical_entries((2, -3, -5)) == ((-2, 3, 5), True)
    assert canonical_entries((5, 3, -2)) == ((-2, 3, 5), False)


def test_normalize_idempotent_and_permutation_invariant():
    values = range(-3, 4)
    for p in values:
        for q in values:
            for r in values:
                canonical, _ = canonical_entries((p, q, r))
                again, mirror = canonical_entries(canonical)
                assert again == canonical and mirror is False
                swapped, _ = canonical_entries((q, r, p))
                assert swapped == canonical


def test_normalize_mirror_pairs():
    # a nonzero triple is never its own mirror, so the flag must flip
    for entries in [(-2, 3, 3), (1, 1, 1), (-3, 5, 5), (2, 4, 7)]:
        triple = tuple(entries)
        canonical, mirror = canonical_entries(triple)
        other, other_mirror = canonical_entries(tuple(-e for e in entries))
        assert other == canonical
        assert other_mirror is not mirror


def test_is_large_algebraic_examples():
    assert is_large_algebraic(parse_expr("C((1/3+1/5)+(1/2+1/7))")) is True
    # left half is a single rational tangle
    assert is_large_algebraic(parse_expr("C(1/3+(1/2+1/5))")) is False
    # slope 1/1 fails the denominator requirement
    assert is_large_algebraic(parse_expr("C((1/1+1/5)+(1/2+1/7))")) is False
    # slope 2/3 is not of the form 1/m
    assert is_large_algebraic(parse_expr("C((2/3+1/5)+(1/2+1/7))")) is False
    # a pretzel leaf makes a half non-rational
    assert is_large_algebraic(parse_expr("C((P(1,2,3)+1/5)+(1/2+1/7))")) is False
    # a closure of a single tangle has no two halves
    assert is_large_algebraic(parse_expr("C(1/3)")) is False
    assert is_large_algebraic(parse_expr("C(P(-2,3,5))")) is False


def test_is_large_algebraic_needs_closure():
    with pytest.raises(ShapeError):
        is_large_algebraic(parse_expr("(1/3+1/5)+(1/2+1/7)"))


def test_nesting_limit_round_trips_at_the_limit():
    leaves = [RationalTangle(Fraction(1, k + 2)) for k in range(MAX_NESTING + 1)]
    left_deep = leaves[0]
    for leaf in leaves[1:]:  # MAX_NESTING Sum nodes on the left spine
        left_deep = Sum(left_deep, leaf)
    right_nested = leaves[0]
    for leaf in leaves[1:MAX_NESTING // 2 + 1]:  # a parenthesis and a Sum per level
        right_nested = Sum(leaf, right_nested)
    for tree in (left_deep, Closure(left_deep), right_nested):
        text = print_expr(tree)
        assert parse_expr(text) == tree
        out, err = io.StringIO(), io.StringIO()
        assert run(["parse", text, "--json"], out, err) == 0 and err.getvalue() == ""
        assert json.loads(out.getvalue())["printed"] == text
    assert parse_expr("(" * MAX_NESTING + "1/2" + ")" * MAX_NESTING) == leaves[0]
    with pytest.raises(ParseError):
        parse_expr(print_expr(Sum(left_deep, leaves[0])))
    with pytest.raises(ParseError):
        parse_expr("(" * (MAX_NESTING + 1) + "1/2" + ")" * (MAX_NESTING + 1))
    # 150 parentheses around a sum of 51 terms nest 200 deep; a 52nd term
    # is caught only once the outermost parenthesis has closed
    assert isinstance(parse_expr("(" * 150 + "+".join(["1/2"] * 51) + ")" * 150), Sum)
    with pytest.raises(ParseError) as info:
        parse_expr("(" * 150 + "+".join(["1/2"] * 52) + ")" * 150)
    assert info.value.position == 0
