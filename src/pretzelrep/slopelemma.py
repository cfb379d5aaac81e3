"""The reciprocal-sum lemma and the boundary slope conditions.

Solutions of -1/a + 1/b + 1/c = 0 in integers 1 <= a < b <= c are
exactly the triples

    a = k(l-k)d,  b = l(l-k)d,  c = kld

with gcd(k, l) = 1, k < l <= 2k and d >= 1; for a >= 2 the parameters
(k, l, d) are unique.  l = 2k forces (k, l) = (1, 2) and gives the twin
family (d, 2d, 2d); l = k + 1 gives (kd, (k+1)d, k(k+1)d).

A twist region with m crossings meets a candidate surface either in
parallel disks of boundary slope 1/m (type A) or in a single disk of
boundary slope 1/(m+1) (type B).
"""

from __future__ import annotations

from enum import Enum
from fractions import Fraction
from math import gcd
from typing import Iterator

from .errors import InvalidParameterError, InvariantError

__all__ = [
    "SlopeCondition",
    "parametrize",
    "enumerate_solutions",
    "brute_force_solutions",
    "slope_condition",
]


class SlopeCondition(Enum):
    """Which slope equation a boundary fraction a/b satisfies for m."""

    CONDITION_I = "I"      # a*m == b - 1
    CONDITION_II = "II"    # a > 1 and a*m == b + 1
    NONE = "none"


def parametrize(k: int, l: int, d: int) -> tuple[int, int, int]:
    """Solution triple (a, b, c) for parameters (k, l, d)."""
    if k < 1 or d < 1:
        raise InvalidParameterError(f"k and d must be positive, got k={k} d={d}")
    if not k < l <= 2 * k:
        raise InvalidParameterError(f"need k < l <= 2k, got k={k} l={l}")
    if gcd(k, l) != 1:
        raise InvalidParameterError(f"k={k} and l={l} are not coprime")
    return (k * (l - k) * d, l * (l - k) * d, k * l * d)


def enumerate_solutions(max_c: int) -> Iterator[tuple[int, int, int, int, int, int]]:
    """All solutions with c <= max_c, via the parametrization, yielded
    in (a, b, c) order as plain (a, b, c, k, l, d) tuples.

    The parametrization is injective for a >= 2 and the twin family is
    covered once by (k, l) = (1, 2), so no deduplication is needed.  One
    int per solution is held; a row is decoded from it and checked against
    (k(l-k)d, l(l-k)d, kld) only as it is yielded, after earlier rows.
    """
    # (a, b, c) is the int (a*x + b)*x + c: b, c < x, so the ints sort in
    # (a, b, c) order, and row d of a run is d times its row 1
    x = max_c + 1
    keys = []
    k = 1
    # c = kld is at least k(k+1), and an l with kl > max_c has no row
    while k * (k + 1) <= max_c:
        for l in range(k + 1, min(2 * k, max_c // k) + 1):
            if gcd(k, l) != 1:
                continue
            a, b, c = parametrize(k, l, 1)
            key = (a * x + b) * x + c
            keys.extend(range(key, key * (max_c // c) + 1, key))
        k += 1
    keys.sort()
    for key in keys:
        ab, c = divmod(key, x)
        a, b = divmod(ab, x)
        if not 0 < a < b:  # no k < l, and a decode would divide by 0
            raise InvariantError(f"({a},{b},{c}) has no parameters k < l")
        g = gcd(a, b)  # (l-k)d, as gcd(k, l) = 1, and b - a = (l-k)g
        k, l, d = a // g, b // g, g * g // (b - a)
        m = (l - k) * d
        if k * m != a or l * m != b or k * l * d != c:
            raise InvariantError(f"({a},{b},{c}) does not match k={k} l={l} d={d}")
        yield a, b, c, k, l, d


def brute_force_solutions(max_c: int) -> list[tuple[int, int, int]]:
    """All solutions with c <= max_c by direct scan, no parametrization.

    For each pair a < b the equation forces c = ab/(b-a); the pair
    contributes exactly when that is an integer in [b, max_c].  Serves
    as an independent oracle for enumerate_solutions.
    """
    solutions = []
    for a in range(1, max_c + 1):
        for b in range(a + 1, max_c + 1):
            if (a * b) % (b - a):
                continue
            c = (a * b) // (b - a)
            if b <= c <= max_c:
                solutions.append((a, b, c))
    return solutions


def slope_condition(m: int, boundary: Fraction) -> SlopeCondition:
    """Classify a boundary fraction a/b against the m-twist slope equations.

    Condition I is a*m == b - 1 and condition II is a*m == b + 1 with
    a > 1; a numerator of 1 can only satisfy condition I.
    """
    a, b = boundary.numerator, boundary.denominator
    if a * m == b - 1:
        return SlopeCondition.CONDITION_I
    if a > 1 and a * m == b + 1:
        return SlopeCondition.CONDITION_II
    return SlopeCondition.NONE
