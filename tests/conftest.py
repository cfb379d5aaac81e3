"""Shared helpers: seeded random expression trees for round-trip tests."""

from __future__ import annotations

from fractions import Fraction
from random import Random

from pretzelrep import (
    Closure,
    Montesinos,
    Pretzel,
    RationalTangle,
    Sum,
    TangleExpr,
)


def random_rational(rng: Random) -> Fraction:
    return Fraction(rng.randint(-9, 9), rng.randint(1, 9))


def random_tangle(rng: Random, depth: int = 0) -> TangleExpr:
    kinds = ["rational", "rational", "pretzel", "montesinos"]
    if depth < 4:
        kinds += ["sum", "sum", "sum"]
    kind = rng.choice(kinds)
    if kind == "rational":
        return RationalTangle(random_rational(rng))
    if kind == "pretzel":
        return Pretzel(tuple(rng.randint(-9, 9) for _ in range(3)))
    if kind == "montesinos":
        count = rng.randint(1, 4)
        return Montesinos(tuple(random_rational(rng) for _ in range(count)))
    return Sum(random_tangle(rng, depth + 1), random_tangle(rng, depth + 1))


def random_expr(rng: Random) -> TangleExpr:
    if rng.random() < 0.3:
        return Closure(random_tangle(rng))
    return random_tangle(rng)
