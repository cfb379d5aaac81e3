"""Seeded workloads: the command lines the program receives, each with
the oracle that checks its output.

Every workload is a fixed list of commands run in a closed loop by a
single client.  The seed picks the request mix, or shifts the range box
and the large parameters inside a narrow window so the work stays close
to nominal: range boxes move by an even amount, which keeps the parity
mix of the box and so the number of knot triples unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from random import Random
from typing import Callable

import oracles


@dataclass(frozen=True)
class Command:
    argv: tuple[str, ...]
    check: Callable  # (exit code, stdout, stderr) -> Counter, or raises Mismatch


def range_command(low: int, high: int, as_json: bool) -> Command:
    argv = ("classify", "--range", f"{low}:{high}") + (("--json",) if as_json else ())
    check = oracles.check_range_json(low, high) if as_json else oracles.check_range_text(low, high)
    return Command(argv, check)


def _range_json(rng: Random) -> list[Command]:
    shift = 2 * rng.randint(-5, 5)
    return [range_command(-25 + shift, 25 + shift, as_json=True)]


def _range_text(rng: Random) -> list[Command]:
    shift = 2 * rng.randint(-5, 5)
    return [range_command(-50 + shift, 50 + shift, as_json=False)]


def _bigparam(rng: Random) -> list[Command]:
    max_c = 50000 + rng.randint(-250, 250)
    knot = (-2, 3, 250001 + 2 * rng.randint(-125, 125))
    link = (2, 4, 250000 + 2 * rng.randint(-125, 125))
    return [
        Command(("lemma", "--max", str(max_c)),
                oracles.check_lemma(oracles.lemma_solutions(max_c), as_json=False)),
        Command(("trace", "P({},{},{})".format(*knot)), oracles.check_trace(knot, as_json=False)),
        Command(("classify", "P({},{},{})".format(*link)),
                oracles.check_classify_pretzel(link, "pretzel", "", "", as_json=False)),
    ]


# --- the request mix ---

_MIX = (("parse", 900), ("classify", 900), ("surfaces", 600), ("trace", 300), ("lemma", 300))
_LEMMA_MAX = 300


def _requests(rng: Random) -> list[Command]:
    lemma = oracles.lemma_solutions(_LEMMA_MAX)
    makers = {"parse": _parse_request, "classify": _classify_request,
              "surfaces": _surfaces_request, "trace": _trace_request,
              "lemma": lambda r: _lemma_request(r, lemma)}
    kinds = [kind for kind, count in _MIX for _ in range(count)]
    rng.shuffle(kinds)
    return [makers[kind](rng) for kind in kinds]


def _json_flag(rng: Random) -> tuple[bool, tuple[str, ...]]:
    as_json = rng.random() < 0.5
    return as_json, (("--json",) if as_json else ())


def _parse_request(rng: Random) -> Command:
    tree = _random_expr(rng)
    text = _noisy(tree, rng)
    as_json, flag = _json_flag(rng)
    return Command(("parse", text) + flag, oracles.check_parse(tree, text, as_json))


def _classify_request(rng: Random) -> Command:
    as_json, flag = _json_flag(rng)
    roll = rng.random()
    if roll < 0.75:
        pretzel = roll < 0.5
        triple = _request_triple(rng, allow_small=True, allow_zero=pretzel)
        if pretzel:
            tree = ("pretzel", triple)
        elif rng.random() < 0.1:
            tree = ("montesinos", (Fraction(rng.choice((2, 3)), 7),)
                    + tuple(Fraction(1, e) for e in triple[1:]))
        else:
            tree = ("montesinos", tuple(Fraction(1, e) for e in triple))
        text = _noisy(tree, rng)
        check = oracles.check_error
        if all(abs(f.numerator) == 1 for f in tree[1]) or pretzel:
            check = oracles.check_classify_pretzel(triple, tree[0], oracles.spell(tree), text, as_json)
    else:
        if rng.random() < 0.1:
            tree = ("closure", _sum_of(rng, 1))
        else:
            tree = ("closure", ("sum", _sum_of(rng, rng.randint(1, 3)),
                                _sum_of(rng, rng.randint(1, 3))))
        text = _noisy(tree, rng)
        check = oracles.check_classify_closure(tree, text, as_json)
    return Command(("classify", text) + flag, check)


def _surfaces_request(rng: Random) -> Command:
    triple = _request_triple(rng, allow_small=rng.random() < 0.2, allow_zero=False)
    fmt = rng.choice(("text", "json", "csv"))
    text = _noisy(("pretzel", triple), rng)
    flag = () if fmt == "text" else (f"--{fmt}",)
    return Command(("surfaces", text) + flag, oracles.check_surfaces(triple, text, fmt))


def _trace_request(rng: Random) -> Command:
    as_json, flag = _json_flag(rng)
    triple = tuple(rng.choice((-1, 1)) * rng.randint(1, 12) for _ in range(3))
    if rng.random() < 0.1:
        triple = triple[:2] + (0,)
    return Command(("trace", _noisy(("pretzel", triple), rng)) + flag,
                   oracles.check_trace(triple, as_json))


def _lemma_request(rng: Random, solutions) -> Command:
    as_json, flag = _json_flag(rng)
    max_c = rng.randint(2, _LEMMA_MAX)
    expected = [s for s in solutions if s[2] <= max_c]
    return Command(("lemma", "--max", str(max_c)) + flag, oracles.check_lemma(expected, as_json))


def _request_triple(rng: Random, allow_small: bool, allow_zero: bool = True) -> tuple:
    """A knot triple, a permuted or mirrored survivor, a link or a zero."""
    roll = rng.random()
    if roll < 0.15:
        triple = list(rng.choice(list(oracles.SURVIVORS)))
        rng.shuffle(triple)
        sign = rng.choice((-1, 1))
        return tuple(sign * e for e in triple)
    if roll < 0.25:
        return tuple(2 * rng.choice((-1, 1)) * rng.randint(1, 4) if i < 2 else
                     rng.choice((-1, 1)) * rng.randint(2, 9) for i in range(3))
    if roll < 0.30 and allow_zero:
        return (0, rng.randint(2, 9), -rng.randint(2, 9))
    low = 1 if allow_small else 2
    while True:
        triple = tuple(rng.choice((-1, 1)) * rng.randint(low, 9) for _ in range(3))
        if oracles.evens(triple) <= 1:
            return triple


# --- random tangle trees in the style of the unit tests' random_expr ---


def _random_rational(rng: Random) -> Fraction:
    return Fraction(rng.randint(-9, 9), rng.randint(1, 9))


def _random_tangle(rng: Random, depth: int = 0):
    kinds = ["rational", "rational", "pretzel", "montesinos"]
    if depth < 4:
        kinds += ["sum", "sum", "sum"]
    kind = rng.choice(kinds)
    if kind == "rational":
        return ("rational", _random_rational(rng))
    if kind == "pretzel":
        return ("pretzel", tuple(rng.randint(-9, 9) for _ in range(3)))
    if kind == "montesinos":
        return ("montesinos", tuple(_random_rational(rng) for _ in range(rng.randint(1, 4))))
    return ("sum", _random_tangle(rng, depth + 1), _random_tangle(rng, depth + 1))


def _random_expr(rng: Random):
    if rng.random() < 0.3:
        return ("closure", _random_tangle(rng))
    return _random_tangle(rng)


def _sum_of(rng: Random, leaves: int):
    """A left-deep sum of slopes, mostly of the form 1/m with |m| >= 2."""
    def leaf():
        if rng.random() < 0.8:
            return ("rational", Fraction(1, rng.choice((-1, 1)) * rng.randint(2, 9)))
        return ("rational", _random_rational(rng))
    tree = leaf()
    for _ in range(leaves - 1):
        tree = ("sum", tree, leaf())
    return tree


def _noisy(tree, rng: Random) -> str:
    """A non-canonical spelling of the tree: spaces, redundant parentheses,
    unreduced fractions and explicit plus signs."""
    def ws():
        return " " * rng.choice((0, 0, 0, 1, 2))

    def integer(n: int) -> str:
        return f"+{n}" if n > 0 and rng.random() < 0.1 else str(n)

    def fraction(f: Fraction) -> str:
        if f.denominator == 1 and rng.random() < 0.5:
            return integer(f.numerator)
        k = rng.choice((1, 1, 2, 3)) * rng.choice((1, 1, 1, -1))
        return f"{integer(f.numerator * k)}/{integer(f.denominator * k)}"

    def term(t) -> str:
        kind = t[0]
        if kind == "rational":
            text = fraction(t[1])
        elif kind == "pretzel":
            text = "P(" + ",".join(ws() + integer(e) + ws() for e in t[1]) + ")"
        elif kind == "montesinos":
            text = "M(" + ",".join(ws() + fraction(f) + ws() for f in t[1]) + ")"
        else:
            return "(" + ws() + tangle(t) + ws() + ")"
        return f"({ws()}{text}{ws()})" if rng.random() < 0.1 else text

    def tangle(t) -> str:
        if t[0] == "sum":
            left = tangle(t[1]) if t[1][0] == "sum" else term(t[1])
            if t[1][0] == "sum" and rng.random() < 0.3:
                left = f"({left})"
            return f"{left}{ws()}+{ws()}{term(t[2])}"
        return term(t)

    if tree[0] == "closure":
        return f"C({ws()}{tangle(tree[1])}{ws()})"
    return ws() + tangle(tree) + ws()


WORKLOADS = {
    "range-json": _range_json,
    "range-text": _range_text,
    "requests": _requests,
    "bigparam": _bigparam,
}


def build(name: str, seed: int) -> list[Command]:
    """The commands of one workload for one seed; same seed, same commands."""
    return WORKLOADS[name](Random(f"{name}:{seed}"))
