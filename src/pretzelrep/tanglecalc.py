"""Tangle expression trees: parsing, printing, and structural checks.

The grammar, whitespace-insensitive between tokens:

    expr       := closure | tangle
    closure    := "C(" tangle ")"
    tangle     := term { "+" term }
    term       := rational | "(" tangle ")" | pretzel | montesinos
    rational   := integer "/" integer | integer
    pretzel    := "P(" integer "," integer "," integer ")"
    montesinos := "M(" rational { "," rational } ")"

A closure C(...) marks the numerator closure of a tangle sum and is only
allowed at the top level.  Tangle sum is left associative; the printer
emits the canonical spelling (no spaces, parentheses only where the tree
shape requires them) and parse_expr(print_expr(e)) == e for every tree.

The parser rejects input nesting deeper than MAX_NESTING parentheses
plus Sum nodes on a path from the root.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

from .errors import DegenerateTangleError, ParseError, ShapeError

__all__ = [
    "RationalTangle",
    "Sum",
    "PretzelTriple",
    "Pretzel",
    "Montesinos",
    "Closure",
    "TangleExpr",
    "MAX_NESTING",
    "parse_expr",
    "print_expr",
    "normalize_pretzel",
    "pretzel_to_montesinos",
    "is_large_algebraic",
]


@dataclass(frozen=True)
class RationalTangle:
    """A rational tangle named by its slope, e.g. 1/2 or -3."""

    slope: Fraction


@dataclass(frozen=True)
class Sum:
    """Tangle sum of two subtangles, left associative in the grammar."""

    left: "TangleExpr"
    right: "TangleExpr"


@dataclass(frozen=True)
class PretzelTriple:
    """Twist parameters (p, q, r) of a 3-strand pretzel diagram."""

    p: int
    q: int
    r: int

    def entries(self) -> tuple[int, int, int]:
        return (self.p, self.q, self.r)

    def mirrored(self) -> "PretzelTriple":
        return PretzelTriple(-self.p, -self.q, -self.r)


@dataclass(frozen=True)
class Pretzel:
    """A (p, q, r)-pretzel written P(p,q,r)."""

    triple: PretzelTriple


@dataclass(frozen=True)
class Montesinos:
    """A Montesinos form M(f1,...,fn) listing the tangle slopes."""

    slopes: tuple[Fraction, ...]


@dataclass(frozen=True)
class Closure:
    """Numerator closure of a tangle, only valid at the root."""

    inner: "TangleExpr"


TangleExpr = Union[RationalTangle, Sum, Pretzel, Montesinos, Closure]

_INTEGER = re.compile(r"[+-]?[0-9]+")

# At this depth the deepest recursion (two parser frames per parenthesis,
# one printer, tree-walk or JSON encoder frame per level) stays under
# half the interpreter's default recursion limit.
MAX_NESTING = 200
_TOO_DEEP = f"expression nests deeper than {MAX_NESTING} levels of parentheses and sums"


class _Parser:
    """Single-pass recursive descent over the expression text."""

    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.parens = 0  # open parentheses around the current position

    # --- token helpers ---

    def _skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self._skip_ws()
        if self.pos >= len(self.text):
            return ""
        return self.text[self.pos]

    def expect(self, ch: str) -> None:
        if self.peek() != ch:
            found = self.peek() or "end of input"
            raise ParseError(f"expected '{ch}', found {found!r}", self.pos)
        self.pos += 1

    def integer(self) -> int:
        self._skip_ws()
        m = _INTEGER.match(self.text, self.pos)
        if m is None:
            found = self.peek() or "end of input"
            raise ParseError(f"expected an integer, found {found!r}", self.pos)
        try:
            value = int(m.group())
        except ValueError:  # beyond the interpreter's int-string digit limit
            raise ParseError(f"integer literal of {len(m.group())} characters is too long",
                             self.pos) from None
        self.pos = m.end()
        return value

    # --- grammar rules ---
    #
    # tangle() and term() return the subtree with its nesting: the most
    # parentheses plus Sum nodes on a path down from its root.

    def expr(self) -> TangleExpr:
        if self.peek() == "C":
            tree: TangleExpr = self.closure()
        else:
            tree, _ = self.tangle()
        if self.peek():
            raise ParseError(
                f"unexpected trailing input {self.peek()!r}", self.pos
            )
        return tree

    def closure(self) -> Closure:
        self.expect("C")
        self.expect("(")
        inner, _ = self.tangle()
        self.expect(")")
        return Closure(inner)

    def tangle(self) -> tuple[TangleExpr, int]:
        tree, nesting = self.term()
        while self.peek() == "+":
            at = self.pos
            self.expect("+")
            right, right_nesting = self.term()
            tree, nesting = Sum(tree, right), max(nesting, right_nesting) + 1
            if nesting > MAX_NESTING:
                raise ParseError(_TOO_DEEP, at)
        return tree, nesting

    def term(self) -> tuple[TangleExpr, int]:
        ch = self.peek()
        if ch == "(":
            at = self.pos
            self.parens += 1
            if self.parens > MAX_NESTING:  # before recursing any deeper
                raise ParseError(_TOO_DEEP, at)
            self.expect("(")
            inner, nesting = self.tangle()
            self.expect(")")
            self.parens -= 1
            if nesting + 1 > MAX_NESTING:
                raise ParseError(_TOO_DEEP, at)
            return inner, nesting + 1
        if ch == "P":
            return self.pretzel(), 0
        if ch == "M":
            return self.montesinos(), 0
        if ch == "C":
            raise ParseError("closure C(...) is only allowed at the top level", self.pos)
        return RationalTangle(self.rational()), 0

    def rational(self) -> Fraction:
        numerator = self.integer()
        if self.peek() != "/":
            return Fraction(numerator)
        self.expect("/")
        at = self.pos
        denominator = self.integer()
        if denominator == 0:
            raise ParseError("slope denominator is zero", at)
        return Fraction(numerator, denominator)

    def pretzel(self) -> Pretzel:
        self.expect("P")
        self.expect("(")
        p = self.integer()
        self.expect(",")
        q = self.integer()
        self.expect(",")
        r = self.integer()
        self.expect(")")
        return Pretzel(PretzelTriple(p, q, r))

    def montesinos(self) -> Montesinos:
        self.expect("M")
        self.expect("(")
        slopes = [self.rational()]
        while self.peek() == ",":
            self.expect(",")
            slopes.append(self.rational())
        self.expect(")")
        return Montesinos(tuple(slopes))


def parse_expr(text: str) -> TangleExpr:
    """Parse an expression string into a tree; ParseError on bad syntax."""
    return _Parser(text).expr()


def print_expr(expression: TangleExpr) -> str:
    """Canonical spelling of a tree; inverse of parse_expr on its image."""
    if isinstance(expression, Closure):
        return f"C({_print_tangle(expression.inner)})"
    return _print_tangle(expression)


def _print_tangle(expression: TangleExpr) -> str:
    if isinstance(expression, Sum):
        left = expression.left
        # Left associative, so only a right Sum child needs parentheses.
        left_text = _print_tangle(left) if isinstance(left, Sum) else _print_term(left)
        return f"{left_text}+{_print_term(expression.right)}"
    return _print_term(expression)


def _print_term(expression: TangleExpr) -> str:
    if isinstance(expression, RationalTangle):
        return str(expression.slope)
    if isinstance(expression, Pretzel):
        p, q, r = expression.triple.entries()
        return f"P({p},{q},{r})"
    if isinstance(expression, Montesinos):
        return "M(" + ",".join(str(f) for f in expression.slopes) + ")"
    if isinstance(expression, Sum):
        return f"({_print_tangle(expression)})"
    raise ShapeError("closure C(...) is only valid at the root of a tree")


def normalize_pretzel(triple: PretzelTriple) -> tuple[PretzelTriple, bool]:
    """Canonical form of a pretzel triple under permutation and mirroring.

    Sorting the entries ascending fixes the permutation.  Of the sorted
    triple and its sorted mirror we keep the lexicographically larger
    one, and report whether that choice was the mirror.  For example
    (3,-2,3) stays (-2,3,3) while (2,-3,-5) flips to (-2,3,5) with the
    mirror flag set.
    """
    low, mid, high = sorted(triple.entries())
    plain, mirrored = (low, mid, high), (-high, -mid, -low)
    if mirrored > plain:
        return PretzelTriple(*mirrored), True
    return PretzelTriple(*plain), False


def pretzel_to_montesinos(triple: PretzelTriple) -> Montesinos:
    """View P(p,q,r) as the Montesinos form M(1/p,1/q,1/r)."""
    if 0 in triple.entries():
        raise DegenerateTangleError(
            f"zero twist parameter in {triple.entries()}"
        )
    return Montesinos(tuple(Fraction(1, e) for e in triple.entries()))


def is_large_algebraic(expression: TangleExpr) -> bool:
    """Syntactic check for a closure of two nontrivial algebraic halves.

    True when the tree is C(T1 + T2) where each summand is itself a sum
    of at least two rational tangles, every one with slope of the form
    1/m for an integer m with |m| >= 2.  Such a diagram exhibits a
    2-string decomposing sphere between the halves.  Anything that is
    not a closure at the root cannot be checked and raises ShapeError.
    """
    if not isinstance(expression, Closure):
        raise ShapeError("expected a closed expression C(...)")
    inner = expression.inner
    if not isinstance(inner, Sum):
        return False
    return _is_algebraic_half(inner.left) and _is_algebraic_half(inner.right)


def _is_algebraic_half(tangle: TangleExpr) -> bool:
    leaves = _rational_leaves(tangle)
    if leaves is None or len(leaves) < 2:
        return False
    return all(abs(f.numerator) == 1 and f.denominator >= 2 for f in leaves)


def _rational_leaves(tangle: TangleExpr) -> list[Fraction] | None:
    """Slopes at the leaves of a pure Sum tree, or None if impure."""
    if isinstance(tangle, RationalTangle):
        return [tangle.slope]
    if isinstance(tangle, Sum):
        left = _rational_leaves(tangle.left)
        right = _rational_leaves(tangle.right)
        if left is None or right is None:
            return None
        return left + right
    return None
