"""Representativity bounds and the classification report.

The representativity of a knot is the largest n such that every closed
surface containing the knot meets some compressing disk boundary at
least n times; it never exceeds the bridge number, which a 3-strand
pretzel diagram caps at 3.  The reported bounds are assembled from a
short list of replayable rules, each carrying the statement it relies
on, so a report can be audited rule by rule.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import (
    DegenerateTangleError,
    InvalidParameterError,
    UnsupportedInputError,
)
from .linktrace import PretzelKnot, pretzel_knot
from .tanglecalc import (
    Closure,
    Montesinos,
    Pretzel,
    PretzelTriple,
    Sum,
    TangleExpr,
    is_large_algebraic,
    normalize_pretzel,
)

__all__ = [
    "AppliedRule",
    "TorusInfo",
    "RepReport",
    "bridge_upper",
    "torus_pretzel",
    "tangle_string_bound",
    "representativity_bounds",
]

_CITE_BRIDGE = (
    "the representativity of a knot is at most its bridge number, and a "
    "3-strand pretzel diagram has at most 3 bridges"
)
_CITE_SMALL_TWIST = (
    "a pretzel knot with a twist parameter of absolute value 1 is a "
    "connected sum of two torus knots, a torus knot, or a 2-bridge knot, "
    "each of representativity at most 2"
)
_CITE_CLASSIFICATION = (
    "a (p,q,r)-pretzel knot with all |twists| >= 2 has representativity 3 "
    "exactly when the triple is equivalent to (-2,3,3) or (-2,3,5), and "
    "representativity at most 2 otherwise"
)
_CITE_TORUS = (
    "the (-2,3,3)- and (-2,3,5)-pretzel knots are the (3,4) and (3,5) "
    "torus knots, with mirrored parameters for mirrored triples, and "
    "(1,1,1) is a trefoil"
)
_CITE_LARGE_ALGEBRAIC = (
    "a large algebraic knot admits an essential Conway sphere, which "
    "bounds the representativity by 3"
)
_CITE_TANGLE_STRING = (
    "the representativity of a tangle composite knot is at most twice its "
    "tangle string number; a visible 2-string decomposing sphere gives "
    "tangle string number at most 2"
)


@dataclass(frozen=True)
class AppliedRule:
    """One replayable step of a classification.

    sets is "upper" (upper bound min-ed with value), "exact" (pins the
    representativity), or None for purely informational rules; a
    conditional rule assumes the visible decomposing surface is
    essential.
    """

    name: str
    citation: str
    sets: str | None = None
    value: int | None = None
    conditional: bool = False


@dataclass(frozen=True)
class TorusInfo:
    """Marks a torus knot; params is (p, q) when tracked, else None."""

    params: tuple[int, int] | None


@dataclass(frozen=True)
class RepReport:
    lower: int
    upper: int
    exact: int | None
    rules: tuple[AppliedRule, ...]
    torus: TorusInfo | None
    bridge_upper: int | None


# The canonical triples of representativity exactly 3, fixed by the
# classification theorem and kept apart from the surface scan.
_EXACTLY_THREE = {(-2, 3, 3), (-2, 3, 5)}

_BRIDGE_RULE = AppliedRule("bridge-number-bound", _CITE_BRIDGE, "upper", 3)
_SMALL_TWIST_RULES = (
    _BRIDGE_RULE,
    AppliedRule("small-twist-reduction", _CITE_SMALL_TWIST, "upper", 2),
)
_EXACTLY_THREE_RULES = (
    _BRIDGE_RULE,
    AppliedRule("representativity-equals-three", _CITE_CLASSIFICATION, "exact", 3),
)
_AT_MOST_TWO_RULES = (
    _BRIDGE_RULE,
    AppliedRule("representativity-at-most-two", _CITE_CLASSIFICATION, "upper", 2),
)
_TORUS_RULE = AppliedRule("torus-knot-identification", _CITE_TORUS)

# torus data keyed by (canonical triple, mirror)
_TORUS = {
    ((-2, 3, 3), False): TorusInfo((3, 4)),
    ((-2, 3, 3), True): TorusInfo((3, -4)),
    ((-2, 3, 5), False): TorusInfo((3, 5)),
    ((-2, 3, 5), True): TorusInfo((3, -5)),
    ((1, 1, 1), False): TorusInfo(None),
    ((1, 1, 1), True): TorusInfo(None),
}


def _has_unit_twist(entries: tuple[int, int, int]) -> bool:
    return 1 in entries or -1 in entries


def bridge_upper(triple: PretzelTriple) -> int:
    """Bridge number bound from the pretzel diagram: 3 in general, 2
    once a twist parameter of absolute value 1 makes the knot a
    connected sum of torus knots, a torus knot, or a 2-bridge knot."""
    return 2 if _has_unit_twist(pretzel_knot(triple).entries) else 3


def torus_pretzel(triple: PretzelTriple) -> TorusInfo | None:
    """Torus knot data for the few pretzel triples that are torus knots."""
    entries = triple.entries()
    if 0 in entries:
        raise DegenerateTangleError(f"zero twist parameter in {entries}")
    canonical, mirror = normalize_pretzel(triple)
    return _TORUS.get((canonical.entries(), mirror))


def tangle_string_bound(string_number: int) -> int:
    """Upper bound 2 * ts(K) from a ts-string decomposing sphere."""
    if string_number < 1:
        raise InvalidParameterError(
            f"tangle string number must be >= 1, got {string_number}"
        )
    return 2 * string_number


def representativity_bounds(expression: TangleExpr | PretzelKnot) -> RepReport:
    """Classification report for a pretzel form or a closed tangle sum.

    Montesinos forms M(1/p,1/q,1/r) are read as the pretzel (p,q,r).  A
    PretzelKnot, already validated, is classified as it stands.
    Closures C(T1+T2) get the tangle string bound, sharpened to 3 when
    the two halves are syntactically large algebraic; both closure
    bounds are conditional on the visible sphere being essential.
    """
    if isinstance(expression, PretzelKnot):
        return _classify_pretzel(expression)
    if isinstance(expression, Pretzel):
        return _classify_pretzel(pretzel_knot(expression.triple))
    if isinstance(expression, Montesinos):
        return _classify_pretzel(pretzel_knot(_montesinos_triple(expression)))
    if isinstance(expression, Closure):
        return _classify_closure(expression)
    raise UnsupportedInputError(
        "no classification rule applies; expected P(p,q,r), M(1/p,1/q,1/r) "
        "or a top-level closure C(T1+T2)"
    )


def _montesinos_triple(expression: Montesinos) -> PretzelTriple:
    slopes = expression.slopes
    if len(slopes) != 3 or any(abs(f.numerator) != 1 for f in slopes):
        raise UnsupportedInputError(
            "only Montesinos forms M(1/p,1/q,1/r) with three unit-numerator "
            "slopes classify as pretzels"
        )
    return PretzelTriple(*(f.denominator * f.numerator for f in slopes))


def _classify_pretzel(knot: PretzelKnot) -> RepReport:
    lower, upper, exact, bridge = 1, 2, None, 3
    if _has_unit_twist(knot.entries):
        rules, bridge = _SMALL_TWIST_RULES, 2
    elif knot.canonical in _EXACTLY_THREE:
        rules, lower, upper, exact = _EXACTLY_THREE_RULES, 3, 3, 3
    else:
        rules = _AT_MOST_TWO_RULES
    torus = _TORUS.get((knot.canonical, knot.mirror))
    if torus is not None:
        rules += (_TORUS_RULE,)
    return RepReport(lower, upper, exact, rules, torus, bridge)


def _classify_closure(expression: Closure) -> RepReport:
    if not isinstance(expression.inner, Sum):
        raise UnsupportedInputError(
            "closure of a single tangle carries no decomposing sphere; "
            "expected C(T1+T2)"
        )
    if is_large_algebraic(expression):
        rule = AppliedRule("large-algebraic-bound", _CITE_LARGE_ALGEBRAIC,
                           "upper", 3, conditional=True)
        upper = 3
    else:
        rule = AppliedRule("tangle-string-bound", _CITE_TANGLE_STRING,
                           "upper", tangle_string_bound(2), conditional=True)
        upper = 4
    return RepReport(1, upper, None, (rule,), None, None)
