"""Representativity bounds and the classification report.

The representativity of a knot is the largest n such that every closed
surface containing the knot meets some compressing disk boundary at
least n times; it never exceeds the bridge number, which a 3-strand
pretzel diagram caps at 3.  The reported bounds are assembled from a
short list of replayable rules, each carrying the statement it relies
on, so a report can be audited rule by rule.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .errors import (
    DegenerateTangleError,
    InvalidParameterError,
    UnsupportedInputError,
)
from .linktrace import pretzel_knot
from .tanglecalc import (
    Closure,
    Montesinos,
    Pretzel,
    Sum,
    TangleExpr,
    canonical_entries,
    is_large_algebraic,
)

__all__ = [
    "AppliedRule",
    "TorusInfo",
    "RepReport",
    "torus_pretzel",
    "tangle_string_bound",
    "pretzel_form_knot",
    "knot_report",
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
    large_algebraic: bool | None = None  # decided for a closure, None for a pretzel knot


# The canonical triples of representativity exactly 3, fixed by the
# classification theorem and kept apart from the surface scan.
_EXACTLY_THREE = {(-2, 3, 3), (-2, 3, 5)}

_BRIDGE_RULE = AppliedRule("bridge-number-bound", _CITE_BRIDGE, "upper", 3)
# the report of each rule set for pretzel knots, before any torus rule
_SMALL_TWIST = RepReport(1, 2, None, (_BRIDGE_RULE, AppliedRule(
    "small-twist-reduction", _CITE_SMALL_TWIST, "upper", 2)), None, 2)
_EQUALS_THREE = RepReport(3, 3, 3, (_BRIDGE_RULE, AppliedRule(
    "representativity-equals-three", _CITE_CLASSIFICATION, "exact", 3)), None, 3)
_AT_MOST_TWO = RepReport(1, 2, None, (_BRIDGE_RULE, AppliedRule(
    "representativity-at-most-two", _CITE_CLASSIFICATION, "upper", 2)), None, 3)
_TORUS_RULE = AppliedRule("torus-knot-identification", _CITE_TORUS)


def _rule_set(canonical: tuple[int, int, int]) -> RepReport:
    # a unit twist is in the canonical triple exactly when it is in the entries
    if 1 in canonical or -1 in canonical:
        return _SMALL_TWIST
    return _EQUALS_THREE if canonical in _EXACTLY_THREE else _AT_MOST_TWO


def _torus_report(canonical: tuple[int, int, int], torus: TorusInfo) -> RepReport:
    base = _rule_set(canonical)
    return replace(base, rules=base.rules + (_TORUS_RULE,), torus=torus)


# the torus knots' reports, built once and keyed by (canonical triple,
# mirror), where (1,1,1) and its mirror share one; every other pretzel
# knot shares its rule set's report
_TREFOIL = _torus_report((1, 1, 1), TorusInfo(None))
_TORUS_REPORTS = {
    ((-2, 3, 3), False): _torus_report((-2, 3, 3), TorusInfo((3, 4))),
    ((-2, 3, 3), True): _torus_report((-2, 3, 3), TorusInfo((3, -4))),
    ((-2, 3, 5), False): _torus_report((-2, 3, 5), TorusInfo((3, 5))),
    ((-2, 3, 5), True): _torus_report((-2, 3, 5), TorusInfo((3, -5))),
    ((1, 1, 1), False): _TREFOIL,
    ((1, 1, 1), True): _TREFOIL,
}


def torus_pretzel(triple: tuple[int, int, int]) -> TorusInfo | None:
    """Torus knot data for the few pretzel triples that are torus knots."""
    entries = tuple(triple)  # a list or other sequence prints as (p, q, r)
    if 0 in entries:
        raise DegenerateTangleError(f"zero twist parameter in {entries}")
    report = _TORUS_REPORTS.get(canonical_entries(entries))
    return None if report is None else report.torus


def tangle_string_bound(string_number: int) -> int:
    """Upper bound 2 * ts(K) from a ts-string decomposing sphere."""
    if string_number < 1:
        raise InvalidParameterError(
            f"tangle string number must be >= 1, got {string_number}"
        )
    return 2 * string_number


# the report of each kind of closure, both conditional on the visible sphere
_LARGE_ALGEBRAIC = RepReport(1, 3, None, (AppliedRule(
    "large-algebraic-bound", _CITE_LARGE_ALGEBRAIC, "upper", 3, conditional=True),),
    None, None, True)
_STRING_BOUND = RepReport(1, 4, None, (AppliedRule(
    "tangle-string-bound", _CITE_TANGLE_STRING, "upper", tangle_string_bound(2),
    conditional=True),), None, None, False)


def knot_report(canonical: tuple[int, int, int], mirror: bool) -> RepReport:
    """The report of a pretzel knot from what canonical_entries returns
    for its triple, which the caller has checked to be a knot."""
    report = _TORUS_REPORTS.get((canonical, mirror))
    return _rule_set(canonical) if report is None else report


def representativity_bounds(expression: TangleExpr) -> RepReport:
    """Classification report for a pretzel form or a closed tangle sum.

    Montesinos forms M(1/p,1/q,1/r) are read as the pretzel (p,q,r).  A
    knot that is validated already goes to knot_report, not here.
    Closures C(T1+T2) get the tangle string bound, sharpened to 3 when
    the two halves are syntactically large algebraic; both closure
    bounds are conditional on the visible sphere being essential.
    """
    if isinstance(expression, Closure):
        if not isinstance(expression.inner, Sum):
            raise UnsupportedInputError(
                "closure of a single tangle carries no decomposing sphere; "
                "expected C(T1+T2)"
            )
        return _LARGE_ALGEBRAIC if is_large_algebraic(expression) else _STRING_BOUND
    knot = pretzel_form_knot(expression)
    if knot is None:
        raise UnsupportedInputError(
            "no classification rule applies; expected P(p,q,r), M(1/p,1/q,1/r) "
            "or a top-level closure C(T1+T2)"
        )
    return knot_report(*knot)


def pretzel_form_knot(expression: TangleExpr) -> tuple[tuple[int, int, int], bool] | None:
    """The (canonical, mirror) pair of pretzel_knot for a pretzel form
    P(p,q,r) or a Montesinos form M(1/p,1/q,1/r), read as the pretzel
    (p,q,r); None for any other expression."""
    if isinstance(expression, Pretzel):
        return pretzel_knot(expression.triple)
    if not isinstance(expression, Montesinos):
        return None
    slopes = expression.slopes
    if len(slopes) != 3 or any(abs(f.numerator) != 1 for f in slopes):
        raise UnsupportedInputError(
            "only Montesinos forms M(1/p,1/q,1/r) with three unit-numerator "
            "slopes classify as pretzels"
        )
    return pretzel_knot(tuple(f.denominator * f.numerator for f in slopes))
