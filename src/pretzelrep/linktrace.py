"""Planar diagram codes for pretzel links and component tracing.

A diagram is a list of crossings, each a 4-tuple of arc labels read
counterclockwise starting from the incoming under-strand, so slots 0
and 2 belong to the under-strand and slots 1 and 3 to the over-strand.
Arc labels are consecutive integers from 1 and every label appears on
exactly two slots in the whole code.

The pretzel diagram for twist parameters (t_1, ..., t_n) stacks |t_i|
crossings in the i-th vertical region; the regions are joined top-right
to top-left and bottom-right to bottom-left of the next region, indices
wrapping around.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .errors import DegenerateTangleError, InvalidPDCodeError, NotAKnotError
from .tanglecalc import PretzelTriple, normalize_pretzel

__all__ = ["PDCode", "PretzelKnot", "pretzel_diagram", "component_count", "is_knot",
           "knot_components", "pretzel_knot"]


@dataclass(frozen=True)
class PDCode:
    """Crossing list of a link diagram."""

    crossings: tuple[tuple[int, int, int, int], ...]


def pretzel_diagram(twists: Sequence[int]) -> PDCode:
    """Planar diagram code of the pretzel link with the given twists.

    Twist parameter t_i > 0 stacks t_i positive crossings in region i,
    t_i < 0 stacks |t_i| negative ones; a zero region has no crossing to
    wire through and is rejected.
    """
    twists = list(twists)
    if not twists:
        raise DegenerateTangleError("empty twist list")
    if any(t == 0 for t in twists):
        raise DegenerateTangleError(f"zero twist parameter in {tuple(twists)}")

    n = len(twists)
    # top[i] joins region i top-right to region i+1 top-left, bottom[i]
    # likewise along the lower edge; interior arcs are numbered after.
    top = list(range(1, n + 1))
    bottom = list(range(n + 1, 2 * n + 1))
    next_arc = 2 * n + 1

    crossings: list[tuple[int, int, int, int]] = []
    for i, t in enumerate(twists):
        left, right = top[(i - 1) % n], top[i]
        count = abs(t)
        for j in range(count):
            if j < count - 1:
                out_left, out_right = next_arc, next_arc + 1
                next_arc += 2
            else:
                out_left, out_right = bottom[(i - 1) % n], bottom[i]
            if t > 0:
                # under-strand runs top-left to bottom-right
                crossings.append((left, out_left, out_right, right))
            else:
                # under-strand runs top-right to bottom-left
                crossings.append((right, left, out_left, out_right))
            left, right = out_left, out_right
    return PDCode(tuple(crossings))


def component_count(code: PDCode) -> int:
    """Number of link components traced through the crossings.

    Strands glue along slots (0, 2) and (1, 3) of every crossing; the
    components are the equivalence classes of arcs under that gluing.
    """
    seen: dict[int, int] = {}
    for crossing in code.crossings:
        for arc in crossing:
            seen[arc] = seen.get(arc, 0) + 1
    for arc, count in seen.items():
        if count != 2:
            raise InvalidPDCodeError(
                f"arc {arc} appears {count} times, expected exactly 2"
            )

    parent = {arc: arc for arc in seen}

    def find(arc: int) -> int:
        root = arc
        while parent[root] != root:
            root = parent[root]
        while parent[arc] != root:  # path compression
            parent[arc], arc = root, parent[arc]
        return root

    for a, b, c, d in code.crossings:
        parent[find(a)] = find(c)
        parent[find(b)] = find(d)
    return sum(1 for arc in parent if find(arc) == arc)


def is_knot(triple: PretzelTriple) -> bool:
    """True when the pretzel diagram traces out a single component."""
    return component_count(pretzel_diagram(triple.entries())) == 1


def knot_components(entries: Sequence[int]) -> int:
    """Components of the 3-strand pretzel link with these nonzero twists,
    in closed form: one per even entry, or a single one when no entry is
    even.  The test suite checks this against full tracing."""
    return max(1, sum(1 for e in entries if e % 2 == 0))


@dataclass(frozen=True)
class PretzelKnot:
    """A pretzel triple checked to be a knot, with its canonical form.

    entries is the triple as given; canonical and mirror are what
    normalize_pretzel returns for it, the canonical triple as a tuple.
    """

    entries: tuple[int, int, int]
    canonical: tuple[int, int, int]
    mirror: bool


def pretzel_knot(triple: PretzelTriple | PretzelKnot) -> PretzelKnot:
    """Validate a triple once: a zero twist, then a link, is a domain
    error; otherwise canonicalize it.  A PretzelKnot passes through."""
    if isinstance(triple, PretzelKnot):
        return triple
    entries = triple.entries()
    if 0 in entries:
        raise DegenerateTangleError(f"zero twist parameter in {entries}")
    components = knot_components(entries)
    if components != 1:
        raise NotAKnotError(f"not a knot ({components} components)")
    canonical, mirror = normalize_pretzel(triple)
    return PretzelKnot(entries, canonical.entries(), mirror)
