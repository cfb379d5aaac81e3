"""Planar diagram codes for pretzel links and component tracing.

A diagram is a list of crossings, each a 4-tuple of arc labels read
counterclockwise starting from the incoming under-strand, so slots 0
and 2 belong to the under-strand and slots 1 and 3 to the over-strand.
A code with n crossings labels its arcs 1..2n, and every label appears
on exactly two slots in the whole code.

The pretzel diagram for twist parameters (t_1, ..., t_n) stacks |t_i|
crossings in the i-th vertical region; the regions are joined top-right
to top-left and bottom-right to bottom-left of the next region, indices
wrapping around.  pretzel_diagram builds, and pretzel_crossings yields,
at most MAX_CROSSINGS crossings.
"""

from __future__ import annotations

from collections import Counter
from itertools import chain, islice
from typing import Callable, Iterable, Iterator, Sequence

from .errors import (
    DegenerateTangleError,
    InvalidParameterError,
    InvalidPDCodeError,
    NotAKnotError,
)
from .tanglecalc import canonical_entries

__all__ = ["MAX_CROSSINGS", "diagram_twists", "pretzel_diagram", "pretzel_crossings",
           "component_count", "trace_components", "is_knot", "knot_components",
           "pretzel_knot"]

Crossing = tuple[int, int, int, int]

# trace at this size: about 2.1 s and 48 MB, as text or JSON
MAX_CROSSINGS = 2_000_000


def diagram_twists(twists: Sequence[int]) -> list[int]:
    """The twists as a list, checked before any diagram is built: a
    zero region has no crossing to wire through, and a diagram has at
    most MAX_CROSSINGS crossings."""
    twists = list(twists)
    if not twists:
        raise DegenerateTangleError("empty twist list")
    if any(t == 0 for t in twists):
        raise DegenerateTangleError(f"zero twist parameter in {tuple(twists)}")
    crossings = sum(abs(t) for t in twists)
    if crossings > MAX_CROSSINGS:
        raise InvalidParameterError(
            f"the diagram would have {crossings} crossings, "
            f"more than the limit of {MAX_CROSSINGS}")
    return twists


def pretzel_diagram(twists: Sequence[int]) -> tuple[Crossing, ...]:
    """Planar diagram code of the pretzel link with the given twists.

    Twist parameter t_i > 0 stacks t_i positive crossings in region i,
    t_i < 0 stacks |t_i| negative ones; the twists must pass
    diagram_twists.
    """
    # through a list: the collector would rescan a tuple grown in place
    return tuple(list(pretzel_crossings(twists)))


def pretzel_crossings(twists: Sequence[int]) -> Iterator[Crossing]:
    """The crossings of pretzel_diagram(twists), one at a time, so that
    no diagram is held; the twists are checked at the call, not at the
    first crossing."""
    return _crossings(diagram_twists(twists))


def _crossings(twists: list[int]) -> Iterator[Crossing]:
    n = len(twists)
    # top[i] joins region i top-right to region i+1 top-left, bottom[i]
    # likewise along the lower edge; interior arcs are numbered after.
    top = list(range(1, n + 1))
    bottom = list(range(n + 1, 2 * n + 1))
    next_arc = 2 * n + 1
    for i, t in enumerate(twists):
        # index i - 1 wraps to the last region at i = 0; every crossing but
        # the last leads into two new arcs.  The under-strand runs top-left
        # to bottom-right when t > 0, top-right to bottom-left otherwise
        left, right = top[i - 1], top[i]
        stop = next_arc + 2 * abs(t) - 2
        for out_left in range(next_arc, stop, 2):
            out_right = out_left + 1  # one int object for both crossings that use it
            yield (left, out_left, out_right, right) if t > 0 else (right, left, out_left, out_right)
            left, right = out_left, out_right
        out_left, out_right = bottom[i - 1], bottom[i]
        yield (left, out_left, out_right, right) if t > 0 else (right, left, out_left, out_right)
        next_arc = stop


def component_count(crossings: Sequence[Crossing]) -> int:
    """Number of link components traced through the crossings; a code
    with n crossings must use each label 1..2n exactly twice."""
    return trace_components(lambda: crossings, 2 * len(crossings))


_CROSSINGS_PER_CHUNK = 1024  # small enough to stay in cache while traced


def trace_components(build: Callable[[], Iterable[Crossing]], size: int) -> int:
    """Number of link components of the code that build() yields, which
    must use each label 1..size exactly twice, holding one chunk of its
    crossings at a time.  Strands glue along slots (0, 2) and (1, 3) of
    every crossing, so each label is glued to two others and the gluings
    form cycles, one per component.  An invalid code is built once more
    to name its first fault.
    """
    uses = [0] * (size + 1)  # a list, as CPython specializes list subscripts
    end = {}  # end[x] is the other end of the open path of glued arcs ending at x
    cycles = 0
    crossings = iter(build())
    try:
        while chunk := list(islice(crossings, _CROSSINGS_PER_CHUNK)):
            # a label below 1 would index uses from the end, so it is
            # checked here; a label above size raises IndexError below
            if min(chain.from_iterable(chunk)) < 1:
                raise ValueError
            for a, b, c, d in chunk:
                uses[a] += 1
                uses[b] += 1
                uses[c] += 1
                uses[d] += 1
                # glue the under-strand arcs a, c, then the over-strand b, d
                ea, ec = end.pop(a, a), end.pop(c, c)
                if ea == c:
                    cycles += 1
                else:
                    end[ea], end[ec] = ec, ea
                eb, ed = end.pop(b, b), end.pop(d, d)
                if eb == d:
                    cycles += 1
                else:
                    end[eb], end[ed] = ed, eb
        if uses.count(2) == size and not end:
            return cycles
    except (ValueError, IndexError):  # a label out of range, a crossing without four slots
        pass
    raise _invalid_code(tuple(build()), size)


def _invalid_code(crossings, size: int) -> InvalidPDCodeError:
    """The error for an invalid code with labels 1..size: a label outside
    1..size first, then a crossing without four slots, then a label not used twice."""
    low = min(chain.from_iterable(crossings), default=1)
    high = max(chain.from_iterable(crossings), default=1)
    if low < 1 or high > size:
        return InvalidPDCodeError(f"arc {low if low < 1 else high} is outside the labels 1..{size}")
    for index, crossing in enumerate(crossings):
        if len(crossing) != 4:
            return InvalidPDCodeError(f"crossing {index} has {len(crossing)} slots, expected 4")
    # with size / 2 crossings a missing label leaves another used more than
    # twice; only a stream short of crossings can miss one with no count off
    counts = Counter(chain.from_iterable(crossings))
    arc = next(chain((arc for arc, count in counts.items() if count != 2),
                     (arc for arc in range(1, size + 1) if arc not in counts)))
    return InvalidPDCodeError(f"arc {arc} appears {counts[arc]} times, expected exactly 2")


def is_knot(triple: tuple[int, int, int]) -> bool:
    """True when the pretzel diagram, traced without being held, has one component."""
    twists = diagram_twists(triple)
    return trace_components(lambda: pretzel_crossings(twists), 2 * sum(map(abs, twists))) == 1


def knot_components(entries: tuple[int, int, int]) -> int:
    """Components of the 3-strand pretzel link with these nonzero twists,
    in closed form: one per even entry (e & 1 == 0), or a single one when
    no entry is even.  The test suite checks this against full tracing."""
    p, q, r = entries
    return max(1, 3 - (p & 1) - (q & 1) - (r & 1))


def pretzel_knot(triple: tuple[int, int, int]) -> tuple[tuple[int, int, int], bool]:
    """Validate a (p, q, r) sequence once: a zero twist, then a link, is
    a domain error; otherwise return what canonical_entries returns, the
    canonical triple and whether it is the mirror of the sorted entries."""
    entries = tuple(triple)  # a list or other sequence becomes a plain tuple
    if 0 in entries:
        raise DegenerateTangleError(f"zero twist parameter in {entries}")
    components = knot_components(entries)
    if components != 1:
        raise NotAKnotError(f"not a knot ({components} components)")
    return canonical_entries(entries)
