"""Candidate essential surface patterns in pretzel knot exteriors.

For a knot P(p,q,r) with |p|,|q|,|r| >= 2, a closed surface meeting
every twist region in disks is described by choosing a type per region:

  type A - at least two parallel disks, boundary slope p' = m for an
           m-twist region (each disk boundary is a 1/m curve);
  type B - a single disk met by two strings, boundary slope p' = m + 1.

Such a surface exists only when exactly one boundary slope is negative
and 1/p' + 1/q' + 1/r' = 0.  The number N of intersection arcs on each
meridian disk is the common denominator lcm(|p'|,|q'|,|r'|), the region
with slope p' carries N/|p'| sheets, and the surface meets the boundary
torus in L = 2N longitudes.  Counting cells (3L vertices, 3N + 3L
edges, sum(sheets) + L faces) gives the Euler characteristic
chi = sum(sheets) - N.

The surviving slope triples are solutions of the reciprocal-sum lemma
with parameters (k, l, d).  The denominator filter forces the
consecutive family l = k + 1 on every one of them; the twin family
(l = 2k) is its case k = 1.  Disk compressions rule out everything
except d = 2 in the twin family and k = 2, d = 1 otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from math import gcd, lcm
from operator import itemgetter

from .errors import DegenerateTangleError, InvariantError
from .linktrace import pretzel_knot

__all__ = [
    "TYPE_A",
    "TYPE_B",
    "Verdict",
    "SurfacePattern",
    "TYPINGS",
    "enumerate_patterns",
    "scan_assignments",
    "scan_fields",
    "scannable_knot",
    "euler_characteristic",
    "genus",
]

TYPE_A = "A"
TYPE_B = "B"
# the eight type assignments, in scan order
TYPINGS = tuple(product((TYPE_A, TYPE_B), repeat=3))


@dataclass(frozen=True)
class Verdict:
    """Outcome of the structural and compressing-disk filters for one row."""

    accepted: bool
    reason: str | None = None    # None exactly when accepted
    family: str | None = None    # "Type (1)" or "Type (2)" when recognized


@dataclass(frozen=True)
class SurfacePattern:
    """One row of the eight-assignment scan.

    The measures (arcs through genus_val) are None when no surface has
    these boundary slopes; the verdict then names the existence filter
    that failed.
    """

    tangle_types: tuple[str, str, str]
    boundary_slopes: tuple[int, int, int]
    arcs: int | None             # N, intersection arcs per meridian disk
    sheets: tuple[int, int, int] | None
    longitudes: int | None       # L = 2N on the boundary torus
    chi: int | None
    genus_val: int | None
    verdict: Verdict

    @property
    def structural(self) -> bool:
        """Whether the row passed the existence filters."""
        return self.arcs is not None


# the verdicts of the existence filters, one per way to fail them
_SIGN_PATTERN = Verdict(False, "requires exactly one negative boundary slope")
_RECIPROCAL_SUM = Verdict(False, "boundary slopes fail 1/p' + 1/q' + 1/r' = 0")
_DENOMINATOR = Verdict(False, "common denominator exceeds the largest boundary slope")
_SINGLE_DISK = Verdict(False, "single-disk region must meet the surface in one sheet")
_PARALLEL_DISKS = Verdict(False, "parallel-disk region needs at least two sheets")
# the verdicts of _disk_verdict, one per family outcome
_TYPE_1 = Verdict(True, None, "Type (1)")
_TYPE_1_D = Verdict(False, "d=2 required; compressing disk exists", "Type (1)")
_TYPE_2_D = Verdict(False, "d=1 required; compressing disk exists", "Type (2)")
_TYPE_2_K = Verdict(False, "k=2 required; compressing disk exists", "Type (2)")
_TYPE_2 = Verdict(True, None, "Type (2)")
# the shapes of the eight rows when every row fails the sign pattern, or
# every row the reciprocal sum, and where each row's slopes sit in
# (p, q, r, p + 1, q + 1, r + 1)
_ALL_SIGN_PATTERN = tuple((types, _SIGN_PATTERN, False) for types in TYPINGS)
_ALL_RECIPROCAL_SUM = tuple((types, _RECIPROCAL_SUM, False) for types in TYPINGS)
_SLOPES = itemgetter(*[i + 3 * (ty == TYPE_B) for types in TYPINGS for i, ty in enumerate(types)])
# every other shapes tuple scan_fields has returned, kept once
_SHAPES: dict[tuple, tuple] = {}


def scannable_knot(triple: tuple[int, int, int]) -> tuple[tuple[int, int, int], bool]:
    """The (canonical, mirror) pair of pretzel_knot for a (p, q, r)
    sequence the scan applies to, or a domain error: a zero twist, then
    a unit twist, then a link."""
    entries = tuple(triple)
    if 0 not in entries and (1 in entries or -1 in entries):
        raise DegenerateTangleError(
            f"twist parameters must have absolute value >= 2, got {entries}")
    return pretzel_knot(entries)


def _scan_row(types, slopes) -> tuple[Verdict, tuple[int, ...]]:
    """The (verdict, measures) of one type assignment: the first failed
    existence filter's verdict and (), or the disk filters' verdict and
    the six ints (arcs, three sheets, chi, genus)."""
    x, y, z = slopes
    if (x < 0) + (y < 0) + (z < 0) != 1:
        return _SIGN_PATTERN, ()
    if y * z + x * z + x * y != 0:  # 1/x + 1/y + 1/z = 0 cleared of fractions
        return _RECIPROCAL_SUM, ()
    if (n := lcm(*(abs(s) for s in slopes))) != max(abs(s) for s in slopes):
        return _DENOMINATOR, ()
    sheets = tuple(n // abs(s) for s in slopes)
    # the first region whose type forbids its sheet count, if any
    for ty, sheet in zip(types, sheets):
        if sheet != 1 if ty == TYPE_B else sheet < 2:
            return (_SINGLE_DISK if ty == TYPE_B else _PARALLEL_DISKS), ()
    chi = sum(sheets) - n
    return _disk_verdict(slopes), (n, *sheets, chi, _genus_from_chi(chi))


def scan_assignments(triple: tuple[int, int, int]) -> list[SurfacePattern]:
    """All eight type assignments for the canonical form of the triple.

    Rows appear in lexicographic type order AAA..BBB.  Slope and count
    data refer to the canonical (sorted, possibly mirrored) triple.
    """
    canonical, _ = scannable_knot(triple)
    rows = []
    for types in TYPINGS:
        slopes = tuple(m if ty == TYPE_A else m + 1 for ty, m in zip(types, canonical))
        verdict, measures = _scan_row(types, slopes)
        n, p, q, r, chi, genus_val = measures or (None,) * 6
        sheets, longitudes = ((p, q, r), 2 * n) if measures else (None, None)
        rows.append(SurfacePattern(types, slopes, n, sheets, longitudes, chi, genus_val, verdict))
    return rows


def enumerate_patterns(triple: tuple[int, int, int]) -> list[SurfacePattern]:
    """The scan rows that pass the existence filters, in scan order.

    Each pattern carries the verdict of the compressing-disk filter; an
    accepted pattern exists exactly for the canonical triples (-2,3,3)
    and (-2,3,5).
    """
    return [row for row in scan_assignments(triple) if row.structural]


def scan_fields(canonical: tuple[int, int, int]) -> tuple[tuple | None, tuple[int, ...]]:
    """The eight rows of scan_assignments(canonical) as (shapes, values):
    the (types, verdict, structural) of each row, a tuple shared by every
    knot that has it, and the flat ints of the rows, each row's slopes
    followed, in a structural row, by its arcs, sheets, chi and genus.
    As for knot_report, canonical is a knot's canonical triple that the
    caller has validated.  A knot with a twist of absolute value 1 has no scan: (None, ()).

    Otherwise |m| >= 2, so m + 1 has the sign of m: without exactly one
    negative entry every row fails the sign pattern; with one, every row
    meets the reciprocal sum, and only a zero sum gets a full scan, which
    takes each row from _scan_row and builds no SurfacePattern.
    """
    p, q, r = canonical
    if 1 in canonical or -1 in canonical:
        return None, ()
    if (p < 0) + (q < 0) + (r < 0) != 1:
        return _ALL_SIGN_PATTERN, _SLOPES((p, q, r, p + 1, q + 1, r + 1))
    # x(y + z) + yz, the sum cleared of fractions, for x in (p, p + 1), ...
    for y, z in ((q, r), (q, r + 1), (q + 1, r), (q + 1, r + 1)):
        if p * (y + z) + y * z == 0 or (p + 1) * (y + z) + y * z == 0:
            break
    else:
        return _ALL_RECIPROCAL_SUM, _SLOPES((p, q, r, p + 1, q + 1, r + 1))
    shapes, values = [], []
    for types in TYPINGS:
        slopes = tuple(m if ty == TYPE_A else m + 1 for ty, m in zip(types, canonical))
        verdict, measures = _scan_row(types, slopes)
        shapes.append((types, verdict, bool(measures)))
        values += slopes + measures
    shapes = tuple(shapes)
    return _SHAPES.setdefault(shapes, shapes), tuple(values)


def euler_characteristic(pattern: SurfacePattern) -> int:
    """Euler characteristic from the cell decomposition of the pattern.

    The surface has 3L vertices, 3N + 3L edges and sum(sheets) + L
    faces, which collapses to sum(sheets) - N.  Inconsistent counts
    mean the pattern was not produced by the scan and are an invariant
    violation, and so is a row that failed the existence filters.
    """
    if not pattern.structural:
        raise InvariantError(f"no surface has boundary slopes {pattern.boundary_slopes}")
    if pattern.longitudes != 2 * pattern.arcs:
        raise InvariantError(
            f"longitude count {pattern.longitudes} is not twice the arc count"
        )
    for sheet, slope in zip(pattern.sheets, pattern.boundary_slopes):
        if slope == 0 or sheet * abs(slope) != pattern.arcs:
            raise InvariantError(
                f"sheet count {sheet} inconsistent with slope {slope} "
                f"and {pattern.arcs} arcs"
            )
    vertices = 3 * pattern.longitudes
    edges = 3 * pattern.arcs + 3 * pattern.longitudes
    faces = sum(pattern.sheets) + pattern.longitudes
    return vertices - edges + faces


def _genus_from_chi(chi: int) -> int:
    if chi % 2:
        raise InvariantError(f"closed surface needs even Euler characteristic, got {chi}")
    if chi > 2:
        raise InvariantError(f"Euler characteristic {chi} exceeds 2")
    return (2 - chi) // 2


def genus(pattern: SurfacePattern) -> int:
    """Genus (2 - chi)/2 of the candidate closed surface."""
    return _genus_from_chi(euler_characteristic(pattern))


def _disk_verdict(slopes: tuple[int, int, int]) -> Verdict:
    """Sort the slopes of a structural row into their family; apply the disk filters.

    The absolute slopes (a, b, c) = (-p', q', r') solve the
    reciprocal-sum lemma; with d = gcd(a, b), k = a/d, l = b/d every
    scan row has l = k + 1 and c = kld, as the denominator filter
    forces, and anything else is an invariant violation.  The twin
    family l = 2k is the case k = 1 (coprimality forces it), labelled
    Type (1) and surviving only for d = 2; the rest is Type (2),
    surviving only for k = 2, d = 1.  In every other case two adjacent
    sheets are joined by a compressing disk meeting the knot twice.
    """
    negatives = [s for s in slopes if s < 0]
    positives = sorted(s for s in slopes if s > 0)
    if len(negatives) != 1 or len(positives) != 2:
        raise InvariantError(f"slopes {slopes} have no sign pattern (-,+,+)")
    a = -negatives[0]
    b, c = positives
    d = gcd(a, b)
    k, l = a // d, b // d
    if l != k + 1 or c != k * l * d:
        raise InvariantError(f"({a},{b},{c}) is not a solution with l = k + 1, c = kld")
    if k == 1:
        if d == 2:
            return _TYPE_1
        return _TYPE_1_D
    if d != 1:
        return _TYPE_2_D
    if k != 2:
        return _TYPE_2_K
    return _TYPE_2
