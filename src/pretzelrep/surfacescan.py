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

The surviving slope triples are solutions of the reciprocal-sum lemma;
recovering the parameters (k, l, d) sorts every pattern into the twin
family (l = 2k) or the consecutive family (l = k + 1), where disk
compressions rule out everything except d = 2 in the first family and
k = 2, d = 1 in the second.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import product
from math import gcd, lcm

from .errors import DegenerateTangleError, InvariantError
from .linktrace import PretzelKnot, pretzel_knot
from .tanglecalc import PretzelTriple, normalize_pretzel

__all__ = [
    "TYPE_A",
    "TYPE_B",
    "Verdict",
    "SurfacePattern",
    "AssignmentScan",
    "enumerate_patterns",
    "scan_assignments",
    "scannable_knot",
    "euler_characteristic",
    "genus",
    "final_filter",
]

TYPE_A = "A"
TYPE_B = "B"


@dataclass(frozen=True)
class Verdict:
    """Outcome of the compressing-disk filter for one pattern."""

    accepted: bool
    reason: str | None = None    # None exactly when accepted
    family: str | None = None    # "Type (1)" or "Type (2)" when recognized


@dataclass(frozen=True)
class SurfacePattern:
    """A structurally consistent candidate surface for one type choice."""

    tangle_types: tuple[str, str, str]
    boundary_slopes: tuple[int, int, int]
    arcs: int                    # N, intersection arcs per meridian disk
    sheets: tuple[int, int, int]
    longitudes: int              # L = 2N on the boundary torus
    chi: int
    genus_val: int
    verdict: Verdict


@dataclass(frozen=True)
class AssignmentScan:
    """One row of the full 8-assignment scan, including rejected rows."""

    tangle_types: tuple[str, str, str]
    boundary_slopes: tuple[int, int, int]
    arcs: int | None
    sheets: tuple[int, int, int] | None
    chi: int | None
    genus_val: int | None
    structural: bool             # passed the existence filters
    accepted: bool
    family: str | None
    reason: str | None


def scannable_knot(triple: PretzelTriple | PretzelKnot) -> PretzelKnot:
    """The validated knot of a triple the scan applies to, or a domain
    error: a zero twist, then a twist of absolute value 1, then a link."""
    entries = triple.entries if isinstance(triple, PretzelKnot) else triple.entries()
    if 0 not in entries and (1 in entries or -1 in entries):
        raise DegenerateTangleError(
            f"twist parameters must have absolute value >= 2, got {entries}"
        )
    return pretzel_knot(triple)


def _structural_reason(types, slopes) -> str | None:
    """Why no surface with these slopes exists, or None if one does."""
    x, y, z = slopes
    if sum(1 for s in slopes if s < 0) != 1:
        return "requires exactly one negative boundary slope"
    if y * z + x * z + x * y != 0:  # 1/x + 1/y + 1/z = 0 cleared of fractions
        return "boundary slopes fail 1/p' + 1/q' + 1/r' = 0"
    n = lcm(*(abs(s) for s in slopes))
    if n != max(abs(s) for s in slopes):
        return "common denominator exceeds the largest boundary slope"
    for ty, s in zip(types, slopes):
        sheet = n // abs(s)
        if ty == TYPE_B and sheet != 1:
            return "single-disk region must meet the surface in one sheet"
        if ty == TYPE_A and sheet < 2:
            return "parallel-disk region needs at least two sheets"
    return None


def scan_assignments(triple: PretzelTriple | PretzelKnot) -> list[AssignmentScan]:
    """All eight type assignments for the canonical form of the triple.

    Rows appear in lexicographic type order AAA..BBB.  Slope and count
    data refer to the canonical (sorted, possibly mirrored) triple.
    """
    knot = scannable_knot(triple)
    entries = knot.canonical
    rows = []
    for types in product((TYPE_A, TYPE_B), repeat=3):
        slopes = tuple(m if ty == TYPE_A else m + 1 for ty, m in zip(types, entries))
        reason = _structural_reason(types, slopes)
        if reason is not None:
            rows.append(AssignmentScan(types, slopes, None, None, None, None,
                                       False, False, None, reason))
            continue
        pattern = _build_pattern(types, slopes)
        verdict = final_filter(pattern, knot)
        rows.append(AssignmentScan(types, slopes, pattern.arcs, pattern.sheets,
                                   pattern.chi, pattern.genus_val, True,
                                   verdict.accepted, verdict.family, verdict.reason))
    return rows


def enumerate_patterns(triple: PretzelTriple | PretzelKnot) -> list[SurfacePattern]:
    """Structurally consistent patterns for the canonical form of the triple.

    Each pattern carries the verdict of the compressing-disk filter; an
    accepted pattern exists exactly for the canonical triples (-2,3,3)
    and (-2,3,5).
    """
    knot = scannable_knot(triple)
    entries = knot.canonical
    patterns = []
    for types in product((TYPE_A, TYPE_B), repeat=3):
        slopes = tuple(m if ty == TYPE_A else m + 1 for ty, m in zip(types, entries))
        if _structural_reason(types, slopes) is not None:
            continue
        pattern = _build_pattern(types, slopes)
        patterns.append(replace(pattern, verdict=final_filter(pattern, knot)))
    return patterns


def _build_pattern(types, slopes) -> SurfacePattern:
    n = max(abs(s) for s in slopes)  # equals the lcm for structural survivors
    sheets = tuple(n // abs(s) for s in slopes)
    chi = sum(sheets) - n
    return SurfacePattern(types, slopes, n, sheets, 2 * n, chi,
                          _genus_from_chi(chi), Verdict(False, "pending", None))


def euler_characteristic(pattern: SurfacePattern) -> int:
    """Euler characteristic from the cell decomposition of the pattern.

    The surface has 3L vertices, 3N + 3L edges and sum(sheets) + L
    faces, which collapses to sum(sheets) - N.  Inconsistent counts
    mean the pattern was not produced by the scan and are an invariant
    violation.
    """
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


def final_filter(pattern: SurfacePattern, triple: PretzelTriple | PretzelKnot) -> Verdict:
    """Sort a pattern into its slope family and apply the disk filters.

    The absolute slopes (a, b, c) = (-p', q', r') solve the
    reciprocal-sum lemma; with m = gcd(a, b), k = a/m, l = b/m the twin
    family has l = 2k and d = m, the consecutive family has l = k + 1
    and d = m.  Twin patterns survive only for d = 2 and consecutive
    patterns only for k = 2, d = 1; in every other case two adjacent
    sheets are joined by a compressing disk meeting the knot twice.  A
    PretzelKnot brings its canonical triple; a plain triple is
    normalized here.
    """
    if isinstance(triple, PretzelKnot):
        canonical = triple.canonical
    else:
        canonical = normalize_pretzel(triple)[0].entries()
    rebuilt = tuple(s if ty == TYPE_A else s - 1
                    for ty, s in zip(pattern.tangle_types, pattern.boundary_slopes))
    if rebuilt != canonical:
        raise InvariantError(
            f"pattern rebuilds {rebuilt}, not the canonical triple {canonical}"
        )
    negatives = [s for s in pattern.boundary_slopes if s < 0]
    positives = sorted(s for s in pattern.boundary_slopes if s > 0)
    if len(negatives) != 1 or len(positives) != 2:
        raise InvariantError(f"slopes {pattern.boundary_slopes} have no sign pattern (-,+,+)")
    a = -negatives[0]
    b, c = positives
    m = gcd(a, b)
    k, l = a // m, b // m
    if l == 2 * k:
        # coprimality forces k = 1, so d = m and the triple is (-d, 2d-1, 2d-1)
        d = m
        if c != k * l * d:
            raise InvariantError(f"({a},{b},{c}) is not a reciprocal-sum solution")
        if d == 2:
            return Verdict(True, None, "Type (1)")
        return Verdict(False, "d=2 required; compressing disk exists", "Type (1)")
    if l == k + 1:
        d = m
        if c != k * l * d:
            raise InvariantError(f"({a},{b},{c}) is not a reciprocal-sum solution")
        if d != 1:
            return Verdict(False, "d=1 required; compressing disk exists", "Type (2)")
        if k != 2:
            return Verdict(False, "k=2 required; compressing disk exists", "Type (2)")
        return Verdict(True, None, "Type (2)")
    return Verdict(False, "outside the two parametrized slope families", None)
