"""Representativity bounds for (p,q,r)-pretzel knots.

Tangle expressions, planar diagram tracing, the reciprocal-sum
lemma behind the boundary slopes, a candidate essential surface scan,
and a small rule-based classifier tying them together.  See the
individual modules for the mathematics; the cli module provides the
command line entry point.
"""

from .errors import (
    DegenerateTangleError,
    DomainError,
    InvalidParameterError,
    InvalidPDCodeError,
    InvariantError,
    NotAKnotError,
    ParseError,
    PretzelRepError,
    ShapeError,
    UnsupportedInputError,
)
from .tanglecalc import (
    MAX_DIGITS,
    MAX_NESTING,
    Closure,
    Montesinos,
    Pretzel,
    RationalTangle,
    Sum,
    TangleExpr,
    canonical_entries,
    is_large_algebraic,
    max_digits,
    parse_expr,
    print_expr,
)
from .linktrace import (
    component_count,
    is_knot,
    knot_components,
    pretzel_crossings,
    pretzel_diagram,
    pretzel_knot,
    trace_components,
)
from .slopelemma import (
    SlopeCondition,
    brute_force_solutions,
    enumerate_solutions,
    parametrize,
    slope_condition,
)
from .surfacescan import (
    TYPE_A,
    TYPE_B,
    SurfacePattern,
    Verdict,
    decode_fields,
    enumerate_patterns,
    euler_characteristic,
    genus,
    scan_assignments,
    scan_fields,
    scannable_knot,
)
from .repclassify import (
    AppliedRule,
    RepReport,
    TorusInfo,
    knot_report,
    pretzel_form_knot,
    representativity_bounds,
    tangle_string_bound,
    torus_pretzel,
)
from .cli import main, run

__version__ = "0.1.0"
