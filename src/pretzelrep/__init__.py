"""Representativity bounds for (p,q,r)-pretzel knots.

Exact tangle arithmetic, planar diagram tracing, the reciprocal-sum
lemma behind the boundary slopes, a candidate essential surface scan,
and a small rule-based classifier tying them together.  See the
individual modules for the mathematics; the cli module provides the
command line entry point.
"""

from .errors import (
    ContinuedFractionError,
    DegenerateSlopeError,
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
    ZeroDenominatorError,
)
from .exactmath import cf_to_fraction, fraction_to_cf, reduce, sum_reciprocals
from .tanglecalc import (
    MAX_NESTING,
    Closure,
    Montesinos,
    Pretzel,
    PretzelTriple,
    RationalTangle,
    Sum,
    TangleExpr,
    is_large_algebraic,
    normalize_pretzel,
    parse_expr,
    pretzel_to_montesinos,
    print_expr,
)
from .linktrace import (
    PDCode,
    PretzelKnot,
    component_count,
    is_knot,
    knot_components,
    pretzel_diagram,
    pretzel_knot,
)
from .slopelemma import (
    LemmaSolution,
    SlopeCondition,
    brute_force_solutions,
    enumerate_solutions,
    parametrize,
    slope_condition,
    type_a_slope,
    type_b_slope,
)
from .surfacescan import (
    TYPE_A,
    TYPE_B,
    AssignmentScan,
    SurfacePattern,
    Verdict,
    enumerate_patterns,
    euler_characteristic,
    final_filter,
    genus,
    scan_assignments,
    scannable_knot,
)
from .repclassify import (
    AppliedRule,
    RepReport,
    TorusInfo,
    bridge_upper,
    representativity_bounds,
    tangle_string_bound,
    torus_pretzel,
)
from .cli import main, run

__version__ = "0.1.0"
