"""Representativity bounds for (p,q,r)-pretzel knots.

Tangle expressions, planar diagram tracing, the reciprocal-sum
lemma behind the boundary slopes, a candidate essential surface scan,
and a small rule-based classifier tying them together.  See the
individual modules for the mathematics; the cli module provides the
command line entry point.
"""

from .errors import *
from .tanglecalc import *
from .linktrace import *
from .slopelemma import *
from .surfacescan import *
from .repclassify import *
from .cli import main, run

__version__ = "0.1.0"
