"""Exception hierarchy shared by every module.

The command line interface maps these onto exit codes: ParseError means
the input text could not be read (exit 1), DomainError means the input
was read but is outside the domain of the requested computation (exit 2),
and InvariantError means an internal consistency check failed (exit 3).
"""

from __future__ import annotations

__all__ = ["PretzelRepError", "ParseError", "DomainError", "DegenerateTangleError",
           "NotAKnotError", "ShapeError", "UnsupportedInputError", "InvalidParameterError",
           "InvariantError", "InvalidPDCodeError"]


class PretzelRepError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(PretzelRepError):
    """Syntax error in a tangle expression; remembers the 0-based position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class DomainError(PretzelRepError):
    """Input is well formed but outside the domain of the operation."""


class DegenerateTangleError(DomainError):
    """A twist parameter is zero, or too small for the requested analysis."""


class NotAKnotError(DomainError):
    """The diagram traces out more than one link component."""


class ShapeError(DomainError):
    """The expression tree has the wrong shape for the requested check."""


class UnsupportedInputError(DomainError):
    """The expression parses but no classification rule applies to it."""


class InvalidParameterError(DomainError):
    """Numeric parameters violate a documented precondition."""


class InvariantError(PretzelRepError):
    """An internal consistency check failed; indicates a bug, not bad input."""


class InvalidPDCodeError(InvariantError):
    """A planar diagram code does not use each arc label exactly twice."""
