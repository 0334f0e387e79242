"""Typed errors shared across the library.

The CLI maps these onto exit codes: parse/usage problems exit 1,
budget exhaustion and undecided verdicts exit 2, precondition
violations exit 3.
"""

from __future__ import annotations


class BinoidalError(Exception):
    """Base class for all library errors."""


class ParseError(BinoidalError):
    """Syntax error in the presentation or complex DSL, with position."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{message} (line {line}, column {column})")
        self.line = line
        self.column = column


class PresentationError(BinoidalError):
    """Invalid presentation data: duplicate names, unknown indices, bad words."""


class BudgetExceeded(BinoidalError):
    """Completion gave up after the configured number of rule candidates, or
    an enumeration would pass its cap."""


class NotPositive(BinoidalError):
    """Operation requires a positive binoid (trivial unit group)."""


class NotIntegral(BinoidalError):
    """Operation requires an integral binoid."""


class NoPositiveGrading(BinoidalError):
    """Operation requires a positive grading and none exists."""


class InvalidGrading(BinoidalError):
    """Supplied weight vector is not a grading of the presentation."""


class IsInfinity(BinoidalError):
    """Word represents the absorbing element where a finite class is required."""


class ZeroBinoid(BinoidalError):
    """Operation is undefined on the zero binoid (empty spectrum)."""


class TooManyGenerators(BinoidalError):
    """Refused a 2^r subset scan beyond the generator cap; pass force=True."""
