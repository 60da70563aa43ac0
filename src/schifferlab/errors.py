"""Numerical failures on valid input, and the one positive-value check.

A ``NumericalError`` says that the input passed validation but double
precision cannot give a trustworthy answer for it: a zero of f on a
contour, a boundary synthesis that leaves the domain at a point the
domain check did not sample, a table that underflows.  It subclasses
ValueError, so callers that caught ValueError before still do; the CLI
maps it to exit 1 ("numerical failure"), not to the exit 2 of a config
error.  ``check_positive`` is the ValueError every module gives a
parameter that must be positive and finite.
"""

from __future__ import annotations

import math

__all__ = ["NumericalError", "UnderflowError", "check_positive"]


class NumericalError(ValueError):
    """Valid input that double precision cannot evaluate reliably."""


class UnderflowError(NumericalError):
    """Values a caller reads underflowed to exactly 0."""


def check_positive(name: str, value: float) -> None:
    """ValueError "<name> must be positive and finite, got <value>" unless
    value is a finite real number above 0."""
    if not (math.isfinite(value) and value > 0):
        raise ValueError(f"{name} must be positive and finite, got {value}")
