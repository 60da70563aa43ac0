"""Numerical failures on valid input.

A ``NumericalError`` says that the input passed validation but double
precision cannot give a trustworthy answer for it: a zero of f on a
contour, a boundary synthesis that leaves the domain at a point the
domain check did not sample, a table that underflows.  It subclasses
ValueError, so callers that caught ValueError before still do; the CLI
maps it to exit 1 ("numerical failure"), not to the exit 2 of a config
error.
"""

from __future__ import annotations

__all__ = ["NumericalError", "UnderflowError"]


class NumericalError(ValueError):
    """Valid input that double precision cannot evaluate reliably."""


class UnderflowError(NumericalError):
    """Values a caller reads underflowed to exactly 0."""
