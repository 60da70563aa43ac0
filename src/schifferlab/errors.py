"""Numerical failures on valid input, and the positive-value and integer checks.

A ``NumericalError`` says that the input passed validation but double
precision cannot give a trustworthy answer for it: a zero of f on a
contour, a boundary synthesis that leaves the domain at a point the
domain check did not sample, a table that underflows.  It subclasses
ValueError, so callers that caught ValueError before still do; the CLI
maps it to exit 1 ("numerical failure"), not to the exit 2 of a config
error.  ``check_positive`` is the ValueError every module gives a
parameter that must be positive and finite, and ``check_integer`` the one
it gives a count or degree that must be an integer.  ``as_integer`` is
the looser rule for degrees read from JSON files, where 2 and 2.0 are the
same number.
"""

from __future__ import annotations

import math
import numbers

import numpy as np

__all__ = ["NumericalError", "UnderflowError", "check_positive", "check_integer",
           "as_integer"]


class NumericalError(ValueError):
    """Valid input that double precision cannot evaluate reliably."""


class UnderflowError(NumericalError):
    """Values a caller reads underflowed to exactly 0."""


def check_positive(name: str, value: float) -> None:
    """ValueError "<name> must be positive and finite, got <value>" unless
    value is a finite real number above 0."""
    if not (math.isfinite(value) and value > 0):
        raise ValueError(f"{name} must be positive and finite, got {value}")


def check_integer(name: str, value) -> None:
    """ValueError "<name> must be an integer, got <value!r>" unless value is
    an int or a NumPy integer; a bool is not one, nor is 2.0."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")


def as_integer(name: str, value) -> int:
    """value as an int if it is an integral real number, 2 or 2.0, else
    ValueError "<name> must be an integer, got <value!r>": a bool, a
    string or 2.5 is not one."""
    if not isinstance(value, bool) and isinstance(value, numbers.Real):
        if isinstance(value, numbers.Integral):
            return int(value)
        if math.isfinite(value) and float(value).is_integer():
            return int(value)
    raise ValueError(f"{name} must be an integer, got {value!r}")
