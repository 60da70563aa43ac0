"""Legendre and associated Legendre polynomials, P_l^m(t) = (1-t^2)^{m/2} d^m P_l/dt^m.

No Condon-Shortley phase anywhere: the (1-t^2)^{m/2} prefactor carries no
(-1)^m factor, so P_1^1(0) = +1.  This matches the convention in which Y_l^m
carries the plain square-root normalization factor.

All evaluators accept scalar or ndarray ``t`` and broadcast.
"""

from __future__ import annotations

import numpy as np


def _check_degree(l: int, m: int) -> int:
    if l < 0 or l != int(l):
        raise ValueError(f"degree l must be a nonnegative integer, got {l!r}")
    m = int(m)
    if abs(m) > l:
        raise ValueError(f"order |m|={abs(m)} exceeds degree l={l}")
    return abs(m)


def _legendre_rows(lmax: int, m: int, t) -> list:
    """[P_{|m|}^{|m|}(t), ..., P_lmax^{|m|}(t)]: the one upward recurrence in l
    from the diagonal seed P_m^m = (2m-1)!! (1-t^2)^{m/2}."""
    m = _check_degree(lmax, m)
    t = np.asarray(t, dtype=float)
    if np.any(np.abs(t) > 1 + 1e-12):
        raise ValueError("argument t outside [-1, 1]")
    t = np.clip(t, -1.0, 1.0)

    # Diagonal seed.
    pmm = np.ones_like(t)
    if m > 0:
        s = np.sqrt((1.0 - t) * (1.0 + t))
        dfact = 1.0
        for i in range(1, m + 1):
            pmm = pmm * dfact * s
            dfact += 2.0
    rows = [pmm]
    if lmax > m:
        rows.append(t * (2 * m + 1) * pmm)
    for ll in range(m + 2, lmax + 1):
        rows.append((t * (2 * ll - 1) * rows[-1] - (ll + m - 1) * rows[-2]) / (ll - m))
    return rows


def legendre_column(lmax: int, m: int, t):
    """P_{|m|}^{|m|}(t), ..., P_lmax^{|m|}(t): the column of one order, by l.

    Entry ``l - |m|`` is P_l^{|m|}, bitwise the last entry of the shorter
    column ``legendre_column(l, m, t)``; shape ``(lmax - |m| + 1,) +
    np.shape(t)``.
    """
    return np.stack(_legendre_rows(lmax, m, t))
