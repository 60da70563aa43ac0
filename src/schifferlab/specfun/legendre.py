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

    Entry ``l - |m|`` is P_l^{|m|}, bitwise ``legendre(l, m, t)``; shape
    ``(lmax - |m| + 1,) + np.shape(t)``.
    """
    return np.stack(_legendre_rows(lmax, m, t))


def legendre(l: int, m: int, t):
    """Associated Legendre P_l^{|m|}(t) on [-1, 1], no Condon-Shortley phase:
    the last entry of the column ``legendre_column(l, m, t)``."""
    out = _legendre_rows(l, m, t)[-1]
    return out if out.ndim else float(out)


def legendre_theta_derivative(l: int, m: int, theta):
    """d/dtheta of P_l^{|m|}(cos theta).

    Uses (t^2-1) dP/dt = l t P_l^m - (l+m) P_{l-1}^m, which after the chain
    rule gives dP/dtheta = [l cos(theta) P_l^m - (l+m) P_{l-1}^m] / sin(theta).
    At the poles the limit is 0 for m != 1; the m=1 pole limit is finite and
    taken by a small offset.
    """
    m = _check_degree(l, m)
    theta = np.asarray(theta, dtype=float)
    scalar = theta.ndim == 0
    theta = np.atleast_1d(theta).copy()
    eps = 1e-9
    theta[np.abs(theta) < eps] = eps
    theta[np.abs(theta - np.pi) < eps] = np.pi - eps
    t = np.cos(theta)
    st = np.sin(theta)
    if l == 0:
        out = np.zeros_like(theta)
        return float(out[0]) if scalar else out
    pl = legendre(l, m, t)
    plm1 = legendre(l - 1, m, t) if m <= l - 1 else np.zeros_like(t)
    out = (l * t * pl - (l + m) * plm1) / st
    out = np.atleast_1d(out)
    return float(out[0]) if scalar else out
