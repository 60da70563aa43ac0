"""Legendre and associated Legendre polynomials, P_l^m(t) = (1-t^2)^{m/2} d^m P_l/dt^m.

No Condon-Shortley phase anywhere: the (1-t^2)^{m/2} prefactor carries no
(-1)^m factor, so P_1^1(0) = +1.  This matches the convention in which Y_l^m
carries the plain square-root normalization factor.

``legendre_table`` accepts scalar or ndarray ``t``.
"""

from __future__ import annotations

import bisect
from typing import Sequence

import numpy as np


def legendre_table(lmax: int, orders: Sequence[int], t) -> tuple[np.ndarray, list[int]]:
    """(P, base): P_l^m(t) for l = m..lmax and each order m of ``orders``.

    ``orders`` are distinct and ascending in [0, lmax].  P is stored by
    diagonals d = l - m, each holding the orders with m + d <= lmax, a
    prefix of ``orders``: row ``base[l - m] + i`` of P is P_l^m for
    m = orders[i], and P has shape ``(base[-1],) + np.shape(t)``.  With one
    order m, row l - m is P_l^m, so P is that order's column by degree.

    Every entry comes from the upward recurrence in l from the diagonal
    seed P_m^m = (2m-1)!! (1-t^2)^{m/2}, so an entry does not depend on
    lmax or on the other orders; each step of the recurrence runs on a
    whole diagonal, and one chain of seed products serves every order.
    """
    if lmax < 0 or lmax != int(lmax):
        raise ValueError(f"degree l must be a nonnegative integer, got {lmax!r}")
    orders = [int(m) for m in orders]
    if orders != sorted(set(orders)) or not orders or orders[0] < 0:
        raise ValueError(f"orders must be distinct, ascending and nonnegative, got {orders}")
    if orders[-1] > lmax:
        raise ValueError(f"order |m|={orders[-1]} exceeds degree l={lmax}")
    t = np.asarray(t, dtype=float)
    if np.count_nonzero(np.abs(t) > 1 + 1e-12):
        raise ValueError("argument t outside [-1, 1]")
    t = np.minimum(np.maximum(t, -1.0), 1.0)
    # diagonal d holds the first counts[d] orders, those with m <= lmax - d
    counts = [bisect.bisect_right(orders, lmax - d) for d in range(lmax + 1)]
    base = [0]
    for n in counts:
        base.append(base[-1] + n)
    P = np.empty((base[-1],) + t.shape)

    # the diagonal, one chain of seed products up to the highest order
    pmm = np.ones_like(t)
    if orders[0] == 0:
        P[0] = pmm
    if orders[-1] > 0:
        s = np.sqrt((1.0 - t) * (1.0 + t))
    dfact = 1.0
    for m in range(1, orders[-1] + 1):
        row = P[orders.index(m), ...] if m in orders else np.empty_like(t)
        np.multiply(pmm, dfact, out=row)
        row *= s
        pmm = row
        dfact += 2.0
    # diagonal d from diagonals d - 1 and d - 2, with l = m + d:
    # P_l^m = (t (2l - 1) P_{l-1}^m - (l + m - 1) P_{l-2}^m) / (l - m),
    # 2l - 1 = (2m + 1) + 2 (d - 1) and l + m - 1 = (2m + 1) + (d - 2)
    odd = np.reshape(orders, (-1,) + (1,) * t.ndim) * 2.0 + 1.0
    for d in range(1, lmax + 1):
        n, prev, older = counts[d], base[d - 1], base[d - 2]
        row = P[base[d]:base[d] + n]
        np.multiply(t * (odd[:n] + 2 * (d - 1)), P[prev:prev + n], out=row)
        if d > 1:
            row -= (odd[:n] + (d - 2)) * P[older:older + n]
            row /= d
    return P, base
