"""Legendre and associated Legendre polynomials, P_l^m(t) = (1-t^2)^{m/2} d^m P_l/dt^m.

No Condon-Shortley phase anywhere: the (1-t^2)^{m/2} prefactor carries no
(-1)^m factor, so P_1^1(0) = +1.  This matches the convention in which Y_l^m
carries the plain square-root normalization factor.

A ``LegendrePlan``, built once per (lmax, orders), holds the table's
layout and recurrence coefficients, which depend on the degrees and
orders alone; its ``table(t)`` accepts scalar or ndarray ``t``, so a
caller that evaluates the same orders at many arguments keeps the plan.
"""

from __future__ import annotations

import bisect
import dataclasses
from typing import Sequence

import numpy as np


@dataclasses.dataclass(frozen=True, eq=False, slots=True)
class LegendrePlan:
    """P_l^m(t) for l = m..lmax and each order m of ``orders``, distinct and
    ascending in [0, lmax]: the angle-independent layout, and ``table(t)``.

    The table is stored by diagonals d = l - m.  Diagonal d holds the first ``counts[d]`` orders, those with
    m + d <= lmax, in rows ``base[d]`` on.  ``seeds[m - 1]`` is the row of
    P_m^m for m = 1..orders[-1] (-1 for an order not in the table).
    ``coef`` holds, for the row of each P_l^m, the exact integers 2l - 1
    and l + m - 1 of the recurrence, as a (2, rows, 1) array of floats.

    Every entry comes from the upward recurrence in l from the diagonal
    seed P_m^m = (2m-1)!! (1-t^2)^{m/2}, so an entry does not depend on
    lmax or on the other orders; each step of the recurrence runs on a
    whole diagonal, and one chain of seed products serves every order.
    """

    lmax: int
    orders: tuple[int, ...]
    counts: tuple[int, ...]
    base: tuple[int, ...]
    seeds: tuple[int, ...]
    coef: np.ndarray

    @classmethod
    def build(cls, lmax: int, orders: Sequence[int]) -> "LegendrePlan":
        """Validate (lmax, orders) and lay out the table."""
        if lmax < 0 or lmax != int(lmax):
            raise ValueError(f"degree l must be a nonnegative integer, got {lmax!r}")
        lmax = int(lmax)
        orders = [int(m) for m in orders]
        if orders != sorted(set(orders)) or not orders or orders[0] < 0:
            raise ValueError(f"orders must be distinct, ascending and nonnegative, got {orders}")
        if orders[-1] > lmax:
            raise ValueError(f"order |m|={orders[-1]} exceeds degree l={lmax}")
        counts = [bisect.bisect_right(orders, lmax - d) for d in range(lmax + 1)]
        base = [0]
        for n in counts:
            base.append(base[-1] + n)
        row = {m: i for i, m in enumerate(orders)}
        seeds = tuple(row.get(m, -1) for m in range(1, orders[-1] + 1))
        # row base[d] + i holds l = m + d for m = orders[i], so
        # 2l - 1 = (2m + 1) + 2 (d - 1) and l + m - 1 = (2m + 1) + (d - 2)
        odd = np.concatenate([np.array(orders[:n], dtype=float) * 2.0 + 1.0 for n in counts])
        d = np.repeat(np.arange(lmax + 1), counts)
        coef = np.stack([odd + 2 * (d - 1), odd + (d - 2)])[:, :, None]
        coef.flags.writeable = False
        return cls(lmax, tuple(orders), tuple(counts), tuple(base), seeds, coef)

    def table(self, t) -> np.ndarray:
        """P: row ``base[l - m] + i`` is P_l^m(t) for m = orders[i], with
        shape ``(base[-1],) + np.shape(t)``.  With one order m, row l - m
        is P_l^m, so P is that order's column by degree.

        ValueError where t lies outside [-1, 1] (1e-12 of slack), and,
        naming the first such t, where t is not finite.  ``ylm_blocks``
        checks its angles before it takes their cosines, so a non-finite
        angle is named there, not here.
        """
        t = np.asarray(t, dtype=float)
        if np.count_nonzero(np.abs(t) <= 1 + 1e-12) != t.size:
            bad = t.flat[np.argmin(np.abs(t) <= 1 + 1e-12)].item()
            if not np.isfinite(bad):
                raise ValueError(f"argument t={bad!r} is not finite")
            raise ValueError("argument t outside [-1, 1]")
        shape = t.shape
        t = np.minimum(np.maximum(t.reshape(-1), -1.0), 1.0)
        P = np.empty((self.base[-1], t.size))

        # the diagonal, one chain of seed products up to the highest order
        pmm = np.ones_like(t)
        if self.orders[0] == 0:
            P[0] = pmm
        if self.seeds:
            s = np.sqrt((1.0 - t) * (1.0 + t))
        dfact = 1.0
        for at in self.seeds:
            row = P[at] if at >= 0 else np.empty_like(t)
            np.multiply(pmm, dfact, out=row)
            row *= s
            pmm = row
            dfact += 2.0
        # diagonal d from diagonals d - 1 and d - 2, with l = m + d:
        # P_l^m = (t (2l - 1) P_{l-1}^m - (l + m - 1) P_{l-2}^m) / (l - m),
        # with every row's t (2l - 1) from one product
        rising, falling = t * self.coef[0], self.coef[1]
        base, counts = self.base, self.counts
        for d in range(1, self.lmax + 1):
            b, n, prev = base[d], counts[d], base[d - 1]
            row = P[b:b + n]
            np.multiply(rising[b:b + n], P[prev:prev + n], out=row)
            if d > 1:
                older = base[d - 2]
                row -= falling[b:b + n] * P[older:older + n]
                row /= d
        return P.reshape(P.shape[:1] + shape)
