"""Spherical harmonics Y_l^m and the tensor quadrature rule on the sphere.

Normalization:

    Y_l^m(theta, phi) = sqrt((2l+1)/(4 pi) * (l-|m|)!/(l+|m|)!)
                        * P_l^{|m|}(cos theta) * exp(i m phi)

for m = -l..l, with P_l^{|m|} free of the Condon-Shortley phase.  Note the
same P_l^{|m|} and the same positive normalization constant appear for +m
and -m, so conj(Y_l^m) = Y_l^{-m}.

Every harmonic value in the package comes from one kernel, ``ylm_blocks``:
it gives Y_l^m, and dY_l^m/dtheta on request, for a list of modes at
broadcasting (theta, phi), in runs of terms, taking every P_l^{|m|} from
one Legendre table.  ``ylm_terms`` yields its terms one at a time, and
``ylm`` and ``ylm_theta_derivative`` are its one-mode case.  What depends
on the mode list alone is a ``ModePlan``: the Legendre layout of the
modes' degrees and orders with its recurrence coefficients, and per mode
its rows and ``ylm_norm``.  ``ylm_blocks``
builds one from a list of modes or takes one built before, with bitwise
the same terms, so an evaluation costs one Legendre table, one exp over
the distinct orders and the products of each run; a ``StarlikeDomain``
builds its plan at construction, and each later synthesis, the ray
radii of a per-ray scan among them, pays the evaluation alone.

Surface integrals use a Gauss-Legendre rule in theta (64 nodes by default)
crossed with a uniform trapezoid rule in phi (128 nodes); this integrates
products of harmonics up to degree ~60 to rounding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from ..errors import check_integer
from .legendre import LegendrePlan


@dataclass(frozen=True)
class SphericalDirection:
    """A point on the unit sphere, polar angle in [0, pi], azimuth in [0, 2 pi)."""

    theta: float
    phi: float

    def __post_init__(self):
        if not 0.0 <= self.theta <= math.pi:
            raise ValueError(f"theta={self.theta} outside [0, pi]")
        if not 0.0 <= self.phi < 2 * math.pi:
            raise ValueError(f"phi={self.phi} outside [0, 2 pi)")


def ylm_norm(l: int, m: int) -> float:
    """The sqrt((2l+1)/(4 pi) (l-|m|)!/(l+|m|)!) normalization constant."""
    am = abs(m)
    logratio = math.lgamma(l - am + 1) - math.lgamma(l + am + 1)
    return math.sqrt((2 * l + 1) / (4 * math.pi) * math.exp(logratio))


# values per run of ylm_blocks: a grid of 64 x 128 runs one term at a time
_BLOCK = 1 << 11


@dataclass(frozen=True, eq=False, slots=True)
class ModePlan:
    """The angle-independent part of ``ylm_blocks`` for one list of modes.

    Built once per mode list (``ModePlan.build``, which validates it), it
    holds the Legendre layout of the modes' degrees and orders
    (``legendre``, a ``LegendrePlan``), i m for each distinct order m in
    ascending order (``phase``), and per mode its ``ylm_norm`` (``norm``)
    and the rows of its P_l^{|m|} and its phase (``at``, shape (2, modes)).
    The theta derivative reads ``slope``, shape (3, modes): the degree l,
    the order |m| and the row of P_{l-1}^{|m|} (0, unread, where l = |m|).
    Every array is read-only.
    """

    legendre: LegendrePlan
    phase: np.ndarray
    norm: np.ndarray
    at: np.ndarray
    slope: np.ndarray

    @classmethod
    def build(cls, modes: Iterable[tuple[int, int]]) -> "ModePlan":
        """Validate the (l, m) pairs and lay out their terms: l and m are
        integers (``errors.check_integer``; a bool is not one), l >= 0 and
        |m| <= l, each a ValueError naming the pair's value."""
        modes = list(modes)
        lmax, ms = 0, set()
        for l, m in modes:
            check_integer("l", l)
            check_integer("m", m)
            if l < 0:
                raise ValueError(f"degree l={l} is negative")
            if abs(m) > l:
                raise ValueError(f"order |m|={abs(m)} exceeds degree l={l}")
            lmax = max(lmax, l)
            ms.add(m)
        orders = sorted({abs(m) for m in ms}) or [0]
        legendre = LegendrePlan.build(lmax, orders)
        base, ms = legendre.base, sorted(ms)
        # per mode: its row of P, its phase and its norm (one ylm_norm per l, |m|)
        pos = {m: i for i, m in enumerate(orders)}
        phase_of = {m: i for i, m in enumerate(ms)}
        norms: dict[tuple[int, int], float] = {}
        at, slope, norm = [], [], []
        for l, m in modes:
            am = abs(m)
            if (l, am) not in norms:
                norms[l, am] = ylm_norm(l, m)
            norm.append(norms[l, am])
            at.append((base[l - am] + pos[am], phase_of[m]))
            slope.append((l, am, base[l - 1 - am] + pos[am] if l > am else 0))
        arrays = (1j * np.array(ms, dtype=int), np.array(norm, dtype=float),
                  np.ascontiguousarray(np.array(at, dtype=np.intp).reshape(-1, 2).T),
                  np.ascontiguousarray(np.array(slope, dtype=np.intp).reshape(-1, 3).T))
        for a in arrays:
            a.flags.writeable = False
        return cls(legendre, *arrays)


def ylm_blocks(modes: Sequence[tuple[int, int]] | ModePlan, theta, phi,
               derivative: bool = False
               ) -> Iterator[tuple[slice, np.ndarray, np.ndarray | None]]:
    """(span, Y, dY) for consecutive runs ``modes[span]`` of the modes.

    Y[i] is Y_l^m(theta, phi) for the mode ``modes[span][i]``, and dY[i]
    its dY_l^m/dtheta with ``derivative`` (else dY is None).  ``modes`` is
    a list of (l, m) pairs or a ``ModePlan`` built from one, with bitwise
    the same terms; a caller that evaluates one mode list at many angles
    builds its plan once.  ``theta`` and ``phi`` broadcast against each
    other, so a grid passes ``theta[:, None], phi[None, :]``.  A run holds
    at most 2048 values, or one term: a grid's runs are single terms, and
    a few rays take every term in one run.  A non-finite theta or phi
    raises ValueError naming the angle and its first non-finite value,
    "angle theta=nan is not finite", before any numpy warning.

    The P_l^{|m|}(cos theta) come from one Legendre table and the phases
    from one exp call over the distinct m, so every term is bitwise
    ylm_norm(l, m) * P_l^{|m|}(cos theta) * exp(i m phi).  The theta
    derivative uses dP_l^m/dtheta = (l cos(theta) P_l^m - (l + m) P_{l-1}^m)
    / sin(theta); where cos(theta) rounds to +-1 it takes the pole limit
    instead, l (l + 1) / 2 (+-1)^l for |m| = 1 and 0 otherwise.
    """
    plan = modes if isinstance(modes, ModePlan) else ModePlan.build(modes)
    theta = np.asarray(theta, dtype=float)
    phi = np.asarray(phi, dtype=float)
    # before cos or exp warns
    for name, angle in (("theta", theta), ("phi", phi)):
        if not np.isfinite(angle).all():
            raise ValueError(f"angle {name}={float(angle[~np.isfinite(angle)][0])} is not finite")
    shape = np.broadcast(theta, phi).shape
    lead = (-1,) + (1,) * len(shape)  # a column of terms against the angles
    t = np.cos(theta)
    P = plan.legendre.table(t)
    P = P.reshape(P.shape[:1] + (1,) * (len(shape) - t.ndim) + t.shape)
    phases = np.exp(plan.phase.reshape(lead) * phi)
    (at, phase_at), norm = plan.at, plan.norm.reshape(lead)
    if derivative:
        st = np.sin(theta)
        pole = np.abs(t) == 1.0
        degree, order, at_prev = plan.slope
        degree, order = degree.reshape(lead), order.reshape(lead)
    step = max(1, _BLOCK // max(1, math.prod(shape)))
    for a in range(0, norm.shape[0], step):
        span = slice(a, a + step)
        Pl = P[at[span]]
        phase = phases[phase_at[span]]
        Y = norm[span] * Pl * phase
        if not derivative:
            yield span, Y, None
            continue
        deg, am = degree[span], order[span]
        dp = np.zeros(Pl.shape)
        limit = np.broadcast_to((am == 1) & pole, dp.shape)
        dp[limit] = np.broadcast_to(deg * (deg + 1) / 2 * t ** deg, dp.shape)[limit]
        num = deg * t * Pl
        np.subtract(num, (deg + am) * P[at_prev[span]], out=num, where=deg > am)
        np.divide(num, st, out=dp, where=~pole & (deg > 0))
        yield span, Y, norm[span] * dp * phase


def ylm_terms(modes: Iterable[tuple[int, int]], theta, phi,
              derivative: bool = False) -> Iterator:
    """Y_l^m(theta, phi) for each (l, m) of ``modes``, in the order given.

    With ``derivative`` each item is the pair (Y_l^m, dY_l^m/dtheta); the
    terms are the rows of ``ylm_blocks``, with its conventions.
    """
    for _, Y, dY in ylm_blocks(list(modes), theta, phi, derivative):
        yield from (Y if dY is None else zip(Y, dY))


def ylm(l: int, m: int, theta, phi):
    """Y_l^m at (theta, phi); accepts scalars or broadcasting arrays."""
    (out,) = ylm_terms([(l, m)], theta, phi)
    return complex(out) if np.ndim(out) == 0 else out


def ylm_theta_derivative(l: int, m: int, theta, phi):
    """dY_l^m/dtheta; same conventions as ylm, with the pole limits of ylm_terms."""
    ((_, out),) = ylm_terms([(l, m)], theta, phi, derivative=True)
    return complex(out) if np.ndim(out) == 0 else out


@dataclass(frozen=True)
class SphereQuadrature:
    """Tensor rule on S^2: Gauss-Legendre in cos(theta) x trapezoid in phi.

    ``theta``/``phi`` are the 1-d node vectors and ``weights`` is the
    (n_theta, n_phi) array with sum(weights) = 4 pi; a field on the grid
    is sampled at the broadcast ``theta[:, None], phi[None, :]``.
    """

    theta: np.ndarray
    phi: np.ndarray
    weights: np.ndarray

    def integrate(self, samples: np.ndarray):
        """Integral over S^2 of a field sampled on the (theta, phi) grid."""
        samples = np.asarray(samples)
        if samples.shape != self.weights.shape:
            raise ValueError(
                f"samples shape {samples.shape} != grid shape {self.weights.shape}")
        return (self.weights * samples).sum()


def sphere_quadrature(n_theta: int = 64, n_phi: int = 128) -> SphereQuadrature:
    """Build the tensor quadrature rule; exact for degree <~ n_theta harmonics."""
    nodes, w = np.polynomial.legendre.leggauss(n_theta)
    theta = np.arccos(nodes[::-1])
    w_theta = w[::-1]
    phi = 2 * np.pi * np.arange(n_phi) / n_phi
    w_phi = 2 * np.pi / n_phi
    weights = np.outer(w_theta, np.full(n_phi, w_phi))
    return SphereQuadrature(theta=theta, phi=phi, weights=weights)
