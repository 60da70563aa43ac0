"""Spherical harmonics Y_l^m and the tensor quadrature rule on the sphere.

Normalization:

    Y_l^m(theta, phi) = sqrt((2l+1)/(4 pi) * (l-|m|)!/(l+|m|)!)
                        * P_l^{|m|}(cos theta) * exp(i m phi)

for m = -l..l, with P_l^{|m|} free of the Condon-Shortley phase.  Note the
same P_l^{|m|} and the same positive normalization constant appear for +m
and -m, so conj(Y_l^m) = Y_l^{-m}.

Every harmonic value in the package comes from one kernel, ``ylm_terms``:
it yields Y_l^m, and dY_l^m/dtheta on request, for a list of modes at
broadcasting (theta, phi), taking each order's P_l^{|m|} from one Legendre
column.  ``ylm`` and ``ylm_theta_derivative`` are its one-mode case.

Surface integrals use a Gauss-Legendre rule in theta (64 nodes by default)
crossed with a uniform trapezoid rule in phi (128 nodes); this integrates
products of harmonics up to degree ~60 to rounding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from .legendre import legendre_column


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


def ylm_terms(modes: Iterable[tuple[int, int]], theta, phi,
              derivative: bool = False) -> Iterator:
    """Y_l^m(theta, phi) for each (l, m) of ``modes``, in the order given.

    With ``derivative`` each item is the pair (Y_l^m, dY_l^m/dtheta).
    ``theta`` and ``phi`` broadcast against each other, so a grid passes
    ``theta[:, None], phi[None, :]``; one term is built at a time.  Each
    order |m| takes P_l^{|m|}(cos theta) from one Legendre column, so every
    term is bitwise ylm_norm(l, m) * P_l^{|m|}(cos theta) * exp(i m phi).
    The theta derivative uses
    dP_l^m/dtheta = (l cos(theta) P_l^m - (l + m) P_{l-1}^m) / sin(theta);
    where cos(theta) rounds to +-1 it takes the pole limit instead,
    l (l + 1) / 2 (+-1)^l for |m| = 1 and 0 otherwise.
    """
    modes = list(modes)
    for l, m in modes:
        if abs(m) > l:
            raise ValueError(f"order |m|={abs(m)} exceeds degree l={l}")
    theta = np.asarray(theta, dtype=float)
    phi = np.asarray(phi, dtype=float)
    t = np.cos(theta)
    lmax = max((l for l, _ in modes), default=0)
    columns = {am: legendre_column(lmax, am, t) for am in {abs(m) for _, m in modes}}
    if derivative:
        st = np.sin(theta)
        pole = np.abs(t) == 1.0
    # no term stays bound here while the next one is built
    for l, m in modes:
        am = abs(m)
        norm = ylm_norm(l, m)
        phase = np.exp(1j * m * phi)
        if not derivative:
            yield norm * columns[am][l - am] * phase
            continue
        dp = np.zeros(t.shape)
        if l > 0:
            if am == 1:
                dp[pole] = l * (l + 1) / 2 * t[pole] ** l
            num = l * t * columns[am][l - am]
            if l > am:
                num = num - (l + am) * columns[am][l - 1 - am]
            np.divide(num, st, out=dp, where=~pole)
        yield norm * columns[am][l - am] * phase, norm * dp * phase


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
