"""Spherical harmonics Y_l^m and the tensor quadrature rule on the sphere.

Normalization:

    Y_l^m(theta, phi) = sqrt((2l+1)/(4 pi) * (l-|m|)!/(l+|m|)!)
                        * P_l^{|m|}(cos theta) * exp(i m phi)

for m = -l..l, with P_l^{|m|} free of the Condon-Shortley phase.  Note the
same P_l^{|m|} and the same positive normalization constant appear for +m
and -m, so conj(Y_l^m) = Y_l^{-m}.

Surface integrals use a Gauss-Legendre rule in theta (64 nodes by default)
crossed with a uniform trapezoid rule in phi (128 nodes); this integrates
products of harmonics up to degree ~60 to rounding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .legendre import legendre, legendre_theta_derivative


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

    @classmethod
    def from_vector(cls, v) -> "SphericalDirection":
        x, y, z = (float(c) for c in v)
        r = math.sqrt(x * x + y * y + z * z)
        if r == 0:
            raise ValueError("zero vector has no direction")
        theta = math.acos(max(-1.0, min(1.0, z / r)))
        phi = math.atan2(y, x) % (2 * math.pi)
        return cls(theta, phi)

    def unit_vector(self) -> np.ndarray:
        st = math.sin(self.theta)
        return np.array([st * math.cos(self.phi),
                         st * math.sin(self.phi),
                         math.cos(self.theta)])


def ylm_norm(l: int, m: int) -> float:
    """The sqrt((2l+1)/(4 pi) (l-|m|)!/(l+|m|)!) normalization constant."""
    am = abs(m)
    logratio = math.lgamma(l - am + 1) - math.lgamma(l + am + 1)
    return math.sqrt((2 * l + 1) / (4 * math.pi) * math.exp(logratio))


def ylm(l: int, m: int, theta, phi):
    """Y_l^m at (theta, phi); accepts scalars or broadcasting arrays."""
    if abs(m) > l:
        raise ValueError(f"order |m|={abs(m)} exceeds degree l={l}")
    theta = np.asarray(theta, dtype=float)
    phi = np.asarray(phi, dtype=float)
    out = ylm_norm(l, m) * legendre(l, abs(m), np.cos(theta)) \
        * np.exp(1j * m * phi)
    return complex(out) if np.ndim(out) == 0 else out


def ylm_theta_derivative(l: int, m: int, theta, phi):
    """dY_l^m/dtheta; same conventions as ylm."""
    if abs(m) > l:
        raise ValueError(f"order |m|={abs(m)} exceeds degree l={l}")
    theta = np.asarray(theta, dtype=float)
    phi = np.asarray(phi, dtype=float)
    out = ylm_norm(l, m) * legendre_theta_derivative(l, abs(m), theta) \
        * np.exp(1j * m * phi)
    return complex(out) if np.ndim(out) == 0 else out


@dataclass(frozen=True)
class SphereQuadrature:
    """Tensor rule on S^2: Gauss-Legendre in cos(theta) x trapezoid in phi.

    ``theta``/``phi`` are the 1-d node vectors; ``theta_grid``/``phi_grid``
    and ``weights`` are (n_theta, n_phi) arrays with sum(weights) = 4 pi.
    """

    theta: np.ndarray
    phi: np.ndarray
    theta_grid: np.ndarray
    phi_grid: np.ndarray
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
    tg, pg = np.meshgrid(theta, phi, indexing="ij")
    weights = np.outer(w_theta, np.full(n_phi, w_phi))
    return SphereQuadrature(theta=theta, phi=phi, theta_grid=tg,
                            phi_grid=pg, weights=weights)


def ylm_on_grid(l: int, m: int, quad: SphereQuadrature) -> np.ndarray:
    """Y_l^m sampled on the quadrature grid (separable evaluation)."""
    if abs(m) > l:
        raise ValueError(f"order |m|={abs(m)} exceeds degree l={l}")
    col = ylm_norm(l, m) * legendre(l, abs(m), np.cos(quad.theta))
    row = np.exp(1j * m * quad.phi)
    return np.outer(col, row)
