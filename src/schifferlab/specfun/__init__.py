"""Special functions: spherical Bessel/Neumann, Riccati-Bessel, associated
Legendre, spherical harmonics, and the sphere quadrature rule used by every
other module.  All evaluators are pure functions of their arguments."""

from .bessel import (
    L_MAX_DEFAULT,
    L_MAX_SUPPORTED,
    Z_MAX,
    riccati_table,
    set_l_max,
    spherical_bessel_j,
    spherical_bessel_y,
    spherical_jy_table,
)
from .legendre import legendre, legendre_theta_derivative
from .harmonics import (
    SphereQuadrature,
    SphericalDirection,
    sphere_quadrature,
    spherical_harmonic,
    ylm,
    ylm_norm,
    ylm_on_grid,
    ylm_theta_derivative,
)

__all__ = [
    "L_MAX_DEFAULT",
    "L_MAX_SUPPORTED",
    "Z_MAX",
    "SphereQuadrature",
    "SphericalDirection",
    "legendre",
    "legendre_theta_derivative",
    "riccati_table",
    "set_l_max",
    "sphere_quadrature",
    "spherical_bessel_j",
    "spherical_bessel_y",
    "spherical_harmonic",
    "spherical_jy_table",
    "ylm",
    "ylm_norm",
    "ylm_on_grid",
    "ylm_theta_derivative",
]
