"""Special functions: spherical Bessel/Neumann, Riccati-Bessel, associated
Legendre, spherical harmonics, and the sphere quadrature rule used by every
other module.  All evaluators are pure functions of their arguments; orders
are capped at the fixed ``L_MAX`` = 60 and arguments at ``Z_MAX``.  Every
spherical harmonic and its theta derivative comes from one kernel,
``ylm_blocks`` (``ylm_terms`` yields its rows one by one), which takes
every Legendre value from one table.  A ``ModePlan`` holds the part of
that kernel that depends on the mode list alone, so a caller that
evaluates one list at many angles builds it once.  ``scaled_sin_cos``
gives sin z and cos z times exp(-|Im z|), the pair that seeds the
complex Bessel tables, to callers that need the same scaling."""

from .bessel import (
    L_MAX,
    Z_MAX,
    riccati_s_rows,
    riccati_table,
    scaled_sin_cos,
    spherical_jn_table,
)
from .harmonics import (
    ModePlan,
    SphereQuadrature,
    SphericalDirection,
    sphere_quadrature,
    ylm,
    ylm_blocks,
    ylm_norm,
    ylm_terms,
    ylm_theta_derivative,
)

__all__ = [
    "L_MAX",
    "Z_MAX",
    "ModePlan",
    "SphereQuadrature",
    "SphericalDirection",
    "riccati_s_rows",
    "riccati_table",
    "scaled_sin_cos",
    "sphere_quadrature",
    "spherical_jn_table",
    "ylm",
    "ylm_blocks",
    "ylm_norm",
    "ylm_terms",
    "ylm_theta_derivative",
]
