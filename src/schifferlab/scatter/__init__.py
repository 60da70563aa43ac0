"""Starlike-domain geometry and the ball-or-nothing boundary tests."""

from .domain import (
    StarlikeDomain,
    load_domain,
    ray_radius,
    unit_ball,
)
from .farfield import FarFieldPattern, far_field_from_coeffs, rellich_expand
from .overdetermined import (
    CollocationFrame,
    ball_eigenfunction,
    collocation_frame,
    overdetermined_residual,
    residual_scan,
)
from .rays import RayEigenReport, RayScanResult, axis_directions, per_ray_eigen_scan

__all__ = [
    "StarlikeDomain",
    "load_domain",
    "ray_radius",
    "unit_ball",
    "FarFieldPattern",
    "far_field_from_coeffs",
    "rellich_expand",
    "CollocationFrame",
    "ball_eigenfunction",
    "collocation_frame",
    "overdetermined_residual",
    "residual_scan",
    "RayEigenReport",
    "RayScanResult",
    "axis_directions",
    "per_ray_eigen_scan",
]
