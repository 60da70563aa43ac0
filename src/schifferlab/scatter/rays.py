"""Per-ray eigenvalue comparison across a starlike boundary.

Each ray from the origin meets the boundary at its own radius R_hat, and
the two-way radial problem along that ray has its own eigenvalue list and
density R_hat/pi.  That list is {x_{l,n}/R_hat}, where x_{l,n} are the
zeros of x j_l'(x), so it depends on the radius alone: the cross-ray
intersection and the density spread test whether rho, measured from the
origin, is equal on the sampled directions.  They use nothing of the
boundary conditions; the boundary least squares
(``schifferlab.scatter.overdetermined``) is the layer that tests those.

One scan costs one synthesis, which gives every ray radius, and a
lookup of the x roots in a memo (``eigsearch.real_eigenvalue_spectra``),
keyed by table order, degrees, step and lattice length; a miss fills it
with three calls of the Riccati kernel: the x-scan and, usually, two
Halley iterations.  Every batch at k_max = 12 on radii up to 4 with the
same l_max shares one entry, and a hit is bitwise a miss.  The synthesis
is one Legendre table and one exp over the domain's orders, from the
mode plan the domain built at construction, with no ``ylm_norm`` call;
the roots go to the radii in a fixed number of array operations, and
the records are cut into per-radius, per-degree lists by their counts.
The cross-ray intersection tests each k against the two nearest k of
every other ray.
"""

from __future__ import annotations

import bisect
import dataclasses
import math
import operator
from typing import Sequence

from ..eigsearch import DensityEstimate, EigenvalueRecord, real_eigenvalue_spectra
from ..eigsearch import find_real_eigenvalues  # noqa: F401  (bench/tracing.py rebinds it)
from ..specfun import SphericalDirection
from .domain import StarlikeDomain, ray_radii
from .domain import ray_radius  # noqa: F401  (bench/tracing.py rebinds it)

__all__ = ["RayEigenReport", "RayScanResult", "per_ray_eigen_scan", "axis_directions"]

_MATCH_TOL = 1e-6
_K = operator.attrgetter("k")


@dataclasses.dataclass(frozen=True)
class RayEigenReport:
    """Eigenvalue scan along a single ray."""

    direction: SphericalDirection
    R_hat: float
    eigenvalues: dict[int, tuple[EigenvalueRecord, ...]]
    density: DensityEstimate


@dataclasses.dataclass(frozen=True)
class RayScanResult:
    """Per-ray reports plus the cross-ray eigenvalue intersection per degree."""

    reports: tuple[RayEigenReport, ...]
    common: dict[int, tuple[float, ...]]

    @property
    def density_spread(self) -> float:
        """(max - min)/mean of the per-ray densities."""
        ds = [r.density.density for r in self.reports]
        mean = sum(ds) / len(ds)
        if mean == 0.0:
            return 0.0
        return (max(ds) - min(ds)) / mean

    @property
    def intersection_size(self) -> int:
        return sum(len(v) for v in self.common.values())


def axis_directions() -> tuple[SphericalDirection, ...]:
    """The six coordinate half-axes."""
    half = math.pi / 2
    return (
        SphericalDirection(0.0, 0.0),
        SphericalDirection(math.pi, 0.0),
        SphericalDirection(half, 0.0),
        SphericalDirection(half, half),
        SphericalDirection(half, math.pi),
        SphericalDirection(half, 3 * half),
    )


def _intersect(lists: list[tuple[EigenvalueRecord, ...]], tol: float) -> tuple[float, ...]:
    """The k of the first list that lie within tol of a k on every other list.

    Each other list is sorted once, and only the two nearest q of a k are
    tested: rounding is monotone, so abs(k - q) never shrinks as q moves
    away from k on either side, and any q within tol means the nearest q
    below k or the nearest at or above it is.
    """
    survivors = list(map(_K, lists[0])) if lists else []
    for other in lists[1:]:
        if not survivors:
            break
        ks = sorted(map(_K, other))
        keep = []
        for k in survivors:
            i = bisect.bisect_left(ks, k)
            if (i < len(ks) and abs(k - ks[i]) <= tol) or (i and abs(k - ks[i - 1]) <= tol):
                keep.append(k)
        survivors = keep
    return tuple(survivors)


def per_ray_eigen_scan(domain: StarlikeDomain,
                       directions: Sequence[SphericalDirection],
                       l_max: int, k_max: float, threads: int = 1) -> RayScanResult:
    """Scan each ray's radial eigenvalues up to k_max for l = 0..l_max.

    The per-ray density compares the l = 0 count on (0, k_max] against
    the ray's own target R_hat/pi; the cross-ray intersection keeps the
    eigenvalues matching on every ray within 1e-6.  Every ray and degree
    comes from one scan of x = k R_hat, so a ray's report is the same
    whatever batch it is scanned in; the scan costs one synthesis of the
    ray radii and a memo lookup of the x roots, three kernel calls on a
    miss and none on a hit, with bitwise the same reports.  ``threads`` is
    validated (>= 1) and otherwise ignored: the rays share that one scan,
    with nothing left to split.
    """
    if not directions:
        raise ValueError("at least one direction is required")
    if threads < 1:
        raise ValueError(f"threads must be >= 1, got {threads}")
    radii = ray_radii(domain, directions).tolist()
    spectra = real_eigenvalue_spectra(radii, l_max, k_max)
    reports = tuple(RayEigenReport(d, R, {l: tuple(recs) for l, recs in eigen.items()},
                                   DensityEstimate.from_count(len(eigen[0]), R, k_max))
                    for d, R, eigen in zip(directions, radii, spectra))
    common = {l: _intersect([rep.eigenvalues[l] for rep in reports], _MATCH_TOL)
              for l in range(l_max + 1)}
    return RayScanResult(reports, common)
