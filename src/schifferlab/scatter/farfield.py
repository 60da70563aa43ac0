"""Far-field synthesis and sphere-trace re-expansion.

A scattered wave's far field is a harmonic series with the coefficients
damped by 1/(k i^(n+1)); conversely, any field sampled on a sphere is
re-expanded into harmonic coefficients by quadrature against conj(Y_l^m).
The two directions are inverse to each other on band-limited data, which
the tests pin down.
"""

from __future__ import annotations

import dataclasses
import warnings
from typing import Sequence

import numpy as np

from ..errors import check_positive
from ..specfun import SphereQuadrature, SphericalDirection, ylm_terms

__all__ = ["FarFieldPattern", "far_field_from_coeffs", "rellich_expand"]

# 1 / i^p for p = 0, 1, 2, 3; integer powers stay exact this way
_INV_I = (1.0 + 0.0j, -1.0j, -1.0 + 0.0j, 1.0j)


@dataclasses.dataclass(frozen=True)
class FarFieldPattern:
    """Harmonic coefficients a_n^m of a far field at wavenumber k."""

    a_coeffs: dict[tuple[int, int], complex]
    k: float

    def __post_init__(self) -> None:
        check_positive("k", self.k)
        for (n, m), value in self.a_coeffs.items():
            if any(isinstance(i, bool) or not isinstance(i, (int, np.integer)) for i in (n, m)):
                raise ValueError(f"coefficient index ({n!r}, {m!r}) is not integer")
            if n < 0 or abs(m) > n:
                raise ValueError(f"coefficient index ({n}, {m}) out of range")
            if not np.isfinite(complex(value)):
                raise ValueError(f"coefficient a[{n},{m}] = {value!r} is not finite")


def far_field_from_coeffs(pattern: FarFieldPattern,
                          dirs: Sequence[SphericalDirection]) -> np.ndarray:
    """Synthesize (1/k) sum_n i^-(n+1) sum_m a_n^m Y_n^m at each direction."""
    theta = np.array([d.theta for d in dirs], dtype=float)
    phi = np.array([d.phi for d in dirs], dtype=float)
    out = np.zeros(theta.shape, dtype=complex)
    terms = ylm_terms(pattern.a_coeffs, theta, phi)
    for (n, _), value in pattern.a_coeffs.items():
        out += _INV_I[(n + 1) % 4] * value * next(terms)
    return out / pattern.k


def rellich_expand(samples: np.ndarray, l_max: int,
                   quad: SphereQuadrature) -> dict[tuple[int, int], complex]:
    """Harmonic coefficients of a field sampled on the quadrature grid.

    a_{l,m} = integral of samples * conj(Y_l^m) over the sphere; degrees run
    0..l_max.  The product being integrated has twice the bandwidth of the
    field, so degrees past half of what the grid resolves alias and a
    warning is raised.
    """
    samples = np.asarray(samples)
    if samples.shape != quad.weights.shape:
        raise ValueError(
            f"samples shape {samples.shape} != quadrature grid {quad.weights.shape}")
    if l_max < 0:
        raise ValueError(f"l_max must be nonnegative, got {l_max}")
    resolvable = min(quad.theta.size, quad.phi.size // 2)
    if l_max > resolvable // 2:
        warnings.warn(
            f"l_max = {l_max} exceeds half the grid's resolvable degree "
            f"({resolvable // 2}); high-degree coefficients will alias",
            RuntimeWarning, stacklevel=2)
    modes = [(l, m) for l in range(l_max + 1) for m in range(-l, l + 1)]
    terms = ylm_terms(modes, quad.theta[:, None], quad.phi[None, :])
    return {mode: complex(quad.integrate(samples * np.conj(next(terms)))) for mode in modes}
