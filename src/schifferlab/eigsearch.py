"""Eigenvalues of the two-way radial problem as zeros of the dispersion function.

The eigenvalue condition "y vanishes at the origin" is implemented as the
vanishing of the coefficient B(k) of the irregular Riccati-Bessel
component in y = A*S_l(kr) + B*C_l(kr) fixed by the boundary data
y(R_hat) = R_hat, y'(R_hat) = 1.  For l = 0 this equals the literal value
y(0; k) = R_hat*cos(k R_hat) - sin(k R_hat)/k; for l >= 1 the pointwise
condition is ill-posed numerically (C_l diverges at the origin) while
B(k) stays finite and entire.  Real-axis scans, argument-principle counts
over rectangles, and zero-density statistics live here.
"""

from __future__ import annotations

import dataclasses
import math
import warnings

import numpy as np
from scipy.optimize import brentq

from .entire import Evaluator, winding_count
from .specfun import riccati_table

__all__ = [
    "EigenvalueRecord",
    "DensityEstimate",
    "dispersion",
    "dispersion_function",
    "dispersion_log_abs",
    "find_real_eigenvalues",
    "count_zeros_argument_principle",
    "density_estimate",
]


@dataclasses.dataclass(frozen=True)
class EigenvalueRecord:
    """A refined real zero of the dispersion function."""

    l: int
    k: float
    residual: float
    bracket: tuple[float, float]


@dataclasses.dataclass(frozen=True)
class DensityEstimate:
    """Zero count on (0, K] against the sine-type target R_hat/pi."""

    count: int
    K: float
    density: float
    target: float
    relative_gap: float


def dispersion(l: int, R_hat: float, k):
    """B(k) = R_hat*S_l'(k R_hat) - S_l(k R_hat)/k, the irregular coefficient.

    Entire in k (the k = 0 singularity of the sin term is removable); the
    argument k = 0 itself is rejected.  For l = 0 this is exactly
    R_hat*cos(k R_hat) - sin(k R_hat)/k, and real k gives real values.
    An ndarray k is evaluated elementwise in one riccati_table call.
    """
    at_zero = (k == 0).any() if isinstance(k, np.ndarray) else k == 0
    if at_zero:
        raise ValueError("dispersion is evaluated away from k = 0")
    if R_hat <= 0:
        raise ValueError("R_hat must be positive")
    S, _, Sp, _ = riccati_table(l, k * R_hat)
    return R_hat * Sp[l] - S[l] / k


def dispersion_function(l: int, R_hat: float) -> Evaluator:
    """The map k -> dispersion(l, R_hat, k) as a reusable evaluator.

    It acts elementwise on an ndarray of k, as the contour counts require.
    """
    return lambda k: dispersion(l, R_hat, k)


def dispersion_log_abs(l: int, R_hat: float, k: complex) -> float:
    """log|dispersion(l, R_hat, k)|, stable for large |Im k|.

    Uses the internally rescaled Riccati-Bessel tables so the exponential
    growth e^{|Im k| R_hat} enters additively, never as a raw magnitude.
    """
    if k == 0:
        raise ValueError("dispersion is evaluated away from k = 0")
    z = k * R_hat
    S, _, Sp, _ = riccati_table(l, z, scaled=True)
    scaled = R_hat * Sp[l] - S[l] / k
    mag = abs(scaled)
    if mag == 0.0:
        return -math.inf
    return math.log(mag) + abs(complex(z).imag)


def find_real_eigenvalues(l: int, R_hat: float, k_max: float,
                          scan_step: float | None = None,
                          tol: float = 1e-9) -> list[EigenvalueRecord]:
    """Bracketed roots of the dispersion function on (scan_step, k_max].

    The scan step defaults to, and must not exceed, a quarter of the
    asymptotic eigenvalue spacing pi/R_hat, so no sign change is skipped.
    Near-coincident roots (closer than 10*tol) emit a warning rather than
    being merged.
    """
    if k_max <= 0:
        raise ValueError("k_max must be positive")
    if not (math.isfinite(R_hat) and R_hat > 0):
        raise ValueError(f"R_hat must be positive and finite, got {R_hat}")
    limit = math.pi / (4 * R_hat)
    if scan_step is None:
        scan_step = limit
    if scan_step > limit * (1 + 1e-12):
        raise ValueError(f"scan_step {scan_step} exceeds pi/(4 R_hat) = {limit}")

    nodes = np.arange(scan_step, k_max + scan_step / 2, scan_step)
    nodes = nodes[nodes <= k_max + 1e-12 * k_max]
    if nodes.size == 0 or nodes[-1] < k_max - 1e-12 * k_max:
        # the scan interval is closed at k_max; cover its last sliver
        nodes = np.append(nodes, k_max)
    values = np.array([dispersion(l, R_hat, float(k)).real for k in nodes])

    f = lambda k: dispersion(l, R_hat, k).real
    records: list[EigenvalueRecord] = []
    for i in range(len(nodes) - 1):
        a, b = float(nodes[i]), float(nodes[i + 1])
        fa, fb = values[i], values[i + 1]
        if fa == 0.0:
            # node exactly on a root: nudge the bracket open
            a_in = a - 0.25 * scan_step
            fa_in = f(a_in)
            if fa_in * fb < 0:
                a, fa = a_in, fa_in
            else:
                records.append(EigenvalueRecord(l, a, 0.0, (a_in, b)))
                continue
        if fa * fb >= 0:
            continue
        root = brentq(f, a, b, xtol=1e-14, rtol=4 * np.finfo(float).eps)
        residual = abs(dispersion(l, R_hat, root))
        if residual > tol:
            raise RuntimeError(
                f"root refinement at k={root} left residual {residual} > {tol}")
        records.append(EigenvalueRecord(l, float(root), float(residual), (a, b)))

    for prev, cur in zip(records, records[1:]):
        if cur.k - prev.k < 10 * tol:
            warnings.warn(f"near-coincident roots at k={prev.k} and k={cur.k}; "
                          "possible multiplicity", RuntimeWarning)
    return records


def _rect_path(rect: tuple[float, float, float, float], n: int) -> np.ndarray:
    re_lo, re_hi, im_lo, im_hi = rect
    corners = [complex(re_lo, im_lo), complex(re_hi, im_lo),
               complex(re_hi, im_hi), complex(re_lo, im_hi),
               complex(re_lo, im_lo)]
    pieces = [np.linspace(a, b, n) for a, b in zip(corners, corners[1:])]
    return np.concatenate([pieces[0]] + [p[1:] for p in pieces[1:]])


def count_zeros_argument_principle(f: Evaluator,
                                   rect: tuple[float, float, float, float],
                                   quad_nodes: int = 1024) -> int:
    """Winding number (1/2pi i) * contour integral of f'/f over a rectangle.

    ``rect`` is (re_lo, re_hi, im_lo, im_hi), traversed counterclockwise;
    ``f`` acts elementwise on a complex ndarray and is called three times
    per pass.  f' is formed by central differences with step 1e-6 times
    the rectangle diameter, and the closed path carries ``quad_nodes``
    trapezoid nodes per side.  Errors: a zero of f on the boundary (a node
    where |f| collapses below 1e-8 of the local boundary scale) raises
    ValueError; a non-integer winding (off by more than 0.1 after one
    refinement) raises RuntimeError.
    """
    re_lo, re_hi, im_lo, im_hi = rect
    if not (re_lo < re_hi and im_lo < im_hi):
        raise ValueError("rectangle must have positive extent")
    h = 1e-6 * math.hypot(re_hi - re_lo, im_hi - im_lo)
    return winding_count(f, lambda n: _rect_path(rect, n), quad_nodes, h,
                         "argument-principle")


def density_estimate(l: int, R_hat: float, K: float) -> DensityEstimate:
    """Zero count of the dispersion function on (0, K] against R_hat/pi.

    Requires K >= 50/R_hat so the ratio has settled.
    """
    if K < 50.0 / R_hat:
        raise ValueError(f"K={K} too small for a stable ratio; need K >= {50.0 / R_hat}")
    records = find_real_eigenvalues(l, R_hat, K)
    count = len(records)
    density = count / K
    target = R_hat / math.pi
    return DensityEstimate(count, float(K), density, target,
                           abs(density - target) / target)
