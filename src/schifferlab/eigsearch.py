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
from typing import Sequence

import numpy as np
from scipy.optimize import brentq  # noqa: F401  (uncalled; bench/tracing.py looks it up)

from .entire import Evaluator, winding_count
from .specfun import riccati_table

__all__ = [
    "EigenvalueRecord",
    "DensityEstimate",
    "dispersion",
    "dispersion_function",
    "dispersion_log_abs",
    "find_real_eigenvalues",
    "real_eigenvalue_spectra",
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

    @classmethod
    def from_count(cls, count: int, R_hat: float, K: float) -> "DensityEstimate":
        density = count / K
        target = R_hat / math.pi
        return cls(count, float(K), density, target, abs(density - target) / target)


def _coefficient(R_hat, k, S, Sp):
    """B = R_hat*S_l' - S_l/k from Riccati table rows S_l, S_l' at k R_hat."""
    return R_hat * Sp - S / k


def _coefficient_derivative(l, R_hat, k, S, Sp):
    """B'(k) = R_hat^2 S_l'' - R_hat S_l'/k + S_l/k^2 from the rows of _coefficient.

    S_l'' = (l(l+1)/x^2 - 1) S_l at x = k R_hat, by the Riccati-Bessel
    equation; ``l`` broadcasts against the rows.
    """
    x = k * R_hat
    return R_hat * R_hat * (l * (l + 1) / (x * x) - 1.0) * S - R_hat * Sp / k + S / (k * k)


def _check_dispersion_args(R_hat: float, k) -> None:
    at_zero = (k == 0).any() if isinstance(k, np.ndarray) else k == 0
    if at_zero:
        raise ValueError("dispersion is evaluated away from k = 0")
    if R_hat <= 0:
        raise ValueError("R_hat must be positive")


def dispersion(l: int, R_hat: float, k):
    """B(k) = R_hat*S_l'(k R_hat) - S_l(k R_hat)/k, the irregular coefficient.

    Entire in k (the k = 0 singularity of the sin term is removable); the
    argument k = 0 itself is rejected.  For l = 0 this is exactly
    R_hat*cos(k R_hat) - sin(k R_hat)/k, and real k gives real values.
    An ndarray k is evaluated elementwise in one riccati_table call.
    """
    _check_dispersion_args(R_hat, k)
    S, _, Sp, _ = riccati_table(l, k * R_hat)
    return _coefficient(R_hat, k, S[l], Sp[l])


def dispersion_function(l: int, R_hat: float) -> Evaluator:
    """The contour evaluator k -> (B(k), B'(k)) of dispersion(l, R_hat, .).

    Both come from one riccati_table call, elementwise on an ndarray of k;
    B is bitwise dispersion(l, R_hat, k) and B' is the closed form of
    _coefficient_derivative.  Arguments are validated as dispersion does.
    """
    def pair(k):
        _check_dispersion_args(R_hat, k)
        S, _, Sp, _ = riccati_table(l, k * R_hat)
        S, Sp = S[l], Sp[l]
        return (_coefficient(R_hat, k, S, Sp),
                _coefficient_derivative(l, R_hat, k, S, Sp))

    return pair


def dispersion_log_abs(l: int, R_hat: float, k: complex) -> float:
    """log|dispersion(l, R_hat, k)|, stable for large |Im k|.

    Uses the internally rescaled Riccati-Bessel tables so the exponential
    growth e^{|Im k| R_hat} enters additively, never as a raw magnitude.
    """
    if k == 0:
        raise ValueError("dispersion is evaluated away from k = 0")
    z = k * R_hat
    S, _, Sp, _ = riccati_table(l, z, scaled=True)
    scaled = _coefficient(R_hat, k, S[l], Sp[l])
    mag = abs(scaled)
    if mag == 0.0:
        return -math.inf
    return math.log(mag) + abs(complex(z).imag)


def _scan_nodes(k_max: float, scan_step: float) -> np.ndarray:
    """Scan nodes scan_step, 2 scan_step, ... closed at k_max."""
    nodes = np.arange(scan_step, k_max + scan_step / 2, scan_step)
    nodes = nodes[nodes <= k_max + 1e-12 * k_max]
    if nodes.size == 0 or nodes[-1] < k_max - 1e-12 * k_max:
        # the scan interval is closed at k_max; cover its last sliver
        nodes = np.append(nodes, k_max)
    return nodes


def _dispersion_rows(lmax: int, R: np.ndarray, k: np.ndarray, derivative: bool = False):
    """B_l(k) for l = 0..lmax at real k on radii R (1-d arrays), rows by l.

    One riccati_table call.  With ``derivative`` also B_l'(k) by
    _coefficient_derivative.
    """
    S, _, Sp, _ = riccati_table(lmax, k * R)
    S, Sp = S.real, Sp.real
    B = _coefficient(R, k, S, Sp)
    if not derivative:
        return B
    return B, _coefficient_derivative(np.arange(lmax + 1)[:, None], R, k, S, Sp)


# brentq's tolerances; a Newton step this small leaves a rounding-level error
_XTOL = 1e-14
_RTOL = 4 * np.finfo(float).eps
_NEWTON_MAX_ITER = 100


def _newton(lmax: int, rows: np.ndarray, R: np.ndarray, lo: np.ndarray,
            hi: np.ndarray, f_lo: np.ndarray, f_hi: np.ndarray) -> np.ndarray:
    """Root of B_rows in every sign-change bracket (lo, hi) at once.

    Safeguarded Newton from the secant point: a step that leaves the
    current bracket bisects instead.  Each iteration is one array call over
    the brackets still open, and each bracket's iterates depend on that
    bracket alone.
    """
    x = lo - f_lo * (hi - lo) / (f_hi - f_lo)
    x = np.where((lo < x) & (x < hi), x, 0.5 * (lo + hi))
    s_lo = np.sign(f_lo)
    root = np.empty_like(x)
    live = np.arange(x.size)
    for _ in range(_NEWTON_MAX_ITER):
        B, dB = _dispersion_rows(lmax, R, x, derivative=True)
        cols = np.arange(x.size)
        f, df = B[rows, cols], dB[rows, cols]
        left = np.sign(f) == s_lo
        lo = np.where(left, x, lo)
        hi = np.where(left, hi, x)
        with np.errstate(divide="ignore", invalid="ignore"):
            step = f / df
        xn = x - step
        inside = (lo < xn) & (xn < hi)
        tol = _XTOL + _RTOL * np.abs(x)
        done = (np.abs(step) <= tol) | (hi - lo <= tol)
        # a converged step that leaves the bracket stays at x, which is inside
        xn = np.where(inside, xn, np.where(done, x, 0.5 * (lo + hi)))
        root[live[done]] = xn[done]
        keep = ~done
        live, x, lo, hi, s_lo, R, rows = (
            live[keep], xn[keep], lo[keep], hi[keep], s_lo[keep], R[keep], rows[keep])
        if live.size == 0:
            break
    # brackets still open after the cap keep their last iterate; the
    # residual check judges them
    root[live] = x
    return root


def _real_spectra(lmax: int, degrees: Sequence[int], radii: Sequence[float],
                  steps: Sequence[float], k_max: float,
                  tol: float) -> list[dict[int, list[EigenvalueRecord]]]:
    """Bracketed roots of B_l on (step, k_max] for each radius and degree.

    All radii and degrees share one scan call, one call for the nudged
    brackets (if any), one call per Newton iteration, and one residual call.
    """
    nodes = [_scan_nodes(k_max, s) for s in steps]
    k = np.concatenate(nodes)
    B = _dispersion_rows(lmax, np.repeat(np.asarray(radii, dtype=float),
                                         [n.size for n in nodes]), k)

    # sign-change brackets (r, l, a, b, f_a, f_b) in k order per radius and
    # degree; f_a = 0 marks a node exactly on a root
    brackets = []
    start = 0
    for r, kr in enumerate(nodes):
        for l in degrees:
            v = B[l, start:start + kr.size]
            for i in np.flatnonzero((v[:-1] * v[1:] < 0) | (v[:-1] == 0)):
                brackets.append((r, l, kr[i], kr[i + 1], v[i], v[i + 1]))
        start += kr.size
    spectra = [{l: [] for l in degrees} for _ in radii]
    if not brackets:
        return spectra
    r_of, rows, lo, hi, f_lo, f_hi = (np.array(c) for c in zip(*brackets))
    R = np.asarray(radii, dtype=float)[r_of]

    # a node on a root opens its bracket a quarter step to the left; if B
    # keeps its sign there, the node itself is the root, with residual 0
    roots, residuals = lo.copy(), np.zeros(lo.size)
    on_node = np.flatnonzero(f_lo == 0)
    if on_node.size:
        lo[on_node] -= 0.25 * np.asarray(steps, dtype=float)[r_of[on_node]]
        f_lo[on_node] = _dispersion_rows(lmax, R[on_node], lo[on_node])[
            rows[on_node], np.arange(on_node.size)]
    live = np.flatnonzero(f_lo * f_hi < 0)
    if live.size:
        roots[live] = _newton(lmax, rows[live], R[live], lo[live], hi[live],
                              f_lo[live], f_hi[live])
        residuals[live] = np.abs(_dispersion_rows(lmax, R[live], roots[live])[
            rows[live], np.arange(live.size)])

    for (r, l, *_), root, residual, a, b in zip(brackets, roots, residuals, lo, hi):
        if residual > tol:
            raise RuntimeError(f"root refinement at k={root} left residual {residual} > {tol}")
        spectra[r][l].append(EigenvalueRecord(l, float(root), float(residual),
                                              (float(a), float(b))))
    for eigen in spectra:
        for records in eigen.values():
            for prev, cur in zip(records, records[1:]):
                if cur.k - prev.k < 10 * tol:
                    warnings.warn(f"near-coincident roots at k={prev.k} and k={cur.k}; "
                                  "possible multiplicity", RuntimeWarning)
    return spectra


def _check_radius(R_hat: float) -> None:
    if not (math.isfinite(R_hat) and R_hat > 0):
        raise ValueError(f"R_hat must be positive and finite, got {R_hat}")


def find_real_eigenvalues(l: int, R_hat: float, k_max: float,
                          scan_step: float | None = None,
                          tol: float = 1e-9) -> list[EigenvalueRecord]:
    """Bracketed roots of the dispersion function on (scan_step, k_max].

    The scan step defaults to, and must not exceed, a quarter of the
    asymptotic eigenvalue spacing pi/R_hat, so no sign change is skipped.
    Each sign-change bracket is refined by safeguarded Newton on the
    closed-form derivative B'(k); ``bracket`` is the scan bracket.
    Near-coincident roots (closer than 10*tol) emit a warning rather than
    being merged.
    """
    if k_max <= 0:
        raise ValueError("k_max must be positive")
    _check_radius(R_hat)
    limit = math.pi / (4 * R_hat)
    if scan_step is None:
        scan_step = limit
    if scan_step > limit * (1 + 1e-12):
        raise ValueError(f"scan_step {scan_step} exceeds pi/(4 R_hat) = {limit}")
    return _real_spectra(l, [l], [R_hat], [scan_step], k_max, tol)[0][l]


def real_eigenvalue_spectra(radii: Sequence[float], l_max: int, k_max: float,
                            tol: float = 1e-9) -> list[dict[int, list[EigenvalueRecord]]]:
    """find_real_eigenvalues for l = 0..l_max on every radius, batched.

    Entry r maps each degree to the roots for radius ``radii[r]`` at its
    default scan step pi/(4 R).  The whole batch takes one table call for
    the scan, one per Newton iteration and one for the residuals; each
    radius gets the same records whether scanned alone or in a batch.
    """
    if k_max <= 0:
        raise ValueError("k_max must be positive")
    for R_hat in radii:
        _check_radius(R_hat)
    steps = [math.pi / (4 * R_hat) for R_hat in radii]
    return _real_spectra(l_max, range(l_max + 1), radii, steps, k_max, tol)


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
    ``f`` maps a complex ndarray of nodes to the pair (f, f'), as
    ``dispersion_function`` does, and is called once per pass.  The closed
    path carries ``quad_nodes`` trapezoid nodes per side.  Errors: a zero
    of f on the boundary (a node where |f| collapses below 1e-8 of the
    local boundary scale) raises ValueError; a non-integer winding (off by
    more than 0.1 after one refinement) raises RuntimeError.
    """
    re_lo, re_hi, im_lo, im_hi = rect
    if not (re_lo < re_hi and im_lo < im_hi):
        raise ValueError("rectangle must have positive extent")
    return winding_count(f, lambda n: _rect_path(rect, n), quad_nodes,
                         "argument-principle")


def density_estimate(l: int, R_hat: float, K: float) -> DensityEstimate:
    """Zero count of the dispersion function on (0, K] against R_hat/pi.

    Requires K >= 50/R_hat so the ratio has settled.
    """
    if K < 50.0 / R_hat:
        raise ValueError(f"K={K} too small for a stable ratio; need K >= {50.0 / R_hat}")
    return DensityEstimate.from_count(len(find_real_eigenvalues(l, R_hat, K)), R_hat, K)
