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
from .errors import NumericalError, UnderflowError
from .specfun import L_MAX, Z_MAX, riccati_s_table
from .specfun import riccati_table  # noqa: F401  (uncalled; bench/tracing.py rebinds it)

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


def _regular_rows(l: int, k, z):
    """Rows S_0..S_l and S_0'..S_l' at z = k R_hat (k != 0), in z's dtype.

    S_l and S_l' have no common zero at z != 0, so both reading exactly 0
    is underflow (tiny |z|, large l), and B(k) = 0 there would pass for a
    root: UnderflowError, naming the first such k.
    """
    S, Sp = riccati_s_table(l, z)
    dead = (S[l] == 0) & (Sp[l] == 0)
    if dead.any():
        bad = np.ravel(k)[np.argmax(dead)].item()
        raise UnderflowError(f"S_{l} and S_{l}' underflow to 0 at k={bad!r}")
    return S, Sp


def _complex_rows(l: int, R_hat: float, k):
    """S_l and S_l' at complex k R_hat, for k validated as dispersion does."""
    _check_dispersion_args(R_hat, k)
    S, Sp = _regular_rows(l, k, np.asarray(k * R_hat, dtype=complex))
    return S[l], Sp[l]


def dispersion(l: int, R_hat: float, k):
    """B(k) = R_hat*S_l'(k R_hat) - S_l(k R_hat)/k, the irregular coefficient.

    Entire in k (the k = 0 singularity of the sin term is removable); the
    argument k = 0 itself is rejected.  For l = 0 this is exactly
    R_hat*cos(k R_hat) - sin(k R_hat)/k, and real k gives real values.
    An ndarray k is evaluated elementwise in one complex riccati_s_table
    call.  Where S_l and S_l' both underflow to 0, UnderflowError.
    """
    S, Sp = _complex_rows(l, R_hat, k)
    return _coefficient(R_hat, k, S, Sp)


def dispersion_function(l: int, R_hat: float) -> Evaluator:
    """The contour evaluator k -> (B(k), B'(k)) of dispersion(l, R_hat, .).

    Both come from one riccati_s_table call, elementwise on an ndarray of
    k; B is bitwise dispersion(l, R_hat, k) and B' is the closed form of
    _coefficient_derivative.  Arguments are validated as dispersion does.
    """
    def pair(k):
        S, Sp = _complex_rows(l, R_hat, k)
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
    z = complex(k * R_hat)
    S, Sp = riccati_s_table(l, z, scaled=True)
    scaled = _coefficient(R_hat, k, S[l], Sp[l])
    mag = abs(scaled)
    if mag == 0.0:
        return -math.inf
    return math.log(mag) + abs(z.imag)


def _scan_nodes(k_max: float, scan_step: float) -> np.ndarray:
    """Scan nodes scan_step, 2 scan_step, ... closed at k_max."""
    nodes = np.arange(scan_step, k_max + scan_step / 2, scan_step)
    nodes = nodes[nodes <= k_max + 1e-12 * k_max]
    if nodes.size == 0 or nodes[-1] < k_max - 1e-12 * k_max:
        # the scan interval is closed at k_max; cover its last sliver
        nodes = np.append(nodes, k_max)
    return nodes


def _coefficient_second_derivative(l, R_hat, k, S, Sp):
    """B''(k) = R_hat^3 S_l''' - R_hat^2 S_l''/k + 2 R_hat S_l'/k^2 - 2 S_l/k^3.

    S_l'' = (l(l+1)/x^2 - 1) S_l and S_l''' = -2 l(l+1) S_l/x^3
    + (l(l+1)/x^2 - 1) S_l' at x = k R_hat, from the rows of _coefficient.
    """
    x = k * R_hat
    ll = l * (l + 1)
    q = ll / (x * x) - 1.0
    S2 = q * S
    S3 = q * Sp - 2.0 * ll * S / (x * x * x)
    return (R_hat * R_hat * (R_hat * S3 - S2 / k)
            + 2.0 * (R_hat * Sp - S / k) / (k * k))


def _dispersion_rows(lmax: int, l, R: np.ndarray, k: np.ndarray, derivatives: bool = False):
    """B_l(k) at real k on radii R (1-d arrays) for the degrees l only: a
    column (d, 1) of degrees gives a row per degree, a (k.size,) array one
    degree per point.  One float64 riccati_s_table of orders 0..lmax, which
    UnderflowError guards; with ``derivatives`` the triple (B, B', B'')
    from the same S_l, S_l' rows.
    """
    S, Sp = _regular_rows(lmax, k, k * R)
    cols = np.arange(k.size)
    S, Sp = S[l, cols], Sp[l, cols]
    B = _coefficient(R, k, S, Sp)
    if not derivatives:
        return B
    return (B, _coefficient_derivative(l, R, k, S, Sp),
            _coefficient_second_derivative(l, R, k, S, Sp))


# brentq's tolerances; a step this small leaves a rounding-level error
_XTOL = 1e-14
_RTOL = 4 * np.finfo(float).eps
_MAX_ITER = 100
# scan nodes per radius: the default step pi/(4 R_hat) needs at most
# 4 Z_MAX/pi = 12,733, and a scan of degree 60 at this cap peaks at about
# 65 MB (tracemalloc), most of it the one riccati_s_table of orders 0..60
_MAX_SCAN_NODES = 1 << 15


def _hermite_start(lo: np.ndarray, hi: np.ndarray, f_lo: np.ndarray, f_hi: np.ndarray,
                   d_lo: tuple[np.ndarray, np.ndarray],
                   d_hi: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """A start in each bracket (lo, hi) from B, B', B'' at its two ends.

    The root of the quintic Hermite interpolant, by three Newton steps on
    the polynomial from the secant point; where the result is not finite
    or leaves the bracket, the secant point itself (the midpoint if that
    rounds onto an end).  ``d_lo`` and ``d_hi`` are (B', B'') at lo and hi.
    """
    h = hi - lo
    dy = f_hi - f_lo
    # p(t) = B(lo + t h) on [0, 1]: the quintic that matches the value,
    # slope h B' and curvature h^2 B'' at both ends
    d0, d1 = h * d_lo[0], h * d_hi[0]
    s0, s1 = h * h * d_lo[1], h * h * d_hi[1]
    c = (f_lo, d0, 0.5 * s0,
         10.0 * dy - 6.0 * d0 - 4.0 * d1 - 1.5 * s0 + 0.5 * s1,
         -15.0 * dy + 8.0 * d0 + 7.0 * d1 + 1.5 * s0 - s1,
         6.0 * dy - 3.0 * (d0 + d1) - 0.5 * (s0 - s1))
    secant = lo - f_lo * h / dy
    secant = np.where((lo < secant) & (secant < hi), secant, 0.5 * (lo + hi))
    t = (secant - lo) / h
    # a flat or non-finite polynomial is caught by the test below
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for _ in range(3):
            p, dp = c[5], 0.0
            for coef in c[4::-1]:
                dp = dp * t + p
                p = p * t + coef
            t = t - p / dp
        x = lo + t * h
    return np.where(np.isfinite(x) & (lo < x) & (x < hi), x, secant)


def _halley(lmax: int, rows: np.ndarray, R: np.ndarray, x: np.ndarray, lo: np.ndarray,
            hi: np.ndarray, s_lo: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(root, |B(root)|) of B_rows in every sign-change bracket (lo, hi) at once.

    Safeguarded Halley from the starts ``x``, with ``s_lo`` the sign of B
    at lo: a step that leaves the current bracket bisects instead.  Each
    iteration is one array call over the brackets still open, and each
    bracket's iterates depend on that bracket alone.  The root is the
    evaluated iterate whose step met the tolerance (past the iteration
    cap, the last one), so its |B| comes from the same call.
    """
    root = np.empty_like(x)
    residual = np.empty_like(x)
    live = np.arange(x.size)
    for _ in range(_MAX_ITER):
        f, df, d2f = _dispersion_rows(lmax, rows, R, x, derivatives=True)
        root[live] = x
        residual[live] = np.abs(f)
        left = np.sign(f) == s_lo
        lo = np.where(left, x, lo)
        hi = np.where(left, hi, x)
        # Halley's step f/f' / (1 - (f/f') f''/(2 f')); where f' = 0 it is
        # not finite, and the bracket test below bisects
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            newton = f / df
            step = newton / (1.0 - 0.5 * newton * d2f / df)
        xn = x - step
        tol = _XTOL + _RTOL * np.abs(x)
        keep = ~((np.abs(step) <= tol) | (hi - lo <= tol))
        xn = np.where((lo < xn) & (xn < hi), xn, 0.5 * (lo + hi))
        live, x, lo, hi, s_lo, R, rows = (
            live[keep], xn[keep], lo[keep], hi[keep], s_lo[keep], R[keep], rows[keep])
        if live.size == 0:
            break
    return root, residual


def _real_spectra(lmax: int, degrees: Sequence[int], radii: Sequence[float],
                  steps: Sequence[float], k_max: float,
                  tol: float) -> list[dict[int, list[EigenvalueRecord]]]:
    """Bracketed roots of B_l on (step, k_max] for each radius and degree.

    All radii and degrees share one scan call, which also gives B' and B''
    at every node.  Each bracket starts at the root of the quintic Hermite
    interpolant of (B, B', B'') at its two nodes and is refined by
    safeguarded Halley steps, one call per iteration over the brackets
    still open, usually two.  The reported root is the last evaluated
    iterate, and its |B| from that call is the residual.  Nodes exactly on
    a root cost one more call.
    """
    nodes = [_scan_nodes(k_max, s) for s in steps]
    k = np.concatenate(nodes)
    sizes = [n.size for n in nodes]
    degrees = np.asarray(degrees)
    # B' and B'' at the nodes only seed _hermite_start, which falls back to
    # the secant point where they are not finite (l(l+1)/x^2 overflows
    # below x = k R of about 1e-154)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        V, dV, d2V = _dispersion_rows(lmax, degrees[:, None],
                                      np.repeat(np.asarray(radii, dtype=float), sizes), k,
                                      derivatives=True)

    # sign-change brackets (r, l, a, b, f_a, f_b) in k order per radius and
    # degree, from one pass over the table; f_a = 0 marks a node exactly on
    # a root, and the node pair where one radius's scan meets the next is
    # no bracket
    change = (V[:, :-1] * V[:, 1:] < 0) | (V[:, :-1] == 0)
    change[:, np.cumsum(sizes)[:-1] - 1] = False
    d, i = np.nonzero(change)
    r_of = np.repeat(np.arange(len(sizes)), sizes)[i]
    rows, lo, hi, f_lo, f_hi = degrees[d], k[i], k[i + 1], V[d, i], V[d, i + 1]
    d_lo, d_hi = (dV[d, i], d2V[d, i]), (dV[d, i + 1], d2V[d, i + 1])
    spectra = [{l: [] for l in degrees.tolist()} for _ in radii]
    if not i.size:
        return spectra
    R = np.asarray(radii, dtype=float)[r_of]

    # a node on a root opens its bracket a quarter step to the left; if B
    # keeps its sign there, the node itself is the root, with residual 0;
    # if B reads 0 there too, it is rounding (B_0 below x = 1e-8), not a root
    roots, residuals = lo.copy(), np.zeros(lo.size)
    on_node = np.flatnonzero(f_lo == 0)
    if on_node.size:
        lo[on_node] -= 0.25 * np.asarray(steps, dtype=float)[r_of[on_node]]
        f_lo[on_node], d_lo[0][on_node], d_lo[1][on_node] = _dispersion_rows(
            lmax, rows[on_node], R[on_node], lo[on_node], derivatives=True)
        flat = on_node[f_lo[on_node] == 0]
        if flat.size:
            l, node, below = rows[flat[0]], roots[flat[0]].item(), lo[flat[0]].item()
            raise NumericalError(f"B_{l} reads exactly 0 at k={node!r} and a quarter step "
                                 f"below, at k={below!r}: rounding hides any root there")
    live = np.flatnonzero(f_lo * f_hi < 0)
    if live.size:
        start = _hermite_start(lo[live], hi[live], f_lo[live], f_hi[live],
                               (d_lo[0][live], d_lo[1][live]),
                               (d_hi[0][live], d_hi[1][live]))
        roots[live], residuals[live] = _halley(lmax, rows[live], R[live], start, lo[live],
                                               hi[live], np.sign(f_lo[live]))

    for r, l, root, residual, a, b in zip(*(c.tolist() for c in
                                            (r_of, rows, roots, residuals, lo, hi))):
        if residual > tol:
            raise RuntimeError(f"root refinement at k={root} left residual {residual} > {tol}")
        spectra[r][l].append(EigenvalueRecord(l, root, residual, (a, b)))
    for eigen in spectra:
        for records in eigen.values():
            for prev, cur in zip(records, records[1:]):
                if cur.k - prev.k < 10 * tol:
                    warnings.warn(f"near-coincident roots at k={prev.k} and k={cur.k}; "
                                  "possible multiplicity", RuntimeWarning)
    return spectra


def _check_positive(name: str, value: float) -> None:
    if not (math.isfinite(value) and value > 0):
        raise ValueError(f"{name} must be positive and finite, got {value}")


def _check_scan(R_hat: float, k_max: float, scan_step: float, tol: float) -> None:
    """Reject a scan of (scan_step, k_max] on R_hat before it allocates anything.

    Besides non-positive and non-finite values: k_max R_hat above the
    kernel's Z_MAX, and more than _MAX_SCAN_NODES scan nodes.
    """
    _check_positive("k_max", k_max)
    _check_positive("scan_step", scan_step)
    _check_positive("tol", tol)
    if k_max * R_hat > Z_MAX:
        raise ValueError(f"k_max * R_hat = {k_max * R_hat:.6g} exceeds the kernel's "
                         f"limit Z_MAX = {Z_MAX:.0e}")
    nodes = k_max / scan_step
    if nodes > _MAX_SCAN_NODES:
        raise ValueError(f"scan_step {scan_step} needs {nodes:.6g} scan nodes up to "
                         f"k_max = {k_max}, more than {_MAX_SCAN_NODES}")


def find_real_eigenvalues(l: int, R_hat: float, k_max: float,
                          scan_step: float | None = None,
                          tol: float = 1e-9) -> list[EigenvalueRecord]:
    """Bracketed roots of the dispersion function on (scan_step, k_max].

    The scan step defaults to, and must not exceed, a quarter of the
    asymptotic eigenvalue spacing pi/R_hat, so no sign change is skipped.
    The scan also gives B' and B'' at every node.  Each sign-change
    bracket starts at the root of the quintic Hermite interpolant of
    (B, B', B'') at its two nodes and is refined by safeguarded Halley
    steps on the closed-form derivatives.  ``k`` is the last evaluated
    iterate, ``residual`` is |B| there, and ``bracket`` is the scan
    bracket.  Near-coincident roots (closer than 10*tol) emit a warning
    rather than being merged.

    ValueError, naming the value, for a non-positive or non-finite R_hat,
    k_max, scan_step or tol, for k_max R_hat above Z_MAX, and for more
    than 32,768 scan nodes.
    """
    _check_positive("R_hat", R_hat)
    limit = math.pi / (4 * R_hat)
    if scan_step is None:
        scan_step = limit
    _check_scan(R_hat, k_max, scan_step, tol)
    if scan_step > limit * (1 + 1e-12):
        raise ValueError(f"scan_step {scan_step} exceeds pi/(4 R_hat) = {limit}")
    return _real_spectra(l, [l], [R_hat], [scan_step], k_max, tol)[0][l]


def real_eigenvalue_spectra(radii: Sequence[float], l_max: int, k_max: float,
                            tol: float = 1e-9) -> list[dict[int, list[EigenvalueRecord]]]:
    """find_real_eigenvalues for l = 0..l_max on every radius, batched.

    Entry r maps each degree to the roots for radius ``radii[r]`` at its
    default scan step pi/(4 R).  The whole batch takes one table call for
    the scan, which also gives the Hermite starts their B' and B'', and
    one per Halley iteration, usually two; each residual is |B| from the
    call that evaluated its root.  Each radius gets the same records
    whether scanned alone or in a batch.  Every radius is checked as
    find_real_eigenvalues checks it, and l_max must lie in [0, L_MAX].
    """
    if not 0 <= l_max <= L_MAX:
        # checked here, before range(l_max + 1) becomes an array
        raise ValueError(f"l_max={l_max} outside [0, L_MAX={L_MAX}]")
    steps = []
    for R_hat in radii:
        _check_positive("R_hat", R_hat)
        steps.append(math.pi / (4 * R_hat))
        _check_scan(R_hat, k_max, steps[-1], tol)
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
    local boundary scale) raises NumericalError, a ValueError; a
    non-integer winding (off by more than 0.1 after one refinement) raises
    RuntimeError.
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
    _check_positive("R_hat", R_hat)
    if K < 50.0 / R_hat:
        raise ValueError(f"K={K} too small for a stable ratio; need K >= {50.0 / R_hat}")
    return DensityEstimate.from_count(len(find_real_eigenvalues(l, R_hat, K)), R_hat, K)
