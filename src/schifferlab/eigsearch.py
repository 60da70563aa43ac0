"""Eigenvalues of the two-way radial problem as zeros of the dispersion function.

The eigenvalue condition "y vanishes at the origin" is implemented as the
vanishing of the coefficient B(k) of the irregular Riccati-Bessel
component in y = A*S_l(kr) + B*C_l(kr) fixed by the boundary data
y(R_hat) = R_hat, y'(R_hat) = 1.  For l = 0 this equals the literal value
y(0; k) = R_hat*cos(k R_hat) - sin(k R_hat)/k; for l >= 1 the pointwise
condition is ill-posed numerically (C_l diverges at the origin) while
B(k) stays finite and entire.  Real-axis scans, argument-principle counts
over rectangles, and zero-density statistics live here.

At real k, B(k) = R_hat x j_l'(x) with x = k R_hat, so the real-axis scan
works in x: one scan per degree serves a batch of radii, each root x
becoming k = x/R_hat.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import math
import warnings
from typing import NamedTuple, Sequence

import numpy as np
from scipy.optimize import brentq  # noqa: F401  (uncalled; bench/tracing.py looks it up)

from .entire import Evaluator, PanelPath, winding_count
from .errors import NumericalError, UnderflowError, check_integer, check_positive
from .specfun import L_MAX, Z_MAX, riccati_s_rows
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


class EigenvalueRecord(NamedTuple):
    """A refined real zero of the dispersion function.

    An immutable record, built at a few hundred ns: a scan makes one per
    root and radius.
    """

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
    """The checks of dispersion, dispersion_function and dispersion_log_abs."""
    check_positive("R_hat", R_hat)
    at_zero = (k == 0).any() if isinstance(k, np.ndarray) else k == 0
    if at_zero:
        raise ValueError("dispersion is evaluated away from k = 0")


def _regular_rows(lmax: int, l, k, z):
    """Rows S_l and S_l' at z = k R_hat (k != 0), in z's dtype, from one
    riccati_s_rows call with table orders 0..lmax; ``l`` is an int or an
    array of degrees that broadcasts against z, and k has z's shape.

    S_l and S_l' have no common zero at z != 0, so both reading exactly 0
    is underflow (tiny |z|, large l), and B(k) = 0 there would pass for a
    root: UnderflowError, naming S_lmax and the first such k in its
    message and that k in its ``k``.  S_lmax underflows first, so a batch
    that holds degree lmax names the point where it does.
    """
    S, Sp = riccati_s_rows(lmax, l, z)
    dead = S == 0
    if np.count_nonzero(dead) and np.count_nonzero(np.logical_and(dead, Sp == 0, out=dead)):
        # the first point of k with a dead row of any degree
        bad = np.ravel(k)[np.argmax(dead.reshape(-1, np.size(k)).any(axis=0))].item()
        err = UnderflowError(f"S_{lmax} and S_{lmax}' underflow to 0 at k={bad!r}")
        err.k = bad
        raise err
    return S, Sp


def _complex_rows(l: int, R_hat: float, k):
    """S_l and S_l' at complex k R_hat, for k validated as dispersion does."""
    _check_dispersion_args(R_hat, k)
    return _regular_rows(l, l, k, np.asarray(k * R_hat, dtype=complex))


def dispersion(l: int, R_hat: float, k):
    """B(k) = R_hat*S_l'(k R_hat) - S_l(k R_hat)/k, the irregular coefficient.

    Entire in k (the k = 0 singularity of the sin term is removable); the
    argument k = 0 itself is rejected.  For l = 0 this is exactly
    R_hat*cos(k R_hat) - sin(k R_hat)/k, and real k gives real values.
    An ndarray k is evaluated elementwise in one complex riccati_s_rows
    call, which reads rows l - 1 and l of one j table.  Where S_l and S_l'
    both underflow to 0, UnderflowError.
    """
    S, Sp = _complex_rows(l, R_hat, k)
    return _coefficient(R_hat, k, S, Sp)


def dispersion_function(l: int, R_hat: float) -> Evaluator:
    """The contour evaluator k -> (B(k), B'(k)) of dispersion(l, R_hat, .).

    Both come from one riccati_s_rows call, elementwise on an ndarray of
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

    Uses the rescaled rows S_l, S_l' of one riccati_s_rows call, so the
    exponential growth e^{|Im k| R_hat} enters additively, never as a raw
    magnitude.  Arguments are validated as dispersion does.
    """
    _check_dispersion_args(R_hat, k)
    z = complex(k * R_hat)
    S, Sp = riccati_s_rows(l, l, z, scaled=True)
    scaled = _coefficient(R_hat, k, S, Sp)
    mag = abs(scaled)
    if mag == 0.0:
        return -math.inf
    return math.log(mag) + abs(z.imag)


def _dispersion_rows(lmax: int, l, x: np.ndarray):
    """(f, f', f'') for f_l(x) = S_l'(x) - S_l(x)/x = x j_l'(x) at real x (a
    1-d array) for the degrees l only: a column (d, 1) of degrees gives a
    row per degree, a (x.size,) array one degree per point.  f_l is B_l at
    R_hat = 1 and k = x, and B_l(k) = R_hat f_l(k R_hat) on any radius.
    All three come from the S_l, S_l' rows of one float64 riccati_s_rows
    call over a j table of orders 0..lmax, which UnderflowError guards.

    f and f' are _coefficient and _coefficient_derivative at R_hat = 1,
    whose products by R_hat are exact.  f'' = S_l''' - S_l''/x + 2 f/x^2,
    with S_l'' = q S_l and S_l''' = q S_l' - 2 l(l+1) S_l/x^3 for
    q = l(l+1)/x^2 - 1 (the Riccati-Bessel equation).
    """
    S, Sp = _regular_rows(lmax, l, x, x)
    f = _coefficient(1.0, x, S, Sp)
    df = _coefficient_derivative(l, 1.0, x, S, Sp)
    ll = l * (l + 1)
    xx = x * x
    q = ll / xx - 1.0
    d2f = q * Sp - 2.0 * ll * S / (xx * x) - q * S / x + 2.0 * f / xx
    return f, df, d2f


# brentq's tolerances, on steps in x; a step this small leaves a rounding-level error
_XTOL = 1e-14
_RTOL = 4 * np.finfo(float).eps
_MAX_ITER = 100
# scan nodes per degree: the default step pi/4 in x needs at most
# 4 Z_MAX/pi = 12,733, and a scan of degree 60 at this cap peaks at about
# 19 MB (tracemalloc), most of it the one j table of orders 0..60
_MAX_SCAN_NODES = 1 << 15
# the memo's lattices grow in blocks of this many nodes, so scans of nearby
# lengths share an entry: every ray of the per-ray workloads (x <= 14,
# below 64 pi/4)
_LATTICE_BLOCK = 64
# lattices the memo keeps; a full entry (degrees 0..60 up to Z_MAX, about
# 190,000 brackets of 40 bytes) holds 7.7 MB
_LATTICE_MEMO = 4
# brackets per Halley call: the j table of orders 0..60 at 4,096 points is
# 2 MB, where one call over every bracket of a full scan held 95 MB
_HALLEY_CHUNK = 4096


def _hermite_start(lo: np.ndarray, hi: np.ndarray, f_lo: np.ndarray, f_hi: np.ndarray,
                   d_lo: tuple[np.ndarray, np.ndarray],
                   d_hi: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """A start in each bracket (lo, hi) from f, f', f'' at its two ends.

    The root of the quintic Hermite interpolant, by three Newton steps on
    the polynomial from the secant point; where the result is not finite
    or leaves the bracket, the secant point itself (the midpoint if that
    rounds onto an end).  ``d_lo`` and ``d_hi`` are (f', f'') at lo and hi.
    """
    h = hi - lo
    dy = f_hi - f_lo
    # p(t) = f(lo + t h) on [0, 1]: the quintic that matches the value,
    # slope h f' and curvature h^2 f'' at both ends
    hh = h * h
    d0, d1 = h * d_lo[0], h * d_hi[0]
    s0, s1 = hh * d_lo[1], hh * d_hi[1]
    s0_15 = 1.5 * s0
    c = (f_lo, d0, 0.5 * s0,
         10.0 * dy - 6.0 * d0 - 4.0 * d1 - s0_15 + 0.5 * s1,
         -15.0 * dy + 8.0 * d0 + 7.0 * d1 + s0_15 - s1,
         6.0 * dy - 3.0 * (d0 + d1) - 0.5 * (s0 - s1))
    secant = lo - f_lo * h / dy
    secant = np.where((lo < secant) & (secant < hi), secant, 0.5 * (lo + hi))
    t = (secant - lo) / h
    # a flat or non-finite polynomial is caught by the test below
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for _ in range(3):
            # Horner for p and p', its first step taking p' = c5 for 0 t + c5:
            # they differ only where t is not finite, which leaves t so
            p, dp = c[5] * t + c[4], c[5]
            for coef in c[3::-1]:
                dp = dp * t + p
                p = p * t + coef
            t = t - p / dp
        x = lo + t * h
    return np.where(np.isfinite(x) & (lo < x) & (x < hi), x, secant)


def _halley(lmax: int, rows: np.ndarray, x: np.ndarray, lo: np.ndarray, hi: np.ndarray,
            s_lo: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(root, |f(root)|) of f_rows in every sign-change bracket (lo, hi) at once.

    Safeguarded Halley in x from the starts ``x``, with ``s_lo`` the sign
    of f at lo: a step that leaves the current bracket bisects instead.
    Each iteration is one array call over the brackets still open, and
    each bracket's iterates depend on that bracket alone.  The root is the
    evaluated iterate whose step met the tolerance (past the iteration
    cap, the last one), so its |f| comes from the same call.
    """
    root = np.empty_like(x)
    residual = np.empty_like(x)
    live = np.arange(x.size)
    for _ in range(_MAX_ITER):
        f, df, d2f = _dispersion_rows(lmax, rows, x)
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
        tol = _XTOL + _RTOL * np.abs(x)
        keep = (~((np.abs(step) <= tol) | (hi - lo <= tol))).nonzero()[0]
        if keep.size == 0:
            break
        xn = x - step
        xn = np.where((lo < xn) & (xn < hi), xn, 0.5 * (lo + hi))
        live, x, lo, hi, s_lo, rows = (
            live[keep], xn[keep], lo[keep], hi[keep], s_lo[keep], rows[keep])
    return root, residual


def _lattice_length(x_max: float, step: float) -> int:
    """Nodes of the memo's lattice for a scan through x_max: the
    np.arange(step, x_max + 1.5 step, step) count, rounded up to a multiple
    of _LATTICE_BLOCK, but never past the first node at or beyond Z_MAX."""
    n = math.ceil((x_max + 1.5 * step - step) / step)  # np.arange's own count
    n = -(-n // _LATTICE_BLOCK) * _LATTICE_BLOCK
    # node i is step + i step; drop the last while the one before it is at
    # or past Z_MAX (at most a block's worth of steps)
    while n > 1 and step + (n - 2) * step >= Z_MAX:
        n -= 1
    return n


@functools.lru_cache(maxsize=_LATTICE_MEMO)
def _lattice_roots(lmax: int, degrees: tuple[int, ...], step: float,
                   nodes: int) -> tuple[np.ndarray, ...]:
    """(rows, column, lo, hi, roots, residuals): every bracketed root of f_l
    in x, for each degree l of ``degrees``, on the lattice of ``nodes`` nodes
    step, 2 step, ..., from j tables of orders 0..lmax.

    Node i is step + i step, as np.arange builds it, so its value does not
    depend on where the lattice stops; a node past Z_MAX is held at Z_MAX.
    One call gives f, f' and f'' at every node for every degree.  Each
    bracket (lo, hi) starts at the root of the quintic Hermite interpolant
    of (f, f', f'') at its two nodes and is refined by safeguarded Halley
    steps, one call per iteration over the brackets of a chunk still open,
    usually two; nodes exactly on a root cost one more call.  ``roots`` is
    the last evaluated iterate and ``residuals`` its |f| from the call that
    evaluated it; the brackets are in x order per degree, ``rows`` gives
    their degrees and ``column`` the place of that degree in ``degrees``.

    The x zeros are the same constants for every radius, so the result is
    memoised (lru_cache, _LATTICE_MEMO entries) and read-only.  lmax is in
    the key because Miller's start order depends on it.  Every floating-point
    warning is suppressed here, so a memo hit warns as a miss does.
    """
    x = np.minimum(step + np.arange(nodes) * step, Z_MAX)
    degrees = np.asarray(degrees)
    # no floating-point warning, as a hit would give none: f' and f'' at
    # the nodes only seed _hermite_start, which falls back to the secant
    # point where they are not finite (l(l+1)/x^2 overflows below x of
    # about 1e-154)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        V, dV, d2V = _dispersion_rows(lmax, degrees[:, None], x)

        # sign-change brackets (l, a, b, f_a, f_b) in x order per degree,
        # from one pass over the table; f_a = 0 marks a node exactly on a root
        d, i = np.nonzero((V[:, :-1] * V[:, 1:] < 0) | (V[:, :-1] == 0))
        i1 = i + 1
        rows, lo, hi, f_lo, f_hi = degrees[d], x[i], x[i1], V[d, i], V[d, i1]
        d_lo, d_hi = (dV[d, i], d2V[d, i]), (dV[d, i1], d2V[d, i1])

        # a node on a root opens its bracket a quarter step to the left; if
        # f keeps its sign there, the node itself is the root, with residual
        # 0; if f reads 0 there too, it is rounding (f_0 below x = 1e-8),
        # not a root, and its residual is NaN until a radius reports it
        roots, residuals = lo.copy(), np.zeros(lo.size)
        on_node = (f_lo == 0).nonzero()[0]
        if on_node.size:
            lo[on_node] -= 0.25 * step
            f_lo[on_node], d_lo[0][on_node], d_lo[1][on_node] = _dispersion_rows(
                lmax, rows[on_node], lo[on_node])
            residuals[on_node[f_lo[on_node] == 0]] = np.nan
        live = (f_lo * f_hi < 0).nonzero()[0]
        for c in range(0, live.size, _HALLEY_CHUNK):
            at = live[c:c + _HALLEY_CHUNK]
            if at.size == lo.size:  # every bracket open in one chunk, the usual case: views
                at = slice(None)
            start = _hermite_start(lo[at], hi[at], f_lo[at], f_hi[at],
                                   (d_lo[0][at], d_lo[1][at]), (d_hi[0][at], d_hi[1][at]))
            roots[at], residuals[at] = _halley(lmax, rows[at], start, lo[at], hi[at],
                                               np.sign(f_lo[at]))
    out = rows, d, lo, hi, roots, residuals
    for a in out:
        a.flags.writeable = False
    return out


def _real_spectra(lmax: int, degrees: Sequence[int], radii: Sequence[float], step: float,
                  k_max: float, tol: float) -> list[dict[int, list[EigenvalueRecord]]]:
    """Bracketed roots of B_l on (step/R, k_max] for each radius R and degree l.

    B_l(k) = R f_l(k R), so the roots x of f_l on the lattice step,
    2 step, ... through k_max max(R) (``_lattice_roots``, memoised) serve
    every radius.  Each root x, with its |f|, goes to every radius where
    k = x/R <= k_max, with the bracket (x_lo/R, x_hi/R), which may reach
    past k_max by less than one step.  The memo's lattice may run further
    than this scan's (``_lattice_length``), but node i is the same wherever
    it stops and each bracket is refined on its own, so what a radius gets
    is bitwise the same on a hit as on a miss.
    """
    degrees = tuple(degrees)
    rows, column, lo, hi, roots, residuals = _lattice_roots(
        lmax, degrees, step, _lattice_length(k_max * max(radii), step))

    # every (radius, root) pair with k = x/R <= k_max, by radius, then in
    # bracket order, which is x order per degree
    R = np.array(radii, dtype=float)
    k = roots / R[:, None]
    r, j = (k <= k_max).nonzero()
    k, R, l, residual = k[r, j], R[r], rows[j], residuals[j]
    a, b = lo[j] / R, hi[j] / R
    bad = (np.isnan(residual) | (residual > tol)).nonzero()[0]
    # near-coincident roots of one radius and degree (one key), on the radii
    # before the first with a bad residual
    n = len(degrees)
    key = r * n + column[j]
    close = ((k[1:] - k[:-1]) * R[1:] < 10 * tol) & (key[1:] == key[:-1])
    for c in close.nonzero()[0].tolist():
        if bad.size and r[c] >= r[bad[0]]:
            break
        warnings.warn(f"near-coincident roots at k={k[c].item()} and k={k[c + 1].item()}; "
                      "possible multiplicity", RuntimeWarning)
    if bad.size:
        first = bad[0]
        l, k, residual, a = l[first].item(), k[first].item(), residual[first].item(), a[first].item()
        if math.isnan(residual):
            raise NumericalError(f"B_{l} reads exactly 0 at k={k!r} and a quarter step "
                                 f"below, at k={a!r}: rounding hides any root there")
        raise RuntimeError(f"root refinement at k={k} left residual {residual} > {tol}")
    # tuple.__new__, as EigenvalueRecord._make builds a record, without a
    # Python-level call per record
    records = list(map(tuple.__new__, itertools.repeat(EigenvalueRecord),
                       zip(l.tolist(), k.tolist(), residual.tolist(), zip(a.tolist(), b.tolist()))))
    # the records of one key are consecutive, in key order, which is
    # (radius, degree) order: one slice each, cut at the running counts
    ends = list(itertools.accumulate(np.bincount(key, minlength=len(radii) * n).tolist()))
    parts = list(map(records.__getitem__, map(slice, [0, *ends], ends)))
    return [dict(zip(degrees, parts[i:i + n])) for i in range(0, len(parts), n)]


def _check_scan(R_hat: float, k_max: float, scan_step: float, tol: float) -> None:
    """Reject a scan of (scan_step, k_max] on R_hat before it allocates anything.

    Besides non-positive and non-finite values: k_max R_hat above the
    kernel's Z_MAX, and more than _MAX_SCAN_NODES scan nodes.
    """
    check_positive("k_max", k_max)
    check_positive("scan_step", scan_step)
    check_positive("tol", tol)
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
    The scan runs in x = k R_hat on f(x) = x j_l'(x) = B(k)/R_hat, on the
    step pi/4 (scan_step R_hat when given), and also gives f' and f'' at
    every node.  Each sign-change bracket starts at the root of the
    quintic Hermite interpolant of (f, f', f'') at its two nodes and is
    refined by safeguarded Halley steps on the closed-form derivatives.
    ``k`` is the last evaluated iterate over R_hat, ``residual`` is the
    dimensionless |f| = |B|/R_hat there, which ``tol`` bounds, and
    ``bracket`` is the scan bracket over R_hat; the last one may reach past
    k_max by less than one step.  Roots closer than 10*tol in x emit a
    warning rather than being merged.  At R_hat = 1, x is k and f is B.
    The roots x come from the memo of ``real_eigenvalue_spectra``, keyed
    here by (l, (l,), step, lattice length); a hit gives bitwise the
    records, warnings and errors of a miss.

    ValueError, naming the value, for a non-positive or non-finite R_hat,
    k_max, scan_step or tol, for k_max R_hat above Z_MAX, and for more
    than 32,768 scan nodes, and for an l that is not an integer (a bool
    is not one).
    """
    check_integer("l", l)
    check_positive("R_hat", R_hat)
    limit = math.pi / (4 * R_hat)
    step = math.pi / 4 if scan_step is None else scan_step * R_hat
    _check_scan(R_hat, k_max, limit if scan_step is None else scan_step, tol)
    if scan_step is not None and scan_step > limit * (1 + 1e-12):
        raise ValueError(f"scan_step {scan_step} exceeds pi/(4 R_hat) = {limit}")
    try:
        return _real_spectra(l, [l], [R_hat], step, k_max, tol)[0][l]
    except UnderflowError as err:  # named at x = k R_hat; a batch (x >= 3 pi/16) never underflows
        raise UnderflowError(f"S_{l} and S_{l}' underflow to 0 at k={err.k / R_hat!r}") from None


def real_eigenvalue_spectra(radii: Sequence[float], l_max: int, k_max: float,
                            tol: float = 1e-9) -> list[dict[int, list[EigenvalueRecord]]]:
    """find_real_eigenvalues for l = 0..l_max on every radius, batched.

    Entry r maps each degree to the roots for radius ``radii[r]`` at the
    default step.  All radii share one scan of x = k R up to k_max max(R).
    Its roots x come from a memo keyed by (l_max, degrees, step, lattice
    length), the lattice rounded up to a block of 64 nodes but never past
    Z_MAX; it keeps 4 lattices, at most about 7.7 MB each (degrees 0..60
    up to Z_MAX), and a hit is bitwise a miss, warnings and errors too.  A
    miss costs one riccati_s_rows call for the scan, which also gives the
    Hermite starts their f' and f'', and then, for each chunk of 4,096
    brackets, one call per Halley iteration at each bracket's own degree,
    usually two (a node exactly on a root costs one more): three calls for
    a batch of rays.  Each residual is |f| = |B|/R from the call that
    evaluated its root.  Each radius gets the same records whether scanned
    alone or in a batch.  Every radius is checked as find_real_eigenvalues
    checks it, and l_max must be an integer in [0, L_MAX].
    """
    check_integer("l_max", l_max)
    if not 0 <= l_max <= L_MAX:
        # checked here, before range(l_max + 1) becomes an array
        raise ValueError(f"l_max={l_max} outside [0, L_MAX={L_MAX}]")
    for R_hat in radii:
        check_positive("R_hat", R_hat)
        _check_scan(R_hat, k_max, math.pi / (4 * R_hat), tol)
    return _real_spectra(l_max, range(l_max + 1), radii, math.pi / 4, k_max, tol)


def count_zeros_argument_principle(f: Evaluator,
                                   rect: tuple[float, float, float, float],
                                   quad_nodes: int = 1024) -> int:
    """Winding number (1/2pi i) * contour integral of f'/f over a rectangle.

    ``rect`` is (re_lo, re_hi, im_lo, im_hi), traversed counterclockwise;
    ``f`` maps a complex ndarray of nodes to the pair (f, f'), as
    ``dispersion_function`` does.  The count is ``entire.winding_count`` on
    ``PanelPath.rectangle``, G7/K15 panels, one evaluator call a pass: it
    stands when the summed |K15 - G7| / 2 pi and the distance from an
    integer are both at most 1e-2.  Errors: ``PanelPath.rectangle`` raises
    the ValueError of a non-finite corner, an empty rectangle, or
    ``quad_nodes`` not an integer >= 2; a node where |f| is at most 1e-8
    of the largest |f| on its panel raises NumericalError (a ValueError),
    "zero of f detected on the contour"; no convergence within 2^22 nodes
    or 40 bisections of a panel, or a non-finite f, raises RuntimeError.
    """
    return winding_count(f, PanelPath.rectangle(rect, quad_nodes), "argument-principle")


def density_estimate(l: int, R_hat: float, K: float) -> DensityEstimate:
    """Zero count of the dispersion function on (0, K] against R_hat/pi.

    Requires K >= 50/R_hat so the ratio has settled.
    """
    check_positive("R_hat", R_hat)
    if K < 50.0 / R_hat:
        raise ValueError(f"K={K} too small for a stable ratio; need K >= {50.0 / R_hat}")
    return DensityEstimate.from_count(len(find_real_eigenvalues(l, R_hat, K)), R_hat, K)
