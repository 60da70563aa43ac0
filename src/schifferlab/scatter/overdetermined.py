"""Boundary least squares for the overdetermined interior problem.

The trial space spans {j_l(kr) Y_l^m : l <= L_trial}.  Dirichlet rows ask
u = 1 on the boundary, Neumann rows ask the normal derivative (weighted by
1/k so neither condition dominates as k grows) to vanish.  On a ball at a
frequency where j_0'(kR) = 0 the stacked system is solved to machine
precision by the radial mode; on a non-ball the minimum residual over k
stays orders of magnitude higher, which is the computable face of the
ball-or-nothing dichotomy.

The trial space is built from the real spherical harmonics: for each l,
Y_l^0, sqrt(2) Re Y_l^|m| (m > 0) and sqrt(2) Im Y_l^|m| (m < 0), which
span the same space as the complex Y_l^m.  The boundary radius, normals
and right-hand side are real, so the harmonic tables and the stacked
system are real as well.  The residual does not change: for real A and b,
||A(x + iy) - b||^2 = ||Ax - b||^2 + ||Ay||^2, so the least-squares
minimum over complex coefficients is the real one.

A scan cuts its frequency grid into blocks of 16 and takes the radial
factors j_l(k rho) of a whole block from one real-argument table,
``specfun.spherical_jn_table``; the derivatives follow from the
recurrence.  The k-independent products of the harmonic tables with the
normal are formed once per scan.  Each frequency then writes its
equilibrated system, with the right-hand side appended as a last column,
transposed into one C-order buffer per block, so the buffer's transpose is
already in the Fortran order that LAPACK factors.  The factorization is one
Householder QR, R only: the residual norm is the last diagonal entry of R,
and the leading triangle carries the singular values that the condition
check needs (Betcke & Trefethen, "Reviving the method of particular
solutions", SIAM Rev. 47, 2005).  LAPACK's dgeqrt, with recursive panels
16 columns wide (Elmroth & Gustavson, IBM J. Res. Dev. 44, 2000), factors
the buffer in place, and dtrtri inverts the leading triangle for the
||R11||_F ||R11^-1||_F bound on its condition number.  Both come through
ctypes from the OpenBLAS that numpy itself loads; where its symbols are
not found, np.linalg's QR and inverse take their place.  Scans hold numpy's
OpenBLAS to one thread, so the block thread pool is the only parallelism
and BLAS threads do not contend with it.

The Neumann condition comes in two labeled flavors: ``normal`` tests the
geometric normal derivative on the actual boundary, ``gradient`` asks the
full gradient to vanish there, which is the stronger per-ray reduction.
"""

from __future__ import annotations

import contextlib
import ctypes
import dataclasses
import functools
import math
import warnings
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Sequence

import numpy as np
from scipy.optimize import brentq
from scipy.special import spherical_jn

from ..errors import NumericalError
from ..specfun import L_MAX, spherical_jn_table, ylm_terms
from ..specfun import ylm, ylm_theta_derivative  # noqa: F401 (bench/tracing.py rebinds them)
from .domain import StarlikeDomain

__all__ = [
    "CollocationFrame",
    "collocation_frame",
    "overdetermined_residual",
    "residual_scan",
    "trial_convergence",
    "ball_eigenfunction",
]

_NEUMANN_MODES = ("normal", "gradient")
_SQRT2 = math.sqrt(2.0)
# the equilibrated system counts as rank deficient past this cond^2
_COND2_LIMIT = 1e12
# frequencies per Bessel table, 3,200 points at L_trial = 8; blocks of 64
# ran no faster and raised peak memory by about 3 MB
_BLOCK = 16
# dgeqrt's panel width; 16 ran faster than 8, 24 and 32 on 400 x 82 systems
_QR_PANEL = 16


# symbol prefix, symbol suffix and LAPACK integer of the OpenBLAS builds
# numpy ships: the scipy-openblas64 wheels (numpy >= 2) and a plain LP64
# OpenBLAS.  The thread controls are {prefix}openblas_{name}{suffix}, the
# LAPACK routines {prefix}{name}_{suffix}.
_OPENBLAS_BUILDS = (("scipy_", "64_", ctypes.c_int64), ("", "", ctypes.c_int))


@dataclasses.dataclass(frozen=True)
class _Lapack:
    """dgeqrt and dtrtri of numpy's OpenBLAS, with the integer type they take."""

    geqrt: Callable[..., None]
    trtri: Callable[..., None]
    integer: type


def _openblas_routines():
    """((get, set) thread controls, _Lapack) of numpy's OpenBLAS.

    Either is None where its symbols are not found.  The LAPACK routines
    come from the same library and build row as the thread controls, so
    the scans' one-thread pin holds for them too; ctypes releases the GIL
    while they run.
    """
    try:
        lib = ctypes.CDLL(np.linalg._umath_linalg.__file__)
    except OSError:
        return None, None
    for prefix, suffix, integer in _OPENBLAS_BUILDS:
        try:
            get = getattr(lib, f"{prefix}openblas_get_num_threads{suffix}")
            set_ = getattr(lib, f"{prefix}openblas_set_num_threads{suffix}")
        except AttributeError:
            continue
        get.argtypes, get.restype = [], ctypes.c_int
        set_.argtypes, set_.restype = [ctypes.c_int], None
        try:
            geqrt = getattr(lib, f"{prefix}dgeqrt_{suffix}")
            trtri = getattr(lib, f"{prefix}dtrtri_{suffix}")
        except AttributeError:
            return (get, set_), None
        p_int = ctypes.POINTER(integer)
        matrix = np.ctypeslib.ndpointer(np.float64, flags="C_CONTIGUOUS")
        # dgeqrt(m, n, nb, a, lda, t, ldt, work, info)
        geqrt.argtypes = [p_int, p_int, p_int, matrix, p_int, matrix, p_int, matrix, p_int]
        geqrt.restype = None
        # dtrtri(uplo, diag, n, a, lda, info) and the two hidden lengths of
        # its character arguments
        trtri.argtypes = [ctypes.c_char_p, ctypes.c_char_p, p_int, matrix, p_int, p_int,
                          ctypes.c_size_t, ctypes.c_size_t]
        trtri.restype = None
        return (get, set_), _Lapack(geqrt, trtri, integer)
    return None, None


_OPENBLAS_THREADS, _LAPACK = _openblas_routines()


@contextlib.contextmanager
def _one_blas_thread():
    """Hold numpy's OpenBLAS to one thread, then restore the previous count.

    The count is process-wide, so BLAS calls that other threads make
    meanwhile run on one thread too.
    """
    if _OPENBLAS_THREADS is None:
        yield
        return
    get, set_ = _OPENBLAS_THREADS
    previous = get()
    set_(1)
    try:
        yield
    finally:
        set_(previous)


@dataclasses.dataclass(frozen=True)
class CollocationFrame:
    """k-independent boundary data shared by every solve on one domain.

    Holds the collocation directions, boundary radii, outward normal in
    spherical components, and the per-mode tables of the real harmonics
    at the collocation points: ``Y``, its theta derivative ``dYdt`` and
    its phi derivative ``dYdp``, all float64 of shape (n_modes, n_points).
    Mode (l, m) sits in row l^2 + l + m; m > 0 labels sqrt(2) Re Y_l^m and
    m < 0 labels sqrt(2) Im Y_l^|m|.  The real basis spans the same trial
    space as the complex Y_l^m, and with a real system the least-squares
    minimum is the same, so the residual is unchanged up to rounding.
    """

    L_trial: int
    theta: np.ndarray
    phi: np.ndarray
    rho: np.ndarray
    sin_t: np.ndarray
    n_r: np.ndarray
    n_t: np.ndarray
    n_p: np.ndarray
    l_values: np.ndarray
    m_values: np.ndarray
    Y: np.ndarray
    dYdt: np.ndarray
    dYdp: np.ndarray

    @property
    def n_points(self) -> int:
        return self.rho.size


def _fibonacci_directions(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Quasi-uniform sphere points: uniform in cos(theta), golden-angle in phi."""
    i = np.arange(n, dtype=float)
    cos_t = 1.0 - 2.0 * (i + 0.5) / n
    theta = np.arccos(cos_t)
    phi = np.mod(i * (math.pi * (3.0 - math.sqrt(5.0))), 2.0 * math.pi)
    return theta, phi


def collocation_frame(domain: StarlikeDomain, L_trial: int = 8,
                      n_collocation: int | None = None) -> CollocationFrame:
    """Precompute the k-independent part of the boundary least squares."""
    if L_trial < 0:
        raise ValueError(f"L_trial must be nonnegative, got {L_trial}")
    if L_trial > L_MAX:
        raise ValueError(f"L_trial={L_trial} exceeds L_MAX={L_MAX}")
    n_modes = (L_trial + 1) ** 2
    if n_collocation is None:
        n_collocation = max(2 * n_modes, 200)
    if n_collocation < 2 * n_modes:
        raise ValueError(
            f"n_collocation = {n_collocation} underdetermines the stacked system; "
            f"need at least {2 * n_modes} for L_trial = {L_trial}")
    theta, phi = _fibonacci_directions(n_collocation)
    rho, dth, dph = domain.synthesis(theta, phi, derivatives=True)
    if np.any(rho <= 0.0):
        raise NumericalError("boundary synthesis gave rho <= 0 at a collocation point")
    sin_t = np.maximum(np.sin(theta), 1e-12)
    v = np.stack([np.ones_like(rho), -dth / rho, -dph / (rho * sin_t)])
    v /= np.linalg.norm(v, axis=0)
    l_values = np.array([l for l in range(L_trial + 1) for _ in range(2 * l + 1)])
    m_values = np.array([m for l in range(L_trial + 1) for m in range(-l, l + 1)])
    # one kernel call over (l, |m|), each term written into its rows as it
    # comes, so no complex table of all the terms is held: the real part to
    # row l^2 + l + |m|, the imaginary part to row l^2 + l - |m|
    Y = np.empty((n_modes, n_collocation))
    dYdt = np.empty_like(Y)
    half = [(l, am) for l in range(L_trial + 1) for am in range(l + 1)]
    for (l, am), (y, dy) in zip(half, ylm_terms(half, theta, phi, derivative=True)):
        c, s = l * l + l + am, l * l + l - am
        if am == 0:
            Y[c], dYdt[c] = y.real, dy.real
        else:
            Y[c], Y[s] = _SQRT2 * y.real, _SQRT2 * y.imag
            dYdt[c], dYdt[s] = _SQRT2 * dy.real, _SQRT2 * dy.imag
    # d/dphi of sqrt2 (Re, Im) Y_l^|m| is |m| sqrt2 (-Im, Re) Y_l^|m|: row
    # l^2 + l + m gets -m times the table of its mirror row l^2 + l - m
    dYdp = Y[l_values * l_values + l_values - m_values]
    dYdp *= -m_values[:, None]
    return CollocationFrame(L_trial, theta, phi, rho, sin_t,
                            v[0], v[1], v[2], l_values, m_values, Y, dYdt, dYdp)


@dataclasses.dataclass(frozen=True)
class _Rows:
    """A frame's k-independent row factors for one Neumann mode, built once per scan.

    In the transposed system the Dirichlet block is j_l Y.  With ``normal``
    the Neumann block is j_l' NY + (j_l / k) T, with NY = n_r Y and
    T = n_t dYdt / rho + n_p dYdp / (rho sin theta), and ``factors`` is
    (NY, T).  With ``gradient`` the three Neumann blocks are j_l' Y,
    (j_l / k) Dt and (j_l / k) Dp, with Dt = dYdt / rho and
    Dp = dYdp / (rho sin theta), and ``factors`` is (Dt, Dp).
    """

    frame: CollocationFrame
    neumann: str
    factors: tuple[np.ndarray, np.ndarray]


def _rows(frame: CollocationFrame, neumann: str) -> _Rows:
    dt = frame.dYdt / frame.rho
    dp = frame.dYdp / (frame.rho * frame.sin_t)
    if neumann == "normal":
        factors = (frame.n_r * frame.Y, frame.n_t * dt + frame.n_p * dp)
    else:
        factors = (dt, dp)
    return _Rows(frame, neumann, factors)


def _assemble(rows: _Rows, j: np.ndarray, jp: np.ndarray, k: float,
              Ab: np.ndarray) -> np.ndarray:
    """Write the equilibrated system [A / scale | b], transposed, into Ab.

    ``j`` and ``jp`` hold j_l(k rho) and j_l'(k rho) at the collocation
    points, one row per order from 0.  ``Ab`` is a C-order array of shape
    (n_modes + 1, rows of A), reused across a block of frequencies.  Row
    i < n_modes becomes column i of A over its norm ``scale``; the last row
    is b, 1 on the Dirichlet points and 0 on the 1/k-weighted Neumann
    points.  Returns Ab.
    """
    frame = rows.frame
    n, p = frame.Y.shape
    lv = frame.l_values
    A = Ab[:n]
    jl = j[lv]
    np.multiply(jl, frame.Y, out=A[:, :p])
    jl /= k
    if rows.neumann == "normal":
        NY, T = rows.factors
        np.multiply(jp[lv], NY, out=A[:, p:])
        A[:, p:] += np.multiply(jl, T, out=jl)
    else:
        Dt, Dp = rows.factors
        np.multiply(jp[lv], frame.Y, out=A[:, p:2 * p])
        np.multiply(jl, Dt, out=A[:, 2 * p:3 * p])
        np.multiply(jl, Dp, out=A[:, 3 * p:])
    scale = np.sqrt(np.einsum("ij,ij->i", A, A))
    scale[scale == 0.0] = 1.0
    A /= scale[:, None]
    Ab[n, :p] = 1.0
    Ab[n, p:] = 0.0
    return Ab


def _factor(Ab: np.ndarray) -> tuple[np.ndarray, np.ndarray, float, np.ndarray | None]:
    """(R11, c, r, R11^-1) of the R-only QR of [A / scale | b] = Ab.T.

    R11 = R[:n, :n] is the triangular factor of A / scale, c = R[:n, n] is
    Q1^T b and |r| = |R[n, n]| the residual norm.  R11^-1 is None where
    R11 has a zero pivot.  See ``_solve`` for the routines and for which
    layouts of Ab are overwritten.
    """
    n, m = Ab.shape[0] - 1, Ab.shape[1]
    if _LAPACK is None:
        R = np.linalg.qr(Ab.T, mode="r")
        R11 = R[:n, :n]
        try:
            inv = np.linalg.inv(R11)
        except np.linalg.LinAlgError:
            inv = None
        return R11, R[:n, n], R[n, n], inv
    lapack, i = _LAPACK, _LAPACK.integer
    # the C-order (n + 1, m) buffer is the Fortran-order m x (n + 1) matrix
    # that dgeqrt factors; T and its workspace are sized from Ab itself
    Ab = np.ascontiguousarray(Ab, dtype=np.float64)
    nb = min(_QR_PANEL, n + 1)
    T = np.empty((n + 1, nb))
    work = np.empty((n + 1) * nb)
    info = i()
    lapack.geqrt(i(m), i(n + 1), i(nb), Ab, i(m), T, i(nb), work, info)
    if info.value != 0:
        raise ValueError(f"dgeqrt rejected argument {-info.value} for a "
                         f"{m} x {n + 1} system")
    # R sits on and above the Fortran diagonal, so R^T on and below the C
    # diagonal; the Householder vectors fill the rest
    R11t = np.tril(Ab[:n, :n])
    # R11t's Fortran view is R11, upper triangular with leading dimension n
    inv = R11t.copy()
    lapack.trtri(b"U", b"N", i(n), inv, i(n), info, 1, 1)
    return R11t.T, Ab[n, :n], Ab[n, n], None if info.value > 0 else inv


def _solve(Ab: np.ndarray, k: float) -> float:
    """RMS residual of the least squares whose equilibrated, transposed system is Ab.

    Ab is (n + 1, m): rows 0..n-1 are the equilibrated columns of A, row n
    is b.  R comes from LAPACK dgeqrt with panels of min(16, n + 1)
    columns and R11^-1, for the condition bound, from dtrtri; np.linalg's
    QR and inverse stand in where numpy's OpenBLAS does not export them.
    Any layout is accepted: a C-contiguous float64 Ab is overwritten by the
    factorization, any other is factored as a C-contiguous copy.
    """
    n, m = Ab.shape[0] - 1, Ab.shape[1]
    R11, c, r, R11_inv = _factor(Ab)
    rss = r * r
    # ||R11||_F ||R11^-1||_F bounds cond_2 from above, so a small bound
    # settles the usual well-conditioned case without an SVD; Python floats,
    # so a huge bound squares to inf without an overflow warning
    bound = math.inf if R11_inv is None else (
        float(np.linalg.norm(R11)) * float(np.linalg.norm(R11_inv)))
    if not bound * bound <= _COND2_LIMIT:
        U, sv, _ = np.linalg.svd(R11)
        cond = sv[0] / sv[-1] if sv[-1] > 0 else np.inf
        if cond * cond > _COND2_LIMIT:
            warnings.warn(
                f"normal-equation condition number {cond * cond:.2e} exceeds 1e12 "
                f"at k = {k}; the trial space is effectively rank deficient",
                RuntimeWarning, stacklevel=4)
        # gelsd's rcond=None truncation: singular directions at or below
        # eps max(m, n) s_0 fit nothing, so their share of b stays residual
        dropped = sv <= np.finfo(float).eps * max(m, n) * sv[0]
        rss += np.sum((U[:, dropped].T @ c) ** 2)
    return float(math.sqrt(rss / m))


def _scan_block(rows: _Rows, ks: np.ndarray) -> np.ndarray:
    """Residuals at the frequencies ``ks``, from one Bessel table for all of them."""
    L = rows.frame.L_trial
    x = ks[:, None] * rows.frame.rho
    # one table of j_0..j_max(L, 1); derivatives by the identities
    # j_0' = -j_1, j_l' = j_{l-1} - (l + 1) j_l / x
    j = spherical_jn_table(max(L, 1), x)
    jp = np.empty((L + 1,) + x.shape)
    jp[0] = -j[1]
    jp[1:] = j[:L] - np.arange(2, L + 2)[:, None, None] * j[1:L + 1] / x
    n, p = rows.frame.Y.shape
    Ab = np.empty((n + 1, (2 if rows.neumann == "normal" else 4) * p))
    out = np.empty(ks.size)
    for i, k in enumerate(ks.tolist()):
        out[i] = _solve(_assemble(rows, j[:, i], jp[:, i], k, Ab), k)
    return out


def overdetermined_residual(domain: StarlikeDomain, k: float, L_trial: int = 8,
                            n_collocation: int | None = None,
                            neumann: str = "normal") -> float:
    """Root-mean-square misfit of both boundary conditions at the optimum.

    Minimizes over trial coefficients the stacked discrete residual of
    u = 1 and of the vanishing Neumann data on the boundary r = rho.  The
    value is 0 exactly when some trial function meets both conditions at
    every collocation point, so a ball at one of its radial eigenvalues
    sits at machine-precision depth while any other (domain, k) pair does
    not.  It is the one-frequency ``residual_scan``.
    """
    if not (np.isfinite(k) and k > 0.0):
        raise ValueError(f"k must be positive and finite, got {k}")
    return float(residual_scan(domain, [k], L_trial, n_collocation, neumann)[0])


def residual_scan(domain: StarlikeDomain, k_values: Sequence[float],
                  L_trial: int = 8, n_collocation: int | None = None,
                  neumann: str = "normal", threads: int = 1) -> np.ndarray:
    """overdetermined_residual over a k grid, reusing one collocation frame.

    The grid is cut into blocks of 16 frequencies, each with one Bessel
    table.  Blocks are independent, so ``threads > 1`` fans them out to a
    thread pool; results come back in grid order either way.  numpy's
    OpenBLAS is held to one thread for the whole scan, and each point's
    table and solve do not depend on its block, so threaded results equal
    serial ones bit for bit.
    """
    if neumann not in _NEUMANN_MODES:
        raise ValueError(f"neumann must be one of {_NEUMANN_MODES}, got {neumann!r}")
    if threads < 1:
        raise ValueError(f"threads must be >= 1, got {threads}")
    ks = np.asarray(k_values, dtype=float)
    if ks.size == 0:
        raise ValueError("k_values is empty")
    if not np.all(np.isfinite(ks) & (ks > 0.0)):
        raise ValueError("all scan frequencies must be positive and finite")
    rows = _rows(collocation_frame(domain, L_trial, n_collocation), neumann)
    blocks = [ks[i:i + _BLOCK] for i in range(0, ks.size, _BLOCK)]
    scan = functools.partial(_scan_block, rows)
    with _one_blas_thread():
        if threads == 1:
            return np.concatenate(list(map(scan, blocks)))
        with ThreadPoolExecutor(max_workers=threads) as pool:
            return np.concatenate(list(pool.map(scan, blocks)))


def trial_convergence(domain: StarlikeDomain, k: float, l_trials: Sequence[int],
                      n_collocation: int | None = None,
                      neumann: str = "normal") -> dict[int, float]:
    """Residual per truncation degree, to separate truncation from overdetermination.

    A residual floor that survives growing L_trial is attributable to the
    boundary conditions themselves and not to the trial space.
    """
    return {int(L): overdetermined_residual(domain, k, int(L), n_collocation, neumann)
            for L in l_trials}


def ball_eigenfunction(R: float, n: int) -> tuple[float, Callable[[np.ndarray], np.ndarray]]:
    """The n-th radial interior mode of the ball of radius R.

    Returns (k, u) with k = x_n / R at the n-th positive root x_n of
    tan x = x and u(r) = j_0(kr) / j_0(kR).  By construction u(R) = 1
    exactly and u'(R) = 0 to root-finding accuracy, so u witnesses both
    boundary conditions at once.
    """
    if not (np.isfinite(R) and R > 0.0):
        raise ValueError(f"R must be positive and finite, got {R}")
    if not (isinstance(n, (int, np.integer)) and 1 <= n <= 50):
        raise ValueError(f"n must be an integer in [1, 50], got {n!r}")
    lo, hi = n * math.pi, n * math.pi + math.pi / 2
    # j_1(x) = (sin x - x cos x) / x^2 changes sign exactly once on the branch
    x_n = brentq(lambda x: math.sin(x) - x * math.cos(x), lo, hi,
                 xtol=1e-14, rtol=4 * np.finfo(float).eps)
    k = x_n / R
    j0_R = spherical_jn(0, x_n)

    def profile(r):
        return spherical_jn(0, k * np.asarray(r, dtype=float)) / j0_R

    return k, profile
