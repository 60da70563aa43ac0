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
normal are formed once per scan.  Each frequency then writes its raw
system, with the right-hand side appended as a last column, transposed
into the scan's C-order buffer, so the buffer's transpose is already in
the Fortran order that LAPACK factors.  The factorization is one
Householder QR, R only, which overwrites the buffer: the residual norm is
the last diagonal entry of R, and the leading triangle R11 carries the
singular values that the condition check needs (Betcke & Trefethen,
"Reviving the method of particular solutions", SIAM Rev. 47, 2005).
LAPACK's dgeqrt, with recursive panels 16 columns wide (Elmroth &
Gustavson, IBM J. Res. Dev. 44, 2000), factors the buffer in place.

The columns are not equilibrated before the QR.  Householder QR gives the
same residual under any positive column scaling, up to columnwise
rounding (Higham, "Accuracy and Stability of Numerical Algorithms", 2nd
ed., section 19.4), so the scaling only matters to the condition check.
That check equilibrates after the fact: the norm of column j of A is the
norm of column j of R11, so with D the diagonal of those norms it bounds
cond_2 of the equilibrated system by ||R11 D^-1||_F ||D R11^-1||_F, with
dtrtri inverting R11.  Column equilibration comes within a factor sqrt(n)
of the best cond_2 over all column scalings (van der Sluis, Numer. Math.
14, 1969), and reading D from R11 costs O(n^2) per frequency instead of
O(mn).  Each scan allocates its buffer, dgeqrt's and dtrtri's outputs
and their ready-made ctypes argument lists once, so a call marshals
nothing.  Both routines come through ctypes from the OpenBLAS that numpy
itself loads; where its symbols are not found, np.linalg's QR and
inverse take their place.  Scans hold numpy's OpenBLAS to one thread and
run their blocks serially: two threads calling dgeqrt contend inside
OpenBLAS and ran no faster than one.  Rank warnings are issued once the
scan is done, in grid order.

The Neumann condition comes in two labeled flavors: ``normal`` tests the
geometric normal derivative on the actual boundary, ``gradient`` asks the
full gradient to vanish there, which is the stronger per-ray reduction.
"""

from __future__ import annotations

import contextlib
import ctypes
import dataclasses
import math
import threading
import warnings
from typing import Callable, Sequence

import numpy as np
from scipy.special import spherical_jn  # noqa: F401 (uncalled; bench/tracing.py rebinds it)

from ..eigsearch import find_real_eigenvalues
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
# a plain sum of squares inside these limits lost nothing to underflowed or
# overflowed squares beyond rounding
_SUMSQ_MIN = np.finfo(float).tiny / np.finfo(float).eps
_SUMSQ_MAX = np.finfo(float).max
# the largest k whose reciprocal overflows; the Neumann rows are weighted by 1/k
_K_TINY = 2.0 ** -1024


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
        # every argument is prebuilt once per scan (see _Workspace), so the
        # arrays go in as raw addresses and nothing is marshalled per call;
        # dgeqrt(m, n, nb, a, lda, t, ldt, work, info)
        geqrt.argtypes = [p_int, p_int, p_int, ctypes.c_void_p, p_int, ctypes.c_void_p,
                          p_int, ctypes.c_void_p, p_int]
        geqrt.restype = None
        # dtrtri(uplo, diag, n, a, lda, info) and the two hidden lengths of
        # its character arguments
        trtri.argtypes = [ctypes.c_char_p, ctypes.c_char_p, p_int, ctypes.c_void_p, p_int,
                          p_int, ctypes.c_size_t, ctypes.c_size_t]
        trtri.restype = None
        return (get, set_), _Lapack(geqrt, trtri, integer)
    return None, None


_OPENBLAS_THREADS, _LAPACK = _openblas_routines()


@dataclasses.dataclass
class _Pin:
    """The scans inside _one_blas_thread and the thread count they saved."""

    lock: threading.Lock
    depth: int = 0
    saved: int = 0


_PIN = _Pin(threading.Lock())


@contextlib.contextmanager
def _one_blas_thread():
    """Hold numpy's OpenBLAS to one thread while any scan runs.

    The count is process-wide, so the pin is too: under one lock, the
    first scan to enter saves the count and sets 1, and the last to leave
    restores it, whatever threads the scans run in.  BLAS calls that other
    threads make meanwhile run on one thread too.
    """
    if _OPENBLAS_THREADS is None:
        yield
        return
    get, set_ = _OPENBLAS_THREADS
    with _PIN.lock:
        if _PIN.depth == 0:
            _PIN.saved = get()
            set_(1)
        _PIN.depth += 1
    try:
        yield
    finally:
        with _PIN.lock:
            _PIN.depth -= 1
            if _PIN.depth == 0:
                set_(_PIN.saved)


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
    Dp = dYdp / (rho sin theta), and ``factors`` is (Dt, Dp).  ``tril`` is
    the lower-triangle mask of an n_modes x n_modes C array, where R11^T
    sits after the factorization.
    """

    frame: CollocationFrame
    neumann: str
    factors: tuple[np.ndarray, np.ndarray]
    tril: np.ndarray


def _rows(frame: CollocationFrame, neumann: str) -> _Rows:
    dt = frame.dYdt / frame.rho
    dp = frame.dYdp / (frame.rho * frame.sin_t)
    if neumann == "normal":
        factors = (frame.n_r * frame.Y, frame.n_t * dt + frame.n_p * dp)
    else:
        factors = (dt, dp)
    return _Rows(frame, neumann, factors, np.tri(frame.Y.shape[0], dtype=bool))


def _assemble(rows: _Rows, j: np.ndarray, jp: np.ndarray, k: float,
              Ab: np.ndarray) -> np.ndarray:
    """Write the raw system [A | b], transposed, into Ab.

    ``j`` and ``jp`` hold j_l(k rho) and j_l'(k rho) at the collocation
    points, one row per order from 0.  ``Ab`` is a C-order array of shape
    (n_modes + 1, rows of A), reused across a scan's frequencies.  Row
    i < n_modes becomes column i of A as it stands, not equilibrated:
    ``_solve`` reads the column norms from R instead.  The last row is b,
    1 on the Dirichlet points and 0 on the 1/k-weighted Neumann points.
    Returns Ab.
    """
    frame = rows.frame
    n, p = frame.Y.shape
    lv = frame.l_values
    A = Ab[:n]
    jl = j[lv]
    np.multiply(jl, frame.Y, out=A[:, :p])
    jl *= 1.0 / k
    if rows.neumann == "normal":
        NY, T = rows.factors
        np.multiply(jp[lv], NY, out=A[:, p:])
        A[:, p:] += np.multiply(jl, T, out=jl)
    else:
        Dt, Dp = rows.factors
        np.multiply(jp[lv], frame.Y, out=A[:, p:2 * p])
        np.multiply(jl, Dt, out=A[:, 2 * p:3 * p])
        np.multiply(jl, Dp, out=A[:, 3 * p:])
    Ab[n, :p] = 1.0
    Ab[n, p:] = 0.0
    return Ab


class _Workspace:
    """Everything one scan's solves write into, allocated once per scan.

    ``Ab`` is the C-order (n + 1, m) system buffer that the factorization
    overwrites, ``W`` an n x n scratch that holds R11^T and then the
    inverse of R11, and ``tril`` the mask of W's lower triangle.  With
    LAPACK, ``geqrt_args`` and ``trtri_args`` are the complete argument
    tuples of dgeqrt and dtrtri, raw addresses of ``Ab``, ``W``, ``T``
    and ``work`` and pointers to prebuilt integers, so a call marshals
    nothing; both routines report through ``info``.
    """

    def __init__(self, Ab: np.ndarray, tril: np.ndarray | None = None):
        n, m = Ab.shape[0] - 1, Ab.shape[1]
        self.Ab = Ab
        self.tril = np.tri(n, dtype=bool) if tril is None else tril
        # dtrtri writes only W's lower triangle, so the upper stays zero
        self.W = np.zeros((n, n))
        self.lapack = _LAPACK
        if _LAPACK is None:
            return
        integer = _LAPACK.integer
        nb = min(_QR_PANEL, n + 1)
        self.T = np.empty((n + 1, nb))
        self.work = np.empty((n + 1) * nb)
        self.info = integer()
        p_m, p_n1, p_nb, p_n = (ctypes.pointer(integer(v)) for v in (m, n + 1, nb, n))
        p_info = ctypes.pointer(self.info)

        def address(a):
            return ctypes.c_void_p(a.ctypes.data)

        # the C-order (n + 1, m) buffer is the Fortran-order m x (n + 1)
        # matrix that dgeqrt factors; W's Fortran upper triangle is R11
        self.geqrt_args = (p_m, p_n1, p_nb, address(Ab), p_m, address(self.T), p_nb,
                           address(self.work), p_info)
        self.trtri_args = (ctypes.c_char_p(b"U"), ctypes.c_char_p(b"N"), p_n, address(self.W),
                           p_n, p_info, ctypes.c_size_t(1), ctypes.c_size_t(1))


def _column_norms(Rt: np.ndarray) -> np.ndarray:
    """Row norms of ``Rt``, with 1 for a zero row.

    The plain sum of squares is exact to rounding unless a square
    underflows or overflows; only then is each row first scaled by its
    largest entry.
    """
    ss = np.einsum("ij,ij->i", Rt, Rt)
    if ss.min() >= _SUMSQ_MIN and ss.max() <= _SUMSQ_MAX:
        d = np.sqrt(ss)
    else:
        top = np.abs(Rt).max(axis=1)
        top[top == 0.0] = 1.0
        scaled = Rt / top[:, None]
        d = top * np.sqrt(np.einsum("ij,ij->i", scaled, scaled))
    d[d == 0.0] = 1.0
    return d


def _solve(Ab: np.ndarray, ws: _Workspace | None = None) -> tuple[float, float | None]:
    """(RMS residual, cond^2 or None) of the least squares whose transposed system is Ab.

    Ab is (n + 1, m): rows 0..n-1 are the columns of A, raw or scaled in
    any way, row n is b.  The factorization is LAPACK dgeqrt, in place on
    ``ws.Ab`` with panels of min(16, n + 1) columns, or np.linalg's QR
    where numpy's OpenBLAS does not export it; either leaves R^T in the
    leading (n + 1) x (n + 1) block of the C array.  Householder QR does
    not depend on a positive column scaling beyond rounding, so only the
    condition check equilibrates: it takes the column norms D of A as
    those of R11 and bounds cond_2(R11 D^-1) by ||R11 D^-1||_F
    ||D R11^-1||_F, with R11^-1 from dtrtri (or np.linalg.inv).  When that
    bound is not small an SVD of R11 D^-1 settles it, and the second value
    is cond^2 where it exceeds 1e12, else None; the caller warns.

    Ab is factored in ``ws``, the scan's workspace, when it is ``ws.Ab``
    and is overwritten.  Any other array gets a workspace of its own: a
    C-contiguous float64 Ab is overwritten too, any other layout is
    factored as a C-contiguous copy.
    """
    if ws is None or Ab is not ws.Ab:
        ws = _Workspace(np.ascontiguousarray(Ab, dtype=np.float64))
    Ab, W, lapack = ws.Ab, ws.W, ws.lapack
    n, m = Ab.shape[0] - 1, Ab.shape[1]
    if lapack is None:
        Ab[:, :n + 1] = np.linalg.qr(Ab.T, mode="r").T
    else:
        lapack.geqrt(*ws.geqrt_args)
        if ws.info.value != 0:
            raise ValueError(f"dgeqrt rejected argument {-ws.info.value} for a "
                             f"{m} x {n + 1} system")
    # R sits on and above the Fortran diagonal, so R^T on and below the C
    # diagonal; the Householder vectors fill the rest.  Column j of A has
    # the norm of column j of R11, row j of R11^T.
    np.copyto(W, Ab[:n, :n], where=ws.tril)
    d = _column_norms(W)
    if lapack is None:
        try:
            W[...] = np.linalg.inv(W.T).T
            singular = False
        except np.linalg.LinAlgError:
            singular = True
    else:
        lapack.trtri(*ws.trtri_args)
        singular = ws.info.value > 0
    # each column of R11 D^-1 has unit norm, so ||R11 D^-1||_F^2 = n; W's
    # column i is row i of R11^-1, scaled by d_i before squaring so that
    # tiny column norms cannot overflow the sum.  A product past the float
    # range is an inf bound, which the SVD below settles.
    bound2 = math.inf
    if not singular:
        with np.errstate(over="ignore"):
            np.multiply(W, d, out=W)
        bound2 = n * float(np.einsum("ij,ij->", W, W))
    r = float(Ab[n, n])
    rss = r * r
    cond2 = None
    if not bound2 <= _COND2_LIMIT:
        c = Ab[n, :n]
        U, sv, _ = np.linalg.svd(np.where(ws.tril, Ab[:n, :n], 0.0).T / d)
        cond = float(sv[0]) / float(sv[-1]) if sv[-1] > 0 else math.inf
        if cond * cond > _COND2_LIMIT:
            cond2 = cond * cond
        # gelsd's rcond=None truncation: singular directions at or below
        # eps max(m, n) s_0 fit nothing, so their share of b stays residual
        dropped = sv <= np.finfo(float).eps * max(m, n) * sv[0]
        rss += float(np.sum((U[:, dropped].T @ c) ** 2))
    return math.sqrt(rss / m), cond2


def _scan_block(rows: _Rows, ks: np.ndarray,
                ws: _Workspace) -> tuple[np.ndarray, list[tuple[float, float]]]:
    """Residuals at the frequencies ``ks``, from one Bessel table for all of them.

    Each system is assembled into and factored in the scan's workspace
    ``ws``.  Also returns the (k, cond^2) pairs that the rank check
    flagged, in grid order.
    """
    L = rows.frame.L_trial
    x = ks[:, None] * rows.frame.rho
    # one table of j_0..j_max(L, 1); derivatives by the identities
    # j_0' = -j_1, j_l' = j_{l-1} - (l + 1) j_l / x
    j = spherical_jn_table(max(L, 1), x)
    jp = np.empty((L + 1,) + x.shape)
    jp[0] = -j[1]
    jp[1:] = j[:L] - np.arange(2, L + 2)[:, None, None] * j[1:L + 1] / x
    out = np.empty(ks.size)
    flagged = []
    for i, k in enumerate(ks.tolist()):
        out[i], cond2 = _solve(_assemble(rows, j[:, i], jp[:, i], k, ws.Ab), ws)
        if cond2 is not None:
            flagged.append((k, cond2))
    return out, flagged


def _warn_rank_deficient(flagged: list[tuple[float, float]]) -> None:
    """Warn once per flagged frequency, pointing at the public function's caller."""
    for k, cond2 in flagged:
        warnings.warn(
            f"normal-equation condition number {cond2:.2e} exceeds 1e12 "
            f"at k = {k}; the trial space is effectively rank deficient",
            RuntimeWarning, stacklevel=3)


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
    res, flagged = _scan(domain, [k], L_trial, n_collocation, neumann)
    _warn_rank_deficient(flagged)
    return float(res[0])


def residual_scan(domain: StarlikeDomain, k_values: Sequence[float],
                  L_trial: int = 8, n_collocation: int | None = None,
                  neumann: str = "normal", threads: int = 1) -> np.ndarray:
    """overdetermined_residual over a k grid, reusing one collocation frame.

    The grid is cut into blocks of 16 frequencies, each with one Bessel
    table, run one after another on one solve workspace; each point's
    table and solve do not depend on its block.  numpy's OpenBLAS is held
    to one thread for the whole scan.  ``threads`` is validated (>= 1) and
    otherwise ignored: blocks run serially, because threads calling
    dgeqrt contend inside OpenBLAS.  Rank warnings are issued after the
    scan, in grid order.
    """
    if threads < 1:
        raise ValueError(f"threads must be >= 1, got {threads}")
    res, flagged = _scan(domain, k_values, L_trial, n_collocation, neumann)
    _warn_rank_deficient(flagged)
    return res


def _scan(domain: StarlikeDomain, k_values: Sequence[float], L_trial: int,
          n_collocation: int | None,
          neumann: str) -> tuple[np.ndarray, list[tuple[float, float]]]:
    """``residual_scan``'s residuals and its flagged (k, cond^2) pairs, unwarned."""
    if neumann not in _NEUMANN_MODES:
        raise ValueError(f"neumann must be one of {_NEUMANN_MODES}, got {neumann!r}")
    ks = np.asarray(k_values, dtype=float)
    if ks.size == 0:
        raise ValueError("k_values is empty")
    if not np.all(np.isfinite(ks) & (ks > 0.0)):
        raise ValueError("all scan frequencies must be positive and finite")
    if ks.min() <= _K_TINY:
        raise ValueError(f"scan frequency k = {ks.min()} is too small: 1/k overflows "
                         f"at and below 2**-1024")
    rows = _rows(collocation_frame(domain, L_trial, n_collocation), neumann)
    n, p = rows.frame.Y.shape
    ws = _Workspace(np.empty((n + 1, (2 if neumann == "normal" else 4) * p)), rows.tril)
    with _one_blas_thread():
        parts = [_scan_block(rows, ks[i:i + _BLOCK], ws) for i in range(0, ks.size, _BLOCK)]
    return (np.concatenate([out for out, _ in parts]),
            [pair for _, flagged in parts for pair in flagged])


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
    tan x = x and u(r) = j_0(kr) / j_0(kR).  x_n is the n-th of the n
    zeros of the l = 0 dispersion at R = 1 on (0, (n + 3/4) pi], where
    k = x; the scan works in x = kR, so one call serves every R.  u
    divides by j_0 at the same float product k R, so u(R) = 1 exactly and
    u'(R) = 0 to root-finding accuracy: u witnesses both boundary
    conditions at once.
    """
    if not (np.isfinite(R) and R > 0.0):
        raise ValueError(f"R must be positive and finite, got {R}")
    if not (isinstance(n, (int, np.integer)) and 1 <= n <= 50):
        raise ValueError(f"n must be an integer in [1, 50], got {n!r}")
    k = find_real_eigenvalues(0, 1.0, (n + 0.75) * math.pi)[n - 1].k / R
    j0_R = spherical_jn_table(0, k * R)[0]

    def profile(r):
        return spherical_jn_table(0, k * np.asarray(r, dtype=float))[0] / j0_R

    return k, profile
