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

The Neumann condition comes in two labeled flavors: ``normal`` tests the
geometric normal derivative on the actual boundary, ``gradient`` asks the
full gradient to vanish there, which is the stronger per-ray reduction.
"""

from __future__ import annotations

import dataclasses
import math
import warnings
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Sequence

import numpy as np
from scipy.optimize import brentq
from scipy.special import spherical_jn

from ..specfun import ylm, ylm_theta_derivative
from .domain import StarlikeDomain, _synthesis

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
    n_modes = (L_trial + 1) ** 2
    if n_collocation is None:
        n_collocation = max(2 * n_modes, 200)
    if n_collocation < 2 * n_modes:
        raise ValueError(
            f"n_collocation = {n_collocation} underdetermines the stacked system; "
            f"need at least {2 * n_modes} for L_trial = {L_trial}")
    theta, phi = _fibonacci_directions(n_collocation)
    # the synthesis helper broadcasts because ylm does
    rho, dth, dph = _synthesis(domain, theta, phi)
    rho = np.asarray(rho, dtype=float)
    if np.any(rho <= 0.0):
        raise ValueError("boundary synthesis gave rho <= 0 at a collocation point")
    sin_t = np.maximum(np.sin(theta), 1e-12)
    v = np.stack([np.ones_like(rho), -dth / rho, -dph / (rho * sin_t)])
    v /= np.linalg.norm(v, axis=0)
    l_values = np.array([l for l in range(L_trial + 1) for _ in range(2 * l + 1)])
    m_values = np.array([m for l in range(L_trial + 1) for m in range(-l, l + 1)])
    Y = np.empty((n_modes, n_collocation))
    dYdt = np.empty_like(Y)
    dYdp = np.empty_like(Y)
    for l in range(L_trial + 1):
        row0 = l * l + l
        for m in range(l + 1):
            y = ylm(l, m, theta, phi)
            dy = ylm_theta_derivative(l, m, theta, phi)
            if m == 0:
                Y[row0], dYdt[row0], dYdp[row0] = y.real, dy.real, 0.0
                continue
            # cos(m phi) in row0 + m, sin(m phi) in row0 - m
            c, s = row0 + m, row0 - m
            Y[c], Y[s] = _SQRT2 * y.real, _SQRT2 * y.imag
            dYdt[c], dYdt[s] = _SQRT2 * dy.real, _SQRT2 * dy.imag
            dYdp[c], dYdp[s] = -m * Y[s], m * Y[c]
    return CollocationFrame(L_trial, theta, phi, rho, sin_t,
                            v[0], v[1], v[2], l_values, m_values, Y, dYdt, dYdp)


def _assemble(frame: CollocationFrame, k: float, neumann: str) -> tuple[np.ndarray, np.ndarray]:
    """Stacked real (A, b) with Dirichlet rows u - 1 and 1/k-weighted Neumann rows."""
    x = k * frame.rho
    L = frame.L_trial
    # one table call for j_0..j_max(L, 1); derivatives by the identity
    # scipy itself uses: j_0' = -j_1, j_l' = j_{l-1} - (l + 1) j_l / x
    j = spherical_jn(np.arange(max(L, 1) + 1)[:, None], x)
    jp = np.empty((L + 1, x.size))
    jp[0] = -j[1]
    jp[1:] = j[:L] - np.arange(2, L + 2)[:, None] * j[1:L + 1] / x
    jl = j[frame.l_values]
    dirichlet = jl * frame.Y
    # gradient components of j_l(kr) Y_l^m in the spherical frame, each / k
    g_r = jp[frame.l_values] * frame.Y
    g_t = jl / frame.rho * frame.dYdt / k
    g_p = jl / (frame.rho * frame.sin_t) * frame.dYdp / k
    if neumann == "normal":
        blocks = [dirichlet, frame.n_r * g_r + frame.n_t * g_t + frame.n_p * g_p]
    else:
        blocks = [dirichlet, g_r, g_t, g_p]
    A = np.vstack([b.T for b in blocks])
    b = np.zeros(A.shape[0])
    b[:frame.n_points] = 1.0
    return A, b


def _solve(frame: CollocationFrame, k: float, neumann: str) -> float:
    A, b = _assemble(frame, k, neumann)
    scale = np.linalg.norm(A, axis=0)
    scale[scale == 0.0] = 1.0
    An = A / scale
    coeffs, _, _, sv = np.linalg.lstsq(An, b, rcond=None)
    cond = sv[0] / sv[-1] if sv[-1] > 0 else np.inf
    if cond * cond > 1e12:
        warnings.warn(
            f"normal-equation condition number {cond * cond:.2e} exceeds 1e12 "
            f"at k = {k}; the trial space is effectively rank deficient",
            RuntimeWarning, stacklevel=3)
    return float(np.linalg.norm(An @ coeffs - b) / math.sqrt(A.shape[0]))


def overdetermined_residual(domain: StarlikeDomain, k: float, L_trial: int = 8,
                            n_collocation: int | None = None,
                            neumann: str = "normal") -> float:
    """Root-mean-square misfit of both boundary conditions at the optimum.

    Minimizes over trial coefficients the stacked discrete residual of
    u = 1 and of the vanishing Neumann data on the boundary r = rho.  The
    value is 0 exactly when some trial function meets both conditions at
    every collocation point, so a ball at one of its radial eigenvalues
    sits at machine-precision depth while any other (domain, k) pair does
    not.
    """
    if not (np.isfinite(k) and k > 0.0):
        raise ValueError(f"k must be positive and finite, got {k}")
    if neumann not in _NEUMANN_MODES:
        raise ValueError(f"neumann must be one of {_NEUMANN_MODES}, got {neumann!r}")
    frame = collocation_frame(domain, L_trial, n_collocation)
    return _solve(frame, float(k), neumann)


def residual_scan(domain: StarlikeDomain, k_values: Sequence[float],
                  L_trial: int = 8, n_collocation: int | None = None,
                  neumann: str = "normal", threads: int = 1) -> np.ndarray:
    """overdetermined_residual over a k grid, reusing one collocation frame.

    Frequencies are independent, so ``threads > 1`` fans the solves out to a
    thread pool; results come back in grid order either way.
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
    frame = collocation_frame(domain, L_trial, n_collocation)
    if threads == 1:
        return np.array([_solve(frame, float(k), neumann) for k in ks])
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return np.array(list(pool.map(lambda k: _solve(frame, float(k), neumann), ks)))


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
