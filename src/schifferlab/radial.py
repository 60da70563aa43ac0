"""Radial Helmholtz problems anchored at the boundary radius.

The radial reduction of the Helmholtz equation along a ray is

    y''(r) + (k^2 - l(l+1)/r^2 - p(r)) y(r) = 0,

posed as a two-way initial value problem starting at r = R_hat with the
boundary data y(R_hat) = R_hat, y'(R_hat) = 1.  For p = 0 the general
solution is A*S_l(kr) + B*C_l(kr) in Riccati-Bessel functions and the
coefficient pair is recovered from the data; the ODE path exists for
nonzero potentials and for cross-validation.  The module also verifies
the large-|k| estimates attached to this problem: the O(1/|k|) remainder
bound with its explicit Gronwall constant, the small-argument/oscillatory
asymptotics of S_l, and the fixed-frequency sequence k0^l * y_l(xi_l).
"""

from __future__ import annotations

import dataclasses
import math
import warnings
from typing import Callable, Optional, Sequence

import numpy as np
from scipy.integrate import solve_ivp
from scipy.interpolate import CubicHermiteSpline

from .specfun import riccati_s_table, riccati_table
from .specfun.bessel import _scaled_trig

__all__ = [
    "RadialProblem",
    "RadialSolution",
    "BoundaryResiduals",
    "EstimateMargin",
    "AsymptoticReport",
    "Asymptotic46Report",
    "solve_from_boundary",
    "boundary_residuals",
    "closed_form_coefficients",
    "verify_estimate_123",
    "verify_asymptotics_25_26",
    "verify_asymptotic_46",
]

_ATOL = 1e-10
_RTOL = 1e-9


@dataclasses.dataclass(frozen=True)
class RadialProblem:
    """Radial problem data: angular parameter l, frequency k, anchor radius.

    ``l`` is real with l >= -1/2 (integer in the main use), ``potential``
    is an optional real function on (0, R_hat], default identically zero.
    """

    l: float
    k: complex
    R_hat: float
    potential: Optional[Callable[[float], float]] = None

    def __post_init__(self) -> None:
        if self.l < -0.5:
            raise ValueError(f"angular parameter must be >= -1/2, got {self.l}")
        if not (self.R_hat > 0):
            raise ValueError(f"R_hat must be positive, got {self.R_hat}")
        if not (math.isfinite(self.k.real) and math.isfinite(self.k.imag)):
            raise ValueError("k must be finite")
        if self.potential is not None:
            # square-integrability proxy: sampled quadrature of p^2 is finite
            radii = np.geomspace(1e-4 * self.R_hat, self.R_hat, 64)
            values = np.array([self.potential(float(r)) for r in radii], dtype=float)
            if not np.all(np.isfinite(values)):
                raise ValueError("potential samples are not finite on (0, R_hat]")

    @property
    def nu(self) -> float:
        """The centrifugal coefficient l(l+1)."""
        return self.l * (self.l + 1.0)


@dataclasses.dataclass(frozen=True)
class RadialSolution:
    """Trajectory on an increasing radial grid with nodal derivatives.

    When the potential is absent, ``closed_form`` holds the pair (A, B)
    with y(r) = A*S_l(kr) + B*C_l(kr); the numerical trajectory agrees
    with it and the coefficient function a(r) = y(r)/r is the radial
    expansion coefficient along the ray.
    """

    grid: np.ndarray
    y: np.ndarray
    dy: np.ndarray
    closed_form: Optional[tuple[complex, complex]] = None

    def __post_init__(self) -> None:
        grid = np.asarray(self.grid, dtype=float)
        if grid.size == 0:
            raise ValueError("grid must be nonempty")
        if grid.size > 1 and not np.all(np.diff(grid) > 0):
            raise ValueError("grid must be strictly increasing")
        if grid[0] < 0:
            raise ValueError("grid must consist of nonnegative radii")

    def coefficient(self) -> np.ndarray:
        """a(r) = y(r)/r, the spherical-harmonic coefficient along the ray."""
        grid = np.asarray(self.grid, dtype=float)
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.asarray(self.y) / grid


@dataclasses.dataclass(frozen=True)
class BoundaryResiduals:
    """Defects of the boundary data: F = y(R_hat) - R_hat, G = y'(R_hat) - 1."""

    F: complex
    G: complex


@dataclasses.dataclass(frozen=True)
class EstimateMargin:
    """One (xi, k) sample of the remainder bound: lhs <= rhs expected."""

    xi: float
    k: complex
    lhs: float
    rhs: float
    satisfied: bool


@dataclasses.dataclass(frozen=True)
class AsymptoticReport:
    """Observed constants for the S_l oscillatory asymptotics."""

    samples: tuple[tuple[complex, float, float], ...]
    c_max: float


@dataclasses.dataclass(frozen=True)
class Asymptotic46Report:
    """Sequence s_l = k0^l * y_l(xi_l; k0) and the scaled deviations."""

    l_values: tuple[int, ...]
    xi_values: tuple[float, ...]
    s_values: tuple[float, ...]
    deviations: tuple[float, ...]
    c_common: float


def _coefficient_rows(lmax: int, k: complex, R_hat: float) -> tuple[np.ndarray, np.ndarray]:
    """The pairs (A_l, B_l) of closed_form_coefficients for l = 0..lmax, as
    two rows from one riccati_table at k R_hat."""
    S, C, Sp, Cp = riccati_table(lmax, k * R_hat)
    return C / k - R_hat * Cp, R_hat * Sp - S / k


def closed_form_coefficients(l: int, k: complex, R_hat: float) -> tuple[complex, complex]:
    """Coefficients (A, B) with y = A*S_l(kr) + B*C_l(kr) and y(R_hat)=R_hat, y'(R_hat)=1.

    The 2x2 system in the variable x = kr has Wronskian determinant
    S*C' - S'*C = -1 exactly, so it is never singular.
    """
    if k == 0:
        raise ValueError("k must be nonzero for the closed form")
    li = int(round(l))
    A, B = _coefficient_rows(li, k, R_hat)
    return complex(A[li]), complex(B[li])


def _rhs_factory(nu: float, k: complex, potential) -> Callable:
    k2r = (k * k).real
    k2i = (k * k).imag

    def rhs(r: float, u: np.ndarray) -> list:
        # nu == 0 is regular at r = 0; keep 0/0 out of the evaluation
        c_re = (nu / (r * r) if nu != 0.0 else 0.0) - k2r
        c_im = -k2i
        if potential is not None:
            c_re += potential(r)
        yr, yi, dyr, dyi = u
        return [dyr, dyi, c_re * yr - c_im * yi, c_re * yi + c_im * yr]

    return rhs


def _integrate(problem: RadialProblem, y0: complex, dy0: complex,
               r_targets: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Integrate from R_hat through the (monotone) target radii.

    The state is split into real and imaginary parts so real data with
    real k stays exactly real.
    """
    rhs = _rhs_factory(problem.nu, complex(problem.k), problem.potential)
    u0 = [y0.real, y0.imag, dy0.real, dy0.imag]
    span = (problem.R_hat, float(r_targets[-1]))
    sol = solve_ivp(rhs, span, u0, method="RK45", t_eval=r_targets,
                    atol=_ATOL, rtol=_RTOL, dense_output=False)
    if not sol.success or sol.t.size != r_targets.size:
        reached = sol.t[-1] if sol.t.size else problem.R_hat
        raise RuntimeError(
            f"radial integration failed; smallest radius reached {reached!r}: {sol.message}")
    y = sol.y[0] + 1j * sol.y[1]
    dy = sol.y[2] + 1j * sol.y[3]
    if problem.k.imag == 0 and y0.imag == 0 and dy0.imag == 0:
        y = sol.y[0]
        dy = sol.y[2]
    return y, dy


def _solve_with_data(problem: RadialProblem, y0: complex, dy0: complex,
                     direction: str, r_end: float, grid_step: float) -> RadialSolution:
    R = problem.R_hat
    if grid_step <= 0:
        raise ValueError("grid_step must be positive")
    if direction not in ("inward", "outward"):
        raise ValueError(f"direction must be 'inward' or 'outward', got {direction!r}")

    if direction == "outward":
        if r_end < R:
            raise ValueError("outward integration needs r_end >= R_hat")
        stop = r_end
    else:
        if r_end >= R:
            raise ValueError("inward integration needs r_end < R_hat")
        if r_end < 0:
            raise ValueError("r_end must be nonnegative")
        regular_at_zero = problem.nu == 0.0 and problem.potential is None
        if regular_at_zero:
            stop = max(r_end, 0.0)
        else:
            # the centrifugal/potential term is singular at r=0
            stop = max(r_end, grid_step, 1e-6 * R)

    closed = None
    if problem.potential is None and float(problem.l
            ) == round(problem.l) and problem.l >= 0 and problem.k != 0:
        closed = closed_form_coefficients(int(round(problem.l)), problem.k, R)

    if stop == R:
        is_real = problem.k.imag == 0 and complex(y0).imag == 0 and complex(dy0).imag == 0
        dtype = float if is_real else complex
        return RadialSolution(np.array([R]), np.array([y0], dtype=dtype),
                              np.array([dy0], dtype=dtype), closed)

    n = max(1, int(math.ceil(abs(R - stop) / grid_step)))
    targets = np.linspace(R, stop, n + 1)
    y, dy = _integrate(problem, complex(y0), complex(dy0), targets)
    if direction == "inward":
        targets, y, dy = targets[::-1].copy(), y[::-1].copy(), dy[::-1].copy()
    return RadialSolution(targets, y, dy, closed)


def solve_from_boundary(problem: RadialProblem, direction: str,
                        r_end: float, grid_step: float) -> RadialSolution:
    """Solve the two-way problem with data y(R_hat) = R_hat, y'(R_hat) = 1.

    ``direction`` is "inward" (r_end < R_hat; r_end = 0 allowed, and the
    integration continues to the singular endpoint only when l(l+1) = 0
    and no potential is present, stopping otherwise at
    max(grid_step, 1e-6 * R_hat)) or "outward" (r_end >= R_hat; equality
    returns the single-node initial data).  Grid is returned ascending.
    For p = 0 and integer l the closed-form pair (A, B) is attached.
    """
    return _solve_with_data(problem, problem.R_hat, 1.0, direction, r_end, grid_step)


def _hermite(grid: np.ndarray, values: np.ndarray, slopes: np.ndarray):
    if np.iscomplexobj(values) or np.iscomplexobj(slopes):
        re = CubicHermiteSpline(grid, np.real(values), np.real(slopes))
        im = CubicHermiteSpline(grid, np.imag(values), np.imag(slopes))
        return lambda r: re(r) + 1j * im(r)
    spline = CubicHermiteSpline(grid, values, slopes)
    return spline


def boundary_residuals(solution: RadialSolution, R_hat: float, k: complex) -> BoundaryResiduals:
    """Defects F = y(R_hat) - R_hat and G = y'(R_hat) - 1 of a trajectory.

    R_hat must lie inside the grid span.  Queries at a grid node are nodal
    lookups (exact); otherwise y is interpolated by the cubic Hermite
    spline through (y, y') and y' by its derivative.
    """
    grid = np.asarray(solution.grid, dtype=float)
    if not (grid[0] - 1e-12 <= R_hat <= grid[-1] + 1e-12):
        raise ValueError(f"R_hat={R_hat} outside the solution span [{grid[0]}, {grid[-1]}]")
    idx = np.searchsorted(grid, R_hat)
    for j in (idx - 1, idx, idx + 1):
        if 0 <= j < grid.size and abs(grid[j] - R_hat) <= 1e-12 * max(1.0, abs(R_hat)):
            yv = solution.y[j]
            dv = solution.dy[j]
            return BoundaryResiduals(yv - R_hat, dv - 1.0)
    if grid.size < 2:
        raise ValueError("cannot interpolate on a single-node grid away from the node")
    yspline = _hermite(grid, np.asarray(solution.y), np.asarray(solution.dy))
    yv = yspline(R_hat)
    if np.iscomplexobj(np.asarray(solution.y)):
        dre = CubicHermiteSpline(grid, np.real(solution.y), np.real(solution.dy)).derivative()
        dim = CubicHermiteSpline(grid, np.imag(solution.y), np.imag(solution.dy)).derivative()
        dv = dre(R_hat) + 1j * dim(R_hat)
    else:
        dv = CubicHermiteSpline(grid, solution.y, solution.dy).derivative()(R_hat)
    return BoundaryResiduals(complex(yv) - R_hat, complex(dv) - 1.0)


def _gronwall_constant(nu: float, xi: float, potential, xi_floor: float = 1e-3) -> float:
    """K(xi) = exp(int_xi^1 [l(l+1)/t^2 + |p(t)|] dt), lower-truncated at xi_floor.

    The centrifugal integral diverges at xi = 0 for l > 0, so the bound is
    only reported on [xi_floor, 1].
    """
    lo = max(xi, xi_floor) if nu > 0 else max(xi, 0.0)
    centrifugal = nu * (1.0 / lo - 1.0) if lo > 0 else 0.0
    pot = 0.0
    if potential is not None:
        ts = np.linspace(max(lo, 1e-12), 1.0, 2001)
        pv = np.abs([potential(float(t)) for t in ts])
        pot = float(np.trapezoid(pv, ts))
    return math.exp(centrifugal + pot)


def verify_estimate_123(problem: RadialProblem, a: float, b: float,
                        xi_grid: Sequence[float],
                        k_samples: Sequence[complex]) -> list[EstimateMargin]:
    """Check |z + b cos k(1-xi) + a sin(k(1-xi))/k| <= K(xi)/|k| * e^{|Im k|(1-xi)}.

    The problem is posed on [0, 1] with data z(1) = -b, z'(1) = a; each
    sample frequency must satisfy |k| >= 1.  Returns one margin record
    per (xi, k) pair.
    """
    if problem.R_hat != 1.0:
        raise ValueError("the remainder estimate is posed on [0, 1]; use R_hat = 1")
    xi_grid = sorted(float(x) for x in xi_grid)
    if not xi_grid or xi_grid[0] <= 0 or xi_grid[-1] >= 1:
        raise ValueError("xi samples must lie in (0, 1)")
    records = []
    for k in k_samples:
        k = complex(k)
        if abs(k) < 1.0:
            raise ValueError("the estimate is stated for |k| >= 1")
        sub = RadialProblem(problem.l, k, 1.0, problem.potential)
        solution = _solve_with_data(sub, -b, a, "inward", xi_grid[0], 2e-3)
        yspline = _hermite(solution.grid, solution.y, solution.dy)
        for xi in xi_grid:
            z = complex(yspline(xi))
            lead = b * np.cos(k * (1 - xi)) + a * np.sin(k * (1 - xi)) / k
            lhs = abs(z + lead)
            K = _gronwall_constant(sub.nu, xi, sub.potential)
            rhs = K / abs(k) * math.exp(abs(k.imag) * (1 - xi))
            records.append(EstimateMargin(xi, k, float(lhs), float(rhs), bool(lhs <= rhs)))
    return records


def verify_asymptotics_25_26(l: int, k_samples: Sequence[complex],
                             xi_samples: Sequence[float]) -> AsymptoticReport:
    """Observed constant for |S_l(k xi) - sin(k xi - l pi/2)| <= C e^{|Im k| xi}/|k xi|.

    In the v_l = S_l(k xi)/k^{l+1} normalization this is the remainder
    bound for the regular solution; the k^{l+1} factors cancel in the
    observed constant, which is reported per sample together with its
    maximum.  All k x xi samples share one complex riccati_s_table call.
    """
    ks = [complex(k) for k in k_samples]
    xis = [float(xi) for xi in xi_samples]
    if any(k.real < 0 for k in ks):
        raise ValueError("samples need Re k >= 0")
    if any(xi <= 0 for xi in xis):
        raise ValueError("xi must be positive")
    if not (ks and xis):
        raise ValueError("need at least one k sample and one xi sample")
    z = np.outer(ks, xis)
    S = riccati_s_table(l, z, scaled=True)[0][l]
    # the real phase shift leaves Im unchanged, so both terms carry the
    # same e^{-|Im z|} scaling and subtract without overflow
    lead, _ = _scaled_trig(z - l * math.pi / 2, np.exp)
    c_obs = np.abs(z) * np.abs(S - lead)
    samples = [(k, xi, float(c_obs[i, j]))
               for i, k in enumerate(ks) for j, xi in enumerate(xis)]
    c_max = float(c_obs.max())
    if not math.isfinite(c_max):
        raise ArithmeticError("observed constant is not finite")
    return AsymptoticReport(tuple(samples), c_max)


def verify_asymptotic_46(l_max: int, k0: float, R_hat: float) -> Asymptotic46Report:
    """Sequence s_l = k0^l * y_l(xi_l; k0) at xi_l = R_hat + l pi/(2 k0).

    y_l carries the boundary data y(R_hat) = R_hat, y'(R_hat) = 1.  The
    report lists s_l for l = 0..l_max together with the scaled deviations
    |s_l - R_hat| * xi_l and their maximum c_common.  (A_l, B_l) come from
    one table at k0 R_hat, S_l and C_l from one table over the xi_l, and
    s_l from log space, where the k0^l power cannot overflow; a log|s_l|
    above 700 is capped there, with a RuntimeWarning.
    """
    if k0 < 1.0:
        raise ValueError("k0 must be >= 1")
    ls = np.arange(l_max + 1)
    xis = R_hat + ls * math.pi / (2 * k0)
    A, B = _coefficient_rows(l_max, k0, R_hat)
    S, C, _, _ = riccati_table(l_max, k0 * xis)
    value = A.real * S[ls, ls].real + B.real * C[ls, ls].real
    logmag = ls * math.log(k0) + np.log(np.abs(value))
    for l in np.flatnonzero(logmag > 700.0):
        warnings.warn(f"s_{l} overflows double precision; log10|s| = "
                      f"{logmag[l] / math.log(10):.2f}", RuntimeWarning)
    s = np.copysign(np.exp(np.minimum(logmag, 700.0)), value)
    devs = np.abs(s - R_hat) * xis
    return Asymptotic46Report(tuple(ls.tolist()), tuple(xis.tolist()), tuple(s.tolist()),
                              tuple(devs.tolist()), max(devs.tolist()))
