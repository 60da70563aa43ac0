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
Every ODE solution is read at its nodes by scipy's ``solve_ivp`` itself;
the remainder check integrates once per frequency and reads the solution
at its xi samples, with no interpolation of its own.  Radii, steps and
frequencies are validated by name: a parameter that must be positive goes
through ``errors.check_positive``.
"""

from __future__ import annotations

import dataclasses
import math
import warnings
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import check_positive
from .specfun import riccati_s_rows, riccati_table
from .specfun.bessel import _scaled_trig

__all__ = [
    "RadialProblem",
    "RadialSolution",
    "EstimateMargin",
    "AsymptoticReport",
    "Asymptotic46Report",
    "solve_from_boundary",
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
        if not self.l >= -0.5:
            raise ValueError(f"angular parameter must be >= -1/2, got {self.l}")
        check_positive("R_hat", self.R_hat)
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
    with y(r) = A*S_l(kr) + B*C_l(kr), and the numerical trajectory
    agrees with it.  y(r)/r is the radial expansion coefficient along
    the ray.
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


def _check_finite(name: str, value) -> None:
    """ValueError "<name> must be finite, got <value>" for a NaN or infinite
    real or complex value."""
    if not np.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value}")


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
    check_positive("R_hat", R_hat)
    _check_finite("k", k)
    if k == 0:
        raise ValueError("k must be nonzero for the closed form")
    li = int(round(l))
    A, B = _coefficient_rows(li, k, R_hat)
    return complex(A[li]), complex(B[li])


def _integrate(problem: RadialProblem, y0: complex, dy0: complex,
               r_targets: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Integrate from R_hat through the (monotone) target radii.

    The state is split into real and imaginary parts so real data with
    real k stays exactly real.
    """
    # imported at its one use, so importing radial does not load
    # scipy.integrate
    from scipy.integrate import solve_ivp

    nu, potential, k = problem.nu, problem.potential, complex(problem.k)
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

    u0 = [y0.real, y0.imag, dy0.real, dy0.imag]
    span = (problem.R_hat, float(r_targets[-1]))
    sol = solve_ivp(rhs, span, u0, method="RK45", t_eval=r_targets,
                    atol=_ATOL, rtol=_RTOL, dense_output=False)
    if not sol.success or sol.t.size != r_targets.size:
        reached = sol.t[-1] if sol.t.size else problem.R_hat
        raise RuntimeError(
            f"radial integration failed; smallest radius reached {reached!r}: {sol.message}")
    if problem.k.imag == 0 and y0.imag == 0 and dy0.imag == 0:
        return sol.y[0], sol.y[2]
    return sol.y[0] + 1j * sol.y[1], sol.y[2] + 1j * sol.y[3]


def solve_from_boundary(problem: RadialProblem, direction: str,
                        r_end: float, grid_step: float) -> RadialSolution:
    """Solve the two-way problem with data y(R_hat) = R_hat, y'(R_hat) = 1.

    ``direction`` is "inward" (r_end < R_hat; r_end = 0 allowed, and the
    integration continues to the singular endpoint only when l(l+1) = 0
    and no potential is present, stopping otherwise at
    max(grid_step, 1e-6 * R_hat)) or "outward" (r_end >= R_hat; equality
    returns the single-node initial data).  Grid is returned ascending.
    For p = 0 and integer l the closed-form pair (A, B) is attached.
    ValueError, naming the parameter, for a grid_step that is not positive
    and finite and for a non-finite r_end.
    """
    R = problem.R_hat
    check_positive("grid_step", grid_step)
    if not math.isfinite(r_end):
        raise ValueError(f"r_end must be finite, got {r_end}")
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
        # the centrifugal/potential term is singular at r=0
        singular = problem.nu != 0.0 or problem.potential is not None
        stop = max(r_end, grid_step, 1e-6 * R) if singular else r_end

    closed = None
    if problem.potential is None and float(problem.l
            ) == round(problem.l) and problem.l >= 0 and problem.k != 0:
        closed = closed_form_coefficients(int(round(problem.l)), problem.k, R)

    if stop == R:
        dtype = float if problem.k.imag == 0 else complex
        return RadialSolution(np.array([R]), np.array([R], dtype=dtype),
                              np.array([1.0], dtype=dtype), closed)

    n = max(1, int(math.ceil(abs(R - stop) / grid_step)))
    targets = np.linspace(R, stop, n + 1)
    y, dy = _integrate(problem, complex(R), 1.0 + 0.0j, targets)
    if direction == "inward":
        targets, y, dy = targets[::-1].copy(), y[::-1].copy(), dy[::-1].copy()
    return RadialSolution(targets, y, dy, closed)


def _gronwall_constant(nu: float, xi: float, potential, xi_floor: float = 1e-3) -> float:
    """K(xi) = exp(int_xi^1 [l(l+1)/t^2 + |p(t)|] dt), lower-truncated at xi_floor.

    The centrifugal integral diverges at xi = 0 for l > 0, so the bound is
    only reported on [xi_floor, 1].  Where the exponent passes double
    range (l(l+1)/xi beyond about 710), K is math.inf: the bound holds
    trivially there.
    """
    lo = max(xi, xi_floor) if nu > 0 else max(xi, 0.0)
    centrifugal = nu * (1.0 / lo - 1.0) if lo > 0 else 0.0
    pot = 0.0
    if potential is not None:
        ts = np.linspace(max(lo, 1e-12), 1.0, 2001)
        pv = np.abs([potential(float(t)) for t in ts])
        pot = float(np.trapezoid(pv, ts))
    try:
        return math.exp(centrifugal + pot)
    except OverflowError:
        return math.inf


def verify_estimate_123(problem: RadialProblem, a: float, b: float,
                        xi_grid: Sequence[float],
                        k_samples: Sequence[complex]) -> list[EstimateMargin]:
    """Check |z + b cos k(1-xi) + a sin(k(1-xi))/k| <= K(xi)/|k| * e^{|Im k|(1-xi)}.

    The problem is posed on [0, 1] with data z(1) = -b, z'(1) = a; each
    sample frequency must satisfy |k| >= 1.  Returns one margin record
    per (xi, k) pair, k by k, with xi ascending; a repeated xi repeats its
    record.  Each k takes one integration inward from r = 1 that stops at
    the distinct xi, and K(xi) is computed once per xi; where K(xi)
    overflows it is math.inf and the record is satisfied.  A non-finite a
    or b is a ValueError that names it.
    """
    if problem.R_hat != 1.0:
        raise ValueError("the remainder estimate is posed on [0, 1]; use R_hat = 1")
    _check_finite("a", a)
    _check_finite("b", b)
    xi_grid = sorted(float(x) for x in xi_grid)
    if not xi_grid or not all(0 < xi < 1 for xi in xi_grid):
        raise ValueError(f"xi samples must lie in (0, 1), got {xi_grid}")
    # solve_ivp rejects a repeated t_eval value, so the integration stops at
    # each distinct xi once (descending), and at[i] is sample i's stop
    distinct, at = np.unique(xi_grid, return_inverse=True)
    stops = distinct[::-1]
    at = stops.size - 1 - at
    K = [_gronwall_constant(problem.nu, xi, problem.potential) for xi in stops]
    records = []
    for k in k_samples:
        k = complex(k)
        if abs(k) < 1.0:
            raise ValueError("the estimate is stated for |k| >= 1")
        sub = RadialProblem(problem.l, k, 1.0, problem.potential)
        y, _ = _integrate(sub, complex(-b), complex(a), stops)
        for xi, i in zip(xi_grid, at.tolist()):
            z = complex(y[i])
            lead = b * np.cos(k * (1 - xi)) + a * np.sin(k * (1 - xi)) / k
            lhs = abs(z + lead)
            rhs = K[i] / abs(k) * math.exp(abs(k.imag) * (1 - xi))
            records.append(EstimateMargin(xi, k, float(lhs), float(rhs), bool(lhs <= rhs)))
    return records


def verify_asymptotics_25_26(l: int, k_samples: Sequence[complex],
                             xi_samples: Sequence[float]) -> AsymptoticReport:
    """Observed constant for |S_l(k xi) - sin(k xi - l pi/2)| <= C e^{|Im k| xi}/|k xi|.

    In the v_l = S_l(k xi)/k^{l+1} normalization this is the remainder
    bound for the regular solution; the k^{l+1} factors cancel in the
    observed constant, which is reported per sample together with its
    maximum.  All k x xi samples share one complex riccati_s_rows call.
    """
    for k in k_samples:
        _check_finite("k", k)
    ks = [complex(k) for k in k_samples]
    xis = [float(xi) for xi in xi_samples]
    if any(k.real < 0 for k in ks):
        raise ValueError("samples need Re k >= 0")
    for xi in xis:
        check_positive("xi", xi)
    if not (ks and xis):
        raise ValueError("need at least one k sample and one xi sample")
    z = np.outer(ks, xis)
    S, _ = riccati_s_rows(l, l, z, scaled=True)
    # the real phase shift leaves Im unchanged, so both terms carry the
    # same e^{-|Im z|} scaling and subtract without overflow
    lead, _ = _scaled_trig(z - l * math.pi / 2)
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
    check_positive("k0", k0)
    check_positive("R_hat", R_hat)
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
