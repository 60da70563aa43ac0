"""Spherical Bessel and Riccati-Bessel functions for real and complex argument.

The radial Helmholtz equation y'' + (k^2 - l(l+1)/r^2) y = 0 is solved by the
Riccati-Bessel pair S_l(x) = x j_l(x) (regular at 0) and C_l(x) = -x y_l(x)
(irregular), evaluated here at x = k r with k anywhere in the complex plane.

One kernel evaluates every table, vectorised over an array of points; a
scalar z is a one-point array.  For a table of orders 0..lmax each point
takes one of three regimes for j_l, and each regime runs over the
compressed array of its points:
    * |z| < 1e-6: the leading power series.
    * |z| >= lmax: upward recurrence from j_0, j_1 (the stable direction).
    * otherwise: downward recurrence seeded by the Lentz continued fraction
      for j_lmax / j_{lmax-1} and renormalised against j_0 or j_1 (Miller).
y_l always recurs upward from y_0, y_1 (y is the dominant solution upward,
except near the imaginary axis, where it loses up to seven digits).

The recurrences use plain NumPy complex arithmetic and act on each point
independently, so at real z a point's table does not depend on the other
points of its batch.  They run on values scaled by exp(-|Im z|), so tables
stay representable for large |Im z|; the unscaled public functions multiply
the factor back in.  For real z the scale factor is exactly 1 and real
inputs propagate zero imaginary parts through every recurrence.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

# Hard validation ceilings.  L_MAX is the advertised order cap; callers that
# need more (up to L_MAX_SUPPORTED) may raise it module-wide.
L_MAX_DEFAULT = 60
L_MAX_SUPPORTED = 120
L_MAX = L_MAX_DEFAULT

Z_MAX = 1.0e4

# |z| below which j_l falls back to the leading power series.
_SERIES_CUTOFF = 1.0e-6


def set_l_max(n: int) -> None:
    """Raise or lower the order cap, within the supported ceiling."""
    global L_MAX
    if not 1 <= n <= L_MAX_SUPPORTED:
        raise ValueError(f"l_max {n} outside supported range 1..{L_MAX_SUPPORTED}")
    L_MAX = n


def _check_order_arg(l: int, z: complex, need_nonzero: bool) -> complex:
    if l < 0 or l != int(l):
        raise ValueError(f"order l must be a nonnegative integer, got {l!r}")
    if l > L_MAX:
        raise ValueError(f"order l={l} exceeds L_MAX={L_MAX}")
    z = complex(z)
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise ValueError(f"argument must be finite, got {z!r}")
    if abs(z) > Z_MAX:
        raise ValueError(f"|z|={abs(z):.3g} exceeds supported range {Z_MAX:.0e}")
    if need_nonzero and z == 0:
        raise ValueError("argument z=0 is outside the domain (irregular at 0)")
    return z


def _scaled_trig(z, exp=cmath.exp):
    """(sin z, cos z) times exp(-|Im z|); exact for real z.

    Pass ``exp=np.exp`` for an ndarray of points.
    """
    b = z.imag
    m = abs(b)
    # e^{iz - m} and e^{-iz - m}: one factor is e^{-2m}, the other O(1).
    ep = exp(1j * z - m)
    em = exp(-1j * z - m)
    s = (ep - em) / 2j
    c = (ep + em) / 2
    return s, c


def _upward(lmax: int, z: np.ndarray, t0: np.ndarray, t1: np.ndarray) -> np.ndarray:
    """Rows t_0..t_lmax of the three-term recurrence from seeds t_0, t_1."""
    t = np.empty((lmax + 1, z.size), dtype=complex)
    t[0] = t0
    if lmax >= 1:
        t[1] = t1
    for l in range(1, lmax):
        t[l + 1] = (2 * l + 1) / z * t[l] - t[l - 1]
    return t


def _ratio_cf(l: int, z: np.ndarray, max_iter: int = 20000) -> np.ndarray:
    """j_l(z)/j_{l-1}(z) by the modified Lentz continued fraction.

    R_l = 1 / ((2l+1)/z - R_{l+1}), expanded with partial numerators -1;
    each point stops at its own convergence.
    """
    tiny = 1e-290
    b = (2 * l + 1) / z
    f = np.where(b != 0, b, tiny)
    c = f.copy()
    d = np.zeros_like(z)
    out = np.empty_like(z)
    live = np.arange(z.size)
    for n in range(1, max_iter):
        b = (2 * (l + n) + 1) / z
        d = b - d
        d[d == 0] = tiny
        c = b - 1 / c
        c[c == 0] = tiny
        d = 1 / d
        delta = c * d
        f = f * delta
        done = np.abs(delta - 1) < 1e-16
        if done.any():
            out[live[done]] = f[done]
            keep = ~done
            live, z, f, c, d = live[keep], z[keep], f[keep], c[keep], d[keep]
            if live.size == 0:
                break
    out[live] = f
    return 1 / out


def _miller_downward(lmax: int, z: np.ndarray, zs: np.ndarray,
                     zc: np.ndarray) -> np.ndarray:
    """j_0..j_lmax (scaled) by downward recurrence from a CF-seeded start."""
    j = np.empty((lmax + 1, z.size), dtype=complex)
    j[lmax] = _ratio_cf(lmax, z)
    j[lmax - 1] = 1.0
    for l in range(lmax - 1, 0, -1):
        j[l - 1] = (2 * l + 1) / z * j[l] - j[l + 1]
        m = np.abs(j[l - 1])
        big = m > 1e250
        if big.any():
            j[l - 1:, big] /= m[big]
    j0 = zs / z
    j1 = j0 / z - zc / z
    # normalise against whichever seed is farther from a zero
    use_j0 = ((np.abs(j0) >= np.abs(j1)) & (j[0] != 0)) | (j[1] == 0)
    with np.errstate(divide="ignore", invalid="ignore"):
        return j * np.where(use_j0, j0 / j[0], j1 / j[1])


def _jy_scaled(lmax: int, z: np.ndarray, zs: np.ndarray,
               zc: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Tables of j_0..j_lmax and y_0..y_lmax at a 1-d array of points, each
    scaled by exp(-|Im z|); shapes (lmax + 1, z.size).  ``zs, zc`` are
    ``_scaled_trig(z, np.exp)``."""
    j = np.empty((lmax + 1, z.size), dtype=complex)
    # |z| by hypot, as abs(complex) rounds it: np.abs can differ in the
    # last bit, which would move a point across a regime cutoff
    az = np.hypot(z.real, z.imag)
    series = az < _SERIES_CUTOFF
    upward = ~series & (az >= lmax)
    miller = ~(series | upward)

    if series.any():
        # leading series, times the scale factor exp(-|Im z|): within 1e-6
        # of 1 here, but dropping it shows as a 1e-6 relative jump at the
        # cutoff
        zz = z[series]
        dfact = 1.0
        zp = np.exp(-np.abs(zz.imag)).astype(complex)
        for l in range(lmax + 1):
            j[l, series] = zp / dfact * (1 - zz * zz / (2 * (2 * l + 3)))
            zp = zp * zz
            dfact *= 2 * l + 3
    if upward.any():
        zz = z[upward]
        j0 = zs[upward] / zz
        j[:, upward] = _upward(lmax, zz, j0, j0 / zz - zc[upward] / zz)
    if miller.any():
        j[:, miller] = _miller_downward(lmax, z[miller], zs[miller], zc[miller])

    y0 = -zc / z
    y = _upward(lmax, z, y0, y0 / z - zs / z)
    return j, y


def _check_order_array(lmax: int, z) -> np.ndarray:
    """Complex copy of z, every point validated as _check_order_arg would."""
    z = np.asarray(z, dtype=complex)
    valid = np.isfinite(z) & (np.abs(z) <= Z_MAX) & (z != 0)
    # the scalar check of the first invalid point (or of any point, if all
    # are valid) raises its exact message and validates lmax
    probe = z.flat[np.argmin(valid)] if z.size else 1.0
    _check_order_arg(lmax, probe, need_nonzero=True)
    return z


def _growth(z: complex, what: str) -> float:
    """exp(|Im z|), the factor the scaled tables leave out."""
    try:
        return math.exp(abs(z.imag))
    except OverflowError:
        raise OverflowError(f"{what} overflows double range at z={z!r}") from None


def _unscale(value: complex, z: complex) -> complex:
    out = value if z.imag == 0 else value * _growth(z, "value")
    if not (math.isfinite(out.real) and math.isfinite(out.imag)):
        raise OverflowError(f"value overflows double range at z={z!r}")
    return out


def _jy_point(lmax: int, z: complex) -> tuple[np.ndarray, np.ndarray]:
    """_jy_scaled at the one point z, as (lmax + 1,) arrays.

    An overflow (y_l at tiny real z) is left to the caller's check, not warned.
    """
    z = np.array([z])
    with np.errstate(over="ignore", invalid="ignore"):
        j, y = _jy_scaled(lmax, z, *_scaled_trig(z, np.exp))
    return j[:, 0], y[:, 0]


def spherical_jy_table(lmax: int, z: complex, scaled: bool = False):
    """Arrays (j_0..j_lmax, y_0..y_lmax) at z.

    With ``scaled=True`` the returned values carry an implicit factor
    exp(|Im z|); callers doing log-magnitude work add ``abs(z.imag)`` back
    themselves and never overflow.
    """
    z = _check_order_arg(lmax, z, need_nonzero=True)
    j, y = _jy_point(lmax, z)
    if scaled:
        return j, y
    if z.imag != 0:
        f = _growth(z, "Bessel table")
        j = j * f
        y = y * f
        if not (np.isfinite(j).all() and np.isfinite(y).all()):
            raise OverflowError(f"Bessel table overflows double range at z={z!r}")
    elif not cmath.isfinite(y[lmax]):
        # at real z only y_l can overflow, and it grows with l
        raise OverflowError(f"Bessel table overflows double range at z={z!r}")
    return j, y


def spherical_bessel_j(l: int, z: complex) -> complex:
    """Spherical Bessel function j_l(z), complex argument allowed."""
    z = _check_order_arg(l, z, need_nonzero=False)
    if z == 0:
        return 1.0 + 0j if l == 0 else 0.0 + 0j
    j, _ = _jy_point(l, z)
    return _unscale(j[l], z)


def spherical_bessel_y(l: int, z: complex) -> complex:
    """Spherical Neumann function y_l(z); z=0 is a domain error."""
    z = _check_order_arg(l, z, need_nonzero=True)
    _, y = _jy_point(l, z)
    return _unscale(y[l], z)


def riccati_table(lmax: int, z, scaled: bool = False):
    """(S, C, S', C') arrays for orders 0..lmax at z, primes w.r.t. z.

    S_l' = S_{l-1} - (l/z) S_l for l >= 1 (same relation for C); the order-0
    derivatives are cos z and -sin z.  ``scaled`` as in spherical_jy_table.

    z may be a scalar or an ndarray; the four arrays have shape
    ``(lmax + 1,) + np.shape(z)``, so a scalar z gives (lmax + 1,) arrays.
    Every point is validated as a scalar z would be, and the unscaled
    OverflowError names the first point that overflows, with no numpy
    warning before it.  The scaled tables are not checked: at tiny real z
    and large lmax, C_l overflows to inf or NaN there.
    """
    z = _check_order_array(lmax, z)
    flat = z.ravel()
    zs, zc = _scaled_trig(flat, np.exp)
    with np.errstate(over="ignore", invalid="ignore"):
        j, y = _jy_scaled(lmax, flat, zs, zc)
        S = flat * j
        C = -flat * y
        Sp = np.empty_like(S)
        Cp = np.empty_like(C)
        Sp[0] = zc
        Cp[0] = -zs
        l = np.arange(1, lmax + 1)[:, None]
        Sp[1:] = S[:-1] - l / flat * S[1:]
        Cp[1:] = C[:-1] - l / flat * C[1:]
    tables = (S, C, Sp, Cp)
    if not scaled:
        m = np.abs(flat.imag)
        with np.errstate(over="ignore", invalid="ignore"):
            f = np.exp(m)
            tables = tuple(t * f for t in tables)
        finite = np.logical_and.reduce([np.isfinite(t).all(axis=0) for t in tables])
        if not finite.all():
            bad = complex(flat[np.argmin(finite)])
            raise OverflowError(f"Riccati table overflows double range at z={bad!r}")
    shape = (lmax + 1,) + z.shape
    return tuple(t.reshape(shape) for t in tables)
