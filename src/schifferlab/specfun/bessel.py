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
    * otherwise (Miller): downward recurrence from j_{N+1} = 0, j_N = 1 at
      the fixed order N = lmax + ceil(sqrt(40 (lmax + 1))) + 10 (the start
      rule of Numerical Recipes' ``bessj``), renormalised against j_0 or
      j_1.  N depends on lmax alone.  Orders above lmax run on two vectors,
      and only rows 0..lmax are stored.  Every 8th step from N rescales the
      values above 1e200 (|z| >= 1e-6, so 8 steps grow a value by at most
      about 1e67).
y_l always recurs upward from y_0, y_1 (y is the dominant solution upward,
except near the imaginary axis, where it loses up to seven digits).
``spherical_jn_table`` runs the same three j regimes in float64 for real
x; the recurrence helpers keep the dtype of their points, so the complex
tables are untouched by the real path.

``riccati_s_table`` is the entry point for callers that read only the
regular half, S_l and S_l': it runs the j regimes in the dtype of its
points (float64 for real points, so a real-axis scan does no complex
arithmetic) and skips y_l, C_l and C_l' altogether.  ``riccati_table``
takes its S and S' from the same helper and adds the C/C' half, so at
complex points the two return bitwise the same S and S'.  At real x the
float64 and complex tables differ by rounding only: complex division
rounds (2l+1)/z as (2l+1)*(1/z), and the recurrences carry that
difference along.

The recurrences use plain NumPy arithmetic and act on each point
independently, so at real z, in either dtype, a point's table does not
depend on the other points of its batch.  They run on values scaled by
exp(-|Im z|), so tables stay representable for large |Im z|; the unscaled
public functions multiply the factor back in.  For real z the scale factor is exactly 1 and real
inputs propagate zero imaginary parts through every recurrence.

Orders are capped at L_MAX = 60, a module constant that no call changes:
every public function rejects an order (or a table's lmax) above it with a
ValueError.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

# Hard validation ceilings: orders in [0, L_MAX], arguments in |z| <= Z_MAX.
L_MAX = 60
Z_MAX = 1.0e4

# |z| below which j_l falls back to the leading power series.
_SERIES_CUTOFF = 1.0e-6


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
    """Rows t_0..t_lmax of the three-term recurrence from seeds t_0, t_1, of z's dtype."""
    t = np.empty((lmax + 1, z.size), dtype=z.dtype)
    t[0] = t0
    if lmax >= 1:
        t[1] = t1
    for l in range(1, lmax):
        t[l + 1] = (2 * l + 1) / z * t[l] - t[l - 1]
    return t


def _miller_downward(lmax: int, z: np.ndarray, zs: np.ndarray,
                     zc: np.ndarray) -> np.ndarray:
    """j_0..j_lmax (scaled) by downward recurrence from j_{N+1} = 0, j_N = 1
    at N = lmax + ceil(sqrt(40 (lmax + 1))) + 10, normalised against j_0 or
    j_1."""
    # Each 8th step from N rescales the values above 1e200: |z| >= 1e-6
    # here, so 8 steps grow a value by at most about 1e67.  The (2l+1)/z
    # come from one division per 8 orders, on the same schedule.
    n = lmax + math.isqrt(40 * (lmax + 1) - 1) + 11  # isqrt(m - 1) + 1 = ceil(sqrt(m))
    odd = np.arange(2 * n + 1, 2, -2)[:, None]
    # orders N..lmax+1 on two vectors, without storing rows
    hi = np.zeros_like(z)
    lo = np.ones_like(z)
    for l in range(n, lmax, -1):
        step = (n - l) % 8
        if step == 0:
            coef = odd[n - l:n - l + 8] / z
        hi, lo = lo, coef[step] * lo - hi
        if step == 7:
            m = np.abs(lo)
            big = m > 1e200
            if big.any():
                hi[big] /= m[big]
                lo[big] /= m[big]
    # rows 0..lmax stored, with j_{lmax+1} below them to start the recurrence
    j = np.empty((lmax + 2, z.size), dtype=z.dtype)
    j[lmax + 1] = hi
    j[lmax] = lo
    for l in range(lmax, 0, -1):
        step = (n - l) % 8
        if step == 0:
            coef = odd[n - l:n - l + 8] / z
        np.multiply(coef[step], j[l], out=j[l - 1])
        j[l - 1] -= j[l + 1]
        if step == 7:
            m = np.abs(j[l - 1])
            big = m > 1e200
            if big.any():
                j[l - 1:, big] /= m[big]
    j0 = zs / z
    j1 = j0 / z - zc / z
    # normalise against whichever seed is farther from a zero
    use_j0 = ((np.abs(j0) >= np.abs(j1)) & (j[0] != 0)) | (j[1] == 0)
    with np.errstate(divide="ignore", invalid="ignore"):
        return j[:-1] * np.where(use_j0, j0 / j[0], j1 / j[1])


def _j_scaled(lmax: int, z: np.ndarray, zs: np.ndarray, zc: np.ndarray) -> np.ndarray:
    """Table of j_0..j_lmax at a 1-d array of points, scaled by exp(-|Im z|),
    of z's dtype; shape (lmax + 1, z.size).  ``zs, zc`` are the scaled
    sin z and cos z."""
    j = np.empty((lmax + 1, z.size), dtype=z.dtype)
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
        zp = np.exp(-np.abs(zz.imag)).astype(z.dtype)
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
    return j


def _y_scaled(lmax: int, z: np.ndarray, zs: np.ndarray, zc: np.ndarray) -> np.ndarray:
    """Table of y_0..y_lmax at a 1-d array of complex points, scaled by
    exp(-|Im z|); ``zs, zc`` are ``_scaled_trig(z, np.exp)``."""
    y0 = -zc / z
    return _upward(lmax, z, y0, y0 / z - zs / z)


def _derivative(F: np.ndarray, d0: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Rows F_0'..F_lmax' of a Riccati table F at z: the order-0 row ``d0``,
    then F_l' = F_{l-1} - (l/z) F_l."""
    Fp = np.empty_like(F)
    Fp[0] = d0
    Fp[1:] = F[:-1] - np.arange(1, F.shape[0])[:, None] / z * F[1:]
    return Fp


def _regular(lmax: int, z: np.ndarray, zs: np.ndarray,
             zc: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Scaled S_0..S_lmax and S_0'..S_lmax' at a 1-d array of points, in
    their dtype; ``zs, zc`` are the scaled sin z and cos z."""
    S = z * _j_scaled(lmax, z, zs, zc)
    return S, _derivative(S, zc, z)


def _check_order_array(lmax: int, z, dtype=complex, need_nonzero: bool = True) -> np.ndarray:
    """z as an array of ``dtype``, every point validated as _check_order_arg would."""
    z = np.asarray(z, dtype=dtype)
    valid = np.isfinite(z) & (np.abs(z) <= Z_MAX)
    if need_nonzero:
        valid &= z != 0
    # the scalar check of the first invalid point (or of any point, if all
    # are valid) raises its exact message and validates lmax
    probe = z.flat[np.argmin(valid)] if z.size else 1.0
    _check_order_arg(lmax, probe, need_nonzero=need_nonzero)
    return z


def _growth(z: complex, what: str) -> float:
    """exp(|Im z|), the factor the scaled tables leave out."""
    try:
        return math.exp(abs(z.imag))
    except OverflowError:
        raise OverflowError(f"{what} overflows double range at z={z!r}") from None


def _unscaled(tables: tuple[np.ndarray, ...], z: np.ndarray) -> tuple[np.ndarray, ...]:
    """Scaled tables at the 1-d points z times exp(|Im z|) (real z: as they
    are); OverflowError names the first point where an entry is not finite,
    with no numpy warning before it."""
    if np.iscomplexobj(z):
        with np.errstate(over="ignore", invalid="ignore"):
            f = np.exp(np.abs(z.imag))
            tables = tuple(t * f for t in tables)
    finite = np.logical_and.reduce([np.isfinite(t).all(axis=0) for t in tables])
    if not finite.all():
        bad = complex(z[np.argmin(finite)])
        raise OverflowError(f"Riccati table overflows double range at z={bad!r}")
    return tables


def _unscale(value: complex, z: complex) -> complex:
    out = value if z.imag == 0 else value * _growth(z, "value")
    if not (math.isfinite(out.real) and math.isfinite(out.imag)):
        raise OverflowError(f"value overflows double range at z={z!r}")
    return out


def _jy_point(lmax: int, z: complex) -> tuple[np.ndarray, np.ndarray]:
    """The scaled j and y tables at the one point z, as (lmax + 1,) arrays.

    An overflow (y_l at tiny real z) is left to the caller's check, not warned.
    """
    z = np.array([z])
    zs, zc = _scaled_trig(z, np.exp)
    with np.errstate(over="ignore", invalid="ignore"):
        j, y = _j_scaled(lmax, z, zs, zc), _y_scaled(lmax, z, zs, zc)
    return j[:, 0], y[:, 0]


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


def spherical_jn_table(lmax: int, x) -> np.ndarray:
    """j_0..j_lmax at real x, float64 of shape ``(lmax + 1,) + np.shape(x)``.

    The kernel behind ``riccati_table``, run in real arithmetic: the series
    below |x| = 1e-6, upward recurrence where |x| >= lmax, Miller's
    downward recurrence elsewhere.  Each point's column depends on that
    point alone, so a batch equals its one-point calls bitwise.  Every
    point is validated as a scalar x would be; x = 0 is allowed.
    """
    x = _check_order_array(lmax, x, dtype=float, need_nonzero=False)
    flat = x.ravel()
    j = _j_scaled(lmax, flat, np.sin(flat), np.cos(flat))
    return j.reshape((lmax + 1,) + x.shape)


def riccati_s_table(lmax: int, z, scaled: bool = False):
    """(S, S') arrays for orders 0..lmax at z, primes w.r.t. z: the regular
    half of ``riccati_table``, with no y_l, C_l or C_l' computed.

    Real z (any non-complex dtype) runs in float64 and returns float64
    tables; complex z returns complex tables, bitwise the S and S' of
    ``riccati_table(lmax, z, scaled)``.  Shapes, validation, ``scaled`` and
    the OverflowError that names the first point whose unscaled S or S' is
    not finite are as in ``riccati_table``.  Each point's columns depend on
    that point alone, so a batch equals its one-point calls bitwise.
    """
    real = not np.iscomplexobj(z)
    z = _check_order_array(lmax, z, dtype=float if real else complex)
    flat = z.ravel()
    zs, zc = (np.sin(flat), np.cos(flat)) if real else _scaled_trig(flat, np.exp)
    with np.errstate(over="ignore", invalid="ignore"):
        tables = _regular(lmax, flat, zs, zc)
    if not scaled:
        tables = _unscaled(tables, flat)
    shape = (lmax + 1,) + z.shape
    return tuple(t.reshape(shape) for t in tables)


def riccati_table(lmax: int, z, scaled: bool = False):
    """(S, C, S', C') arrays for orders 0..lmax at z, primes w.r.t. z.

    S_l' = S_{l-1} - (l/z) S_l for l >= 1 (same relation for C); the order-0
    derivatives are cos z and -sin z.  With ``scaled=True`` the tables carry
    an implicit factor exp(|Im z|); callers doing log-magnitude work add
    ``abs(z.imag)`` back themselves and never overflow.  S and S' come from
    the helper behind ``riccati_s_table``; this adds the C/C' half.

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
        S, Sp = _regular(lmax, flat, zs, zc)
        C = -flat * _y_scaled(lmax, flat, zs, zc)
        Cp = _derivative(C, -zs, flat)
    tables = (S, C, Sp, Cp)
    if not scaled:
        tables = _unscaled(tables, flat)
    shape = (lmax + 1,) + z.shape
    return tuple(t.reshape(shape) for t in tables)
