"""Spherical Bessel and Riccati-Bessel functions for real and complex argument.

The radial Helmholtz equation y'' + (k^2 - l(l+1)/r^2) y = 0 is solved by the
Riccati-Bessel pair S_l(x) = x j_l(x) (regular at 0) and C_l(x) = -x y_l(x)
(irregular), evaluated here at x = k r with k anywhere in the complex plane.

Evaluation strategy:
    * j_l: upward recurrence from j_0, j_1 when |z| >= l (stable direction),
      otherwise downward recurrence seeded by the continued fraction for
      j_l / j_{l-1} and renormalized against j_0 or j_1 (Miller style).
    * y_l: upward recurrence always (y is the dominant solution upward).

All internal recurrences run on values scaled by exp(-|Im z|), so tables stay
representable for large |Im z|; the unscaled public functions multiply the
factor back in.  For real z the scale factor is exactly 1 and real inputs
propagate zero imaginary parts through every recurrence.

riccati_table also evaluates a whole ndarray of z in one vectorised pass,
for callers such as contour integrals that need many points at once.
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


def _jy_scaled(lmax: int, z: complex) -> tuple[np.ndarray, np.ndarray]:
    """Tables of j_0..j_lmax and y_0..y_lmax, each scaled by exp(-|Im z|)."""
    zs, zc = _scaled_trig(z)
    j = np.empty(lmax + 1, dtype=complex)
    y = np.empty(lmax + 1, dtype=complex)

    az = abs(z)
    if az < _SERIES_CUTOFF:
        # Leading series; scale factor is 1 here since |Im z| < 1e-6.
        dfact = 1.0
        zp = 1.0 + 0j
        for l in range(lmax + 1):
            j[l] = zp / dfact * (1 - z * z / (2 * (2 * l + 3)))
            zp *= z
            dfact *= 2 * l + 3
    elif az >= lmax:
        j[0] = zs / z
        if lmax >= 1:
            j[1] = j[0] / z - zc / z
        for l in range(1, lmax):
            j[l + 1] = (2 * l + 1) / z * j[l] - j[l - 1]
    else:
        _miller_downward(j, lmax, z, zs, zc)

    # y: upward from y_0, y_1 (dominant solution, always stable).
    y[0] = -zc / z
    if lmax >= 1:
        y[1] = y[0] / z - zs / z
    for l in range(1, lmax):
        y[l + 1] = (2 * l + 1) / z * y[l] - y[l - 1]
    return j, y


def _ratio_cf(l: int, z: complex, max_iter: int = 20000) -> complex:
    """j_l(z)/j_{l-1}(z) by the modified Lentz continued fraction."""
    tiny = 1e-290
    # R_l = 1 / ((2l+1)/z - R_{l+1}) expanded with partial numerators -1.
    b = (2 * l + 1) / z
    f = b if b != 0 else tiny
    c = f
    d = 0.0 + 0j
    for n in range(1, max_iter):
        b = (2 * (l + n) + 1) / z
        d = b - d
        if d == 0:
            d = tiny
        c = b - 1 / c
        if c == 0:
            c = tiny
        d = 1 / d
        delta = c * d
        f *= delta
        if abs(delta - 1) < 1e-16:
            break
    return 1 / f


def _miller_downward(j: np.ndarray, lmax: int, z: complex,
                     zs: complex, zc: complex) -> None:
    """Fill j[0..lmax] (scaled) by downward recurrence from a CF-seeded start."""
    r = _ratio_cf(lmax, z)
    j[lmax] = r
    j[lmax - 1] = 1.0
    for l in range(lmax - 1, 0, -1):
        j[l - 1] = (2 * l + 1) / z * j[l] - j[l + 1]
        m = abs(j[l - 1])
        if m > 1e250:
            j[l - 1:] /= m
    j0 = zs / z
    j1 = j0 / z - zc / z
    # Normalize against whichever seed is farther from a zero.
    if abs(j0) >= abs(j1) and j[0] != 0:
        j *= j0 / j[0]
    elif j[1] != 0:
        j *= j1 / j[1]
    else:
        j *= j0 / j[0]


def _unscale(value: complex, z: complex) -> complex:
    m = abs(z.imag)
    out = value if m == 0 else value * math.exp(m)
    if not (math.isfinite(out.real) and math.isfinite(out.imag)):
        raise OverflowError(f"value overflows double range at z={z!r}")
    return out


def spherical_jy_table(lmax: int, z: complex, scaled: bool = False):
    """Arrays (j_0..j_lmax, y_0..y_lmax) at z.

    With ``scaled=True`` the returned values carry an implicit factor
    exp(|Im z|); callers doing log-magnitude work add ``abs(z.imag)`` back
    themselves and never overflow.
    """
    z = _check_order_arg(lmax, z, need_nonzero=True)
    j, y = _jy_scaled(lmax, z)
    if scaled:
        return j, y
    m = abs(z.imag)
    if m > 0:
        f = math.exp(m)
        j = j * f
        y = y * f
        if not (np.isfinite(j).all() and np.isfinite(y).all()):
            raise OverflowError(f"Bessel table overflows double range at z={z!r}")
    return j, y


def spherical_bessel_j(l: int, z: complex) -> complex:
    """Spherical Bessel function j_l(z), complex argument allowed."""
    z = _check_order_arg(l, z, need_nonzero=False)
    if z == 0:
        return 1.0 + 0j if l == 0 else 0.0 + 0j
    j, _ = _jy_scaled(l, z)
    return _unscale(j[l], z)


def spherical_bessel_y(l: int, z: complex) -> complex:
    """Spherical Neumann function y_l(z); z=0 is a domain error."""
    z = _check_order_arg(l, z, need_nonzero=True)
    _, y = _jy_scaled(l, z)
    return _unscale(y[l], z)


def riccati_table(lmax: int, z, scaled: bool = False):
    """(S, C, S', C') arrays for orders 0..lmax at z, primes w.r.t. z.

    S_l' = S_{l-1} - (l/z) S_l for l >= 1 (same relation for C); the order-0
    derivatives are cos z and -sin z.  ``scaled`` as in spherical_jy_table.

    A scalar z gives four arrays of shape (lmax + 1,).  An ndarray z gives
    four arrays of shape ``(lmax + 1,) + z.shape`` from one vectorised pass:
    the same three regimes (series, upward, Lentz-seeded Miller) each run
    over the mask of the points they cover, every point is validated as a
    scalar z would be, and the unscaled OverflowError names the first point
    that overflows.  Scalar z keeps its own recurrence because root finders
    call it one point at a time, where array bookkeeping costs several
    times the arithmetic.
    """
    if isinstance(z, np.ndarray):
        return _riccati_table_array(lmax, z, scaled)
    z = _check_order_arg(lmax, z, need_nonzero=True)
    j, y = _jy_scaled(lmax, z)
    S = z * j
    C = -z * y
    zs, zc = _scaled_trig(z)
    Sp = np.empty_like(S)
    Cp = np.empty_like(C)
    Sp[0] = zc
    Cp[0] = -zs
    for l in range(1, lmax + 1):
        Sp[l] = S[l - 1] - l / z * S[l]
        Cp[l] = C[l - 1] - l / z * C[l]
    if scaled:
        return S, C, Sp, Cp
    m = abs(z.imag)
    if m > 0:
        f = math.exp(m)
        S, C, Sp, Cp = S * f, C * f, Sp * f, Cp * f
        for arr in (S, C, Sp, Cp):
            if not np.isfinite(arr).all():
                raise OverflowError(f"Riccati table overflows double range at z={z!r}")
    return S, C, Sp, Cp


# ----------------------------------------------------------- array argument
#
# The functions below mirror _jy_scaled and riccati_table for an ndarray of
# points; each regime runs on the compressed array of the points it covers.
# The scalar kernel divides with Python's complex division and multiplies
# NumPy scalars without fused multiply-add, while NumPy's array loops divide
# through a reciprocal and may fuse.  The three-term recurrences amplify a
# last-bit difference by up to 1e7 where they run against the dominant
# solution (y_l near the imaginary axis), so every recurrence step here goes
# through _quot and _prod, which round as the scalar kernel rounds.


def _complex(re: np.ndarray, im: np.ndarray) -> np.ndarray:
    out = np.empty(re.shape, dtype=complex)
    out.real = re
    out.imag = im
    return out


def _quot(a, b: np.ndarray) -> np.ndarray:
    """a / b rounded as Python's complex division (Smith's method) rounds it."""
    a = np.asarray(a, dtype=complex)
    ar, ai, br, bi = a.real, a.imag, b.real, b.imag
    big = np.abs(br) >= np.abs(bi)
    # swap roles where |Im b| > |Re b|; ratio is then at most 1 in magnitude
    p, q = np.where(big, bi, br), np.where(big, br, bi)
    u, v = np.where(big, ar, ai), np.where(big, ai, ar)
    ratio = p / q
    denom = q + p * ratio
    im = (v - u * ratio) / denom
    # the swapped branch forms ai*ratio - ar, which is -(ar - ai*ratio) exactly
    return _complex((u + v * ratio) / denom, np.where(big, im, -im))


def _prod(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a * b without fused multiply-add, as NumPy's scalar product rounds it."""
    return _complex(a.real * b.real - a.imag * b.imag,
                    a.real * b.imag + a.imag * b.real)


def _check_order_array(lmax: int, z) -> np.ndarray:
    """Complex copy of z, every point validated as _check_order_arg would."""
    z = np.asarray(z, dtype=complex)
    valid = np.isfinite(z) & (np.abs(z) <= Z_MAX) & (z != 0)
    # the scalar check of the first invalid point (or of any point, if all
    # are valid) raises its exact message and validates lmax
    probe = z.flat[np.argmin(valid)] if z.size else 1.0
    _check_order_arg(lmax, probe, need_nonzero=True)
    return z


def _upward_array(lmax: int, z: np.ndarray, t0: np.ndarray,
                  t1: np.ndarray) -> np.ndarray:
    """Rows t_0..t_lmax of the three-term recurrence from seeds t_0, t_1."""
    t = np.empty((lmax + 1, z.size), dtype=complex)
    t[0] = t0
    if lmax >= 1:
        t[1] = t1
    for l in range(1, lmax):
        t[l + 1] = _prod(_quot(2 * l + 1, z), t[l]) - t[l - 1]
    return t


def _ratio_cf_array(l: int, z: np.ndarray, max_iter: int = 20000) -> np.ndarray:
    """_ratio_cf at every point; each point stops at its own convergence."""
    tiny = 1e-290
    b = _quot(2 * l + 1, z)
    f = np.where(b != 0, b, tiny)
    c = f.copy()
    d = np.zeros_like(z)
    out = np.empty_like(z)
    live = np.arange(z.size)
    for n in range(1, max_iter):
        b = _quot(2 * (l + n) + 1, z)
        d = b - d
        d[d == 0] = tiny
        c = b - _quot(1, c)
        c[c == 0] = tiny
        d = _quot(1, d)
        delta = _prod(c, d)
        f = _prod(f, delta)
        done = np.abs(delta - 1) < 1e-16
        if done.any():
            out[live[done]] = f[done]
            keep = ~done
            live, z, f, c, d = live[keep], z[keep], f[keep], c[keep], d[keep]
            if live.size == 0:
                break
    out[live] = f
    return _quot(1, out)


def _miller_downward_array(lmax: int, z: np.ndarray, zs: np.ndarray,
                           zc: np.ndarray) -> np.ndarray:
    """_miller_downward at every point, normalised point by point."""
    j = np.empty((lmax + 1, z.size), dtype=complex)
    j[lmax] = _ratio_cf_array(lmax, z)
    j[lmax - 1] = 1.0
    for l in range(lmax - 1, 0, -1):
        j[l - 1] = _prod(_quot(2 * l + 1, z), j[l]) - j[l + 1]
        m = np.abs(j[l - 1])
        big = m > 1e250
        if big.any():
            j[l - 1:, big] /= m[big]
    j0 = _quot(zs, z)
    j1 = _quot(j0, z) - _quot(zc, z)
    # whichever seed is farther from a zero, in the scalar branch order
    use_j0 = ((np.abs(j0) >= np.abs(j1)) & (j[0] != 0)) | (j[1] == 0)
    with np.errstate(divide="ignore", invalid="ignore"):
        return j * np.where(use_j0, j0 / j[0], j1 / j[1])


def _jy_scaled_array(lmax: int, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """_jy_scaled over a 1-d array of points."""
    zs, zc = _scaled_trig(z, np.exp)
    j = np.empty((lmax + 1, z.size), dtype=complex)
    az = np.abs(z)
    series = az < _SERIES_CUTOFF
    upward = ~series & (az >= lmax)
    miller = ~(series | upward)

    if series.any():
        zz = z[series]
        dfact = 1.0
        zp = np.ones_like(zz)
        for l in range(lmax + 1):
            j[l, series] = zp / dfact * (1 - zz * zz / (2 * (2 * l + 3)))
            zp = zp * zz
            dfact *= 2 * l + 3
    if upward.any():
        zz = z[upward]
        j0 = _quot(zs[upward], zz)
        j[:, upward] = _upward_array(lmax, zz, j0, j0 / zz - _quot(zc[upward], zz))
    if miller.any():
        j[:, miller] = _miller_downward_array(lmax, z[miller], zs[miller], zc[miller])

    y0 = _quot(-zc, z)
    y = _upward_array(lmax, z, y0, y0 / z - _quot(zs, z))
    return j, y


def _riccati_table_array(lmax: int, z, scaled: bool):
    """riccati_table at every point of the ndarray z."""
    z = _check_order_array(lmax, z)
    flat = z.ravel()
    j, y = _jy_scaled_array(lmax, flat)
    S = flat * j
    C = -flat * y
    zs, zc = _scaled_trig(flat, np.exp)
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
        overflow = (m > 0) & ~finite
        if overflow.any():
            bad = complex(flat[np.argmax(overflow)])
            raise OverflowError(f"Riccati table overflows double range at z={bad!r}")
    shape = (lmax + 1,) + z.shape
    return tuple(t.reshape(shape) for t in tables)
