"""Spherical Bessel and Riccati-Bessel functions for real and complex argument.

The radial Helmholtz equation y'' + (k^2 - l(l+1)/r^2) y = 0 is solved by the
Riccati-Bessel pair S_l(x) = x j_l(x) (regular at 0) and C_l(x) = -x y_l(x)
(irregular), evaluated here at x = k r with k anywhere in the complex plane.

One kernel evaluates every table, vectorised over an array of points; a
scalar z is a one-point array.  For a table of orders 0..lmax each point
takes one of three regimes for j_l, and each regime runs over the
compressed array of its points and writes its own block of columns of one
table in place (``_j_blocks``); a reader gathers the rows it needs from
the blocks, ``spherical_jn_table`` all of them:
    * |z| < 1e-6: the leading power series.
    * |z| >= lmax: upward recurrence from j_0, j_1 (the stable direction).
    * otherwise (Miller): downward recurrence from j_{N+1} = 0, j_N = 1 at
      the fixed order N = lmax + ceil(sqrt(40 (lmax + 1))) + 10 (the start
      rule of Numerical Recipes' ``bessj``), renormalised against j_0 or
      j_1.  N depends on lmax alone.  Orders above lmax run on two vectors,
      and only rows 0..lmax are stored.  Every 8th step from N rescales the
      values above 1e200 (|z| >= 1e-6, so 8 steps grow a value by at most
      about 1e67); where a bound on the growth over all N steps shows no
      value can reach 1e200, the rescale tests are skipped.
y_l always recurs upward from y_0, y_1 (y is the dominant solution upward,
except near the imaginary axis, where it loses up to seven digits).
``spherical_jn_table`` runs the same three j regimes in float64 for real
x; the recurrence helpers keep the dtype of their points, so the complex
tables are untouched by the real path.

``riccati_s_rows`` is the entry point for callers that read only the
regular half, S_l and S_l', at one degree or one per point: it runs the j
regimes in the dtype of its points (float64 for real points, so a
real-axis scan does no complex arithmetic), skips y_l, C_l and C_l'
altogether, and forms, unscales and checks rows l - 1 and l alone, so an
evaluation at degree l costs the j recurrence and two rows.
``riccati_table`` takes its S and S' from the same helper (``_s_rows``)
at every degree and adds the C/C' half, so at complex points they are
bitwise the same S and S'.  At real x the float64 and complex rows
differ by rounding only: complex division rounds (2l+1)/z as
(2l+1)*(1/z), and the recurrences carry that difference along.  The
scaled sin z and cos z that seed the complex tables come from one real
sin/cos pair of Re z and expm1(-2|Im z|) (``scaled_sin_cos``, which the
package exports for the callers that need the same scaling), with no
cancellation near the real axis.

The recurrences use plain NumPy arithmetic and act on each point
independently, so at real z, in either dtype, a point's table does not
depend on the other points of its batch.  They run on values scaled by
exp(-|Im z|), so tables stay representable for large |Im z|; without
``scaled`` the public functions multiply the factor back in through one
helper, ``_unscaled``, which also names the first point that overflows:
``riccati_table`` for its four tables, ``riccati_s_rows`` for its two
rows, where a subnormal z whose l/z overflows against S_l = 0 is an
underflow instead.  For real z the scale factor is exactly 1 and real
inputs propagate zero imaginary parts through every recurrence.

Orders are capped at L_MAX = 60, a module constant that no call changes:
every public function rejects an order (or a table's lmax) above it with a
ValueError.
"""

from __future__ import annotations

import math

import numpy as np

from ..errors import UnderflowError, check_integer

# Hard validation ceilings: orders in [0, L_MAX], arguments in |z| <= Z_MAX.
L_MAX = 60
Z_MAX = 1.0e4

# |z| below which j_l falls back to the leading power series.
_SERIES_CUTOFF = 1.0e-6


def scaled_sin_cos(z):
    """(sin z, cos z) times exp(-|Im z|), for a complex scalar or ndarray.

    With x + iy = z and d = expm1(-2|y|), from one real sin/cos pair of x:
        e^{-|y|} sin z = (1 + d/2) sin x - i sgn(y) (d/2) cos x
        e^{-|y|} cos z = (1 + d/2) cos x + i sgn(y) (d/2) sin x
    expm1 takes d without the cancellation of exp(-2|y|) - 1, so the
    imaginary part of sin z (the real part of cos z) keeps its relative
    accuracy for small |y|; at y = 0 the real parts are sin x and cos x
    exactly.  Scalars go through the same NumPy functions as arrays, so a
    point gives the same bits either way.
    """
    x, y = np.real(z), np.imag(z)
    h = np.expm1(-2.0 * np.abs(y))
    h *= 0.5
    g = np.copysign(h, y)  # -sgn(y) d/2, as d <= 0
    h += 1.0
    sx, cx = np.sin(x), np.cos(x)
    s = np.empty(np.shape(z), dtype=complex)
    c = np.empty_like(s)
    np.multiply(h, sx, out=s.real)
    np.multiply(g, cx, out=s.imag)
    np.multiply(h, cx, out=c.real)
    np.multiply(g, sx, out=c.imag)
    np.negative(c.imag, out=c.imag)
    return s[()], c[()]


def _upward(lmax: int, z: np.ndarray, t0: np.ndarray, t1: np.ndarray,
            out: np.ndarray | None = None) -> np.ndarray:
    """Rows t_0..t_lmax of the three-term recurrence from seeds t_0, t_1, of
    z's dtype, written to ``out`` if given."""
    t = np.empty((lmax + 1, z.size), dtype=z.dtype) if out is None else out
    t[0] = t0
    if lmax >= 1:
        t[1] = t1
    for l in range(1, lmax):
        # t_{l+1} = (2l+1)/z t_l - t_{l-1}, formed in its own row
        np.multiply((2 * l + 1) / z, t[l], out=t[l + 1])
        t[l + 1] -= t[l - 1]
    return t


def _miller_downward(lmax: int, z: np.ndarray, j0: np.ndarray, j1: np.ndarray,
                     out: np.ndarray | None = None) -> np.ndarray:
    """j_0..j_lmax (scaled) by downward recurrence from j_{N+1} = 0, j_N = 1
    at N = lmax + ceil(sqrt(40 (lmax + 1))) + 10, normalised against the
    seed j0 or j1 (``_seeds``); written to ``out`` if given."""
    # Each 8th step from N rescales the values above 1e200: |z| >= 1e-6
    # here, so 8 steps grow a value by at most about 1e67.  The (2l+1)/z
    # come from one division per run of steps.
    n = lmax + math.isqrt(40 * (lmax + 1) - 1) + 11  # isqrt(m - 1) + 1 = ceil(sqrt(m))
    odd = np.arange(2 * n + 1, 2, -2)[:, None]  # 2l + 1 for l = n..1
    # a step multiplies the larger of two neighbouring values by at most
    # (2l+1)/|z| + 1, so where N log10((2N+1)/min|z| + 1) stays below 190,
    # no value reaches 1e200 and the rescale tests are skipped
    rescale = n * math.log10((2 * n + 1) / float(np.abs(z).min()) + 1.0) >= 190.0
    # orders N..lmax+1 on two vectors, without storing rows, 8 steps a run
    hi = np.zeros_like(z)
    lo = np.ones_like(z)
    for top in range(n, lmax, -8):
        for c in odd[n - top:n - max(top - 8, lmax)] / z:
            hi, lo = lo, c * lo - hi
        if rescale and top - 8 >= lmax:
            m = np.abs(lo)
            big = m > 1e200
            if np.count_nonzero(big):
                hi[big] /= m[big]
                lo[big] /= m[big]
    # rows lmax..0 stored, the first step taking j_{lmax+1} from ``hi``,
    # which no later step reads
    j = np.empty((lmax + 1, z.size), dtype=z.dtype) if out is None else out
    j[lmax] = lo
    rows = list(j)
    for l, c in zip(range(lmax, 0, -1), odd[n - lmax:] / z):
        row = rows[l - 1]
        np.multiply(c, rows[l], out=row)
        row -= rows[l + 1] if l < lmax else hi
        if rescale and (n - l) % 8 == 7:
            m = np.abs(row)
            big = m > 1e200
            if np.count_nonzero(big):
                j[l - 1:, big] /= m[big]
    row1 = j[1] if lmax else hi
    # normalise against whichever seed is farther from a zero, j_1 where row
    # 0 is 0 and j_0 where row 1 is; only the chosen quotient is formed, so
    # no division by a zero row
    use_j0 = np.abs(j0) >= np.abs(j1)
    if np.count_nonzero(j[0]) + np.count_nonzero(row1) < 2 * z.size:
        use_j0 = (use_j0 & (j[0] != 0)) | (row1 == 0)
    j *= np.where(use_j0, j0, j1) / np.where(use_j0, j[0], row1)
    return j


def _seeds(z: np.ndarray, zs: np.ndarray, zc: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The scaled j_0 = sin z / z and j_1 = j_0 / z - cos z / z at z, from
    the scaled sin z and cos z: the seeds of the upward recurrence and the
    norms of Miller's."""
    j0 = zs / z
    return j0, j0 / z - zc / z


def _j_regime(r: int, lmax: int, z: np.ndarray, j0: np.ndarray, j1: np.ndarray,
              out: np.ndarray | None = None) -> np.ndarray:
    """Scaled j_0..j_lmax at points z that all take regime r, of z's dtype,
    written to ``out`` if given; ``j0, j1`` are the ``_seeds`` at z."""
    if r == 1:
        return _miller_downward(lmax, z, j0, j1, out)
    if r == 2:
        return _upward(lmax, z, j0, j1, out)
    # leading series, times the scale factor exp(-|Im z|): within 1e-6 of 1
    # here, but dropping it shows as a 1e-6 relative jump at the cutoff
    j = np.empty((lmax + 1, z.size), dtype=z.dtype) if out is None else out
    dfact = 1.0
    zp = np.exp(-np.abs(z.imag)).astype(z.dtype)
    for l in range(lmax + 1):
        j[l] = zp / dfact * (1 - z * z / (2 * (2 * l + 3)))
        zp = zp * z
        dfact *= 2 * l + 3
    return j


def _j_blocks(lmax: int, z: np.ndarray, zs: np.ndarray,
              zc: np.ndarray) -> tuple[np.ndarray, np.ndarray | None]:
    """(j, cols): the table of j_0..j_lmax at a 1-d array of points, scaled
    by exp(-|Im z|), of z's dtype, with the points in blocks by regime, and
    the column cols[i] of point i in it; cols is None where one regime
    holds every point, so j is in point order already.  ``zs, zc`` are the
    scaled sin z and cos z.

    The regimes are the series (|z| < 1e-6), Miller, and upward (|z| >=
    lmax).  Each writes its own block of columns in place, so a reader of
    a few rows gathers just those; the seeds come from one ``_seeds`` call
    over every point.
    """
    # complex |z| by hypot, as abs(complex) rounds it: np.abs can differ in
    # the last bit, which would move a point across a regime cutoff; a real
    # |x| is exact either way
    az = np.hypot(z.real, z.imag) if z.dtype == complex else np.abs(z)
    series = az < _SERIES_CUTOFF
    # at lmax = 0 every point past the series is upward
    upward = az >= max(lmax, _SERIES_CUTOFF)
    n_series, n_upward = np.count_nonzero(series), np.count_nonzero(upward)
    counts = [n_series, z.size - n_series - n_upward, n_upward]
    if n_series:
        # the series reads no seed, and x = 0 (spherical_jn_table) gives 0/0
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            j0, j1 = _seeds(z, zs, zc)
    else:
        j0, j1 = _seeds(z, zs, zc)
    if max(counts) == z.size:
        return _j_regime(counts.index(z.size), lmax, z, j0, j1), None
    j = np.empty((lmax + 1, z.size), dtype=z.dtype)
    cols = np.empty(z.size, dtype=np.intp)
    a = 0
    # masks, not an argsort: a process's first NumPy sort maps 256 KB
    for r, (at, n) in enumerate(zip((series, ~(series | upward), upward), counts)):
        if n:
            cols[at] = np.arange(a, a + n)
            _j_regime(r, lmax, z[at], j0[at], j1[at], out=j[:, a:a + n])
            a += n
    return j, cols


def _y_scaled(lmax: int, z: np.ndarray, zs: np.ndarray, zc: np.ndarray) -> np.ndarray:
    """Table of y_0..y_lmax at a 1-d array of complex points, scaled by
    exp(-|Im z|); ``zs, zc`` are ``scaled_sin_cos(z)``."""
    y0 = -zc / z
    return _upward(lmax, z, y0, y0 / z - zs / z)


def _derivative(F: np.ndarray, d0: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Rows F_0'..F_lmax' of a Riccati table F at z: the order-0 row ``d0``,
    then F_l' = F_{l-1} - (l/z) F_l."""
    Fp = np.empty_like(F)
    Fp[0] = d0
    Fp[1:] = F[:-1] - np.arange(1, F.shape[0])[:, None] / z * F[1:]
    return Fp


def _s_rows(lmax: int, l, z: np.ndarray, zs: np.ndarray,
            zc: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Scaled S_l and S_l' at the points z (at least 1-d), in z's dtype, for
    the degrees l, an int or an integer array that broadcasts against z;
    ``zs, zc`` are the scaled sin z and cos z of ``z.ravel()``.

    Rows l - 1 and l of one j table, by _derivative's arithmetic: S_l =
    z j_l and S_l' = S_{l-1} - (l/z) S_l, with cos z at l = 0.  z takes
    the rows' number of dimensions first: NumPy multiplies two one-element
    complex arrays of different dimensions without the fused multiply-add
    of its other loops, so a row would part from its table in the last bit.
    """
    j, cols = _j_blocks(lmax, z.ravel(), zs, zc)
    cols = (np.arange(z.size) if cols is None else cols).reshape(z.shape)
    jl = j[l, cols]
    z = z.reshape((1,) * (jl.ndim - z.ndim) + z.shape)
    zc = zc.reshape(z.shape)
    S = z * jl
    if isinstance(l, int) and l == 0:
        # an int degree settles l = 0 here, so one-degree reads (a contour
        # pass, a call per evaluation) skip the masked copy below
        return S, zc
    # at l = 0 row l - 1 is row lmax, which the copy below replaces
    lz = l / z
    Sp = z * j[l - 1, cols]
    Sp -= lz * S
    if not isinstance(l, int):
        # l/z is 0 just where l is (|z| <= Z_MAX); testing it, not l,
        # spares a first int64 comparison, which maps 128 KB of NumPy code
        np.copyto(Sp, zc, where=lz == 0)
    return S, Sp


def _check_order_array(lmax: int, z, dtype=complex, need_nonzero: bool = True) -> np.ndarray:
    """z as an array of ``dtype``, with lmax in [0, L_MAX] and every point
    finite, within |z| <= Z_MAX and, if ``need_nonzero``, nonzero; the
    ValueError names the first invalid point."""
    z = np.asarray(z, dtype=dtype)
    check_integer("lmax", lmax)
    if lmax < 0:
        raise ValueError(f"order l must be a nonnegative integer, got {lmax!r}")
    if lmax > L_MAX:
        raise ValueError(f"order l={lmax} exceeds L_MAX={L_MAX}")
    # NaN and infinite points fail |z| <= Z_MAX too
    valid = np.abs(z) <= Z_MAX
    if np.count_nonzero(valid) == z.size and (not need_nonzero or np.count_nonzero(z) == z.size):
        return z
    if need_nonzero:
        valid &= z != 0
    # the first invalid point is checked as a Python complex, whose repr
    # the messages give
    probe = complex(z.flat[np.argmin(valid)])
    if not (math.isfinite(probe.real) and math.isfinite(probe.imag)):
        raise ValueError(f"argument must be finite, got {probe!r}")
    if abs(probe) > Z_MAX:
        raise ValueError(f"|z|={abs(probe):.3g} exceeds supported range {Z_MAX:.0e}")
    raise ValueError("argument z=0 is outside the domain (irregular at 0)")


def _unscaled(tables: tuple[np.ndarray, ...], z: np.ndarray,
              regular: bool = False) -> tuple[np.ndarray, ...]:
    """Scaled tables at the points z times exp(|Im z|) (real z: as they
    are), where z broadcasts against each table; OverflowError names the
    first point of z where an entry is not finite, with no numpy warning
    before it.  ``regular`` says the tables are S and S' rows alone, which
    are bounded before the scale factor: a non-finite scaled entry there
    is S_l' = S_{l-1} - (l/z) S_l at a subnormal z, where l/z overflows to
    inf and meets S_l = 0, and UnderflowError names that z when it is the
    first point.  Real points come only as such rows."""
    unscaled = tables
    if np.iscomplexobj(z):
        with np.errstate(over="ignore", invalid="ignore"):
            f = np.exp(np.abs(z.imag))
            unscaled = tuple(t * f for t in tables)
    finite = [np.isfinite(t) for t in unscaled]
    if any(np.count_nonzero(ok) < ok.size for ok in finite):
        points = np.arange(z.size).reshape(z.shape)

        def first(oks):
            return min(np.broadcast_to(points, ok.shape)[~ok].min(initial=z.size)
                       for ok in oks)

        at = first(finite)
        if regular and first([np.isfinite(t) for t in tables]) == at:
            name, bad = ("z", complex(z.flat[at])) if np.iscomplexobj(z) else ("x", float(z.flat[at]))
            raise UnderflowError(f"Riccati rows at {name}={bad!r}: "
                                 f"S_l underflows to 0 where l/{name} overflows")
        bad = complex(z.flat[at])
        raise OverflowError(f"Riccati table overflows double range at z={bad!r}")
    return unscaled


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
    j, cols = _j_blocks(lmax, flat, np.sin(flat), np.cos(flat))
    if cols is not None:
        j = j[:, cols]
    return j.reshape((lmax + 1,) + x.shape)


def riccati_s_rows(lmax: int, l, z, scaled: bool = False):
    """(S_l, S_l') at z for the degrees ``l`` alone, primes w.r.t. z.

    ``l`` is an int or an integer array of degrees in [0, lmax] that
    broadcasts against z's shape, and both rows have the broadcast shape:
    a column of degrees against a 1-d z gives a row per degree, an array
    of z's shape one degree per point.  Both come from rows l - 1 and l of
    one table of j_0..j_lmax, by ``riccati_table``'s arithmetic: S_l =
    z j_l, S_l' = S_{l-1} - (l/z) S_l, and S_0' = cos z.  So at complex
    z they are bitwise the entries of riccati_table's S and S'.  Real z
    (any non-complex dtype) runs in float64.  Only the returned rows are
    unscaled and checked: without ``scaled``, OverflowError names the
    first point of z where one of them is not finite, and UnderflowError
    the first subnormal z where l/z overflows against S_l = 0.  lmax
    and z are validated as in ``riccati_table``, before the degrees.
    """
    z = _check_order_array(lmax, z, dtype=complex if np.iscomplexobj(z) else float)
    single = isinstance(l, (int, np.integer))
    if single:
        l = int(l)
    else:
        l = np.asarray(l)
        if l.dtype.kind not in "iu":
            raise ValueError(f"degrees must be integers, got an array of {l.dtype}")
    if np.count_nonzero((l < 0) | (l > lmax)):
        lo, hi = (l, l) if single else (l.min(), l.max())
        raise ValueError(f"degree {lo if lo < 0 else hi} outside [0, lmax={lmax}]")
    real = z.dtype != complex
    flat = z.ravel()
    # a 0-d z runs as one point: NumPy's scalar arithmetic rounds complex
    # division differently from its array loops
    pts = z if z.ndim else flat
    zs, zc = (np.sin(flat), np.cos(flat)) if real else scaled_sin_cos(flat)
    with np.errstate(over="ignore", invalid="ignore"):
        S, Sp = _s_rows(lmax, l, pts, zs, zc)
    if not scaled:
        S, Sp = _unscaled((S, Sp), pts, regular=True)
    if not z.ndim:
        S, Sp = S.reshape(np.shape(l))[()], Sp.reshape(np.shape(l))[()]
    return S, Sp


def riccati_table(lmax: int, z, scaled: bool = False):
    """(S, C, S', C') arrays for orders 0..lmax at z, primes w.r.t. z.

    S_l' = S_{l-1} - (l/z) S_l for l >= 1 (same relation for C); the order-0
    derivatives are cos z and -sin z.  With ``scaled=True`` the tables carry
    an implicit factor exp(|Im z|); callers doing log-magnitude work add
    ``abs(z.imag)`` back themselves and never overflow.  S and S' are
    bitwise the rows of ``riccati_s_rows``; this adds the C/C' half.

    z may be a scalar or an ndarray; the four arrays have shape
    ``(lmax + 1,) + np.shape(z)``, so a scalar z gives (lmax + 1,) arrays.
    Every point is validated as a scalar z would be, and the unscaled
    OverflowError names the first point that overflows, with no numpy
    warning before it.  The scaled tables are not checked: at tiny real z
    and large lmax, C_l overflows to inf or NaN there.
    """
    z = _check_order_array(lmax, z)
    flat = z.ravel()
    zs, zc = scaled_sin_cos(flat)
    with np.errstate(over="ignore", invalid="ignore"):
        S, Sp = _s_rows(lmax, np.arange(lmax + 1)[:, None], flat, zs, zc)
        # flat as a row, for the fused multiply-add of _s_rows at one point too
        C = -flat[None] * _y_scaled(lmax, flat, zs, zc)
        Cp = _derivative(C, -zs, flat)
    tables = (S, C, Sp, Cp)
    if not scaled:
        tables = _unscaled(tables, flat)
    shape = (lmax + 1,) + z.shape
    return tuple(t.reshape(shape) for t in tables)
