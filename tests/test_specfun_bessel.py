"""Spherical Bessel and Riccati-Bessel evaluator checks.

Frozen reference values come from mpmath at 40 digits through
j_l(z) = sqrt(pi/(2z)) J_{l+1/2}(z) and y_l(z) = sqrt(pi/(2z)) Y_{l+1/2}(z).
The kernel returns them as tables: j_l at real x is a row of
``spherical_jn_table``, and at any z, j_l = S_l/z and y_l = -C_l/z from
``riccati_table``.
"""

import cmath
import json
import math
import re
import types
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy.special import spherical_jn

import schifferlab.specfun as specfun
from schifferlab.specfun import bessel
from schifferlab.specfun import (
    L_MAX,
    Z_MAX,
    riccati_s_rows,
    riccati_table,
    spherical_jn_table,
)
from schifferlab.errors import UnderflowError

DATA = Path(__file__).parent / "data"


def _j(l, z):
    """j_l(z): row l of spherical_jn_table at real z, S_l/z at complex z."""
    if np.iscomplexobj(z):
        return riccati_table(l, z)[0][l] / z
    return spherical_jn_table(l, z)[l]


def _y(l, z):
    """y_l(z) = -C_l/z from riccati_table."""
    return -riccati_table(l, z)[1][l] / z


def _s_table(lmax, z, scaled=False):
    """(S, S') for orders 0..lmax at z: riccati_s_rows at every degree."""
    degrees = np.arange(lmax + 1).reshape((-1,) + (1,) * np.ndim(z))
    return riccati_s_rows(lmax, degrees, z, scaled=scaled)

# mpmath dps=40
REAL_CASES = [
    (1, 1.0, 0.3011686789397568, -1.3817732906760363),
    (0, 2.0, 0.45464871341284085, 0.2080734182735712),
    (5, 3.7, 0.03861365693381353, -0.8920372653142621),
    (3, 0.01, 9.523756613876865e-09, -1500015000.125002),
    (12, 0.5, 3.0738335149913967e-17, -2604711390049800.5),
]

# mpmath dps=40, complex arguments in all quadrants
COMPLEX_CASES = [
    (2, 1.5 + 2.0j,
     0.06299676088597357 + 0.4759831983227017j,
     -0.4153351304703111 + 0.1781595114255945j),
    (6, 3.0 - 4.0j,
     0.011406344305868718 + 0.1501251478658391j,
     0.08738958271028667 + 0.05238816205192107j),
    (10, 8.0 + 0.5j,
     0.016613652165603305 + 0.007534669531694772j,
     -0.47752635189074394 + 0.1980127966043203j),
]


# C_l = -z y_l for l = 14..20 near the imaginary axis, mpmath at 80 digits
# through y_l(z) = sqrt(pi/(2z)) Y_{l+1/2}(z), cross-checked against the
# upward recurrence at 200 digits; (re, im) strings rounded to 20 digits
IMAG_AXIS_C_14_20 = [
    ((1+20j), (
        "-453289.36106731232393", "1334745.0295255541122",
        "-666641.80488833504759", "-203777.03657669690229",
        "86686.721094518144642", "-319780.36394727449744",
        "147453.82880583612106", "34784.547966617017304",
        "-13095.53010988927594", "65415.723086292729022",
        "-27944.85007817847451", "-4582.3683269389744872",
        "1464.3668977661821598", "-11504.823594450858417",
    )),
    ((3.63-9.08j), (
        "-1.133681847994445336", "-0.015752807565119520952",
        "-1.2735339200252591168", "-2.2931345855020565245",
        "6.3851294670023279555", "-6.4316377626751499207",
        "29.426197528792063735", "14.244137174847136014",
        "-14.627769055192529798", "123.15385089184394545",
        "-482.65698340866444411", "107.34179869539660168",
        "-1097.4613022817982448", "-1751.6493381148215675",
    )),
    ((0.5+12j), (
        "-15.603424924401815476", "15.932766122710227057",
        "-5.6873193046559369719", "-5.1511038189160906527",
        "1.7083533829186075327", "-1.8194858999108568779",
        "0.88781437885668359685", "0.25315264398161771377",
        "-0.86356404425468099735", "-0.73477314931014000729",
        "-3.2601902063257564682", "2.3106541663257706584",
        "7.9194561816349819819", "11.624386825593027737",
    )),
    ((-2+15j), (
        "2008.506437066881123", "-704.80736134093296714",
        "209.62660349835222242", "849.64138284853947645",
        "-340.00690166219545159", "49.112442723713617936",
        "-5.4732643806965862507", "-128.84664440739690111",
        "46.28917324632378327", "2.8208712866946390909",
        "-2.648199619794397446", "15.749545599863700203",
        "-5.1536110355629639719", "-1.4202939033306483043",
    )),
]


@pytest.mark.parametrize("l, x, jx, yx", REAL_CASES)
def test_real_argument_reference_values(l, x, jx, yx):
    assert_allclose(_j(l, x), jx, rtol=1e-12)
    assert_allclose(_y(l, x), yx, rtol=1e-12)


@pytest.mark.parametrize("l, z, jz, yz", COMPLEX_CASES)
def test_complex_argument_reference_values(l, z, jz, yz):
    assert_allclose(_j(l, z), jz, rtol=1e-12)
    assert_allclose(_y(l, z), yz, rtol=1e-12)
    assert_allclose(riccati_s_rows(l, l, z)[0], z * jz, rtol=1e-12)


def test_real_arguments_return_exactly_real_values():
    # the complex tables at a real point carry zero imaginary parts
    for l, x, _, _ in REAL_CASES:
        for table in riccati_table(l, x):
            assert not np.any(table.imag)


def test_small_and_zero_arguments():
    assert spherical_jn_table(0, 0.0)[0] == 1.0
    assert spherical_jn_table(2, 0.0)[2] == 0.0
    assert abs(_j(0, math.pi)) < 1e-12
    assert_allclose(_j(0, 1e-3), 1.0, atol=1e-6)
    assert abs(_y(0, math.pi / 2)) < 1e-12
    assert_allclose(_y(0, 1.0), -math.cos(1.0), rtol=1e-14)


def test_riccati_reference_table():
    # mpmath dps=40 at x = 2.3
    S, C, Sp, Cp = riccati_table(2, 2.3)
    assert_allclose(S[2], 0.5462456731467104, rtol=1e-12)
    assert_allclose(C[2], 1.2610846980624133, rtol=1e-12)
    assert_allclose(Sp[2], 0.5154994412290849, rtol=1e-12)
    assert_allclose(Cp[2], -0.6405754040861715, rtol=1e-12)


def test_riccati_closed_form_anchors():
    S, _, _, _ = riccati_table(0, math.pi / 2)
    assert_allclose(S[0], 1.0, rtol=1e-12)  # S_0 = sin
    _, C, _, _ = riccati_table(0, 1e-6)
    assert_allclose(C[0], 1.0, atol=1e-9)  # C_0 = cos
    S1, _, _, _ = riccati_table(1, 1.0)
    assert_allclose(S1[1], 0.3011686789397568, rtol=1e-12)  # S_1(1) = j_1(1)


@pytest.mark.parametrize("z", [0.7, 13.0, 2.0 + 1.0j, 5.0 - 3.0j])
def test_riccati_wronskian_is_minus_one(z):
    S, C, Sp, Cp = riccati_table(12, z)
    assert_allclose(S * Cp - Sp * C, -np.ones(13), rtol=1e-10, atol=1e-12)


def test_wronskian_identity_on_real_grid():
    # j_l y_l' - j_l' y_l = 1/x^2 in the Riccati normalization
    for x in np.linspace(0.1, 100.0, 97):
        S, C, Sp, Cp = riccati_table(20, x)
        assert_allclose(S * Cp - Sp * C, -np.ones(21), rtol=1e-8)


@pytest.mark.parametrize("fn", [_j, _y], ids=["spherical_bessel_j", "spherical_bessel_y"])
def test_three_term_recurrence(fn):
    # f_{l-1} + f_{l+1} = (2l+1)/x f_l, scaled by the largest participant
    for l in (1, 3, 7, 15):
        for x in (0.5, 2.9, 17.0, 64.0):
            fm, f0, fp = (complex(fn(l + d, x)) for d in (-1, 0, 1))
            scale = max(abs(fm), abs(f0), abs(fp), 1e-300)
            assert abs(fm + fp - (2 * l + 1) / x * f0) <= 1e-8 * scale


def test_riccati_solves_its_differential_equation():
    # S_l'' + (1 - l(l+1)/x^2) S_l = 0 by central second differences
    h = 1e-3
    for l in (0, 2, 5):
        for x in (1.3, 4.0, 11.0):
            vals = [riccati_table(l, x + s * h)[0][l] for s in (-1, 0, 1)]
            second = (vals[0] - 2 * vals[1] + vals[2]) / (h * h)
            assert abs(second + (1 - l * (l + 1) / x**2) * vals[1]) < 1e-6


def test_scaled_tables_match_unscaled():
    z = 2.0 + 6.0j
    factor = math.exp(abs(z.imag))
    for table, scaled in zip(riccati_table(5, z), riccati_table(5, z, scaled=True)):
        assert_allclose(scaled * factor, table, rtol=1e-13)
    z = 1.0 + 30.0j
    S, _, _, _ = riccati_table(3, z, scaled=True)
    assert_allclose(S[3] * math.exp(30.0), riccati_s_rows(3, 3, z)[0], rtol=1e-13)


def test_strong_imaginary_argument_needs_scaling():
    with pytest.raises(OverflowError):
        riccati_table(2, 1.0 + 800.0j)
    for table in riccati_table(2, 1.0 + 800.0j, scaled=True):
        assert np.all(np.isfinite(table))


def test_overflow_past_the_exponent_range_names_the_point():
    # exp(800) itself overflows, before any table is multiplied
    named = r"overflows double range at z=\(1\+800j\)"
    with pytest.raises(OverflowError, match=named):
        riccati_table(2, 1.0 + 800.0j)
    with pytest.raises(OverflowError, match=named):
        riccati_s_rows(2, 2, 1.0 + 800.0j)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_real_argument_overflow_is_named():
    # y_60(1e-4) ~ 119!! / 1e-244 overflows, so C and C' do too; the named
    # error comes with no numpy warning before it
    named = r"overflows double range at z=\(0\.0001\+0j\)"
    with pytest.raises(OverflowError, match=named):
        riccati_table(60, 1e-4)
    with pytest.raises(OverflowError, match=named):
        riccati_table(60, np.array([1.0, 1e-4]))
    # at real z the scaled tables are the same numbers, left unchecked
    _, C, _, _ = riccati_table(60, 1e-4, scaled=True)
    assert not np.all(np.isfinite(C))
    # without C the tables are finite; at 1e-5, S_60 and S_60' underflow to 0
    for x in (1e-4, 1e-5, 1e-5 + 0j):
        S, Sp = _s_table(60, x)
        assert np.all(np.isfinite(S)) and np.all(np.isfinite(Sp))
    assert S[60] == 0.0 and Sp[60] == 0.0


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_subnormal_real_point_names_the_underflow():
    # at x = 1e-310, 2/x overflows to inf and meets S_2 = 0 in S_2': the
    # point is real and nothing passes double range, so the error is the
    # underflow, with x printed as a real number
    named = r"^Riccati rows at x=1e-310: S_l underflows to 0 where l/x overflows$"
    for x in (np.array([1e-310, 2.0]), np.array([2.0, 1e-310, 5e-324]), 1e-310):
        with pytest.raises(UnderflowError, match=named):
            riccati_s_rows(3, 2, x)
    assert riccati_s_rows(3, 2, np.array([1e-300, 2.0]))[1][0] == 0.0


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_subnormal_complex_point_names_the_underflow():
    # the same l/z overflow against S_2 = 0 at a complex point: S and S'
    # are bounded before the scale factor, so this too is the underflow,
    # while riccati_table's C_l does pass double range there
    for z, shown in ((np.array([1e-310 + 0j, 2.0]), r"\(1e-310\+0j\)"),
                     (np.array([2.0, 1e-310j]), "1e-310j"),
                     (1e-310 + 1e-310j, r"\(1e-310\+1e-310j\)")):
        with pytest.raises(UnderflowError, match=f"^Riccati rows at z={shown}: "
                                                 "S_l underflows to 0 where l/z overflows$"):
            riccati_s_rows(3, 2, z)
        with pytest.raises(OverflowError, match=f"^Riccati table overflows double range "
                                                f"at z={shown}$"):
            riccati_table(3, z)
    # a point past double range before it is still the overflow
    with pytest.raises(OverflowError, match=r"at z=800j$"):
        riccati_s_rows(3, 2, np.array([800j, 1e-310 + 0j]))


def test_series_cutoff_is_seamless():
    # the series regime (|z| < 1e-6) carries the exp(-|Im z|) scale too
    z = 9e-7j
    for S in (riccati_table(0, z)[0][0], riccati_table(0, np.array([z]))[0][0, 0]):
        assert_allclose(S, cmath.sin(z), rtol=1e-14)
    # abs() rounds this |z| to 1e-6 and np.abs() to one ulp below; both
    # paths must put it in the same regime
    z = -3.288769178463685e-07 + 9.44372793396693e-07j
    for want, got in zip(riccati_table(0, z), riccati_table(0, np.array([z]))):
        assert_allclose(got[:, 0], want, rtol=1e-14)


def _seam_gap(lmax: int, u: complex | float) -> float:
    """Largest gap between the S, S' tables at nextafter(lmax, 0) * u (Miller)
    and at lmax * u (upward), per order relative to hypot(|S_l|, |S_l'|)."""
    below = _s_table(lmax, np.nextafter(float(lmax), 0.0) * u, scaled=True)
    at = _s_table(lmax, float(lmax) * u, scaled=True)
    amp = np.hypot(np.abs(at[0]), np.abs(at[1]))
    return max(float(np.max(np.abs(b - a) / amp)) for b, a in zip(below, at))


@pytest.mark.parametrize("lmax", [1, 3, 8, 20, 60])
def test_the_miller_upward_seam_is_seamless_on_the_real_axis(lmax):
    # |z| = lmax starts the upward regime; one ulp below it Miller's
    # recurrence runs.  On the real axis, in both dtypes and on both sides
    # of 0, the tables part by at most 1.1e-14 of the amplitude
    for u in (1.0, -1.0, 1.0 + 0j, -1.0 + 0j):
        assert _seam_gap(lmax, u) <= 3e-14, u
    below = spherical_jn_table(lmax, np.nextafter(float(lmax), 0.0))
    at = spherical_jn_table(lmax, float(lmax))
    S, Sp = _s_table(lmax, float(lmax))
    assert np.max(np.abs(below - at) / (np.hypot(S, Sp) / lmax)) <= 3e-14


@pytest.mark.parametrize("lmax", [
    1, 3,
    *(pytest.param(l, marks=pytest.mark.xfail(
        strict=True, reason="off the real axis the upward j_l recurrence is not "
        "the stable direction: at |z| = lmax it loses up to 1e-13 (lmax 8), "
        "3e-9 (lmax 20) and every digit (lmax 60) of S_lmax"))
      for l in (8, 20, 60)),
])
def test_the_miller_upward_seam_off_the_real_axis(lmax):
    for angle in (0.1, 0.25, 0.5, 1.0, 0.5 * math.pi, math.pi - 0.25, -0.25):
        assert _seam_gap(lmax, cmath.exp(1j * angle)) <= 3e-14, angle


def test_domain_validation():
    with pytest.raises(ValueError, match="exceeds L_MAX"):
        spherical_jn_table(L_MAX + 1, 1.0)
    with pytest.raises(ValueError, match="exceeds supported range"):
        spherical_jn_table(0, 2.0 * Z_MAX)
    with pytest.raises(ValueError, match="irregular at 0"):
        riccati_s_rows(0, 0, 0.0)
    with pytest.raises(ValueError, match="irregular at 0"):
        riccati_table(2, 0.0)


def test_the_order_cap_is_one_fixed_constant():
    assert specfun.L_MAX == bessel.L_MAX == 60
    assert np.all(np.isfinite(riccati_table(60, 70.0)[0]))
    assert np.isfinite(spherical_jn_table(60, 70.0)[60])
    for reject in (lambda: riccati_table(61, 70.0),
                   lambda: spherical_jn_table(61, 70.0),
                   lambda: riccati_s_rows(61, 61, 70.0)):
        with pytest.raises(ValueError, match="order l=61 exceeds L_MAX=60"):
            reject()


def test_the_order_cap_is_read_where_it_is_set():
    # the package re-export and the CLI's range check read the constant that
    # _check_order_array reads, not copies of it; the scalar and array paths
    # reject the first order past it with the same message
    from schifferlab import cli
    assert specfun.L_MAX == cli.L_MAX == bessel.L_MAX
    over = bessel.L_MAX + 1
    for z in (70.0, np.array([70.0, 3.0 + 1.0j])):
        with pytest.raises(ValueError, match=f"order l={over} exceeds L_MAX={bessel.L_MAX}"):
            riccati_table(over, z)
    assert np.all(np.isfinite(riccati_table(bessel.L_MAX, np.array([70.0, 3.0 + 1.0j]))[0]))


@pytest.mark.parametrize("z, parts", IMAG_AXIS_C_14_20)
def test_irregular_tables_near_the_imaginary_axis(z, parts):
    # y_l recurs upward, but near the imaginary axis it is not the dominant
    # solution there and the recurrence loses up to seven digits (errors of
    # 2e-9 to 4e-6 at these points).  The bound fences that documented
    # defect in; it is not a precision claim.
    want = np.array([complex(float(re), float(im)) for re, im in zip(parts[::2], parts[1::2])])
    _, C, _, _ = riccati_table(20, z)
    _, C_batch, _, _ = riccati_table(20, np.array([z, 2.0]))
    for got in (C[14:], C_batch[14:, 0]):
        assert np.max(np.abs(got - want) / np.abs(want)) <= 1e-5


# ------------------------------------------------------------ array argument


@st.composite
def _table_args(draw, max_lmax=20):
    """lmax, scaled, and z with a point in every regime, in every quadrant."""
    lmax = draw(st.integers(0, max_lmax))
    radii = [st.floats(1e-9, 1e-6, exclude_max=True)]  # series
    if lmax >= 1:
        radii.append(st.floats(1e-6, float(lmax), exclude_max=True))  # Miller
    radii.append(st.floats(max(float(lmax), 1e-6), lmax + 300.0))  # upward
    angle = st.one_of(st.sampled_from((0.0, 0.5 * math.pi, math.pi, -0.5 * math.pi)),
                      st.floats(-math.pi, math.pi))
    r = [draw(s) for s in radii] + draw(st.lists(st.one_of(radii), max_size=5))
    two_rows = draw(st.booleans())
    if two_rows and len(r) % 2:
        r.append(draw(st.one_of(radii)))
    z = np.array([x * complex(math.cos(t), math.sin(t))
                  for x, t in zip(r, draw(st.lists(angle, min_size=len(r),
                                                   max_size=len(r))))])
    return lmax, draw(st.booleans()), z.reshape(2, -1) if two_rows else z


@settings(max_examples=200, deadline=None, derandomize=True)
@given(args=_table_args())
def test_array_tables_match_pointwise_scalar_tables(args):
    lmax, scaled, z = args
    tables = riccati_table(lmax, z, scaled=scaled)
    for t in tables:
        assert t.shape == (lmax + 1,) + z.shape
    for idx in np.ndindex(z.shape):
        ref = riccati_table(lmax, complex(z[idx]), scaled=scaled)
        for got, want in zip(tables, ref):
            col = got[(slice(None),) + idx]
            assert np.max(np.abs(col - want)) <= 1e-11 * np.max(np.abs(want)), (z[idx], col, want)


def test_frozen_references_through_the_array_path():
    cases = REAL_CASES + COMPLEX_CASES
    z = np.array([c[1] for c in cases], dtype=complex)
    S, C, _, _ = riccati_table(max(c[0] for c in cases), z)
    for i, (l, zi, jz, yz) in enumerate(cases):
        assert_allclose(S[l, i], zi * jz, rtol=1e-12)
        assert_allclose(C[l, i], -zi * yz, rtol=1e-12)
    S, C, Sp, Cp = riccati_table(2, np.full((2, 2), 2.3))
    assert_allclose(S[2], 0.5462456731467104, rtol=1e-12)
    assert_allclose(C[2], 1.2610846980624133, rtol=1e-12)
    assert_allclose(Sp[2], 0.5154994412290849, rtol=1e-12)
    assert_allclose(Cp[2], -0.6405754040861715, rtol=1e-12)


def test_tables_share_one_scaled_trig_evaluation():
    # one scaled sin/cos pair per call seeds j_0, y_0 and gives the
    # order-0 derivative rows; at real z each point's table is its own, so
    # a batch equals its one-point calls bitwise in every regime
    real = np.concatenate([[3e-7, 0.5, 2.3, 7.9], np.linspace(0.01, 30.0, 41)])
    cplx = np.array([2.0 + 1.0j, 5.0 - 3.0j, 0.3 + 12.0j, -7.0 + 0.5j, 1e-7j])
    for z in (real, cplx):
        zs, zc = bessel.scaled_sin_cos(z)
        for lmax in (0, 3, 8):
            _, _, Sp, Cp = riccati_table(lmax, z, scaled=True)
            assert Sp[0].tobytes() == zc.tobytes()
            assert Cp[0].tobytes() == (-zs).tobytes()
    # the S-only tables keep that in both dtypes, up to lmax = 60, where C
    # would overflow at 3e-7
    for table, z, dtype, orders in ((riccati_table, real, np.complex128, (0, 3, 8)),
                                    (_s_table, real, np.float64, (0, 3, 8, 60)),
                                    (_s_table, real.astype(complex), np.complex128,
                                     (0, 3, 8, 60))):
        for lmax in orders:
            for scaled in (False, True):
                batch = table(lmax, z, scaled=scaled)
                assert batch[0].dtype == dtype
                for i, x in enumerate(z):
                    for got, want in zip(batch, table(lmax, x, scaled=scaled)):
                        assert got[:, i].tobytes() == want.tobytes()


@pytest.mark.parametrize("bad", [0.0, complex(math.nan, 1.0), math.inf, 2.0j * Z_MAX])
def test_array_validation_matches_the_scalar_path(bad):
    with pytest.raises(ValueError) as scalar:
        riccati_table(3, bad)
    for table in (riccati_table, _s_table):
        with pytest.raises(ValueError) as array:
            table(3, np.array([1.0, bad, 2.0 + 1.0j]))
        assert str(array.value) == str(scalar.value)
    if not isinstance(bad, complex):
        # the float64 path validates as the complex one does
        with pytest.raises(ValueError) as real:
            _s_table(3, np.array([1.0, bad]))
        assert str(real.value) == str(scalar.value)


def test_array_overflow_names_the_point():
    z = np.array([1.0, 1.0 + 800.0j])
    for table in (riccati_table, _s_table):
        with pytest.raises(OverflowError, match=r"overflows double range at z=\(1\+800j\)"):
            table(2, z)
    S, _, _, _ = riccati_table(2, z, scaled=True)
    assert np.all(np.isfinite(S))


# ----------------------------------------------------------- real-x j table


@st.composite
def _real_table_args(draw):
    """lmax <= 20 and x in (0, 60], with points on both sides of x = lmax."""
    lmax = draw(st.integers(0, 20))
    anywhere = st.floats(0.0, 60.0, exclude_min=True, allow_subnormal=False)
    below = st.floats(0.0, float(lmax), exclude_min=True, exclude_max=True,
                      allow_subnormal=False) if lmax else anywhere
    above = st.floats(max(float(lmax), 1e-300), 60.0)
    x = [draw(below), draw(above)] + draw(st.lists(st.one_of(anywhere, below, above),
                                                   max_size=8))
    return lmax, np.array(x)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(args=_real_table_args())
def test_real_table_matches_scipy(args):
    lmax, x = args
    got = spherical_jn_table(lmax, x)
    assert got.shape == (lmax + 1, x.size) and got.dtype == np.float64
    want = spherical_jn(np.arange(lmax + 1)[:, None], x)
    assert np.all(np.abs(got - want) <= 1e-14 * np.maximum(1.0, np.abs(want))), (x, got, want)


def test_real_table_columns_do_not_depend_on_the_batch():
    # series, Miller and upward points, and both sides of each cutoff
    x = np.concatenate([[0.0, 3e-7, np.nextafter(1e-6, 0.0), 1e-6, 0.5, 2.3,
                         np.nextafter(8.0, 0.0), 8.0, 1e3, -4.5],
                        np.linspace(0.01, 30.0, 41)])
    for lmax in (0, 1, 3, 8, 20):
        batch = spherical_jn_table(lmax, x.reshape(3, 17))
        assert batch.shape == (lmax + 1, 3, 17)
        for i, xi in enumerate(x):
            alone = spherical_jn_table(lmax, xi)
            assert alone.shape == (lmax + 1,)
            assert batch.reshape(lmax + 1, -1)[:, i].tobytes() == alone.tobytes()
            assert spherical_jn_table(lmax, x[i:i + 1])[:, 0].tobytes() == alone.tobytes()


def test_real_table_agrees_with_the_complex_kernel_and_validates():
    x = np.array([0.0, 1e-7, 0.7, 5.5, 13.0, 200.0])
    j = spherical_jn_table(12, x)
    assert j[0, 0] == 1.0 and np.all(j[1:, 0] == 0.0)
    for l in (0, 5, 12):
        for xi, got in zip(x[1:], j[l, 1:]):
            assert_allclose(got, _j(l, complex(xi)).real, rtol=1e-13, atol=1e-300)
    with pytest.raises(ValueError, match=f"order l=61 exceeds L_MAX={L_MAX}"):
        spherical_jn_table(61, x)
    for bad in (math.nan, math.inf, 2.0 * Z_MAX):
        with pytest.raises(ValueError) as scalar:
            spherical_jn_table(3, bad)
        with pytest.raises(ValueError) as array:
            spherical_jn_table(3, np.array([1.0, bad]))
        assert str(array.value) == str(scalar.value)


# ------------------------------------------------------------ S-only tables


@st.composite
def _pair_args(draw):
    """_table_args up to lmax = L_MAX + 1, now and then a 0-d z, on the
    real axis (float64 or complex) or off it, now and then with one point
    whose exp(|Im z|) overflows or one invalid point, and the degrees to
    read: an int, one per point, or a column."""
    lmax, scaled, z = draw(_table_args(L_MAX + 1))
    if draw(st.integers(0, 9)) == 0:
        z = z.reshape(-1)[draw(st.integers(0, z.size - 1))].reshape(())
    axis = draw(st.sampled_from((None, float, complex)))
    if axis is not None:
        z = z.real.astype(axis)
    elif draw(st.integers(0, 4)) == 0:
        z.flat[draw(st.integers(0, z.size - 1))] = complex(
            draw(st.floats(-5.0, 5.0)), draw(st.sampled_from((-750.0, 750.0))))
    if draw(st.integers(0, 9)) == 0:
        z.flat[draw(st.integers(0, z.size - 1))] = draw(
            st.sampled_from((0.0, math.nan, math.inf, 2.0 * Z_MAX)))
    top = min(lmax, L_MAX)
    form = draw(st.sampled_from(("int", "points", "column")))
    if form == "int":
        l = draw(st.integers(0, top))
    elif form == "points":
        l = np.array(draw(st.lists(st.integers(0, top), min_size=z.size,
                                   max_size=z.size))).reshape(z.shape)
    else:
        l = np.array(draw(st.lists(st.integers(0, top), min_size=1, max_size=4)))
        l = l.reshape((-1,) + (1,) * z.ndim)
    return lmax, scaled, z, l


def _rows_of(table, l):
    """Entries l of a (lmax + 1,) + z.shape table, with l broadcast against
    z's shape as riccati_s_rows broadcasts it."""
    shape = np.broadcast_shapes(np.shape(l), table.shape[1:])
    points = np.arange(table[0].size).reshape(table.shape[1:])
    flat = table.reshape(table.shape[0], -1)
    return flat[np.broadcast_to(l, shape), np.broadcast_to(points, shape)]


def _float64_pair(lmax, x):
    """S and S' at real x from spherical_jn_table, by riccati_table's
    arithmetic in float64: S_l = x j_l, S_l' = S_{l-1} - (l/x) S_l, S_0' = cos x."""
    S = x * spherical_jn_table(lmax, x)
    Sp = np.empty_like(S)
    Sp[0] = np.cos(x)
    Sp[1:] = S[:-1] - np.arange(1, lmax + 1).reshape((-1,) + (1,) * x.ndim) / x * S[1:]
    return S, Sp


def _overflowing_pair(lmax, z, l):
    """riccati_s_rows(lmax, l, z) where riccati_table(lmax, z) overflows:
    the pair, or the OverflowError to expect.

    C_l overflows at tiny |z| long before S_l does, so the S rows are the
    scaled rows times exp(|Im z|), and they raise only where those are
    not finite, naming the first such point of z as riccati_table names
    its own.
    """
    S, _, Sp, _ = riccati_table(lmax, z, scaled=True)
    with np.errstate(over="ignore", invalid="ignore"):
        f = np.exp(np.abs(z.imag))
        pair = tuple(_rows_of(t * f, l) for t in (S, Sp))
    finite = np.isfinite(pair[0]) & np.isfinite(pair[1])
    if finite.all():
        return pair
    points = np.broadcast_to(np.arange(z.size).reshape(z.shape), finite.shape)
    first = complex(z.flat[points[~finite].min()])
    return OverflowError(f"Riccati table overflows double range at z={first!r}")


@settings(max_examples=400, deadline=None, derandomize=True)
@given(args=_pair_args())
def test_the_complex_pair_is_bitwise_the_full_tables(args):
    # riccati_s_rows at every degree, and at every form of degree, against
    # the S and S' of riccati_table (at float64 points, against the
    # float64 pair of spherical_jn_table), with the same errors
    lmax, scaled, z, l = args
    degrees = np.arange(min(lmax, L_MAX) + 1).reshape((-1,) + (1,) * z.ndim)
    readers = ((riccati_s_rows, (degrees,), degrees), (riccati_s_rows, (l,), l))
    try:
        S, _, Sp, _ = riccati_table(lmax, z, scaled=scaled)
    except ValueError as exc:
        for reader, extra, _ in readers:
            with pytest.raises(ValueError, match=f"^{re.escape(str(exc))}$"):
                reader(lmax, *extra, z, scaled=scaled)
        return
    except OverflowError:
        S = Sp = None
    for reader, extra, rows in readers:
        if z.dtype == np.float64:
            want = tuple(_rows_of(t, rows) for t in _float64_pair(lmax, z))
        elif S is None:
            want = _overflowing_pair(lmax, z, rows)
        else:
            want = _rows_of(S, rows), _rows_of(Sp, rows)
        if isinstance(want, OverflowError):
            with pytest.raises(OverflowError, match=f"^{re.escape(str(want))}$"):
                reader(lmax, *extra, z, scaled=scaled)
            continue
        got = reader(lmax, *extra, z, scaled=scaled)
        assert [t.dtype for t in got] == [z.dtype] * 2
        assert [t.tobytes() for t in got] == [t.tobytes() for t in want]


def test_row_reader_validates_its_degrees():
    z = np.array([0.5, 3.0 + 1.0j])
    for bad, named in ((-1, -1), (4, 4), (np.array([0, 4]), 4), (np.array([[-1], [2]]), -1)):
        with pytest.raises(ValueError, match=rf"^degree {named} outside \[0, lmax=3\]$"):
            riccati_s_rows(3, bad, z)
    with pytest.raises(ValueError, match="^degrees must be integers, got an array of float64$"):
        riccati_s_rows(3, np.array([0.0, 1.0]), z)
    assert riccati_s_rows(3, np.zeros((0, 1), dtype=int), z)[0].shape == (0, 2)
    # lmax and z are checked first, with riccati_table's messages
    with pytest.raises(ValueError, match="order l=61 exceeds L_MAX=60"):
        riccati_s_rows(61, 99, z)
    with pytest.raises(ValueError, match="outside the domain"):
        riccati_s_rows(3, 99, np.array([0.0, 1.0]))


@st.composite
def _real_s_args(draw):
    """lmax <= 60 and real x from the series range to 1e4, around x = lmax too."""
    lmax = draw(st.integers(0, L_MAX))
    x = st.one_of(st.floats(1e-8, 1e-6), st.floats(1e-6, 3.0 * lmax + 5.0),
                  st.floats(0.5 * lmax + 1e-3, 1.5 * lmax + 1.0), st.floats(1.0, Z_MAX))
    return lmax, np.array(draw(st.lists(x, min_size=1, max_size=12)))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(args=_real_s_args())
def test_the_float64_pair_matches_the_complex_tables(args):
    # complex division rounds (2l+1)/z as (2l+1)*(1/z), so the two dtypes
    # part by a rounding per recurrence step: the bound is 4 ulp of the
    # amplitude hypot(S_l, S_l') per order in the table.  Subnormal entries
    # carry fewer bits than that, so points that reach them are skipped.
    lmax, x = args
    S, Sp = _s_table(lmax, x)
    assert S.dtype == Sp.dtype == np.float64 and S.shape == (lmax + 1, x.size)
    Sc, _, Spc, _ = riccati_table(lmax, x, scaled=True)
    assert not (np.any(Sc.imag) or np.any(Spc.imag))
    Sc, Spc = Sc.real, Spc.real
    tiny = np.finfo(float).tiny
    normal = np.all(((np.abs(Sc) >= tiny) | (Sc == 0)) & (np.abs(Spc) >= tiny), axis=0)
    bound = 4 * (lmax + 1) * np.spacing(np.hypot(Sc, Spc))
    for got, want in ((S, Sc), (Sp, Spc)):
        assert np.all((np.abs(got - want) <= bound)[:, normal]), (x, got - want, bound)


# ------------------------------------------------------------ Miller regime


def _miller_references():
    with open(DATA / "miller_jn.json", encoding="utf-8") as fh:
        ref = json.load(fh)
    real = [(c["lmax"], c["x"], np.array(c["j"])) for c in ref["real"]]
    cplx = [(c["lmax"], complex(*c["z"]), np.array([complex(*v) for v in c["j"]]))
            for c in ref["complex"]]
    return real, cplx


def _assert_close_or_underflowed(got, want, rtol):
    # entries whose true value is below the normal range must come out
    # below it too; every other entry to rtol
    tiny = np.finfo(float).tiny
    normal = np.abs(want) >= tiny
    assert np.all(np.abs(got - want)[normal] <= rtol * np.abs(want[normal])), (got, want)
    assert np.all(np.abs(got[~normal]) < tiny)


def test_miller_regime_frozen_references():
    # points just below lmax, at and near the series cutoff 1e-6, and complex
    # points near the imaginary axis; worst errors 6.5e-14 (real, at
    # j_30(36.6), 70 times below the table's largest entry) and 1.8e-15
    # (complex)
    real, cplx = _miller_references()
    assert {c[0] for c in real} == {c[0] for c in cplx} == {3, 8, 20, 60}
    for lmax, x, want in real:
        _assert_close_or_underflowed(spherical_jn_table(lmax, x), want, 2e-13)
    for lmax, z, want in cplx:
        _assert_close_or_underflowed(_s_table(lmax, z)[0], z * want, 1e-14)


def test_scaled_trig_keeps_its_digits_near_the_real_axis():
    # sin z and cos z times exp(-|Im z|) against mpmath at 40 digits, each
    # real and imaginary part to 1e-15 relative: taken from
    # exp(+-iz - |Im z|), the imaginary part of sin z cancelled down to a
    # relative error of about 1e-16 / |Im z|.  A Python complex gives the
    # bits of the same point in an array
    mpmath.mp.dps = 40
    x = (0.0, 0.3, 1.0, 2.5, 7.0, 13.0, 31.4, 40.0, -3.0, -40.0)
    y = [s * 10.0 ** e for e in range(-12, -1) for s in (1.0, -1.0)]
    z = np.array([complex(a, b) for a in x for b in y])
    zs, zc = bessel.scaled_sin_cos(z)
    for zi, si, ci in zip(z, zs, zc):
        scale = mpmath.exp(-abs(mpmath.mpf(zi.imag)))
        for got, want in ((si, mpmath.sin(mpmath.mpc(zi)) * scale),
                          (ci, mpmath.cos(mpmath.mpc(zi)) * scale)):
            for part, exact in ((got.real, want.real), (got.imag, want.imag)):
                assert abs(part - exact) <= 1e-15 * abs(exact), (zi, part, exact)
        one = bessel.scaled_sin_cos(complex(zi))
        assert [np.complex128(v).tobytes() for v in one] == [si.tobytes(), ci.tobytes()]


def test_tables_near_the_origin_keep_their_digits_off_the_axes():
    # at 1.2e-6 e^{1.5i} (Miller regime) every S_l was off by 1.7e-12
    # relative, from the imaginary part of sin z that normalises the table
    mpmath.mp.dps = 40
    z = 1.2e-6 * cmath.exp(1.5j)
    zm = mpmath.mpc(z)
    for lmax in (8, 20, 60):
        S = _s_table(lmax, z)[0]
        for l in range(9):
            want = zm * mpmath.sqrt(mpmath.pi / (2 * zm)) * mpmath.besselj(l + 0.5, zm)
            assert abs(S[l] - want) <= 1e-15 * abs(want), (lmax, l)


def test_complex_miller_batches_equal_their_one_point_calls():
    # lmax = 0 (no Miller regime; points up to 10) last: its one-point
    # tables once missed the fused multiply-add that NumPy gives the batch
    _, cplx = _miller_references()
    rng = np.random.default_rng(7)
    for lmax in (3, 8, 20, 60, 0):
        frozen = [z for l, z, _ in cplx if l == lmax]
        r = rng.uniform(1e-6, lmax or 10.0, 24)
        z = np.concatenate([frozen, r * np.exp(1j * rng.uniform(-math.pi, math.pi, 24))])
        for table in (_s_table, riccati_table):
            batch = table(lmax, z, scaled=True)
            for i, zi in enumerate(z):
                for got, want in zip(batch, table(lmax, zi, scaled=True)):
                    assert got[:, i].tobytes() == want.tobytes()


def test_the_miller_rescale_schedule_never_overflows():
    # |z| = 1e-6 is the fastest growth in the regime: about 2.4e8 per step
    # from order 120 down at lmax 60.  No step may overflow, in either dtype
    for lmax in range(1, L_MAX + 1):
        for z in (np.array([1e-6]), 1e-6 * np.exp(1j * np.array([0.3, 1.5, -2.0]))):
            zs, zc = (np.sin(z), np.cos(z)) if z.dtype == float else bessel.scaled_sin_cos(z)
            with np.errstate(over="raise", invalid="raise"):
                j = bessel._miller_downward(lmax, z, *bessel._seeds(z, zs, zc))
            assert np.all(np.isfinite(j))
            assert_allclose(j[0], zs / z, rtol=1e-15)


def test_skipped_rescale_tests_leave_every_table_bitwise(monkeypatch):
    # where N log10((2N+1)/min|z| + 1) < 190 no value can pass 1e200, so the
    # rescale tests are skipped; running them anyway changes no bit, in
    # either dtype, whether or not the bound skips them
    rng = np.random.default_rng(8)
    cases = []
    for lmax in (1, 3, 20, 60):
        r = rng.uniform(0.3, lmax, 12)
        if lmax >= 20:
            r = np.append(r, [1e-6, 1e-3])  # points that keep the tests
        cases += [(lmax, r), (lmax, r * np.exp(1j * rng.uniform(-math.pi, math.pi, r.size)))]
    skipped = []
    for lmax, z in cases:
        n = lmax + math.isqrt(40 * (lmax + 1) - 1) + 11
        skipped.append(n * math.log10((2 * n + 1) / np.abs(z).min() + 1.0) < 190.0)
    assert any(skipped) and not all(skipped)
    seeds = [bessel._seeds(z, *((np.sin(z), np.cos(z)) if z.dtype == float
                                 else bessel.scaled_sin_cos(z))) for _, z in cases]
    fast = [bessel._miller_downward(lmax, z, *s) for (lmax, z), s in zip(cases, seeds)]
    always = types.SimpleNamespace(isqrt=math.isqrt, log10=lambda v: math.inf)
    monkeypatch.setattr(bessel, "math", always)
    for (lmax, z), s, got in zip(cases, seeds, fast):
        assert got.tobytes() == bessel._miller_downward(lmax, z, *s).tobytes()
