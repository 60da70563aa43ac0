"""Spherical Bessel and Riccati-Bessel evaluator checks.

Frozen reference values come from mpmath at 40 digits through
j_l(z) = sqrt(pi/(2z)) J_{l+1/2}(z) and y_l(z) = sqrt(pi/(2z)) Y_{l+1/2}(z).
"""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import schifferlab.specfun as specfun
from schifferlab.specfun import bessel
from schifferlab.specfun import (
    L_MAX_DEFAULT,
    L_MAX_SUPPORTED,
    Z_MAX,
    riccati_table,
    set_l_max,
    spherical_bessel_j,
    spherical_bessel_y,
    spherical_jy_table,
)

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
    assert_allclose(spherical_bessel_j(l, x), jx, rtol=1e-12)
    assert_allclose(spherical_bessel_y(l, x), yx, rtol=1e-12)


@pytest.mark.parametrize("l, z, jz, yz", COMPLEX_CASES)
def test_complex_argument_reference_values(l, z, jz, yz):
    assert_allclose(spherical_bessel_j(l, z), jz, rtol=1e-12)
    assert_allclose(spherical_bessel_y(l, z), yz, rtol=1e-12)


def test_real_arguments_return_exactly_real_values():
    for l, x, _, _ in REAL_CASES:
        assert spherical_bessel_j(l, x).imag == 0.0
        assert spherical_bessel_y(l, x).imag == 0.0


def test_small_and_zero_arguments():
    assert spherical_bessel_j(0, 0.0) == 1.0
    assert spherical_bessel_j(2, 0.0) == 0.0
    assert abs(spherical_bessel_j(0, math.pi)) < 1e-12
    assert_allclose(spherical_bessel_j(0, 1e-3), 1.0, atol=1e-6)
    assert abs(spherical_bessel_y(0, math.pi / 2)) < 1e-12
    assert_allclose(spherical_bessel_y(0, 1.0), -math.cos(1.0), rtol=1e-14)


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


@pytest.mark.parametrize("fn", [spherical_bessel_j, spherical_bessel_y])
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
    j, y = spherical_jy_table(5, z)
    js, ys = spherical_jy_table(5, z, scaled=True)
    factor = math.exp(abs(z.imag))
    assert_allclose(js * factor, j, rtol=1e-13)
    assert_allclose(ys * factor, y, rtol=1e-13)
    z = 1.0 + 30.0j
    js, _ = spherical_jy_table(3, z, scaled=True)
    assert_allclose(js[3] * math.exp(30.0), spherical_bessel_j(3, z), rtol=1e-13)


def test_strong_imaginary_argument_needs_scaling():
    with pytest.raises(OverflowError):
        spherical_jy_table(2, 1.0 + 800.0j)
    js, ys = spherical_jy_table(2, 1.0 + 800.0j, scaled=True)
    assert np.all(np.isfinite(js))
    assert np.all(np.isfinite(ys))


def test_overflow_past_the_exponent_range_names_the_point():
    # exp(800) itself overflows, before any table is multiplied
    named = r"overflows double range at z=\(1\+800j\)"
    with pytest.raises(OverflowError, match=named):
        riccati_table(2, 1.0 + 800.0j)
    with pytest.raises(OverflowError, match=named):
        spherical_jy_table(2, 1.0 + 800.0j)
    with pytest.raises(OverflowError, match=named):
        spherical_bessel_j(2, 1.0 + 800.0j)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_real_argument_overflow_is_named():
    # y_60(1e-4) ~ 119!! / 1e-244 overflows, so C and C' do too; the named
    # error comes with no numpy warning before it
    named = r"overflows double range at z=\(0\.0001\+0j\)"
    with pytest.raises(OverflowError, match=named):
        riccati_table(60, 1e-4)
    with pytest.raises(OverflowError, match=named):
        riccati_table(60, np.array([1.0, 1e-4]))
    with pytest.raises(OverflowError, match=named):
        spherical_jy_table(60, 1e-4)
    with pytest.raises(OverflowError, match=named):
        spherical_bessel_y(60, 1e-4)
    # at real z the scaled tables are the same numbers, left unchecked
    _, C, _, _ = riccati_table(60, 1e-4, scaled=True)
    assert not np.all(np.isfinite(C))


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


def test_domain_validation():
    with pytest.raises(ValueError, match="exceeds L_MAX"):
        spherical_bessel_j(L_MAX_DEFAULT + 1, 1.0)
    with pytest.raises(ValueError, match="exceeds supported range"):
        spherical_bessel_j(0, 2.0 * Z_MAX)
    with pytest.raises(ValueError, match="irregular at 0"):
        spherical_bessel_y(0, 0.0)
    with pytest.raises(ValueError, match="irregular at 0"):
        riccati_table(2, 0.0)


def test_degree_cap_is_adjustable():
    with pytest.raises(ValueError, match="exceeds L_MAX"):
        spherical_bessel_j(80, 5.0)
    set_l_max(80)
    try:
        assert np.isfinite(spherical_bessel_j(80, 5.0))
    finally:
        set_l_max(L_MAX_DEFAULT)
    for bad in (0, L_MAX_SUPPORTED + 1):
        with pytest.raises(ValueError, match="outside supported range"):
            set_l_max(bad)


def test_the_order_cap_is_read_where_it_is_set():
    # a copy re-exported at import kept reading 60 after set_l_max(100)
    assert not hasattr(specfun, "L_MAX")
    set_l_max(100)
    try:
        assert bessel.L_MAX == 100
        assert np.all(np.isfinite(riccati_table(61, 70.0)[0]))
        with pytest.raises(ValueError, match="exceeds L_MAX=100"):
            riccati_table(101, 70.0)
    finally:
        set_l_max(L_MAX_DEFAULT)
    with pytest.raises(ValueError, match=f"exceeds L_MAX={L_MAX_DEFAULT}"):
        riccati_table(61, 70.0)


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
def _table_args(draw):
    """lmax, scaled, and z with a point in every regime, in every quadrant."""
    lmax = draw(st.integers(0, 20))
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
    # one exp(+-iz - |Im z|) pair per call seeds j_0, y_0 and gives the
    # order-0 derivative rows; at real z each point's table is its own, so
    # a batch equals its one-point calls bitwise in every regime
    real = np.concatenate([[3e-7, 0.5, 2.3, 7.9], np.linspace(0.01, 30.0, 41)])
    cplx = np.array([2.0 + 1.0j, 5.0 - 3.0j, 0.3 + 12.0j, -7.0 + 0.5j, 1e-7j])
    for z in (real, cplx):
        zs, zc = bessel._scaled_trig(z, np.exp)
        for lmax in (0, 3, 8):
            _, _, Sp, Cp = riccati_table(lmax, z, scaled=True)
            assert Sp[0].tobytes() == zc.tobytes()
            assert Cp[0].tobytes() == (-zs).tobytes()
    for lmax in (0, 3, 8):
        for scaled in (False, True):
            batch = riccati_table(lmax, real, scaled=scaled)
            for i, x in enumerate(real):
                for got, want in zip(batch, riccati_table(lmax, x, scaled=scaled)):
                    assert got[:, i].tobytes() == want.tobytes()


@pytest.mark.parametrize("bad", [0.0, complex(math.nan, 1.0), math.inf, 2.0j * Z_MAX])
def test_array_validation_matches_the_scalar_path(bad):
    with pytest.raises(ValueError) as scalar:
        riccati_table(3, bad)
    with pytest.raises(ValueError) as array:
        riccati_table(3, np.array([1.0, bad, 2.0 + 1.0j]))
    assert str(array.value) == str(scalar.value)


def test_array_overflow_names_the_point():
    z = np.array([1.0, 1.0 + 800.0j])
    with pytest.raises(OverflowError, match=r"overflows double range at z=\(1\+800j\)"):
        riccati_table(2, z)
    S, _, _, _ = riccati_table(2, z, scaled=True)
    assert np.all(np.isfinite(S))
