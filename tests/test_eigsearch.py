"""Dispersion-function zeros, realness, and the eigenvalue density law."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy.special import spherical_jn

from schifferlab import eigsearch
from schifferlab.eigsearch import (
    count_zeros_argument_principle,
    density_estimate,
    dispersion,
    dispersion_function,
    dispersion_log_abs,
    find_real_eigenvalues,
    real_eigenvalue_spectra,
)
from schifferlab.errors import UnderflowError

# roots of tan x = x, mpmath findroot dps=30
TAN_ROOTS = (4.4934094579090642, 7.7252518369377072, 10.904121659428899,
             14.066193912831473)


def test_degree_zero_closed_form():
    # B(k) = R cos(kR) - sin(kR)/k at R = 1
    for k in (0.7, 2.0, 5.3):
        assert_allclose(dispersion(0, 1.0, k), math.cos(k) - math.sin(k) / k,
                        rtol=1e-12)


def test_roots_of_tan_x_equals_x_are_zeros():
    for x in TAN_ROOTS:
        assert abs(dispersion(0, 1.0, x)) < 1e-10


def test_real_axis_values_are_exactly_real():
    for l in (0, 1, 4):
        assert dispersion(l, 1.5, 3.3).imag == 0.0


def test_dispersion_validation():
    with pytest.raises(ValueError):
        dispersion(0, 1.0, 0.0)
    with pytest.raises(ValueError, match="away from k = 0"):
        dispersion(0, 1.0, np.array([1.0, 0.0]))
    with pytest.raises(ValueError):
        dispersion(0, -1.0, 1.0)
    # the contour evaluator validates as dispersion does, when called
    with pytest.raises(ValueError, match="away from k = 0"):
        dispersion_function(0, 1.0)(np.array([1.0, 0.0]))
    with pytest.raises(ValueError, match="R_hat must be positive"):
        dispersion_function(0, -1.0)(np.array([1.0]))


def test_dispersion_on_an_array_matches_pointwise_calls():
    k = np.array([[0.7, 5.3 + 2.0j, -3.1 - 0.4j], [12.0, 0.2j, 40.0 - 3.0j]])
    for l in (0, 3, 5):
        got = dispersion(l, 1.3, k)
        assert got.shape == k.shape
        want = np.array([dispersion(l, 1.3, complex(x)) for x in k.ravel()])
        assert_allclose(got.ravel(), want, rtol=1e-13)


def test_parity_in_the_frequency():
    # B(-k) = +/- B(k) with the sign fixed by the degree
    for l in (0, 1, 2, 3):
        ratio = dispersion(l, 1.0, -2.7) / dispersion(l, 1.0, 2.7)
        assert min(abs(ratio - 1.0), abs(ratio + 1.0)) < 1e-10


def test_find_real_eigenvalues_reference_roots():
    recs = find_real_eigenvalues(0, 1.0, 12.0)
    assert [r.l for r in recs] == [0, 0, 0]
    assert_allclose([r.k for r in recs], TAN_ROOTS[:3], rtol=1e-10)
    for r in recs:
        assert abs(r.residual) < 1e-9
        lo, hi = r.bracket
        assert lo < r.k < hi


def djl_sign_changes(l: int, x_lo: float, x_hi: float) -> int:
    """Zeros of j_l' on (x_lo, x_hi] by scipy's sign changes on a 0.01 grid."""
    x = np.append(np.arange(x_lo, x_hi, 0.01), x_hi)
    v = spherical_jn(l, x, derivative=True)
    return int(np.count_nonzero(np.sign(v[:-1]) * np.sign(v[1:]) < 0))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(R=st.floats(0.3, 3.0), KR=st.floats(0.5, 40.0), l=st.integers(0, 6))
def test_roots_are_the_zeros_of_the_bessel_derivative(R, KR, l):
    # B(k) = R x j_l'(x) at x = k R; the scan starts at k = pi/(4 R)
    K = KR / R
    spectra = real_eigenvalue_spectra([R], 6, K)[0]
    for degree, recs in [(l, find_real_eigenvalues(l, R, K))] + list(spectra.items()):
        x = np.array([r.k * R for r in recs])
        assert len(recs) == djl_sign_changes(degree, math.pi / 4, K * R)
        assert np.all(np.abs(x * spherical_jn(degree, x, derivative=True)) <= 1e-8)
        for r in recs:
            assert r.l == degree and r.bracket[0] < r.k < r.bracket[1]


def _x_djl(l: int, x: float) -> float:
    """x j_l'(x) at the double x, by mpmath at 30 digits: -x j_1(x) for
    l = 0, else x j_{l-1}(x) - (l + 1) j_l(x)."""
    with mpmath.workdps(30):
        x = mpmath.mpf(x)

        def j(n):
            return mpmath.sqrt(mpmath.pi / (2 * x)) * mpmath.besselj(n + mpmath.mpf(1) / 2, x)

        return float(-x * j(1) if l == 0 else x * j(l - 1) - (l + 1) * j(l))


@settings(max_examples=30, deadline=None, derandomize=True)
@given(R=st.floats(0.3, 3.0), KR=st.floats(1.0, 40.0))
def test_roots_sit_at_rounding_level(R, KR):
    # the safeguarded Newton refinement runs each root down to rounding:
    # |x j_l'(x)| at x = k R is a few ulp of max(1, x): worst 2.5e-16 of it
    # over 2,496 roots on 32 radii with KR = 40
    for l, recs in real_eigenvalue_spectra([R], 6, KR / R)[0].items():
        for r in recs:
            x = r.k * R
            assert abs(_x_djl(l, x)) <= 1e-14 * max(1.0, x), (l, x)


def test_scaling_covariance():
    # zeros scale as k -> k / R
    half = find_real_eigenvalues(0, 2.0, 6.0)
    assert_allclose([r.k for r in half], [x / 2 for x in TAN_ROOTS[:3]], rtol=1e-10)
    one = find_real_eigenvalues(2, 1.0, 10.0)
    two = find_real_eigenvalues(2, 0.5, 20.0)
    assert len(one) == len(two) > 0
    assert_allclose([r.k * 0.5 for r in two], [r.k for r in one], rtol=1e-8)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(radii=st.lists(st.floats(0.25, 4.0), min_size=2, max_size=4),
       X=st.floats(1.0, 40.0), l_max=st.integers(0, 6))
def test_per_ray_spectrum_scales_with_the_radius(radii, X, l_max):
    # B_l(k) = R x j_l'(x) at x = k R and the scan starts at x = pi/4, so on
    # the x-window (pi/4, X] every radius finds the same roots x = k R
    scaled = []
    for R in radii:
        spectra = real_eigenvalue_spectra([R], l_max, X / R)[0]
        scaled.append({l: np.array([r.k * R for r in recs]) for l, recs in spectra.items()})
    for l in range(l_max + 1):
        assert len({x[l].size for x in scaled}) == 1, l
        for x in scaled[1:]:
            assert_allclose(x[l], scaled[0][l], rtol=1e-13, atol=0)


def test_empty_below_first_eigenvalue():
    assert find_real_eigenvalues(0, 1.0, 2.0) == []


def test_near_coincident_root_warning():
    # tol = 0.5 makes the pi-spaced roots look merged
    with pytest.warns(RuntimeWarning, match="near-coincident roots"):
        find_real_eigenvalues(0, 1.0, 12.0, tol=0.5)


@pytest.mark.parametrize("power, want", [
    (1, [(2.0, (1.875, 2.5))]),  # simple root: Newton in the nudged bracket
    (2, [(2.0, (1.875, 2.5))]),  # double root: the node itself, residual 0
])
def test_a_node_on_a_root_nudges_its_bracket_open(monkeypatch, power, want):
    # B(k) = (k - 2)^power puts a root exactly on the scan node k = 2
    def rows(lmax, R, k, derivative=False):
        B = np.tile((k - 2.0) ** power, (lmax + 1, 1))
        return (B, np.tile(power * (k - 2.0) ** (power - 1), (lmax + 1, 1))) if derivative else B

    monkeypatch.setattr(eigsearch, "_dispersion_rows", rows)
    recs = find_real_eigenvalues(0, 1.0, 3.0, scan_step=0.5)
    assert [(r.k, r.bracket) for r in recs] == want
    assert recs[0].residual == 0.0


def test_masked_brackets_match_the_per_radius_loop():
    # one pass over the batched table gives each radius and degree the
    # brackets of a scan of that radius alone, in k order
    radii = [0.7, 1.0, 1.9, 1.0]
    l_max, K = 4, 20.0
    for R, eigen in zip(radii, real_eigenvalue_spectra(radii, l_max, K)):
        k = eigsearch._scan_nodes(K, math.pi / (4 * R))
        B = eigsearch._dispersion_rows(l_max, np.full(k.size, R), k)
        for l in range(l_max + 1):
            v = B[l]
            want = [(k[i], k[i + 1])
                    for i in np.flatnonzero((v[:-1] * v[1:] < 0) | (v[:-1] == 0))]
            assert [r.bracket for r in eigen[l]] == want


def test_no_bracket_straddles_two_radii(monkeypatch):
    # B > 0 all along the first radius's scan and B < 0 along the second's
    def rows(lmax, R, k, derivative=False):
        return np.tile(np.where(R == 1.0, 1.0, -1.0), (lmax + 1, 1))

    monkeypatch.setattr(eigsearch, "_dispersion_rows", rows)
    assert real_eigenvalue_spectra([1.0, 2.0], 1, 3.0) == [{0: [], 1: []}, {0: [], 1: []}]


def test_underflow_is_a_numerical_failure_not_a_root():
    # S_60 and S_60' underflow to exactly 0 at k = 1e-5, where B = 0 would
    # pass for a root with residual 0
    assert issubclass(UnderflowError, ValueError)
    with pytest.raises(UnderflowError, match=r"^S_60 and S_60' underflow to 0 at k=1e-05$"):
        find_real_eigenvalues(60, 1.0, 0.01, scan_step=1e-5)
    with pytest.raises(UnderflowError, match=r"at k=1e-05$"):
        dispersion(60, 1.0, np.array([1.0, 1e-5]))
    with pytest.raises(UnderflowError, match=r"at k=\(1e-05\+0j\)$"):
        dispersion_function(60, 1.0)(np.array([1e-5 + 0j]))
    # where S_60 is subnormal but not 0, B keeps the sign of its k^60 leading term
    k = np.geomspace(3e-4, 1e-2, 50)
    assert np.all(eigsearch._dispersion_rows(60, np.ones_like(k), k)[60] > 0)


def test_scan_step_guard():
    with pytest.raises(ValueError, match=r"exceeds pi/\(4 R_hat\)"):
        find_real_eigenvalues(0, 1.0, 12.0, scan_step=1.0)


def test_radius_guard():
    # the radius is rejected before it reaches the pi/(4 R_hat) spacing
    for bad in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="R_hat must be positive and finite"):
            find_real_eigenvalues(0, bad, 12.0)


def test_argument_principle_counts():
    sin_pair = lambda z: (np.sin(z), np.cos(z))
    assert count_zeros_argument_principle(sin_pair, (0.5, 10.0, -1.0, 1.0)) == 3
    f = dispersion_function(0, 1.0)
    assert count_zeros_argument_principle(f, (0.5, 12.0, -2.0, 2.0)) == 3
    assert count_zeros_argument_principle(lambda z: (z * z + 1.0, 2.0 * z),
                                          (-2.0, 2.0, 0.0, 2.0)) == 1


def test_boundary_zero_is_detected():
    with pytest.raises(RuntimeError, match="argument-principle quadrature failed"):
        count_zeros_argument_principle(lambda z: (np.sin(z), np.cos(z)),
                                       (0.5, math.pi, -1.0, 1.0))


@pytest.mark.parametrize("l", [0, 1, 2, 3])
def test_all_zeros_in_the_strip_are_real(l):
    real_count = len(find_real_eigenvalues(l, 1.0, 50.0))
    boxed = count_zeros_argument_principle(
        dispersion_function(l, 1.0), (0.5, 50.0, -3.0, 3.0))
    assert boxed == real_count


def _clear_of_roots(k: float, roots: list[float], quarter: float) -> float:
    """k moved right until it is at least ``quarter`` from every root."""
    while any(abs(k - r) < quarter for r in roots):
        k += 0.2 * quarter
    return k


@settings(max_examples=30, deadline=None, derandomize=True)
@given(l=st.integers(0, 6), R=st.floats(0.5, 2.0), start=st.floats(0.3, 3.0),
       width=st.floats(1.0, 8.0), half=st.floats(0.5, 3.0))
def test_rectangle_count_equals_the_real_axis_count(l, R, start, width, half):
    # the contour runs in complex arithmetic and the scan in float64; start
    # and width are in units of the root spacing pi/R, and the zero at k = 0
    # counts as a root the edges keep clear of
    spacing = math.pi / R
    roots = [0.0] + [rec.k for rec in find_real_eigenvalues(l, R, (start + width + 3) * spacing)]
    lo = _clear_of_roots(start * spacing, roots, 0.25 * spacing)
    hi = _clear_of_roots(lo + width * spacing, roots, 0.25 * spacing)
    assert hi < roots[-1]
    real = [rec.k for rec in find_real_eigenvalues(l, R, hi) if rec.k > lo]
    assert real == [k for k in roots if lo < k <= hi]
    assert count_zeros_argument_principle(dispersion_function(l, R),
                                          (lo, hi, -half, half)) == len(real)


_K = st.complex_numbers(min_magnitude=0.5, max_magnitude=40.0, allow_nan=False,
                        allow_infinity=False).filter(lambda k: abs(k.imag) <= 10.0)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(l=st.integers(0, 8), R=st.floats(0.3, 3.0), ks=st.lists(_K, min_size=1, max_size=12))
def test_pair_value_is_bitwise_the_dispersion(l, R, ks):
    k = np.array(ks)
    B, dB = dispersion_function(l, R)(k)
    assert B.shape == dB.shape == k.shape
    assert B.tobytes() == dispersion(l, R, k).tobytes()
    B0, _ = dispersion_function(l, R)(ks[0])
    assert np.asarray(B0).tobytes() == np.asarray(dispersion(l, R, ks[0])).tobytes()


@settings(max_examples=80, deadline=None, derandomize=True)
@given(l=st.integers(0, 8), R=st.floats(0.3, 3.0), k=_K)
def test_pair_derivative_matches_closed_form_and_differences(l, R, k):
    _, dB = dispersion_function(l, R)(np.array([k]))
    dB = dB[0]
    if l == 0:
        # B = R cos(kR) - sin(kR)/k
        x = k * R
        terms = (-R * R * np.sin(x), -R * np.cos(x) / k, np.sin(x) / (k * k))
        assert abs(dB - sum(terms)) <= 1e-14 * sum(abs(t) for t in terms)
    else:
        # five-point difference; its relative truncation is about (h R)^4 / 30
        # where B oscillates and (h / |k|)^4 l^5 / 30 where B ~ k^l
        h = 2e-3 * min(1.0 / R, abs(k))
        f = dispersion(l, R, k + h * np.array([-2.0, -1.0, 1.0, 2.0]))
        fd = (f[0] - 8.0 * f[1] + 8.0 * f[2] - f[3]) / (12.0 * h)
        assert abs(dB - fd) <= 1e-8 * (R * np.max(np.abs(f)) + abs(dB))


def test_density_approaches_radius_over_pi():
    est = density_estimate(0, 1.0, 200.0)
    assert est.count == 63
    assert_allclose(est.density, 0.315, rtol=1e-12)
    assert est.relative_gap < 0.02
    est2 = density_estimate(0, 2.0, 100.0)
    assert_allclose(est2.target, 2 / math.pi, rtol=1e-14)
    assert est2.relative_gap < 0.02


def test_density_gap_shrinks_with_the_window():
    for K in (50.0, 100.0, 200.0):
        assert density_estimate(0, 1.0, K).relative_gap <= 3.0 / K


def test_high_degree_phase_shift_deficit():
    # the l pi/2 phase shift pushes the zeros outward, removing about l/2
    # of them from [0, K]; at K = 200 that is a 4 percent deficit
    est = density_estimate(5, 1.0, 200.0)
    assert est.count == 61
    assert 0.03 < est.relative_gap < 0.05


def test_density_window_guard():
    with pytest.raises(ValueError):
        density_estimate(0, 1.0, 20.0)


def test_log_magnitude_evaluator():
    for z in (3.0 + 1.0j, 0.9 - 2.2j):
        assert_allclose(dispersion_log_abs(1, 1.0, z), math.log(abs(dispersion(1, 1.0, z))),
                        rtol=1e-10)
    # survives arguments whose raw value overflows a double
    big = dispersion_log_abs(0, 1.0, 1.0 + 900.0j)
    assert np.isfinite(big)
    assert_allclose(big / 900.0, 1.0, rtol=0.01)
