"""Dispersion-function zeros, realness, and the eigenvalue density law."""

import math
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy.optimize import brentq
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
from schifferlab.errors import NumericalError, UnderflowError
from schifferlab.scatter import axis_directions, per_ray_eigen_scan, unit_ball

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


def scipy_djl_zeros(l: int, x_lo: float, x_hi: float) -> list[float]:
    """Zeros of j_l' on (x_lo, x_hi]: sign changes on a 0.01 grid, then brentq to rounding."""
    def djl(x):
        return float(spherical_jn(l, x, derivative=True))

    x = np.append(np.arange(x_lo, x_hi, 0.01), x_hi)
    v = spherical_jn(l, x, derivative=True)
    return [brentq(djl, x[i], x[i + 1], xtol=1e-300, rtol=4 * np.finfo(float).eps)
            for i in np.flatnonzero(v[:-1] * v[1:] < 0)]


def assert_scipy_spectrum(l, R, x_lo, K, recs):
    """recs are the zeros of B_l = R x j_l'(x) on the k window (x_lo/R, K], to rtol 1e-13."""
    want = scipy_djl_zeros(l, x_lo, K * R)
    # a zero within rounding of a window edge may fall on either side of it
    assume(all(min(abs(x - x_lo), abs(x - K * R)) > 1e-9 * x for x in want))
    assert len(recs) == len(want), (l, R, K)
    assert_allclose([r.k for r in recs], np.array(want) / R, rtol=1e-13, atol=0)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(R=st.floats(0.3, 3.0), K=st.floats(1.0, 40.0), l=st.integers(0, 8))
def test_roots_are_the_zeros_of_the_bessel_derivative(R, K, l):
    # B(k) = R x j_l'(x) at x = k R; the scan starts at k = pi/(4 R).  The
    # batch's table runs Miller's recurrence below x = 8, so the low
    # degrees' first roots come from the Miller regime.  Each residual is
    # |B| at the root, from a table of the same orders
    batch = real_eigenvalue_spectra([R], 8, K)[0]
    for lmax, degree, recs in [(l, l, find_real_eigenvalues(l, R, K))] + [
            (8, degree, recs) for degree, recs in batch.items()]:
        assert_scipy_spectrum(degree, R, math.pi / 4, K, recs)
        for r in recs:
            assert r.l == degree and r.bracket[0] < r.k < r.bracket[1]
            B = eigsearch._dispersion_rows(lmax, degree, np.array([R]), np.array([r.k]))[0]
            assert r.residual == abs(B) <= 1e-9


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
    def rows(lmax, l, R, k, derivatives=False):
        def tile(v):
            return np.broadcast_to(v, np.broadcast_shapes(np.shape(l), k.shape))

        B = tile((k - 2.0) ** power)
        if not derivatives:
            return B
        return (B, tile(power * (k - 2.0) ** (power - 1)),
                tile(power * (power - 1) * (k - 2.0) ** max(power - 2, 0)))

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
        B = eigsearch._dispersion_rows(l_max, np.arange(l_max + 1)[:, None],
                                       np.full(k.size, R), k)
        for l in range(l_max + 1):
            v = B[l]
            want = [(k[i], k[i + 1])
                    for i in np.flatnonzero((v[:-1] * v[1:] < 0) | (v[:-1] == 0))]
            assert [r.bracket for r in eigen[l]] == want


def test_no_bracket_straddles_two_radii(monkeypatch):
    # B > 0 all along the first radius's scan and B < 0 along the second's
    def rows(lmax, l, R, k, derivatives=False):
        B = np.where(R == 1.0, 1.0, -1.0) + np.zeros(np.shape(l))
        return (B, np.zeros_like(B), np.zeros_like(B)) if derivatives else B

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
    assert np.all(eigsearch._dispersion_rows(60, 60, np.ones_like(k), k) > 0)


def test_a_node_whose_nudged_neighbour_also_reads_zero_is_a_numerical_failure():
    # below x = k R of about 1e-8, B_0 = R cos(kR) - sin(kR)/k cancels to
    # exactly 0 at every node; those zeros are rounding, not nine roots
    k = np.array([1e-9, 0.75e-9])
    assert np.all(eigsearch._dispersion_rows(0, 0, np.ones(2), k) == 0.0)
    with pytest.raises(NumericalError, match=r"^B_0 reads exactly 0 at k=1e-09 and a "
                                             r"quarter step below, at k=7\.5"):
        find_real_eigenvalues(0, 1.0, 1e-8, scan_step=1e-9)


def test_a_degree_scan_forms_only_its_own_rows():
    # 32,768 nodes at l = 60: B, B' and B'' for the one degree asked for,
    # not for all 61 (161 MB by tracemalloc when every row was formed)
    tracemalloc.start()
    try:
        recs = find_real_eigenvalues(60, 1.0, 9000.0, scan_step=9000 / 32768)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(recs) > 2800
    assert peak < 100e6, f"peak {peak / 1e6:.1f} MB"


def test_scan_step_guard():
    with pytest.raises(ValueError, match=r"exceeds pi/\(4 R_hat\)"):
        find_real_eigenvalues(0, 1.0, 12.0, scan_step=1.0)


def test_radius_guard():
    # the radius is rejected before it reaches the pi/(4 R_hat) spacing
    for bad in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="R_hat must be positive and finite"):
            find_real_eigenvalues(0, bad, 12.0)


@pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf, -math.inf])
def test_scan_step_must_be_positive_and_finite(bad):
    # -1 scanned nothing and 0 divided by zero; both are rejected by name
    with pytest.raises(ValueError, match=f"^scan_step must be positive and finite, got {bad}$"):
        find_real_eigenvalues(0, 1.0, 12.0, scan_step=bad)


@pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf])
def test_tol_must_be_positive_and_finite(bad):
    # tol = 0 used to reject every root as a numerical failure
    want = f"^tol must be positive and finite, got {bad}$"
    with pytest.raises(ValueError, match=want):
        find_real_eigenvalues(0, 1.0, 12.0, tol=bad)
    with pytest.raises(ValueError, match=want):
        real_eigenvalue_spectra([1.0], 2, 12.0, tol=bad)


@pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf])
def test_k_max_must_be_positive_and_finite(bad):
    want = f"^k_max must be positive and finite, got {bad}$"
    with pytest.raises(ValueError, match=want):
        find_real_eigenvalues(0, 1.0, bad)
    with pytest.raises(ValueError, match=want):
        real_eigenvalue_spectra([1.0], 2, bad)


def test_scan_past_the_kernel_limit_is_rejected():
    # k_max R_hat = 1.2e4 > Z_MAX = 1e4, before any table is allocated
    want = r"^k_max \* R_hat = 12000 exceeds the kernel's limit Z_MAX = 1e\+04$"
    with pytest.raises(ValueError, match=want):
        find_real_eigenvalues(0, 2.0, 6000.0)
    with pytest.raises(ValueError, match=want):
        real_eigenvalue_spectra([1.0, 2.0], 1, 6000.0)
    with pytest.raises(ValueError, match="exceeds the kernel's limit"):
        density_estimate(0, 1.0, 2e4)


def test_scan_node_count_is_capped():
    # 1.2e5 nodes would hold tables of about a gigabyte at l = 60
    with pytest.raises(ValueError, match=r"^scan_step 0\.0001 needs 120000 scan nodes up to "
                                         r"k_max = 12\.0, more than 32768$"):
        find_real_eigenvalues(60, 1.0, 12.0, scan_step=1e-4)
    assert eigsearch._MAX_SCAN_NODES == 32768
    # the default step fits up to the kernel's limit: 12,733 nodes
    assert 4 * eigsearch.Z_MAX / math.pi < eigsearch._MAX_SCAN_NODES


@pytest.mark.parametrize("bad", [-1, 61, 10**6])
def test_spectra_degree_is_checked_before_the_degree_table(bad):
    # l_max = 10**9 used to build an 8 GB array of degrees
    with pytest.raises(ValueError, match=f"^l_max={bad} outside \\[0, L_MAX=60\\]$"):
        real_eigenvalue_spectra([1.0], bad, 12.0)


def test_ball_spectra_take_three_riccati_calls(monkeypatch):
    # one scan call, whose B' and B'' give every bracket its quintic
    # Hermite start, then two Halley calls; the residuals come from the last
    calls = []
    regular_rows = eigsearch._regular_rows

    def counted(l, k, z):
        calls.append(np.size(z))
        return regular_rows(l, k, z)

    monkeypatch.setattr(eigsearch, "_regular_rows", counted)
    result = per_ray_eigen_scan(unit_ball(), axis_directions(), 3, 12.0)
    assert len(calls) == 3
    assert result.intersection_size > 0


@settings(max_examples=20, deadline=None, derandomize=True)
@given(R=st.floats(0.3, 3.0), l=st.integers(0, 8), K=st.floats(10.0, 40.0),
       pick=st.integers(0, 10**6), extra=st.integers(0, 3))
def test_a_node_rounded_onto_a_root_still_gives_the_scipy_spectrum(R, l, K, pick, extra):
    # choose the scan step so that a node lands within rounding of a root,
    # and let the kernel read B = 0 there: the bracket is nudged open a
    # quarter step to the left and refined like any other
    roots = scipy_djl_zeros(l, math.pi / 4, K * R)
    assume(roots)
    k_star = roots[pick % len(roots)] / R
    m = math.ceil(k_star / (math.pi / (4 * R))) + extra
    step = k_star / m
    node = eigsearch._scan_nodes(K, step)[m - 1]
    assert abs(node - k_star) <= 4 * np.spacing(k_star)
    dispersion_rows = eigsearch._dispersion_rows

    def rounded(lmax, degrees, radii, k, derivatives=False):
        out = dispersion_rows(lmax, degrees, radii, k, derivatives)
        B = out[0] if derivatives else out
        B[np.broadcast_to((degrees == l) & (k == node), B.shape)] = 0.0
        return out

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(eigsearch, "_dispersion_rows", rounded)
        recs = find_real_eigenvalues(l, R, K, scan_step=step)
    assert_scipy_spectrum(l, R, step * R, K, recs)
    assert any(r.bracket[0] == node - 0.25 * step for r in recs)


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
    # the radius is checked before the window's 50/R_hat divides by it
    for bad in (0.0, -1.0, math.nan):
        with pytest.raises(ValueError, match="R_hat must be positive and finite"):
            density_estimate(0, bad, 100.0)


def test_log_magnitude_evaluator():
    for z in (3.0 + 1.0j, 0.9 - 2.2j):
        assert_allclose(dispersion_log_abs(1, 1.0, z), math.log(abs(dispersion(1, 1.0, z))),
                        rtol=1e-10)
    # survives arguments whose raw value overflows a double
    big = dispersion_log_abs(0, 1.0, 1.0 + 900.0j)
    assert np.isfinite(big)
    assert_allclose(big / 900.0, 1.0, rtol=0.01)
