"""Dispersion-function zeros, realness, and the eigenvalue density law."""

import math
import re
import tracemalloc
import warnings

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
    partial_trace_log_abs,
    real_eigenvalue_spectra,
)
from schifferlab.errors import NumericalError, UnderflowError
from schifferlab.scatter import axis_directions, per_ray_eigen_scan, unit_ball

# roots of tan x = x, mpmath findroot dps=30
TAN_ROOTS = (4.4934094579090642, 7.7252518369377072, 10.904121659428899,
             14.066193912831473)


def scan_nodes(x_max, step):
    """The scan's own lattice: step, 2 step, ... through the first node past
    x_max, as np.arange builds it, with a node past Z_MAX held at Z_MAX."""
    return np.minimum(np.arange(step, x_max + 1.5 * step, step), eigsearch.Z_MAX)


def _second_derivative(l, x, S, Sp):
    """f''(x) = S_l''' - S_l''/x + 2 S_l'/x^2 - 2 S_l/x^3 for f = S_l' - S_l/x.

    S_l'' = (l(l+1)/x^2 - 1) S_l and S_l''' = -2 l(l+1) S_l/x^3
    + (l(l+1)/x^2 - 1) S_l': the formula whose terms _dispersion_rows shares.
    """
    ll = l * (l + 1)
    q = ll / (x * x) - 1.0
    S2 = q * S
    S3 = q * Sp - 2.0 * ll * S / (x * x * x)
    return S3 - S2 / x + 2.0 * (Sp - S / x) / (x * x)


@pytest.mark.parametrize("lmax, shape", [(3, "column"), (3, "per point"), (20, "column"),
                                         (60, "per point"), (0, "column")])
def test_dispersion_rows_are_bitwise_the_separate_formulas(lmax, shape):
    # f, f' and f'' share x^2, q and q S_l, and drop the exact products by
    # R_hat = 1; each stays bitwise the formula it replaces
    rng = np.random.default_rng(lmax)
    x = np.concatenate([rng.uniform(0.05, 80.0, 40), [1e-3, 0.5, 3.0, 59.9, 60.0, 1e4]])
    l = (np.arange(lmax + 1)[:, None] if shape == "column"
         else rng.integers(0, lmax + 1, x.size))
    S, Sp = eigsearch.riccati_s_rows(lmax, l, x)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        f, df, d2f = eigsearch._dispersion_rows(lmax, l, x)
        want = (eigsearch._coefficient(1.0, x, S, Sp),
                eigsearch._coefficient_derivative(l, 1.0, x, S, Sp),
                _second_derivative(l, x, S, Sp))
    for got, ref in zip((f, df, d2f), want):
        assert got.tobytes() == ref.tobytes()


@pytest.mark.parametrize("bad", [True, False, 1.5, 2.0, "2"])
def test_scan_degrees_must_be_integers(bad):
    # True ran as degree 1 or l_max 1, 1.5 raised a bare TypeError, and
    # find_real_eigenvalues(True, ...) named "an array of bool"
    want = re.escape(repr(bad))
    with pytest.raises(ValueError, match=f"^l must be an integer, got {want}$"):
        find_real_eigenvalues(bad, 1.0, 10.0)
    with pytest.raises(ValueError, match=f"^l_max must be an integer, got {want}$"):
        real_eigenvalue_spectra([1.0], bad, 10.0)
    assert find_real_eigenvalues(np.int64(1), 1.0, 10.0) == find_real_eigenvalues(1, 1.0, 10.0)


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


@pytest.mark.parametrize("bad", [-1.0, 0.0, math.nan, math.inf])
def test_every_dispersion_entry_rejects_a_bad_radius(bad):
    # all three entries check R_hat first, with one message: a bad radius
    # is never evaluated, nor blamed on the argument z = k R_hat
    want = f"^R_hat must be positive and finite, got {bad}$"
    for call in (lambda: dispersion(3, bad, 2.0 + 1.0j),
                 lambda: dispersion(3, bad, np.array([2.0 + 1.0j, 0.0])),
                 lambda: dispersion_function(3, bad)(np.array([2.0 + 1.0j])),
                 lambda: dispersion_log_abs(3, bad, 2.0 + 1.0j)):
        with pytest.raises(ValueError, match=want):
            call()


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


def x_preimages(k: float, R: float) -> list[float]:
    """The doubles x within 3 ulp of k R with x / R == k: the scan points
    a root k can come from."""
    x = k * R
    for _ in range(3):
        x = np.nextafter(x, -np.inf)
    near = [x]
    for _ in range(6):
        near.append(np.nextafter(near[-1], np.inf))
    return [float(v) for v in near if v / R == k]


@settings(max_examples=40, deadline=None, derandomize=True)
@given(R=st.floats(0.3, 3.0), K=st.floats(1.0, 40.0), l=st.integers(0, 8))
def test_roots_are_the_zeros_of_the_bessel_derivative(R, K, l):
    # B(k) = R x j_l'(x) at x = k R; the scan starts at k = pi/(4 R).  The
    # batch's table runs Miller's recurrence below x = 8, so the low
    # degrees' first roots come from the Miller regime.  Each residual is
    # |x j_l'(x)| = |B|/R at the root's own x, from a table of the same orders
    batch = real_eigenvalue_spectra([R], 8, K)[0]
    for lmax, degree, recs in [(l, l, find_real_eigenvalues(l, R, K))] + [
            (8, degree, recs) for degree, recs in batch.items()]:
        assert_scipy_spectrum(degree, R, math.pi / 4, K, recs)
        for r in recs:
            assert r.l == degree and r.bracket[0] < r.k < r.bracket[1]
            f = [abs(eigsearch._dispersion_rows(lmax, degree, np.array([x]))[0][0])
                 for x in x_preimages(r.k, R)]
            assert r.residual in f and r.residual <= 1e-9


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


@pytest.mark.parametrize("R, K", [(1e10, 1e-9), (1e5, 1.6e-3)])
def test_huge_radii_give_the_unit_radius_roots_over_the_radius(R, K):
    # the scan, its Halley steps and tol all work in x = k R on the
    # dimensionless x j_l'(x); with an absolute step tolerance in k and tol
    # on |B| = R |x j_l'(x)| both of these scans raised RuntimeError
    got = [r.k * R for r in find_real_eigenvalues(0, R, K)]
    want = [r.k for r in find_real_eigenvalues(0, 1.0, K * R)]
    assert len(got) == len(want) >= 2
    assert_allclose(got[:2], [4.493409457909064, 7.725251836937707], rtol=1e-15, atol=0)
    assert_allclose(got, want, rtol=1e-15, atol=0)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(log_R=st.floats(-8.0, 10.0), X=st.floats(1.0, 400.0), l=st.integers(0, 8))
def test_roots_times_the_radius_are_the_unit_radius_roots(log_R, X, l):
    # log-uniform R over 18 decades, k_max R = X well inside Z_MAX
    R = 10.0 ** log_R
    got = [r.k * R for r in find_real_eigenvalues(l, R, X / R)]
    want = [r.k for r in find_real_eigenvalues(l, 1.0, X)]
    assert len(got) == len(want)
    assert_allclose(got, want, rtol=1e-15, atol=0)


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
    # f(x) = (x - 2)^power puts a root exactly on the scan node x = 2; at
    # R_hat = 1 the bracket in x is the bracket in k
    def rows(lmax, l, x):
        def tile(v):
            return np.broadcast_to(v, np.broadcast_shapes(np.shape(l), x.shape))

        return (tile((x - 2.0) ** power), tile(power * (x - 2.0) ** (power - 1)),
                tile(power * (power - 1) * (x - 2.0) ** max(power - 2, 0)))

    # the memo holds no roots of the real f, and keeps none of the patched one
    eigsearch._lattice_roots.cache_clear()
    monkeypatch.setattr(eigsearch, "_dispersion_rows", rows)
    try:
        recs = find_real_eigenvalues(0, 1.0, 3.0, scan_step=0.5)
    finally:
        eigsearch._lattice_roots.cache_clear()
    assert [(r.k, r.bracket) for r in recs] == want
    assert recs[0].residual == 0.0


def test_masked_brackets_match_the_per_radius_loop():
    # one scan of x = k R on the step pi/4 gives each radius and degree its
    # brackets, divided by R, in k order; the last may straddle K R and is
    # dropped where its root lies past K
    radii = [0.7, 1.0, 1.9, 1.0]
    l_max, K = 4, 20.0
    x = scan_nodes(K * max(radii), math.pi / 4)
    f = eigsearch._dispersion_rows(l_max, np.arange(l_max + 1)[:, None], x)[0]
    for R, eigen in zip(radii, real_eigenvalue_spectra(radii, l_max, K)):
        for l in range(l_max + 1):
            v = f[l]
            want = [(x[i] / R, x[i + 1] / R)
                    for i in np.flatnonzero((v[:-1] * v[1:] < 0) | (v[:-1] == 0))
                    if x[i] < K * R]
            got = [r.bracket for r in eigen[l]]
            assert got == want or (got == want[:-1] and want[-1][1] > K), (R, l)
            assert all(r.k <= K for r in eigen[l])


def test_underflow_is_a_numerical_failure_not_a_root():
    # S_60 and S_60' underflow to exactly 0 at k = 1e-5, where B = 0 would
    # pass for a root with residual 0
    assert issubclass(UnderflowError, ValueError)
    with pytest.raises(UnderflowError, match=r"^S_60 and S_60' underflow to 0 at k=1e-05$"):
        find_real_eigenvalues(60, 1.0, 0.01, scan_step=1e-5)
    # the scan runs in x = k R_hat, and the message still names k
    with pytest.raises(UnderflowError, match=r"^S_60 and S_60' underflow to 0 at k=5e-06$"):
        find_real_eigenvalues(60, 2.0, 0.005, scan_step=5e-6)
    with pytest.raises(UnderflowError, match=r"at k=1e-05$"):
        dispersion(60, 1.0, np.array([1.0, 1e-5]))
    with pytest.raises(UnderflowError, match=r"at k=\(1e-05\+0j\)$"):
        dispersion_function(60, 1.0)(np.array([1e-5 + 0j]))
    # where S_60 is subnormal but not 0, B keeps the sign of its k^60 leading term
    k = np.geomspace(3e-4, 1e-2, 50)
    assert np.all(eigsearch._dispersion_rows(60, 60, k)[0] > 0)


def test_a_node_whose_nudged_neighbour_also_reads_zero_is_a_numerical_failure():
    # below x = k R of about 1e-8, B_0 = R cos(kR) - sin(kR)/k cancels to
    # exactly 0 at every node; those zeros are rounding, not nine roots
    k = np.array([1e-9, 0.75e-9])
    assert np.all(eigsearch._dispersion_rows(0, 0, k)[0] == 0.0)
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
    # on a cold memo: one scan call, whose B' and B'' give every bracket its
    # quintic Hermite start, then two Halley calls, the residuals coming
    # from the last; on a warm memo the roots are reused, with no call
    calls = []
    regular_rows = eigsearch._regular_rows

    def counted(lmax, l, k, z):
        calls.append(np.size(z))
        return regular_rows(lmax, l, k, z)

    eigsearch._lattice_roots.cache_clear()
    monkeypatch.setattr(eigsearch, "_regular_rows", counted)
    try:
        cold = per_ray_eigen_scan(unit_ball(), axis_directions(), 3, 12.0)
        assert len(calls) == 3
        warm = per_ray_eigen_scan(unit_ball(), axis_directions(), 3, 12.0)
        assert len(calls) == 3
    finally:
        eigsearch._lattice_roots.cache_clear()
    assert cold.intersection_size > 0
    assert warm == cold


def _outcome(call):
    """(repr of the records or of the error's type and message, warnings) of a call."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            out = call()
        except Exception as err:
            out = (type(err).__name__, str(err))
    return repr(out), [(w.category.__name__, str(w.message)) for w in caught]


@settings(max_examples=25, deadline=None, derandomize=True)
@given(radii=st.lists(st.floats(0.2, 3.0), min_size=1, max_size=4), l_max=st.integers(0, 8),
       k_max=st.floats(0.5, 40.0), frac=st.floats(0.05, 1.0), grow=st.floats(1.0, 3.0),
       tol=st.sampled_from([1e-9, 0.5, 1e-300]))
def test_a_memo_hit_is_bitwise_a_miss(radii, l_max, k_max, frac, grow, tol):
    # each call on an empty memo, then all of them in turn, where a call may
    # reuse the lattice of one before it (the same block of 64 nodes) or
    # extend past it, then all again on the memo they left: records (floats
    # by repr, which round-trips), warnings and errors are the same bits
    R = radii[0]
    step = frac * math.pi / (4 * R)
    calls = [lambda kk=kk, fn=fn: fn(kk) for kk in (k_max, grow * k_max, 1.01 * k_max)
             for fn in (lambda kk: real_eigenvalue_spectra(radii, l_max, kk, tol=tol),
                        lambda kk: find_real_eigenvalues(l_max, R, kk, scan_step=step, tol=tol),
                        lambda kk: find_real_eigenvalues(l_max, R, kk, tol=tol))]
    cold = []
    for call in calls:
        eigsearch._lattice_roots.cache_clear()
        cold.append(_outcome(call))
    eigsearch._lattice_roots.cache_clear()
    assert [_outcome(call) for call in calls] == cold
    assert [_outcome(call) for call in reversed(calls)] == cold[::-1]


def test_the_root_memo_is_read_only_and_bounded():
    # a call that raises stores nothing
    with pytest.raises(UnderflowError):
        find_real_eigenvalues(60, 1.0, 0.01, scan_step=1e-5)
    assert eigsearch._lattice_roots.cache_info().currsize == 0
    for l in range(2 * eigsearch._LATTICE_MEMO):
        find_real_eigenvalues(l, 1.0, 12.0)
    info = eigsearch._lattice_roots.cache_info()
    assert info.maxsize == eigsearch._LATTICE_MEMO == 4
    assert info.currsize == eigsearch._LATTICE_MEMO
    # the ball's six rays at K = 12: one lattice of 64 nodes, then a hit
    per_ray_eigen_scan(unit_ball(), axis_directions(), 3, 12.0)
    entry = eigsearch._lattice_roots(3, (0, 1, 2, 3), math.pi / 4, 64)
    assert eigsearch._lattice_roots.cache_info().hits == info.hits + 1
    for a in entry:
        assert not a.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            a[...] = 0


@pytest.mark.parametrize("x_max, step, nodes", [
    (12.0, math.pi / 4, 64),  # 17 nodes, up to a block of 64
    (64 * math.pi / 4 - 0.6 * math.pi / 4, math.pi / 4, 64),
    (64 * math.pi / 4, math.pi / 4, 128),
    (1e4, math.pi / 4, 12733),  # node 12,732 is the first past Z_MAX
    (1e4 - 0.3, 0.5, 20000),  # node 19,999 is Z_MAX exactly
])
def test_the_memo_lattice_is_a_block_of_64_nodes_within_z_max(x_max, step, nodes):
    assert eigsearch._lattice_length(x_max, step) == nodes
    assert nodes >= scan_nodes(x_max, step).size
    last = step + (nodes - 1) * step
    assert last >= x_max + 0.5 * step
    assert nodes % 64 == 0 or (last >= eigsearch.Z_MAX > step + (nodes - 2) * step)


@settings(max_examples=20, deadline=None, derandomize=True)
@given(R=st.floats(0.3, 3.0), l=st.integers(0, 8), K=st.floats(10.0, 40.0),
       pick=st.integers(0, 10**6), extra=st.integers(0, 3))
def test_a_node_rounded_onto_a_root_still_gives_the_scipy_spectrum(R, l, K, pick, extra):
    # choose the scan step so that a node of the x lattice (step scan_step R)
    # lands within rounding of a root, and let the kernel read f = 0 there:
    # the bracket is nudged open a quarter step to the left and refined
    # like any other
    roots = scipy_djl_zeros(l, math.pi / 4, K * R)
    assume(roots)
    x_star = roots[pick % len(roots)]
    m = math.ceil(x_star / (math.pi / 4)) + extra
    step = x_star / R / m
    x_step = step * R
    node = scan_nodes(K * R, x_step)[m - 1]
    assert abs(node - x_star) <= 4 * np.spacing(x_star)
    dispersion_rows = eigsearch._dispersion_rows

    def rounded(lmax, degrees, x):
        out = dispersion_rows(lmax, degrees, x)
        out[0][np.broadcast_to((degrees == l) & (x == node), out[0].shape)] = 0.0
        return out

    # hypothesis runs every example in one test call, so the memo is
    # cleared around each patched scan here
    eigsearch._lattice_roots.cache_clear()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(eigsearch, "_dispersion_rows", rounded)
        try:
            recs = find_real_eigenvalues(l, R, K, scan_step=step)
        finally:
            eigsearch._lattice_roots.cache_clear()
    assert_scipy_spectrum(l, R, x_step, K, recs)
    assert any(r.bracket[0] == (node - 0.25 * x_step) / R for r in recs)


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


def test_log_magnitudes_of_a_batch_are_bitwise_its_points():
    # a scalar k runs as a one-point array, so a batch point is its call
    k = np.array([[0.7, 5.3 + 2.0j, -3.1 - 0.4j], [12.0, 0.2j, 40.0 - 900.0j]])
    for log_abs in [lambda k: dispersion_log_abs(l, 1.3, k) for l in (0, 3, 5)] + [
            lambda k: partial_trace_log_abs(1.3, 0.4, k)]:
        got = log_abs(k)
        assert got.shape == k.shape and got.dtype == float
        one = [log_abs(complex(x)) for x in k.ravel()]
        assert all(type(x) is float for x in one)
        assert got.ravel().tolist() == one
        assert log_abs(k[0, :1]).tolist() == one[:1]


def test_partial_trace_at_xi_zero_is_the_dispersion():
    k = np.array([0.7, 5.3 + 2.0j, -3.1 - 0.4j, 12.0, 0.2j, 40.0 - 3.0j, 900.0j])
    for R in (0.5, 1.0, 2.5):
        trace = partial_trace_log_abs(R, 0.0, k)
        assert_allclose(trace, dispersion_log_abs(0, R, k), rtol=1e-14, atol=1e-14)
    # e^{d |Im k|} growth, kept additive: d = 0.75 at k = 900i
    big = partial_trace_log_abs(1.0, 0.25, 900.0j)
    assert np.isfinite(big)
    assert_allclose(big / 900.0, 0.75, rtol=0.01)
    # log|cos(k d) - sin(k d)/k| at R = 1, for a few real and complex k
    for z in (3.0 + 1.0j, 0.9 - 2.2j, 4.0):
        assert_allclose(partial_trace_log_abs(1.0, 0.5, z),
                        math.log(abs(np.cos(0.5 * z) - np.sin(0.5 * z) / z)), rtol=1e-12)


@pytest.mark.parametrize("R, xi, message", [
    (1.0, -0.1, "xi must lie in [0, R_hat), got xi=-0.1, R_hat=1.0"),
    (1.0, 1.0, "xi must lie in [0, R_hat), got xi=1.0, R_hat=1.0"),
    (1.0, math.nan, "xi must lie in [0, R_hat), got xi=nan, R_hat=1.0"),
    (0.0, 0.0, "R_hat must be positive and finite, got 0.0"),
])
def test_partial_trace_rejects_a_point_off_the_interval(R, xi, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        partial_trace_log_abs(R, xi, 2.0 + 1.0j)
    with pytest.raises(ValueError, match="away from k = 0"):
        partial_trace_log_abs(1.0, 0.5, np.array([1.0, 0.0]))
