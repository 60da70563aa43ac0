"""Sector zero counts, zero density, and the Lindelof indicator."""

import functools
import math
import re

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from schifferlab.eigsearch import (
    _rect_path,
    count_zeros_argument_principle,
    dispersion,
    dispersion_function,
    dispersion_log_abs,
    find_real_eigenvalues,
)
from schifferlab import entire
from schifferlab.entire import indicator, zero_count_sector


# contour evaluators return the pair (f, f')
def sin_pair(z):
    return np.sin(z), np.cos(z)


def exp_pair(z):
    return np.exp(z), np.exp(z)


def test_sine_sector_count():
    sc = zero_count_sector(sin_pair, -0.1, 0.1, 10.0)
    assert sc.count == 3
    assert (sc.alpha, sc.beta, sc.r) == (-0.1, 0.1, 10.0)


def test_dispersion_sector_count():
    f = dispersion_function(0, 1.0)
    assert zero_count_sector(f, -0.2, 0.2, 12.0).count == 3


def test_zero_free_function_counts_zero():
    assert zero_count_sector(exp_pair, -0.5, 0.5, 20.0).count == 0


def test_sub_sector_count_is_monotone():
    inner = zero_count_sector(sin_pair, -0.1, 0.1, 20.0).count
    outer = zero_count_sector(sin_pair, -0.5, 0.5, 20.0).count
    assert inner <= outer


def test_count_tracks_radius_over_pi():
    sc = zero_count_sector(sin_pair, -0.3, 0.3, 100.0)
    assert abs(sc.count - 100.0 / math.pi) <= 2.0


def _densities(f, alpha, beta, radii=(25.0, 50.0, 100.0)):
    """Sector counts N(f, alpha, beta, r) over growing radii, and N/r."""
    counts = [zero_count_sector(f, alpha, beta, r).count for r in radii]
    return counts, [c / r for c, r in zip(counts, radii)]


def test_density_reference_values():
    # the zero density is N/r at the largest radius
    assert_allclose(_densities(sin_pair, -0.1, 0.1)[1][-1], 1 / math.pi, rtol=0.05)
    f = dispersion_function(0, 2.0)
    assert_allclose(_densities(f, -0.2, 0.2)[1][-1], 2 / math.pi, rtol=0.05)
    two_sines = lambda z: (np.sin(z) * np.sin(2.0 * z),
                           np.cos(z) * np.sin(2.0 * z) + 2.0 * np.sin(z) * np.cos(2.0 * z))
    assert_allclose(_densities(two_sines, -0.1, 0.1)[1][-1], 3 / math.pi, rtol=0.05)


def test_density_table_fields():
    counts, ratios = _densities(sin_pair, -0.1, 0.1)
    assert counts == [7, 15, 31]
    assert ratios[-1] == 31 / 100.0


def test_contour_zero_triggers_the_angle_nudge():
    # place a zero exactly on a ray node so the collapse detector fires
    nodes = np.linspace(0.25, 10.0, 4096)
    z0 = complex(nodes[2000])
    sc = zero_count_sector(lambda z: (z - z0, np.ones_like(z)), 0.0, 0.5, 10.0,
                           quad_nodes=4096)
    assert sc.count == 1
    assert sc.alpha == pytest.approx(-1e-3)
    assert sc.beta == pytest.approx(0.5 - 1e-3)


class CallCounter:
    def __init__(self, f):
        self.f = f
        self.calls = 0
        self.sizes = []

    def __call__(self, z):
        self.calls += 1
        self.sizes.append(z.size)
        return self.f(z)


def test_one_contour_costs_one_evaluator_call():
    f = CallCounter(sin_pair)
    assert zero_count_sector(f, -0.1, 0.1, 10.0).count == 3
    assert f.calls == 1
    f = CallCounter(sin_pair)
    assert count_zeros_argument_principle(f, (0.5, 10.0, -1.0, 1.0)) == 3
    assert f.calls == 1
    f = CallCounter(dispersion_function(2, 1.0))
    assert count_zeros_argument_principle(f, (0.5, 12.0, -2.0, 2.0)) == 3
    assert f.calls == 1


@st.composite
def _clear_contours(draw):
    """dispersion_function(l, R) with a rectangle or a sector whose edges
    pass a quarter root spacing from every real root (and from the zero at
    the origin), and the roots inside it."""
    l = draw(st.integers(0, 5))
    R = draw(st.floats(0.5, 2.0))
    roots = [rec.k for rec in find_real_eigenvalues(l, R, 40.0)]
    quarter = 0.25 * math.pi / R

    def clear(k):
        return all(abs(k - root) >= quarter for root in [0.0] + roots)

    if draw(st.booleans()):
        a = draw(st.floats(0.25, 10.0))
        b = a + draw(st.floats(2.0, 25.0))
        h = draw(st.floats(0.5, 3.0))
        assume(clear(a) and clear(b))
        rect = (a, b, -h, h)
        return (l, R, lambda f, n: count_zeros_argument_principle(f, rect, quad_nodes=n),
                lambda n: _rect_path(rect, n), sum(a < k < b for k in roots))
    # a ray at angle t passes root k at distance k sin t
    t_min = math.asin(quarter / roots[0])
    alpha = -draw(st.floats(t_min, t_min + 0.3))
    beta = draw(st.floats(t_min, t_min + 0.3))
    r = draw(st.floats(1.0, 20.0))
    assume(clear(r))
    return (l, R, lambda f, n: zero_count_sector(f, alpha, beta, r, quad_nodes=n).count,
            lambda n: entire._sector_contour(alpha, beta, r, n), sum(k < r for k in roots))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(case=_clear_contours())
def test_a_clean_quarter_resolution_pass_gives_todays_count(case):
    # on contours clear of the zeros, the quarter-resolution pass is clean
    # and its count is the winding at quad_nodes, in one evaluator call
    l, R, count, contour, inside = case
    f = CallCounter(dispersion_function(l, R))
    todays = round(entire._winding(f.f, contour(1024))[0])
    assert count(f, 1024) == todays == inside
    assert f.sizes == [contour(256).size]


@pytest.mark.parametrize("z0", [0.5 + 0.0015j, 0.3 + 0.0024j, 0.0015 + 0.0015j])
def test_a_zero_near_the_coarse_rectangle_drops_into_the_ladder(z0):
    # z0 sits 0.4 or 0.6 of the coarse node spacing (1/255) above the
    # bottom edge, or 0.4 of it from both edges at a corner
    rect = (0.0, 1.0, 0.0, 1.0)
    f = CallCounter(lambda z: (z - z0, np.ones_like(z)))
    assert count_zeros_argument_principle(f, rect) == 1
    assert f.sizes == [_rect_path(rect, 256).size, _rect_path(rect, 1024).size]


@pytest.mark.parametrize("r, want", [(3 * math.pi + 0.005, 3), (3 * math.pi - 0.01, 2),
                                     (3 * math.pi - 0.02, 2)])
def test_a_zero_near_the_coarse_outer_arc_drops_into_the_ladder(r, want):
    # the zero of sin at 3 pi sits 0.14 to 0.55 of the coarse ray spacing
    # from the outer arc; the ladder at 1024 nodes counts it right
    f = CallCounter(sin_pair)
    sc = zero_count_sector(f, -0.5, 0.5, r)
    assert (sc.alpha, sc.beta, sc.count) == (-0.5, 0.5, want)
    assert f.calls >= 2
    assert f.sizes[0] == entire._sector_contour(-0.5, 0.5, r, 256).size


@pytest.mark.parametrize("n", [16, 64, 128, 255])
def test_node_counts_below_256_run_one_pass_at_quad_nodes(n):
    # quad_nodes // 4 < 64: no quarter-resolution pass, so the one call is
    # on contour(quad_nodes) and the count is its winding, as before
    g = dispersion_function(0, 1.0)
    rect = (1.0, 6.0, -1.0, 1.0)
    f = CallCounter(g)
    assert count_zeros_argument_principle(f, rect, quad_nodes=n) == 1
    assert f.sizes == [_rect_path(rect, n).size]
    f = CallCounter(g)
    assert zero_count_sector(f, -0.1, 0.1, 6.0, quad_nodes=n).count == 1
    assert f.sizes == [entire._sector_contour(-0.1, 0.1, 6.0, n).size]
    # at 256 the quarter pass runs at 64 nodes per side
    f = CallCounter(g)
    assert count_zeros_argument_principle(f, rect, quad_nodes=256) == 1
    assert f.sizes == [_rect_path(rect, 64).size]


def _shifted_maxima(a, half):
    """The rolling maximum as 2 half shifted np.maximum calls."""
    out = a.copy()
    for s in range(1, half + 1):
        out[s:] = np.maximum(out[s:], a[:-s])
        out[:-s] = np.maximum(out[:-s], a[s:])
    return out


def test_rolling_max_equals_the_shifted_maxima():
    # random signed values over the double range, with NaNs (which spread
    # over their windows), and arrays shorter than the window of 2 half + 1
    rng = np.random.default_rng(11)
    for half in (1, 3, 8):
        for n in list(range(1, 2 * half + 3)) + [100, 4093]:
            a = rng.standard_normal(n) * 10.0 ** rng.uniform(-300, 300, n)
            holed = a.copy()
            holed[rng.integers(0, n, 1 + n // 50)] = np.nan
            for arr in (a, holed, np.full(n, np.nan)):
                got = entire._rolling_max(arr, half)
                assert got.shape == arr.shape and got.dtype == np.float64
                np.testing.assert_array_equal(got, _shifted_maxima(arr, half))


def test_value_only_evaluator_is_rejected():
    # the evaluator contract before the pair: f(path) alone
    with pytest.raises(ValueError, match=r"the pair \(f, f'\)"):
        zero_count_sector(np.sin, -0.1, 0.1, 10.0)
    with pytest.raises(ValueError, match=r"the pair \(f, f'\)"):
        count_zeros_argument_principle(lambda z: (np.sin(z),), (0.5, 10.0, -1.0, 1.0))
    with pytest.raises(ValueError, match=r"the pair \(f, f'\)"):
        count_zeros_argument_principle(lambda z: (np.sin(z), 1.0), (0.5, 10.0, -1.0, 1.0))


def test_scalar_only_evaluator_is_rejected():
    with pytest.raises(ValueError, match="elementwise on a complex ndarray"):
        zero_count_sector(lambda z: 1.0, -0.1, 0.1, 10.0)
    with pytest.raises(ValueError, match="elementwise on a complex ndarray"):
        count_zeros_argument_principle(lambda z: 1.0, (0.5, 10.0, -1.0, 1.0))


def test_unresolvable_edge_zero_raises():
    # zeros of sin sit on the ray arg = 0 between nodes: half windings
    with pytest.raises(RuntimeError, match="sector quadrature failed"):
        zero_count_sector(sin_pair, 0.0, 0.1, 10.0)


def test_zero_on_the_outer_arc_raises():
    with pytest.raises(RuntimeError, match="sector quadrature failed"):
        zero_count_sector(sin_pair, -0.5, 0.5, 3 * math.pi)


def test_sector_validation():
    with pytest.raises(ValueError, match="alpha < beta"):
        zero_count_sector(sin_pair, 0.5, 0.5, 10.0)
    with pytest.raises(ValueError, match="inner cutoff"):
        zero_count_sector(sin_pair, -0.1, 0.1, 0.2)


@pytest.mark.parametrize("r, nodes", [(1e13, "1.3038e+15"), (1e6, "1.30388e+08"),
                                      (33000.0, "4.31125e+06")])
def test_sector_radius_past_the_node_cap_is_rejected_before_allocating(r, nodes):
    # the refined path (4 * quad_nodes) is sized from the radius: r = 1e13
    # asked numpy for 2.32 PiB, and r = 33000 sits just past the 2^22 cap
    def never(z):
        raise AssertionError("the evaluator ran")

    want = (rf"^sector radius r={re.escape(repr(r))} needs {re.escape(nodes)} nodes on the "
            rf"refined contour \(4 \* quad_nodes = 4096\), more than 4194304$")
    with pytest.raises(ValueError, match=want):
        zero_count_sector(never, -0.1, 0.1, r)


@pytest.mark.parametrize("quad_nodes", [1, 0, -4, 2.5, np.float64(64.0), None])
def test_contours_reject_node_counts_that_do_not_close_the_path(quad_nodes):
    # one node per side makes the rectangle path a single point (it would
    # count 0 of the 4 zeros of sin), and a sector without ray nodes is an
    # open path (1 of 3)
    want = f"^quad_nodes must be an integer >= 2, got {re.escape(repr(quad_nodes))}$"
    with pytest.raises(ValueError, match=want):
        count_zeros_argument_principle(sin_pair, (-1.0, 10.0, -1.0, 1.0),
                                       quad_nodes=quad_nodes)
    with pytest.raises(ValueError, match=want):
        zero_count_sector(sin_pair, -0.1, 0.1, 10.0, quad_nodes=quad_nodes)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_contours_reject_non_finite_geometry(bad):
    # a ValueError that names the geometry, not a failed node count
    for rect in ((bad, 10.0, -1.0, 1.0), (-1.0, bad, -1.0, 1.0),
                 (-1.0, 10.0, bad, 1.0), (-1.0, 10.0, -1.0, bad)):
        with pytest.raises(ValueError, match=r"^rectangle corners must be finite, got \("):
            count_zeros_argument_principle(sin_pair, rect)
    for args in ((bad, 0.1, 10.0), (-0.1, bad, 10.0), (-0.1, 0.1, bad)):
        with pytest.raises(ValueError, match="^sector angles and radius must be finite, got "):
            zero_count_sector(sin_pair, *args)


def test_counts_at_the_node_counts_that_close_the_path():
    # the checks above leave the counts at the default 1024 nodes and at
    # the 128 of a quick count as they were
    assert count_zeros_argument_principle(sin_pair, (-1.0, 10.0, -1.0, 1.0)) == 4
    assert zero_count_sector(sin_pair, -0.1, 0.1, 10.0).count == 3
    f = dispersion_function(0, 1.0)
    for n in (128, 1024):
        assert count_zeros_argument_principle(f, (1.0, 6.0, -1.0, 1.0), quad_nodes=n) == 1
        assert zero_count_sector(f, -0.1, 0.1, 6.0, quad_nodes=n).count == 1


def test_sine_indicator_is_one():
    s = indicator(np.sin, math.pi / 2, (10.0, 20.0, 50.0))
    assert len(s.h_estimates) == 3
    assert_allclose(s.h_extrapolated, 1.0, rtol=0.02)


def test_indicator_ray_symmetry():
    up = indicator(np.sin, math.pi / 2, (10.0, 20.0, 50.0))
    down = indicator(np.sin, -math.pi / 2, (10.0, 20.0, 50.0))
    assert_allclose(up.h_extrapolated, down.h_extrapolated, rtol=1e-9)


def test_dispersion_indicator_matches_the_type():
    f = functools.partial(dispersion, 0, 1.0)
    s = indicator(f, math.pi / 2, (12.5, 25.0, 50.0, 100.0))
    assert_allclose(s.h_extrapolated, 1.0, rtol=0.03)


def test_partial_interval_trace_has_reduced_type():
    # cos(d k) - sin(d k)/k grows like e^{d |Im k|}; here d = 0.5
    f = lambda z: np.cos(0.5 * z) - np.sin(0.5 * z) / z
    s = indicator(f, math.pi / 2, (25.0, 50.0, 100.0))
    assert_allclose(s.h_extrapolated, 0.5, rtol=0.03)


def test_raw_overflow_is_reported_with_a_remedy():
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(OverflowError, match="supply log_abs"):
            indicator(np.sin, math.pi / 2, (200.0, 400.0, 800.0))


def test_log_magnitude_evaluator_path():
    s = indicator(np.sin, math.pi / 2, (200.0, 400.0, 800.0),
                  log_abs=lambda z: float(abs(z.imag)))
    assert_allclose(s.h_extrapolated, 1.0, rtol=1e-9)
    big = indicator(functools.partial(dispersion, 0, 1.0), math.pi / 2,
                    (400.0, 800.0, 1600.0),
                    log_abs=lambda z: dispersion_log_abs(0, 1.0, z))
    assert_allclose(big.h_extrapolated, 1.0, rtol=1e-3)


def test_indicator_validation():
    with pytest.raises(ValueError, match="at least 3"):
        indicator(np.sin, 1.0, (10.0, 20.0))
    with pytest.raises(ValueError, match="at least 3"):
        indicator(np.sin, 1.0, (30.0, 20.0, 10.0))
