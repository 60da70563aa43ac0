"""Sector zero counts, zero density, and the Lindelof indicator."""

import cmath
import functools
import inspect
import math
import re

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from schifferlab.eigsearch import (
    count_zeros_argument_principle,
    dispersion,
    dispersion_function,
    dispersion_log_abs,
    find_real_eigenvalues,
)
from schifferlab.entire import PanelPath, indicator, zero_count_sector
from schifferlab.errors import NumericalError


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
    # place a zero exactly on a node of the ray arg z = 0 (the centre node
    # of its 11th panel) so the boundary-zero rule fires
    z0 = PanelPath.sector(0.0, 0.5, 10.0, 1024).nodes()[10, 7]
    assert z0.imag == 0.0
    sc = zero_count_sector(lambda z: (z - z0, np.ones_like(z)), 0.0, 0.5, 10.0)
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
                lambda n: PanelPath.rectangle(rect, n), sum(a < k < b for k in roots))
    # a ray at angle t passes root k at distance k sin t
    t_min = math.asin(quarter / roots[0])
    alpha = -draw(st.floats(t_min, t_min + 0.3))
    beta = draw(st.floats(t_min, t_min + 0.3))
    r = draw(st.floats(1.0, 20.0))
    assume(clear(r))
    return (l, R, lambda f, n: zero_count_sector(f, alpha, beta, r, quad_nodes=n).count,
            lambda n: PanelPath.sector(alpha, beta, r, n), sum(k < r for k in roots))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(case=_clear_contours())
def test_a_clean_first_pass_gives_the_count(case):
    # on contours clear of the zeros, the first pass of G7/K15 panels is
    # clean and its count is the real-axis count, in one evaluator call
    l, R, count, contour, inside = case
    f = CallCounter(dispersion_function(l, R))
    assert count(f, 1024) == inside
    assert f.sizes == [contour(1024).nodes().size]


@pytest.mark.parametrize("z0", [0.5 + 0.0015j, 0.3 + 0.0024j, 0.0015 + 0.0015j])
def test_a_zero_near_the_coarse_rectangle_drops_into_the_ladder(z0):
    # z0 sits 0.0015 or 0.0024 above the bottom edge, or 0.0015 from both
    # edges at a corner, where the first pass's panels are 1/17 long: the
    # bisection passes count it, each evaluating only the new panels
    rect = (0.0, 1.0, 0.0, 1.0)
    f = CallCounter(lambda z: (z - z0, np.ones_like(z)))
    assert count_zeros_argument_principle(f, rect) == 1
    assert f.sizes[0] == PanelPath.rectangle(rect, 1024).nodes().size == 1020
    assert len(f.sizes) >= 2 and all(n % 30 == 0 and n < 1020 for n in f.sizes[1:])


@pytest.mark.parametrize("r, want", [(3 * math.pi + 0.005, 3), (3 * math.pi - 0.01, 2),
                                     (3 * math.pi - 0.02, 2)])
def test_a_zero_near_the_coarse_outer_arc_drops_into_the_ladder(r, want):
    # the zero of sin at 3 pi sits 0.005 to 0.02 from the outer arc, whose
    # first-pass panels are about 0.43 long; the bisection passes count it
    f = CallCounter(sin_pair)
    sc = zero_count_sector(f, -0.5, 0.5, r)
    assert (sc.alpha, sc.beta, sc.count) == (-0.5, 0.5, want)
    assert f.calls >= 2
    assert f.sizes[0] == PanelPath.sector(-0.5, 0.5, r, 1024).nodes().size


@pytest.mark.parametrize("n", [16, 64, 128, 255])
def test_node_counts_below_256_run_one_pass_at_quad_nodes(n):
    # the first pass is the path at quad_nodes: n // 15 panels shared by
    # the sides in proportion to length, at least one a side; later
    # passes evaluate only the panels they bisect
    g = dispersion_function(0, 1.0)
    rect = (1.0, 6.0, -1.0, 1.0)
    f = CallCounter(g)
    assert count_zeros_argument_principle(f, rect, quad_nodes=n) == 1
    assert f.sizes[0] == PanelPath.rectangle(rect, n).nodes().size
    assert all(m % 30 == 0 for m in f.sizes[1:])
    f = CallCounter(g)
    assert zero_count_sector(f, -0.1, 0.1, 6.0, quad_nodes=n).count == 1
    assert f.sizes[0] == PanelPath.sector(-0.1, 0.1, 6.0, n).nodes().size
    assert all(m % 30 == 0 for m in f.sizes[1:])


def test_a_boundary_zero_is_judged_against_its_own_panel():
    # e^{40 z} (z - z0) spans 17 orders of magnitude over the rectangle, so
    # the left edge sits far below 1e-8 of the largest |f| on the contour;
    # against each panel's own largest |f| only a node on z0 is a zero
    rect = (0.0, 1.0, -0.5, 0.5)

    def pair(z0):
        return lambda z: (np.exp(40 * z) * (z - z0), np.exp(40 * z) * (40 * (z - z0) + 1))

    assert count_zeros_argument_principle(pair(0.3 + 0.1j), rect) == 1
    node = PanelPath.rectangle(rect, 1024).nodes()[20, 3]
    with pytest.raises(NumericalError, match="^zero of f detected on the contour$"):
        count_zeros_argument_principle(pair(node), rect)


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


def test_a_first_pass_of_two_or_three_nodes_counts_every_zero():
    # at 2 or 3 nodes the first pass has one panel a side, and bisection
    # resolves the rest: every zero is counted, not a rounded wrong integer
    for n in (2, 3):
        f = CallCounter(sin_pair)
        assert zero_count_sector(f, -0.1, 0.1, 10.0, quad_nodes=n).count == 3
        assert f.sizes[0] == 60


def test_density_sectors_cost_at_most_two_passes():
    # the density sectors at r = 25, 50 and 100 take a first pass of at most
    # 1020 nodes and at most one bisection pass after it
    two_sines = lambda z: (np.sin(z) * np.sin(2.0 * z),
                           np.cos(z) * np.sin(2.0 * z) + 2.0 * np.sin(z) * np.cos(2.0 * z))
    for g, alpha, beta in ((sin_pair, -0.1, 0.1), (dispersion_function(0, 2.0), -0.2, 0.2),
                           (two_sines, -0.1, 0.1)):
        for r in (25.0, 50.0, 100.0):
            f = CallCounter(g)
            zero_count_sector(f, alpha, beta, r)
            assert f.calls <= 2 and f.sizes[0] <= 1020 and sum(f.sizes) < 1200


@pytest.mark.parametrize("l", [20, 32])
def test_high_degree_sectors_count_the_real_zeros(l):
    # |B_l| grows like |z|^l out of the inner arc; rays graded geometrically
    # keep that growth on each panel far below the boundary-zero rule's 1e8
    f = dispersion_function(l, 1.0)
    real = [rec.k for rec in find_real_eigenvalues(l, 1.0, l + 30.0)]
    assert zero_count_sector(f, -0.3, 0.3, l + 30.0).count == len(real)
    assert zero_count_sector(f, math.pi / 2 - 0.4, math.pi / 2 + 0.4, 0.8 * l + 1).count == 0


def _near_zero(place, d, side):
    """A zero d from the contour, inside (side = 1) or outside (side = -1)
    the rectangle (-1, 2, -1, 1) or the sector (-0.2, 0.3, 5)."""
    t = side * d
    return {"edge": complex(0.3, -1 + t), "corner": complex(-1 + t, -1 + t),
            "ray": (2.0 + 1j * t) * cmath.exp(-0.2j), "arc": (5.0 - t) * cmath.exp(0.1j)}[place]


@pytest.mark.parametrize("side", [1, -1])
@pytest.mark.parametrize("d", [1e-3, 1e-6, 1e-9])
@pytest.mark.parametrize("place", ["edge", "corner", "ray", "arc"])
def test_zeros_near_the_contour_are_counted_or_reported(place, d, side):
    # bisection resolves a zero d from an edge, a corner, a ray or the
    # outer arc; a wrong integer is never returned.  A sector's nudged
    # angles, if any, decide what is inside
    z0 = _near_zero(place, d, side)
    f = lambda z: (z - z0, np.ones_like(z))
    try:
        if place in ("edge", "corner"):
            assert count_zeros_argument_principle(f, (-1.0, 2.0, -1.0, 1.0)) == (side > 0)
        else:
            sc = zero_count_sector(f, -0.2, 0.3, 5.0)
            assert sc.count == (sc.alpha < cmath.phase(z0) < sc.beta and abs(z0) < 5.0)
    except (NumericalError, RuntimeError):
        assert d < 1e-3, "a zero 1e-3 from the contour is within the bisection's reach"


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_an_evaluator_that_is_not_finite_fails_before_dividing(bad):
    # bisection cannot refine a NaN or an overflow away, and an infinite
    # |f| would make every other node of its panel look like a zero
    def pair(z):
        f = np.sin(z)
        f[3] = bad
        return f, np.cos(z)

    want = "^argument-principle quadrature failed: f or f' is not finite on the contour$"
    with pytest.raises(RuntimeError, match=want):
        count_zeros_argument_principle(pair, (0.5, 10.0, -1.0, 1.0))
    # the same defect in f' (the pair swapped: cos and its "derivative")
    with pytest.raises(RuntimeError, match="^sector quadrature failed: f or f' is not finite"):
        zero_count_sector(lambda z: pair(z)[::-1], -0.1, 0.1, 10.0)


def test_sector_validation():
    # PanelPath.sector holds the checks, so it raises them too
    for count in (functools.partial(zero_count_sector, sin_pair),
                  lambda *args: PanelPath.sector(*args, 1024)):
        with pytest.raises(ValueError, match="alpha < beta"):
            count(0.5, 0.5, 10.0)
        with pytest.raises(ValueError, match="inner cutoff"):
            count(-0.1, 0.1, 0.2)
    with pytest.raises(ValueError, match="^rectangle must have positive extent$"):
        PanelPath.rectangle((1.0, 1.0, -1.0, 1.0), 1024)


@pytest.mark.parametrize("r, nodes, length", [(1e13, "1.32e+15", "2.2e+13"),
                                              (1e6, "1.32e+08", "2.2e+06"),
                                              (33000.0, "4.35597e+06", "72599.6")])
def test_sector_radius_past_the_node_cap_is_rejected_before_allocating(r, nodes, length):
    # the path's length bounds the radius: panels of length 1/4 on all of
    # it must fit the 2^22-node cap.  r = 1e13 once asked numpy for
    # 2.32 PiB, and r = 33000 sits just past the cap
    def never(z):
        raise AssertionError("the evaluator ran")

    want = (rf"^sector radius r={re.escape(repr(r))} needs {re.escape(nodes)} nodes to "
            rf"refine its path of length {re.escape(length)} to panels of length 1/4, "
            rf"more than 4194304$")
    with pytest.raises(ValueError, match=want):
        zero_count_sector(never, -0.1, 0.1, r)
    # before the node count, as the front end checked it
    with pytest.raises(ValueError, match=want):
        PanelPath.sector(-0.1, 0.1, r, 1)


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
    with pytest.raises(ValueError, match=want):
        PanelPath.rectangle((-1.0, 10.0, -1.0, 1.0), quad_nodes)
    with pytest.raises(ValueError, match=want):
        PanelPath.sector(-0.1, 0.1, 10.0, quad_nodes)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_contours_reject_non_finite_geometry(bad):
    # a ValueError that names the geometry, not a failed node count
    for rect in ((bad, 10.0, -1.0, 1.0), (-1.0, bad, -1.0, 1.0),
                 (-1.0, 10.0, bad, 1.0), (-1.0, 10.0, -1.0, bad)):
        with pytest.raises(ValueError, match=r"^rectangle corners must be finite, got \("):
            count_zeros_argument_principle(sin_pair, rect)
        with pytest.raises(ValueError, match=r"^rectangle corners must be finite, got \("):
            PanelPath.rectangle(rect, 1)  # before the node count
    for args in ((bad, 0.1, 10.0), (-0.1, bad, 10.0), (-0.1, 0.1, bad)):
        with pytest.raises(ValueError, match="^sector angles and radius must be finite, got "):
            zero_count_sector(sin_pair, *args)
        with pytest.raises(ValueError, match="^sector angles and radius must be finite, got "):
            PanelPath.sector(*args, 1)


def test_counts_at_the_node_counts_that_close_the_path():
    # the checks above leave the counts at the default 1024 nodes and at
    # the 128 of a quick count as they were
    assert count_zeros_argument_principle(sin_pair, (-1.0, 10.0, -1.0, 1.0)) == 4
    assert zero_count_sector(sin_pair, -0.1, 0.1, 10.0).count == 3
    f = dispersion_function(0, 1.0)
    for n in (128, 1024):
        assert count_zeros_argument_principle(f, (1.0, 6.0, -1.0, 1.0), quad_nodes=n) == 1
        assert zero_count_sector(f, -0.1, 0.1, 6.0, quad_nodes=n).count == 1


@pytest.mark.parametrize("theta, radii, message", [
    (math.nan, (10.0, 20.0, 50.0), "theta must be finite, got nan"),
    (math.inf, (10.0, 20.0, 50.0), "theta must be finite, got inf"),
    (-math.inf, (10.0, 20.0, 50.0), "theta must be finite, got -inf"),
    (math.pi / 2, (10.0, 20.0, math.nan), "radii must be finite and positive, "
                                          "got [10.0, 20.0, nan]"),
    (math.pi / 2, (10.0, 20.0, math.inf), "radii must be finite and positive, "
                                          "got [10.0, 20.0, inf]"),
    (math.pi / 2, (-1.0, 0.0, 50.0), "radii must be finite and positive, "
                                     "got [-1.0, 0.0, 50.0]"),
    (math.pi / 2, (0.0, 20.0, 50.0), "radii must be finite and positive, "
                                     "got [0.0, 20.0, 50.0]"),
])
def test_indicator_rejects_bad_rays_before_evaluating(theta, radii, message):
    # a NaN theta once read "evaluator overflowed", or with a log|f|
    # evaluator "argument must be finite"; an infinite theta "math domain
    # error"; r = 0 divided by zero; and (10, 20, nan) passed the
    # increasing check
    def never(z):
        raise AssertionError("the evaluator ran")

    for log in (False, True):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            indicator(never, theta, radii, log=log)


def test_indicator_sequence_checks_come_first():
    # the sequence checks, and their messages, stand as they were
    with pytest.raises(ValueError, match="^r_sequence must be increasing"):
        indicator(np.sin, math.nan, (50.0, 20.0, 10.0))
    with pytest.raises(ValueError, match="^largest radius must be at least 50$"):
        indicator(np.sin, math.nan, (-1.0, 0.0, 20.0))


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
        with pytest.raises(OverflowError, match=re.escape("pass log=True")):
            indicator(np.sin, math.pi / 2, (200.0, 400.0, 800.0))


def test_log_magnitude_evaluator_path():
    s = indicator(lambda z: np.abs(z.imag), math.pi / 2, (200.0, 400.0, 800.0), log=True)
    assert_allclose(s.h_extrapolated, 1.0, rtol=1e-9)
    big = indicator(functools.partial(dispersion_log_abs, 0, 1.0), math.pi / 2,
                    (400.0, 800.0, 1600.0), log=True)
    assert_allclose(big.h_extrapolated, 1.0, rtol=1e-3)


def test_indicator_calls_its_evaluator_once_on_the_whole_ray():
    calls = []

    def counted(f):
        def g(z):
            calls.append(z.shape)
            return f(z)
        return g

    radii = (12.5, 25.0, 50.0, 100.0, 200.0)
    raw = indicator(counted(np.sin), math.pi / 2, radii)
    log = indicator(counted(functools.partial(dispersion_log_abs, 0, 1.0)), math.pi / 2,
                    radii, log=True)
    assert calls == [(5,), (5,)]
    assert_allclose(raw.h_extrapolated, 1.0, rtol=0.02)
    assert_allclose(log.h_extrapolated, 1.0, rtol=0.02)
    assert "log_abs" not in inspect.signature(indicator).parameters


def test_indicator_refuses_an_evaluator_of_the_wrong_shape():
    want = ("indicator evaluators must act elementwise on a complex ndarray and "
            "return an array of the ray's shape (3,)")
    for f in (lambda z: 1.0, lambda z: np.sin(z)[:2], lambda z: (np.sin(z), np.cos(z))):
        for log in (False, True):
            with pytest.raises(ValueError, match=f"^{re.escape(want)}$"):
                indicator(f, 1.0, (10.0, 20.0, 50.0), log=log)


def test_indicator_names_the_first_bad_sample_point():
    # the first zero or non-finite |f| in radius order decides the error
    def values(*v):
        return lambda z: np.array(v, dtype=complex)

    with pytest.raises(NumericalError, match=r"^f vanishes at the sample point r=20\.0$"):
        indicator(values(1.0, 0.0, 0.0), 1.0, (10.0, 20.0, 50.0))
    with pytest.raises(NumericalError, match=r"^f vanishes at the sample point r=10\.0$"):
        indicator(values(0.0, math.inf, 1.0), 1.0, (10.0, 20.0, 50.0))
    with pytest.raises(OverflowError, match="^evaluator overflowed"):
        indicator(values(1.0, math.nan, 0.0), 1.0, (10.0, 20.0, 50.0))
    # log|f| evaluators: -inf is a zero, any other non-finite value a failure
    logs = lambda *v: lambda z: np.array(v)
    with pytest.raises(NumericalError, match=r"^f vanishes at the sample point r=20\.0$"):
        indicator(logs(1.0, -math.inf, math.nan), 1.0, (10.0, 20.0, 50.0), log=True)
    for bad in (math.inf, math.nan):
        with pytest.raises(NumericalError,
                           match=r"^log\|f\|/r is not finite at the sample point r=50\.0$"):
            indicator(logs(1.0, 2.0, bad), 1.0, (10.0, 20.0, 50.0), log=True)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_indicator_reports_a_fit_it_cannot_make():
    # a subnormal radius once overflowed 1/r with numpy warnings, and the
    # fit failed as "SVD did not converge"; radii 1e300 apart in 1/r gave
    # a RankWarning and an extrapolation of -1.2e301
    with pytest.raises(NumericalError,
                       match=r"^log\|f\|/r is not finite at the sample point r=5e-324$"):
        indicator(lambda z: np.full(z.shape, -0.5), 1.0, (5e-324, 1.0, 60.0), log=True)
    with pytest.raises(NumericalError, match=re.escape(
            "the affine fit in 1/r through r=[1e-300, 1.0, 60.0] is rank deficient")):
        indicator(np.sin, 1.0, (1e-300, 1.0, 60.0))


def test_indicator_validation():
    with pytest.raises(ValueError, match="at least 3"):
        indicator(np.sin, 1.0, (10.0, 20.0))
    with pytest.raises(ValueError, match="at least 3"):
        indicator(np.sin, 1.0, (30.0, 20.0, 10.0))
