"""Sector zero counts, zero density, and the Lindelof indicator."""

import functools
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from schifferlab.eigsearch import (
    count_zeros_argument_principle,
    dispersion,
    dispersion_function,
    dispersion_log_abs,
)
from schifferlab.entire import density, density_table, indicator, zero_count_sector


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


def test_density_reference_values():
    assert_allclose(density(sin_pair, -0.1, 0.1, (25.0, 50.0, 100.0)),
                    1 / math.pi, rtol=0.05)
    f = dispersion_function(0, 2.0)
    assert_allclose(density(f, -0.2, 0.2, (25.0, 50.0, 100.0)),
                    2 / math.pi, rtol=0.05)
    two_sines = lambda z: (np.sin(z) * np.sin(2.0 * z),
                           np.cos(z) * np.sin(2.0 * z) + 2.0 * np.sin(z) * np.cos(2.0 * z))
    assert_allclose(density(two_sines, -0.1, 0.1, (25.0, 50.0, 100.0)),
                    3 / math.pi, rtol=0.05)


def test_density_table_fields():
    t = density_table(sin_pair, -0.1, 0.1, (25.0, 50.0, 100.0))
    assert t.r_values == (25.0, 50.0, 100.0)
    assert t.counts == (7, 15, 31)
    assert t.value == t.ratios[-1] == 31 / 100.0


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

    def __call__(self, z):
        self.calls += 1
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
    with pytest.raises(ValueError, match="at least 3"):
        density(sin_pair, -0.1, 0.1, (10.0, 20.0))


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
