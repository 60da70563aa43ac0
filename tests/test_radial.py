"""Two-way radial Helmholtz solves anchored at y(R) = R, y'(R) = 1."""

import math
import re

import numpy as np
import pytest
from numpy.testing import assert_allclose

from schifferlab import radial
from schifferlab.radial import (
    RadialProblem,
    RadialSolution,
    closed_form_coefficients,
    solve_from_boundary,
    verify_asymptotic_46,
    verify_asymptotics_25_26,
    verify_estimate_123,
)
from schifferlab.specfun import riccati_s_rows, riccati_table, scaled_sin_cos


def test_inward_free_solution_reaches_center():
    # y = A sin r + B cos r, so y(0) = B = R cos R - sin R at k = 1
    sol = solve_from_boundary(RadialProblem(0, 1.0, math.pi, None), "inward", 0.0, 1e-3)
    assert sol.grid[0] == 0.0
    assert_allclose(sol.y[0], -math.pi, rtol=1e-7)
    sol1 = solve_from_boundary(RadialProblem(0, 1.0, 1.0, None), "inward", 0.0, 1e-3)
    assert_allclose(sol1.y[0], math.cos(1.0) - math.sin(1.0), rtol=1e-7)


def test_centrifugal_term_stops_before_center():
    sol = solve_from_boundary(RadialProblem(1, 1.0, 1.0, None), "inward", 0.0, 1e-3)
    assert sol.grid[0] > 0.0
    assert np.all(np.diff(sol.grid) > 0)


def test_outward_at_anchor_returns_single_node():
    sol = solve_from_boundary(RadialProblem(2, 3.0, 1.5, None), "outward", 1.5, 1e-3)
    assert sol.grid.shape == (1,)
    assert sol.grid[0] == 1.5
    assert sol.y[0] == 1.5
    assert sol.dy[0] == 1.0


def test_closed_form_attached_and_consistent():
    prob = RadialProblem(3, 2.0, 1.0, None)
    sol = solve_from_boundary(prob, "outward", 3.0, 1e-3)
    assert sol.closed_form is not None
    assert_allclose(sol.closed_form, closed_form_coefficients(3, 2.0, 1.0), rtol=1e-14)
    A, B = sol.closed_form
    scale = float(np.max(np.abs(sol.y)))
    for r, y in zip(sol.grid[::97], sol.y[::97]):
        S, C, _, _ = riccati_table(3, 2.0 * r)
        assert abs(y - (A * S[3] + B * C[3])) <= 1e-8 * scale


def test_closed_form_absent_with_potential_or_noninteger_degree():
    with_pot = solve_from_boundary(
        RadialProblem(0, 2.0, 1.0, lambda r: 1.0), "outward", 2.0, 1e-3)
    assert with_pot.closed_form is None
    half = solve_from_boundary(RadialProblem(0.5, 2.0, 1.0, None), "outward", 2.0, 1e-3)
    assert half.closed_form is None


def test_boundary_residuals_of_solver_output_vanish():
    # the defects F = y(R_hat) - R_hat and G = y'(R_hat) - 1 at the node R_hat
    sol = solve_from_boundary(RadialProblem(2, 5.0, 1.0, None), "outward", 2.5, 1e-3)
    assert sol.grid[0] == 1.0
    assert abs(sol.y[0] - 1.0) < 1e-10
    assert abs(sol.dy[0] - 1.0) < 1e-10


def test_boundary_residuals_of_reference_trajectories():
    # the defects of y = S_l(r) (k = 1) at R_hat, from the nodal values at
    # the grid's last node and from riccati_s_rows
    grid = np.linspace(0.1, math.pi / 2, 201)
    sol = RadialSolution(grid, np.sin(grid), np.cos(grid), None)
    for y, dy in ((sol.y[-1], sol.dy[-1]), riccati_s_rows(0, 0, math.pi / 2)):
        assert_allclose(y - math.pi / 2, 1.0 - math.pi / 2, rtol=1e-12)
        assert abs(dy - 1.0 + 1.0) < 1e-15

    grid = np.linspace(0.2, 1.0, 161)
    y = np.sin(grid) / grid - np.cos(grid)  # S_1(r)
    dy = np.cos(grid) / grid - np.sin(grid) / grid**2 + np.sin(grid)
    sol = RadialSolution(grid, y, dy, None)
    for y, dy in ((sol.y[-1], sol.dy[-1]), riccati_s_rows(1, 1, 1.0)):
        assert_allclose(y - 1.0, 0.3011686789397568 - 1.0, rtol=1e-12)  # S_1(1) - 1, mpmath
        assert_allclose(dy - 1.0, math.cos(1.0) - 1.0, rtol=1e-12)


def test_two_solution_wronskian_is_conserved():
    # no first-derivative term, so y1 y2' - y1' y2 is exactly constant
    prob = RadialProblem(2, 3.0, 1.0, None)
    grid = np.linspace(1.0, 2.0, 1001)
    y1, dy1 = radial._integrate(prob, 1.0 + 0.0j, 0.0j, grid)
    y2, dy2 = radial._integrate(prob, 0.0j, 1.0 + 0.0j, grid)
    w = y1 * dy2 - dy1 * y2
    assert_allclose(w, np.full_like(np.real(w), np.real(w[0])), rtol=1e-6)


def test_real_frequency_solutions_stay_real():
    sol = solve_from_boundary(RadialProblem(1, 2.0, 1.0, None), "outward", 2.0, 1e-3)
    assert float(np.max(np.abs(np.imag(sol.y)))) == 0.0
    assert float(np.max(np.abs(np.imag(sol.dy)))) == 0.0


def test_frequency_sign_symmetry():
    # the equation depends on k^2 only
    a = solve_from_boundary(RadialProblem(0, 2.0, 1.0, None), "outward", 2.0, 1e-3)
    b = solve_from_boundary(RadialProblem(0, -2.0, 1.0, None), "outward", 2.0, 1e-3)
    assert_allclose(b.y, a.y, rtol=1e-13, atol=1e-15)


def test_remainder_estimate_free_case():
    prob = RadialProblem(0, 1.0, 1.0, None)
    recs = verify_estimate_123(prob, 1.0, 1.0, (0.25, 0.5, 0.75), (20.0, 40.0))
    assert all(r.satisfied for r in recs)
    assert max(r.lhs for r in recs) < 1e-6  # leading term is exact for l = 0, p = 0


def test_remainder_estimate_centrifugal_case():
    prob = RadialProblem(1, 1.0, 1.0, None)
    recs = verify_estimate_123(prob, 1.0, 1.0, (0.5,), (10.0,))
    assert all(r.satisfied for r in recs)


def test_remainder_estimate_with_potential_decays_like_one_over_k():
    prob = RadialProblem(0, 1.0, 1.0, lambda r: 1.0)
    recs = verify_estimate_123(prob, 1.0, 1.0, (0.25, 0.5, 0.75), (20.0, 40.0, 80.0))
    assert all(r.satisfied for r in recs)
    assert max(r.lhs * abs(r.k) for r in recs) < 0.45  # observed 0.369


def test_remainder_estimate_validation():
    with pytest.raises(ValueError, match="use R_hat = 1"):
        verify_estimate_123(RadialProblem(0, 1.0, 2.0, None), 1.0, 1.0, (0.5,), (10.0,))
    prob = RadialProblem(0, 1.0, 1.0, None)
    with pytest.raises(ValueError, match=r"in \(0, 1\)"):
        verify_estimate_123(prob, 1.0, 1.0, (0.0, 0.5), (10.0,))
    with pytest.raises(ValueError, match=">= 1"):
        verify_estimate_123(prob, 1.0, 1.0, (0.5,), (0.5,))


def test_remainder_estimate_reads_repeated_and_unsorted_xi_once():
    # solve_ivp rejects repeated t_eval values: each distinct xi is read
    # once, and a repeated xi repeats its record, in ascending xi order
    prob = RadialProblem(1, 1.0, 1.0, lambda r: 1.0)
    ks = (20.0, 40.0 + 1.0j)
    once = verify_estimate_123(prob, 1.0, 1.0, (0.25, 0.5), ks)
    twice = verify_estimate_123(prob, 1.0, 1.0, (0.5, 0.25, 0.5), ks)
    assert [(r.xi, r.k) for r in twice] == [(xi, k) for k in ks for xi in (0.25, 0.5, 0.5)]
    assert twice == [once[0], once[1], once[1], once[2], once[3], once[3]]


def test_remainder_estimate_rejects_non_finite_xi():
    prob = RadialProblem(0, 1.0, 1.0, None)
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match=r"^xi samples must lie in \(0, 1\)"):
            verify_estimate_123(prob, 1.0, 1.0, (0.5, bad), (10.0,))


def test_remainder_bound_past_double_range_is_vacuous():
    # at l = 2 the Gronwall exponent 6 (1/xi - 1) passes exp's range below
    # xi of about 0.0084: K(xi) is inf there and the bound holds, where it
    # used to raise a bare OverflowError
    prob = RadialProblem(2, 1.0, 1.0)
    (margin,) = verify_estimate_123(prob, 1.0, 1.0, (1e-3,), (20.0,))
    assert margin.rhs == math.inf and margin.satisfied
    assert math.isfinite(margin.lhs)
    low, high = verify_estimate_123(prob, 1.0, 1.0, (1e-3, 0.5), (20.0,))
    assert low.rhs == math.inf and math.isfinite(high.rhs) and high.satisfied


@pytest.mark.parametrize("call, want", [
    (lambda: closed_form_coefficients(2, math.nan, 1.0), "k must be finite, got nan"),
    (lambda: verify_asymptotics_25_26(0, [math.nan], [1.0]), "k must be finite, got nan"),
    (lambda: verify_asymptotics_25_26(0, [5.0, complex(math.inf, 1.0)], [1.0]),
     "k must be finite, got (inf+1j)"),
    (lambda: verify_estimate_123(RadialProblem(0, 1.0, 1.0), math.nan, 1.0, (0.5,), (10.0,)),
     "a must be finite, got nan"),
    (lambda: verify_estimate_123(RadialProblem(0, 1.0, 1.0), 1.0, -math.inf, (0.5,), (10.0,)),
     "b must be finite, got -inf"),
])
def test_non_finite_frequency_and_data_are_named_before_any_table(call, want, monkeypatch):
    # a NaN k used to reach the Bessel kernel, which blamed its argument,
    # and a NaN a or b reached solve_ivp's check of its initial state
    # (through _integrate, which imports solve_ivp where it calls it)
    def unreachable(*args, **kwargs):
        raise AssertionError("called before the arguments were checked")

    for name in ("riccati_table", "riccati_s_rows", "_integrate"):
        monkeypatch.setattr(radial, name, unreachable)
    with pytest.raises(ValueError, match=f"^{re.escape(want)}$"):
        call()


@pytest.mark.parametrize("call, want", [
    (lambda: RadialProblem(0, 1.0, math.inf), "R_hat must be positive and finite, got inf"),
    (lambda: RadialProblem(math.nan, 1.0, 1.0), "angular parameter must be >= -1/2, got nan"),
    (lambda: solve_from_boundary(RadialProblem(0, 1.0, 1.0), "inward", 0.0, math.nan),
     "grid_step must be positive and finite, got nan"),
    (lambda: solve_from_boundary(RadialProblem(0, 1.0, 1.0), "inward", math.nan, 1e-3),
     "r_end must be finite, got nan"),
    (lambda: solve_from_boundary(RadialProblem(0, 1.0, 1.0), "outward", math.inf, 1e-3),
     "r_end must be finite, got inf"),
    (lambda: verify_asymptotic_46(3, 2.0, -1.0), "R_hat must be positive and finite, got -1.0"),
    (lambda: verify_asymptotic_46(3, math.nan, 1.0), "k0 must be positive and finite, got nan"),
    (lambda: closed_form_coefficients(2, 1.0, -1.0),
     "R_hat must be positive and finite, got -1.0"),
    (lambda: verify_asymptotics_25_26(0, [5.0], [math.nan]),
     "xi must be positive and finite, got nan"),
])
def test_radial_parameters_are_rejected_by_name(call, want):
    # each used to pass, or to fail on a kernel argument or a float-to-int
    # conversion that does not name the parameter
    with pytest.raises(ValueError, match=f"^{re.escape(want)}$"):
        call()


def test_oscillatory_asymptotics_reference_constants():
    rep = verify_asymptotics_25_26(0, (5.0, 20.0, 60.0), (1.0, 2.0))
    assert rep.c_max < 1e-12  # S_0 = sin exactly
    rep1 = verify_asymptotics_25_26(1, (7.3,), (1.0,))
    k, xi, c_obs = rep1.samples[0]
    assert (k, xi) == (7.3, 1.0)
    # S_1(k) - sin(k - pi/2) = sin(k)/k, so the observed constant is |sin k|
    assert_allclose(c_obs, abs(math.sin(7.3)), rtol=1e-8)
    rep2 = verify_asymptotics_25_26(2, (10.0 + 2.0j,), (2.0,))
    assert_allclose(rep2.c_max, 1.486952302405806, rtol=1e-9)


def test_asymptotic_constants_match_one_point_evaluations():
    # one table serves every k x xi sample; each constant must equal the
    # one-point evaluation of its own sample up to rounding
    ks, xis = (5.0, 10.0 + 2.0j, 3.0 + 0.5j, 40.0 + 5.0j), (0.5, 1.3, 3.7)
    for l in (1, 4, 9):
        rep = verify_asymptotics_25_26(l, ks, xis)
        want = []
        for k in ks:
            for xi in xis:
                z = k * xi
                S = riccati_table(l, z, scaled=True)[0][l]
                lead, _ = scaled_sin_cos(z - l * math.pi / 2)
                want.append(abs(z) * abs(S - lead))
        assert [(k, xi) for k, xi, _ in rep.samples] == [(k, xi) for k in ks for xi in xis]
        got = [c for _, _, c in rep.samples]
        assert_allclose(got, want, rtol=0, atol=16 * np.finfo(float).eps * max(want))
        assert rep.c_max == max(got)


def test_oscillatory_asymptotics_validation():
    with pytest.raises(ValueError, match="Re k >= 0"):
        verify_asymptotics_25_26(0, (-1.0,), (1.0,))
    with pytest.raises(ValueError, match="positive"):
        verify_asymptotics_25_26(0, (5.0,), (-1.0,))
    with pytest.raises(ValueError, match="at least one"):
        verify_asymptotics_25_26(0, (), (1.0,))


def test_fixed_frequency_sequence_reference():
    rep = verify_asymptotic_46(8, 4.4934094579090642, 1.0)
    assert rep.l_values == tuple(range(9))
    assert rep.deviations[0] < 1e-13  # the l = 0 member is the anchor itself
    assert_allclose(rep.s_values[2], -16.89013387, rtol=1e-6)
    assert rep.c_common == max(rep.deviations)


@pytest.mark.parametrize("k0, R", [(4.4934094579090642, 1.0), (10.0, 1.0), (1.0, 3.0),
                                   (2.5, 0.7), (1.0, 5e-4)])
def test_fixed_frequency_sequence_matches_the_per_degree_loop(k0, R):
    # the two tables and the log-space s_l against one closed form and one
    # table per degree with the plain k0^l product; the per-degree tables
    # stop at order l, so they run other recurrence regimes.  Both regimes
    # give S_l and C_l to rounding of their envelope hypot(S_l, C_l), not
    # of each value (S_18 at R = 5e-4 sits near a zero), so the bound is
    # relative to (|A| + |B|) times that envelope
    rep = verify_asymptotic_46(60, k0, R)
    for l, xi, s in zip(rep.l_values, rep.xi_values, rep.s_values):
        A, B = closed_form_coefficients(l, k0, R)
        S, C, _, _ = riccati_table(l, k0 * xi)
        want = k0 ** l * (A.real * S[l].real + B.real * C[l].real)
        scale = k0 ** l * (abs(A.real) + abs(B.real)) * math.hypot(S[l].real, C[l].real)
        assert abs(s - want) <= 1e-13 * scale, l


def test_fixed_frequency_sequence_caps_an_overflowing_member():
    with pytest.warns(RuntimeWarning, match=r"^s_60 overflows double precision; "
                                            r"log10\|s\| = 304\.55$") as record:
        rep = verify_asymptotic_46(60, 1.0, 4e-4)
    assert len(record) == 1
    assert rep.s_values[60] == pytest.approx(math.exp(700.0), rel=1e-15)


def test_fixed_frequency_sequence_validation():
    with pytest.raises(ValueError):
        verify_asymptotic_46(4, 0.5, 1.0)
