"""Associated Legendre and spherical-harmonic checks.

The Legendre convention here carries no Condon-Shortley phase, so values
relate to scipy's lpmv by a factor (-1)^m.
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy.special import lpmv

from schifferlab.scatter import StarlikeDomain, unit_ball
from schifferlab.specfun import (
    ModePlan,
    sphere_quadrature,
    ylm,
    ylm_blocks,
    ylm_norm,
    ylm_terms,
    ylm_theta_derivative,
)
from schifferlab.specfun.legendre import LegendrePlan


def legendre_column(lmax, m, t):
    """P_{|m|}^{|m|}(t), ..., P_lmax^{|m|}(t): the one-order Legendre table."""
    return LegendrePlan.build(lmax, [abs(m)]).table(t)


def legendre(l, m, t):
    """P_l^{|m|}(t): the last entry of the column legendre_column(l, m, t)."""
    return legendre_column(l, m, t)[-1]


def test_legendre_reference_values():
    assert legendre(2, 0, 0.5) == pytest.approx(-0.125, rel=1e-14)
    assert legendre(1, 1, 0.0) == pytest.approx(1.0, rel=1e-14)
    # -36309 sqrt(91) / 40000, sympy with the phase stripped
    assert legendre(5, 3, 0.3) == pytest.approx(-8.659144616061972, rel=1e-13)


def test_legendre_matches_scipy_up_to_phase():
    ts = np.linspace(-0.95, 0.95, 11)
    for l in range(9):
        for m in range(l + 1):
            ours = legendre(l, m, ts)
            ref = (-1.0) ** m * lpmv(m, l, ts)
            assert_allclose(ours, ref, rtol=1e-10, atol=1e-12)


def test_each_column_entry_is_bitwise_the_degree_call():
    # one upward recurrence per order: the column to l is a prefix of every
    # longer column, bitwise, and a one-point column equals its batch entry
    rng = np.random.default_rng(5)
    t = np.concatenate([rng.uniform(-1.0, 1.0, 60), [-1.0, 0.0, 1.0, 1.0 + 1e-13]])
    for m in range(-12, 13):
        col = legendre_column(40, m, t)
        assert col.shape == (41 - abs(m), t.size)
        for l in range(abs(m), 41):
            assert col[l - abs(m)].tobytes() == legendre(l, m, t).tobytes()
            assert legendre(l, m, t[7]) == col[l - abs(m), 7]
            assert legendre(l, m, t[7]).shape == ()
    assert legendre_column(3, 1, 0.5).shape == (3,)
    with pytest.raises(ValueError, match="exceeds degree"):
        legendre_column(2, 3, t)
    with pytest.raises(ValueError, match="outside"):
        legendre_column(2, 0, 1.1)


def test_a_table_of_many_orders_is_bitwise_its_one_order_columns():
    # one chain of diagonal seeds and one recurrence step per diagonal give
    # each order's column as the one-order table does, at any shape of t
    rng = np.random.default_rng(11)
    for t in (rng.uniform(-1.0, 1.0, (3, 5)), np.array([-1.0, 0.0, 1.0]), 0.3):
        for orders in ([0, 1, 2, 3, 4, 5, 6], [2, 5], [6], [0, 3]):
            plan = LegendrePlan.build(9, orders)
            P, base = plan.table(t), plan.base
            assert P.shape == (base[-1],) + np.shape(t)
            for i, m in enumerate(orders):
                column = legendre_column(9, m, t)
                for l in range(m, 10):
                    assert P[base[l - m] + i].tobytes() == column[l - m].tobytes()
    for bad in ([3, 1], [1, 1], [-1], []):
        with pytest.raises(ValueError, match="ascending and nonnegative"):
            LegendrePlan.build(4, bad)


def test_a_term_does_not_depend_on_its_run():
    # ylm_blocks holds at most 2048 values a run: 9000 points take one term
    # a run, their first 7 every term in one run, and both give each term
    # the same bits, value and theta derivative
    rng = np.random.default_rng(3)
    theta = np.concatenate([[0.0, math.pi], rng.uniform(0.0, math.pi, 8998)])
    phi = rng.uniform(0.0, 2 * math.pi, theta.size)
    modes = [(l, m) for l in range(5) for m in range(-l, l + 1)]
    many = list(ylm_blocks(modes, theta, phi, derivative=True))
    few = list(ylm_blocks(modes, theta[:7], phi[:7], derivative=True))
    assert len(many) == len(modes) and len(few) == 1
    for span, Y, dY in many:
        assert Y[:, :7].tobytes() == few[0][1][span].tobytes()
        assert dY[:, :7].tobytes() == few[0][2][span].tobytes()


def test_harmonic_reference_values():
    assert ylm(0, 0, 0.3, 0.7) == pytest.approx(0.28209479177387814, rel=1e-14)
    assert ylm(1, 0, 0.0, 0.0) == pytest.approx(0.4886025119029199, rel=1e-14)
    assert ylm(1, 1, math.pi / 2, 0.0) == pytest.approx(0.3454941494713355, rel=1e-14)


def test_norm_factor_consistency():
    # at theta = pi/2, phi = 0 the (1, 1) harmonic reduces to its norm factor
    assert ylm(1, 1, math.pi / 2, 0.0) == pytest.approx(
        ylm_norm(1, 1) * legendre(1, 1, 0.0), rel=1e-14)


def test_conjugation_symmetry_is_exact():
    for l, m in [(1, 1), (3, 2), (5, 5), (8, 3)]:
        assert ylm(l, -m, 1.1, 0.4) == np.conj(ylm(l, m, 1.1, 0.4))


def test_quadrature_weights_sum_to_sphere_area():
    quad = sphere_quadrature()
    assert_allclose(np.sum(quad.weights), 4 * math.pi, rtol=1e-12)
    assert quad.integrate(np.ones_like(quad.weights)) == pytest.approx(
        4 * math.pi, rel=1e-12)


def test_harmonics_are_orthonormal_under_the_quadrature():
    quad = sphere_quadrature()
    y21 = ylm(2, 1, quad.theta[:, None], quad.phi[None, :])
    assert_allclose(quad.integrate(np.abs(y21) ** 2), 1.0, rtol=1e-10)
    pairs = [(l, m) for l in range(9) for m in range(-l, l + 1)]
    basis = np.array(list(ylm_terms(pairs, quad.theta[:, None], quad.phi[None, :])))
    gram = np.einsum("iab,ab,jab->ij", basis, quad.weights, np.conj(basis))
    assert_allclose(gram, np.eye(len(pairs)), atol=1e-8)


def test_grid_synthesis_matches_pointwise_values():
    # the kernel on a broadcast (theta, phi) grid gives each term bitwise as
    # the one-mode call on the full grid, value and theta derivative
    quad = sphere_quadrature(24, 48)
    theta_grid, phi_grid = np.meshgrid(quad.theta, quad.phi, indexing="ij")
    modes = [(4, -3), (0, 0), (6, 1), (4, 3), (2, -1)]
    terms = ylm_terms(modes, quad.theta[:, None], quad.phi[None, :], derivative=True)
    for (l, m), (y, dy) in zip(modes, terms):
        assert y.shape == dy.shape == quad.weights.shape
        assert y.tobytes() == ylm(l, m, theta_grid, phi_grid).tobytes()
        assert dy.tobytes() == ylm_theta_derivative(l, m, theta_grid, phi_grid).tobytes()


def test_legendre_theta_derivative_matches_finite_differences():
    # at phi = 0 the kernel's dY/dtheta is ylm_norm(l, m) dP_l^m(cos theta)/dtheta
    h = 1e-6
    for l, m in [(1, 0), (3, 2), (6, 4), (8, 8)]:
        for theta in (0.4, 1.2, 2.2):
            d = ylm_theta_derivative(l, m, theta, 0.0)
            assert d.imag == 0.0
            fd = (legendre(l, m, math.cos(theta + h))
                  - legendre(l, m, math.cos(theta - h))) / (2 * h)
            assert_allclose(d.real / ylm_norm(l, m), fd, rtol=1e-6, atol=1e-6)


def test_theta_derivative_matches_finite_differences():
    h = 1e-6
    for l, m in [(2, 1), (5, -3), (7, 0)]:
        for theta in (0.5, 1.3, 2.4):
            d = ylm_theta_derivative(l, m, theta, 0.8)
            fd = (ylm(l, m, theta + h, 0.8) - ylm(l, m, theta - h, 0.8)) / (2 * h)
            assert_allclose(d, fd, rtol=1e-6, atol=1e-8)


@pytest.mark.parametrize("theta", [0.0, 1e-10, math.pi - 1e-10, math.pi])
def test_theta_derivative_takes_the_pole_limits(theta):
    # where cos(theta) rounds to +-1 the quotient formula is 0/0; the limit
    # is ylm_norm l (l + 1) / 2 e^{i m phi} (+-1)^l for |m| = 1, else 0
    phi = 0.7
    sign = 1.0 if theta < 1.0 else -1.0
    for l in (1, 2, 3, 6, 9):
        for m in (0, 1, -1, 2, -2):
            if abs(m) > l:
                continue
            limit = 0.0
            if abs(m) == 1:
                limit = ylm_norm(l, m) * l * (l + 1) / 2 * sign ** l * np.exp(1j * m * phi)
            d = ylm_theta_derivative(l, m, theta, phi)
            assert_allclose(d, limit, rtol=1e-6)
            # a one-sided difference quotient into the sphere agrees
            h = 1e-5
            inward = min(theta + h, math.pi) if theta < 1.0 else max(theta - h, 0.0)
            fd = (ylm(l, m, inward, phi) - ylm(l, m, theta, phi)) / (inward - theta)
            assert_allclose(d, fd, rtol=1e-3, atol=1e-3)
    # an array that holds both poles and interior points gets each its own value
    thetas = np.array([0.0, 0.9, math.pi])
    assert_allclose(ylm_theta_derivative(3, 1, thetas, phi),
                    [ylm_theta_derivative(3, 1, t, phi) for t in thetas], rtol=1e-15)


def test_degree_and_order_validation():
    with pytest.raises(ValueError, match="exceeds degree"):
        ylm(2, 3, 0.5, 0.5)
    with pytest.raises(ValueError, match="exceeds degree"):
        legendre(2, 3, 0.5)
    with pytest.raises(ValueError, match="exceeds degree"):
        ylm(-1, 0, 0.5, 0.5)


def test_integrate_rejects_wrong_shape():
    quad = sphere_quadrature(16, 32)
    with pytest.raises(ValueError):
        quad.integrate(np.ones((4, 4)))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_angles_are_rejected(bad):
    # NaN fails every comparison, so a range check written as "abs(t) > 1"
    # let it through and the ball read rho = 1 at a NaN angle
    with pytest.raises(ValueError, match="argument t=.* is not finite"):
        LegendrePlan.build(0, [0]).table(bad)
    with pytest.raises(ValueError, match="not finite"):
        LegendrePlan.build(3, [0, 2]).table(np.array([0.5, bad, -0.2]))
    domain = StarlikeDomain(2, ((0, 0, math.sqrt(4 * math.pi)), (2, 1, 0.05), (2, -1, 0.05)))
    # a NaN theta is named through its cosine; an infinite one by itself,
    # before cos(+-inf) can raise numpy's "invalid value" warning
    want = r"cos\(theta\)=nan is not finite" if math.isnan(bad) else f"^angle theta={bad} is not"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=want):
            ylm(0, 0, bad, 0.3)
        with pytest.raises(ValueError, match="not finite"):
            ylm_theta_derivative(2, 1, np.array([[0.1], [bad]]), np.array([0.0, 1.0]))
        for dom in (unit_ball(), domain):
            with pytest.raises(ValueError, match="not finite"):
                dom.synthesis(bad, 0.0)
            with pytest.raises(ValueError, match="not finite"):
                dom.synthesis(np.array([0.2, bad]), 0.0, derivatives=True)
    # the range check itself is unchanged
    with pytest.raises(ValueError, match=r"argument t outside \[-1, 1\]"):
        LegendrePlan.build(2, [0]).table(-1.5)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_a_non_finite_phi_is_rejected(bad):
    # a NaN phi gave NaN terms, so the ball read rho = nan, and an infinite
    # one tripped numpy's "invalid value" warning in exp first
    domain = StarlikeDomain(2, ((0, 0, math.sqrt(4 * math.pi)), (2, 1, 0.05), (2, -1, 0.05)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=f"^angle phi={bad} is not finite$"):
            ylm(2, 1, 0.3, bad)
        for dom in (unit_ball(), domain):
            with pytest.raises(ValueError, match=f"^angle phi={bad} is not finite$"):
                dom.synthesis(0.3, bad)
            with pytest.raises(ValueError, match=f"^angle phi={bad} is not finite$"):
                dom.synthesis(np.array([0.2, 0.4]), np.array([0.1, bad]), derivatives=True)


def _real_domain(seed: int, L: int) -> StarlikeDomain:
    """Real coefficients c_(l,-m) = c_(l,m) up to degree L, small enough that
    rho stays above 1 - 0.5 on the whole sphere."""
    rng = np.random.default_rng(seed)
    coeffs = [(0, 0, math.sqrt(4 * math.pi))]
    for l in range(1, L + 1):
        for m in range(l + 1):
            value = float(rng.uniform(-0.1, 0.1)) / (l + 1) ** 2
            coeffs += [(l, m, value)] + ([(l, -m, value)] if m else [])
    return StarlikeDomain(L, tuple(coeffs))


def _term_by_term(domain: StarlikeDomain, theta, phi, derivatives: bool):
    """rho, and with ``derivatives`` d rho/d theta and d rho/d phi, as the sum
    of value * ylm(l, m, theta, phi) in rho_coeffs order, one mode a call."""
    shape = np.broadcast_shapes(np.shape(theta), np.shape(phi))
    rho, dth, dph = (np.zeros(shape, dtype=complex) for _ in range(3))
    for l, m, value in domain.rho_coeffs:
        y = ylm(l, m, theta, phi)
        rho += value * y
        if derivatives:
            dth += value * ylm_theta_derivative(l, m, theta, phi)
            dph += value * (1j * m) * y
    return (rho.real, dth.real, dph.real) if derivatives else rho.real


_POLAR = st.one_of(st.sampled_from([0.0, math.pi]), st.floats(0.0, math.pi))
_AZIMUTH = st.floats(0.0, 2 * math.pi, exclude_max=True)


@st.composite
def _angles(draw):
    """(theta, phi) as scalars, 1-d arrays, a broadcast grid or empty arrays."""
    kind = draw(st.sampled_from(["scalar", "rays", "grid", "empty"]))
    if kind == "scalar":
        return draw(_POLAR), draw(_AZIMUTH)
    if kind == "empty":
        return np.empty(0), np.empty(0)
    thetas = np.array(draw(st.lists(_POLAR, min_size=1, max_size=9)))
    phis = np.array(draw(st.lists(_AZIMUTH, min_size=1, max_size=9)))
    if kind == "grid":
        return thetas[:, None], phis[None, :]
    n = min(thetas.size, phis.size)
    return thetas[:n], phis[:n]


def _bits(blocks) -> list:
    return [(span, Y.tobytes(), None if dY is None else dY.tobytes()) for span, Y, dY in blocks]


@settings(max_examples=40, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), L=st.integers(0, 16), angles=_angles())
def test_a_plan_gives_the_term_by_term_bits(seed, L, angles):
    domain = _real_domain(seed, L)
    theta, phi = angles
    # the synthesis from the plan built at construction
    got = domain.synthesis(theta, phi)
    assert got.tobytes() == _term_by_term(domain, theta, phi, False).tobytes()
    for got, want in zip(domain.synthesis(theta, phi, derivatives=True),
                         _term_by_term(domain, theta, phi, True)):
        assert got.shape == np.broadcast_shapes(np.shape(theta), np.shape(phi))
        assert got.tobytes() == want.tobytes()
    # a plan gives ylm_blocks the bits of its mode list: the domain's modes,
    # and collocation_frame's (l, |m|) list
    for modes in ([(l, m) for l, m, _ in domain.rho_coeffs],
                  [(l, am) for l in range(L + 1) for am in range(l + 1)]):
        plan = ModePlan.build(modes)
        for derivative in (False, True):
            assert (_bits(ylm_blocks(plan, theta, phi, derivative))
                    == _bits(ylm_blocks(modes, theta, phi, derivative)))


def test_a_plan_is_read_only():
    plan = ModePlan.build([(2, -1), (0, 0), (3, 2)])
    assert plan.at.shape == (2, 3) and plan.slope.shape == (3, 3)
    assert plan.slope[:2].tolist() == [[2, 0, 3], [1, 0, 2]]
    for array in (plan.phase, plan.norm, plan.at, plan.slope, plan.legendre.coef):
        assert not array.flags.writeable
    with pytest.raises(ValueError, match="exceeds degree"):
        ModePlan.build([(1, 2)])
