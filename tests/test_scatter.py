"""Starlike domains, per-ray scans, boundary least squares, far fields."""

import dataclasses
import json
import math
import re
import threading
import tracemalloc
import warnings
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy.special import spherical_jn

from schifferlab.scatter import (
    FarFieldPattern,
    StarlikeDomain,
    axis_directions,
    ball_eigenfunction,
    collocation_frame,
    far_field_from_coeffs,
    load_domain,
    overdetermined_residual,
    per_ray_eigen_scan,
    ray_radius,
    rellich_expand,
    residual_scan,
    unit_ball,
)
from schifferlab.eigsearch import EigenvalueRecord
from schifferlab.errors import NumericalError
from schifferlab.scatter import domain as domain_module
from schifferlab.scatter import overdetermined as od
from schifferlab.scatter.domain import ray_radii
from schifferlab.scatter.rays import _intersect
from schifferlab.specfun import harmonics, legendre
from schifferlab.specfun import (
    L_MAX,
    SphericalDirection,
    sphere_quadrature,
    ylm,
    ylm_theta_derivative,
)

DATA = Path(__file__).parent / "data"
SQRT_4PI = 3.5449077018110318
K1 = 4.4934094579090642  # first root of tan x = x, mpmath


def egg_domain() -> StarlikeDomain:
    # rho(theta) = 1 + 0.1 cos(theta)
    return StarlikeDomain(1, ((0, 0, SQRT_4PI), (1, 0, 0.2046653415892977)))


def seeded_domain(seed: int) -> StarlikeDomain:
    """A degree-3 non-ball domain with m != 0 modes, so rho depends on phi.

    The 15 non-constant terms each carry a coefficient of at most 0.05 on a
    harmonic of modulus below 0.75 (l <= 3), so |rho - 1| < 0.6.
    """
    rng = np.random.default_rng(seed)
    coeffs = [(0, 0, SQRT_4PI)]
    for l in range(1, 4):
        for m in range(l + 1):
            value = float(rng.uniform(-0.05, 0.05))
            if m == 0:
                coeffs.append((l, 0, value))
            else:
                coeffs += [(l, m, value), (l, -m, value)]
    return StarlikeDomain(3, tuple(coeffs))


# ---------------------------------------------------------------- geometry

def test_unit_ball_radius():
    ball = unit_ball()
    assert ball.rho_coeffs == ((0, 0, SQRT_4PI),)
    for d in axis_directions():
        assert_allclose(ray_radius(ball, d), 1.0, rtol=1e-12)


def test_egg_radii():
    egg = egg_domain()
    assert_allclose(ray_radius(egg, SphericalDirection(0.0, 0.0)), 1.1, rtol=1e-12)
    assert_allclose(ray_radius(egg, SphericalDirection(math.pi / 2, 0.3)), 1.0,
                    rtol=1e-12)


def test_radius_matches_direct_synthesis():
    dom = StarlikeDomain(3, ((0, 0, SQRT_4PI), (2, 1, 0.05), (2, -1, 0.05),
                             (3, 0, 0.08)))
    for theta, phi in [(0.3, 0.9), (1.4, 2.0), (2.8, 5.1)]:
        direct = sum(c * ylm(l, m, theta, phi) for l, m, c in dom.rho_coeffs)
        assert_allclose(ray_radius(dom, SphericalDirection(theta, phi)),
                        direct.real, rtol=1e-10)


def _ylm_synthesis(domain: StarlikeDomain, theta, phi, derivatives: bool = False):
    """rho as the sum of c_lm ylm(l, m, theta, phi), one ylm call per mode, and
    with ``derivatives`` its angular derivatives from ylm_theta_derivative
    and c_lm (i m) ylm, added term by term in rho_coeffs order."""
    shape = np.broadcast_shapes(np.shape(theta), np.shape(phi))
    rho, dth, dph = (np.zeros(shape, dtype=complex) for _ in range(3))
    for l, m, value in domain.rho_coeffs:
        y = ylm(l, m, theta, phi)
        rho += value * y
        if derivatives:
            dth += value * ylm_theta_derivative(l, m, theta, phi)
            dph += value * (1j * m) * y
    return (rho.real, dth.real, dph.real) if derivatives else rho.real


@settings(max_examples=40, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), L=st.integers(0, 16),
       angles=st.lists(st.tuples(st.floats(0.0, math.pi),
                                 st.floats(0.0, 2 * math.pi, exclude_max=True)),
                       min_size=1, max_size=30))
def test_ray_radii_are_bitwise_the_per_mode_synthesis(seed, L, angles):
    # small real coefficients with c_(l,-m) = c_(l,m) up to degree L
    rng = np.random.default_rng(seed)
    coeffs = [(0, 0, SQRT_4PI)]
    for l in range(1, L + 1):
        for m in range(l + 1):
            value = float(rng.uniform(-0.3, 0.3)) / (l + 1) ** 2
            coeffs += [(l, m, value)] + ([(l, -m, value)] if m else [])
    domain = StarlikeDomain(L, tuple(coeffs))
    dirs = list(axis_directions()) + [SphericalDirection(*a) for a in angles]
    theta = np.array([d.theta for d in dirs])
    phi = np.array([d.phi for d in dirs])
    assert ray_radii(domain, dirs).tobytes() == _ylm_synthesis(domain, theta, phi).tobytes()
    # the grid that construction checks, whose runs of terms are shorter
    grid = theta[:, None], phi[None, :]
    assert domain.synthesis(*grid).tobytes() == _ylm_synthesis(domain, *grid).tobytes()
    # rho and its angular derivatives in one synthesis
    for got, want in zip(domain.synthesis(theta, phi, derivatives=True),
                         _ylm_synthesis(domain, theta, phi, derivatives=True)):
        assert got.tobytes() == want.tobytes()
    # the collocation frame reads rho from that synthesis at its own points
    frame = collocation_frame(domain, L_trial=2)
    assert frame.rho.tobytes() == _ylm_synthesis(domain, frame.theta, frame.phi).tobytes()


def test_synthesis_derivatives_match_finite_differences():
    # one synthesis gives rho, d rho/d theta and d rho/d phi; its rho is the
    # derivative-free synthesis bit for bit, and it broadcasts over a grid
    domain = seeded_domain(3)
    theta = np.array([0.3, 1.1, 2.0, 2.9])
    phi = np.array([0.2, 2.5, 4.0, 5.9])
    rho, dth, dph = domain.synthesis(theta, phi, derivatives=True)
    assert rho.tobytes() == domain.synthesis(theta, phi).tobytes()
    h = 1e-6
    assert_allclose(dth, (domain.synthesis(theta + h, phi)
                          - domain.synthesis(theta - h, phi)) / (2 * h), rtol=1e-7, atol=1e-9)
    assert_allclose(dph, (domain.synthesis(theta, phi + h)
                          - domain.synthesis(theta, phi - h)) / (2 * h), rtol=1e-7, atol=1e-9)
    grid = domain.synthesis(theta[:, None], phi[None, :])
    assert grid.shape == (4, 4)
    assert_allclose(np.diag(grid), rho, rtol=1e-15)


def test_rho_at_or_below_zero_is_a_numerical_error():
    # rho = 1 + 1.0003 cos(theta) passes the domain check but is -3e-4 at
    # the south pole, and 4000 collocation points reach the dip
    dip = StarlikeDomain(1, ((0, 0, SQRT_4PI), (1, 0, 1.0003 * SQRT_4PI / math.sqrt(3))))
    with pytest.raises(NumericalError, match="<= 0 at SphericalDirection"):
        ray_radii(dip, axis_directions())
    with pytest.raises(NumericalError, match="rho <= 0 at a collocation point"):
        od.collocation_frame(dip, n_collocation=4000)
    assert issubclass(NumericalError, ValueError)


def test_ball_normal_is_radial():
    frame = collocation_frame(unit_ball(), L_trial=2)
    assert_allclose(frame.n_r, 1.0, rtol=1e-14)
    assert np.all(frame.n_t == 0.0)
    assert np.all(frame.n_p == 0.0)


def test_egg_normal_tilt_at_the_equator():
    # rho = 1 + 0.1 cos(theta) falls from 1.1 at the pole to 1.0 at the
    # equator, tipping the normal toward increasing theta by
    # arctan(0.1 sin(theta) / rho): arctan(0.1) at the equator
    frame = collocation_frame(egg_domain(), L_trial=2)
    tilt = 0.1 * np.sin(frame.theta) / (1.0 + 0.1 * np.cos(frame.theta))
    assert_allclose(frame.n_r, 1.0 / np.hypot(1.0, tilt), rtol=1e-12)
    assert_allclose(frame.n_t, tilt / np.hypot(1.0, tilt), rtol=1e-12)
    assert np.all(frame.n_t > 0.0)
    assert np.all(frame.n_p == 0.0)


def test_normals_are_unit_vectors():
    for dom in (load_domain(DATA / "spheroid.json"), seeded_domain(3)):
        frame = collocation_frame(dom, L_trial=2)
        assert_allclose(np.sqrt(frame.n_r ** 2 + frame.n_t ** 2 + frame.n_p ** 2),
                        1.0, rtol=1e-12)


def test_normal_matches_differences_of_the_radius():
    # n is parallel to (1, -rho_theta / rho, -rho_phi / (rho sin theta));
    # central differences of ray_radii give both derivatives
    dom = seeded_domain(5)
    frame = collocation_frame(dom, L_trial=2)
    h = 1e-5

    def radii(theta, phi):
        return ray_radii(dom, [SphericalDirection(t, p % (2 * math.pi))
                               for t, p in zip(theta, phi)])

    th, ph = frame.theta, frame.phi
    d_theta = (radii(th + h, ph) - radii(th - h, ph)) / (2 * h)
    d_phi = (radii(th, ph + h) - radii(th, ph - h)) / (2 * h)
    assert np.abs(frame.n_p).max() > 0.01
    assert_allclose(frame.n_t / frame.n_r, -d_theta / frame.rho, atol=1e-8)
    assert_allclose(frame.n_p / frame.n_r, -d_phi / (frame.rho * frame.sin_t), atol=1e-8)


def test_domain_validation():
    with pytest.raises(ValueError, match="rho must be positive"):
        StarlikeDomain(0, ((0, 0, -1.0),))
    with pytest.raises(ValueError, match="realness needs"):
        StarlikeDomain(1, ((0, 0, SQRT_4PI), (1, 1, 0.1)))
    with pytest.raises(ValueError, match="duplicate coefficient"):
        StarlikeDomain(0, ((0, 0, 1.0), (0, 0, 2.0)))
    with pytest.raises(ValueError, match="outside degree range"):
        StarlikeDomain(0, ((1, 0, 0.1),))
    with pytest.raises(ValueError, match="L_geom must lie in"):
        StarlikeDomain(17, ((0, 0, SQRT_4PI),))
    with pytest.raises(ValueError, match=r"\(l, m, value\)"):
        StarlikeDomain(0, ((0, 0),))
    with pytest.raises(ValueError, match="must be integers"):
        StarlikeDomain(1, ((0.5, 0, 1.0),))
    with pytest.raises(ValueError, match="finite real"):
        StarlikeDomain(0, ((0, 0, 1.0 + 1.0j),))


def test_positivity_check_reads_one_read_only_grid():
    # rho = 1 + b cos(theta) is smallest at the grid's node nearest the south
    # pole, where a fresh sphere_quadrature() puts it at 1 - b c; construction
    # accepts exactly the b with 1 - b c > 0
    fresh = sphere_quadrature()
    c = float(np.max(-np.cos(fresh.theta)))
    for b in (0.5, (1 - 1e-9) / c, (1 + 1e-9) / c, 1.0003, 3.0):
        coeffs = ((0, 0, SQRT_4PI), (1, 0, b * SQRT_4PI / math.sqrt(3)))
        if 1 - b * c > 0:
            StarlikeDomain(1, coeffs)
        else:
            with pytest.raises(ValueError, match="rho must be positive"):
                StarlikeDomain(1, coeffs)
    # the check's nodes are built once and cannot be written through
    theta, phi = domain_module._positivity_grid()
    assert domain_module._positivity_grid()[0] is theta
    assert theta.shape == (64, 1) and phi.shape == (1, 128)
    assert theta.ravel().tobytes() == fresh.theta.tobytes()
    assert phi.ravel().tobytes() == fresh.phi.tobytes()
    for nodes in (theta, phi, theta.base, phi.base):
        assert not nodes.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            nodes[0] = 0.0
    # while the public rule stays a fresh, writeable build per call
    again = sphere_quadrature()
    assert again.theta is not fresh.theta and again.theta.flags.writeable


def test_domain_file_roundtrip(tmp_path):
    egg = egg_domain()
    path = tmp_path / "egg.json"
    payload = {"L_geom": egg.L_geom, "rho_coeffs": [list(c) for c in egg.rho_coeffs]}
    path.write_text(json.dumps(payload, indent=1) + "\n")
    loaded = load_domain(path)
    assert loaded.L_geom == 1
    assert loaded.rho_coeffs == egg.rho_coeffs


def test_domain_file_validation(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"L_geom": 0}))
    with pytest.raises(ValueError, match="needs fields"):
        load_domain(bad)
    bad.write_text(json.dumps({"L_geom": 0, "rho_coeffs": [[0, 0]]}))
    with pytest.raises(ValueError):
        load_domain(bad)


# ---------------------------------------------------------------- per-ray scans

def test_ball_rays_are_interchangeable():
    result = per_ray_eigen_scan(unit_ball(), axis_directions(), 0, 12.0)
    assert len(result.reports) == 6
    first = [r.k for r in result.reports[0].eigenvalues[0]]
    assert_allclose(first, [4.4934094579090642, 7.7252518369377072,
                            10.904121659428899], rtol=1e-10)
    for rep in result.reports:
        assert_allclose(rep.R_hat, 1.0, rtol=1e-12)
        assert [r.k for r in rep.eigenvalues[0]] == first
        assert rep.density.density == 0.25  # 3 eigenvalues below k = 12
    assert result.density_spread == 0.0
    assert result.intersection_size == 3


def test_spheroid_rays_disagree():
    dom = load_domain(DATA / "spheroid.json")
    result = per_ray_eigen_scan(dom, axis_directions(), 0, 12.0)
    assert result.density_spread > 0.15
    assert result.intersection_size == 0


def test_spheroid_rays_scale_with_the_ray_radius():
    # each ray solves the recentered one-radius problem, so k R is invariant
    dom = load_domain(DATA / "spheroid.json")
    pole = SphericalDirection(0.0, 0.0)
    equator = SphericalDirection(math.pi / 2, 0.0)
    result = per_ray_eigen_scan(dom, (pole, equator), 0, 12.0)
    rp, re = result.reports
    assert rp.R_hat > 1.15 > 1.05 > re.R_hat
    kp = rp.eigenvalues[0][0].k
    ke = re.eigenvalues[0][0].k
    assert_allclose(kp * rp.R_hat, ke * re.R_hat, rtol=1e-8)


def test_single_ray_intersection_is_its_own_list():
    result = per_ray_eigen_scan(unit_ball(), (SphericalDirection(0.3, 0.3),), 0, 12.0)
    assert len(result.reports) == 1
    assert result.intersection_size == 3


def report_bits(rep) -> tuple:
    """A ray report as exact data: floats by hex, records in order."""
    return (rep.direction, rep.R_hat.hex(), rep.density,
            {l: [(r.k.hex(), r.residual.hex(), r.bracket[0].hex(), r.bracket[1].hex())
                 for r in recs] for l, recs in rep.eigenvalues.items()})


@st.composite
def ray_batches(draw):
    """A seeded non-ball domain, 1-8 rays (axes and random), l_max and K."""
    angles = st.tuples(st.floats(0.0, math.pi), st.floats(0.0, 2 * math.pi, exclude_max=True))
    dirs = draw(st.lists(st.one_of(st.sampled_from(axis_directions()),
                                   angles.map(lambda a: SphericalDirection(*a))),
                         min_size=1, max_size=8))
    return (seeded_domain(draw(st.integers(0, 2**32 - 1))), tuple(dirs),
            draw(st.integers(0, 3)), draw(st.floats(4.0, 14.0)))


@settings(max_examples=15, deadline=None, derandomize=True)
@given(batch=ray_batches(), pick=st.integers(0, 7))
def test_a_ray_report_does_not_depend_on_its_batch(batch, pick):
    domain, dirs, l_max, K = batch
    i = pick % len(dirs)
    together = per_ray_eigen_scan(domain, dirs, l_max, K).reports[i]
    alone = per_ray_eigen_scan(domain, (dirs[i],), l_max, K).reports[0]
    assert report_bits(alone) == report_bits(together)


def test_a_built_domain_scans_with_one_legendre_table_and_no_norms(monkeypatch):
    # the mode plan, its norms and its weights are set at construction: a scan
    # evaluates one Legendre table and calls ylm_norm not at all
    domain = seeded_domain(7)
    tables, norms = [], []
    table, norm = legendre.LegendrePlan.table, harmonics.ylm_norm
    monkeypatch.setattr(legendre.LegendrePlan, "table",
                        lambda self, *a, **kw: tables.append(1) or table(self, *a, **kw))
    monkeypatch.setattr(harmonics, "ylm_norm", lambda *a: norms.append(1) or norm(*a))
    result = per_ray_eigen_scan(domain, axis_directions(), 3, 12.0)
    assert len(tables) == 1 and not norms
    assert result.reports[0].R_hat == ray_radius(domain, axis_directions()[0])
    # the plan is data of the instance: equality, hash and repr ignore it
    twin = StarlikeDomain(domain.L_geom, domain.rho_coeffs)
    assert twin == domain and hash(twin) == hash(domain)
    assert repr(twin) == repr(domain) and "_terms" not in repr(domain)
    assert len(norms) == len({(l, abs(m)) for l, m, _ in domain.rho_coeffs})


# values a rounding away from a distance of 1e-6 to each other
_NEAR = [1.0, 1.0 + 1e-6, 1.0 - 1e-6, 1.0 + 2e-6, math.nextafter(1.0 + 1e-6, 2.0),
         math.nextafter(1.0 - 1e-6, 0.0), 7.5, 7.5 + 1e-6, 7.5 - 1e-6 * (1 + 1e-15)]


@settings(max_examples=80, deadline=None, derandomize=True)
@given(lists=st.lists(st.lists(st.one_of(st.floats(-3.0, 3.0), st.sampled_from(_NEAR)),
                               max_size=6), min_size=1, max_size=5),
       tol=st.sampled_from([0.0, 1e-6, 0.5]))
def test_the_intersection_is_the_all_pairs_test(lists, tol):
    # each k is tested against the two nearest k of another list only;
    # the brute-force test over every pair keeps the same k, in order
    records = [tuple(EigenvalueRecord(0, k, 0.0, (k, k)) for k in ks) for ks in lists]
    brute = [k for k in lists[0]
             if all(any(abs(k - q) <= tol for q in other) for other in lists[1:])]
    assert _intersect(records, tol) == tuple(brute)


def test_ray_scan_validation():
    with pytest.raises(ValueError, match="at least one direction"):
        per_ray_eigen_scan(unit_ball(), (), 0, 12.0)
    with pytest.raises(ValueError, match="threads must be >= 1"):
        per_ray_eigen_scan(unit_ball(), axis_directions(), 0, 12.0, threads=0)


# ---------------------------------------------------------------- least squares

def test_ball_residual_vanishes_at_the_eigenfrequency():
    assert overdetermined_residual(unit_ball(), K1, L_trial=4) < 1e-10
    assert overdetermined_residual(unit_ball(), K1, L_trial=4,
                                   neumann="gradient") < 1e-10


def test_ball_residual_away_from_eigenfrequencies():
    # dense-scan regression value, L_trial = 8
    r = overdetermined_residual(unit_ball(), 2.0)
    assert_allclose(r, 0.4890481322867607, rtol=1e-6)
    assert overdetermined_residual(unit_ball(), 2.0, neumann="gradient") > 1e-2


def test_spheroid_residual_regression_value():
    dom = load_domain(DATA / "spheroid.json")
    assert_allclose(overdetermined_residual(dom, 0.52), 0.129186556853762,
                    rtol=1e-6)


def test_residual_floor_comes_from_overdetermination_not_truncation():
    conv = {L: overdetermined_residual(unit_ball(), 2.0, L) for L in (2, 4, 6, 8)}
    # dense-scan regression values: enlarging the trial space barely moves
    # the misfit, so the floor is the overdetermination itself
    assert_allclose(conv[2], 0.48907085895307345, rtol=1e-6)
    assert_allclose(conv[8], 0.4890481322867607, rtol=1e-6)
    assert max(conv.values()) - min(conv.values()) < 1e-3


def test_residual_scan_matches_pointwise_calls():
    ks = (1.0, 2.0, 3.0)
    for domain in (unit_ball(), seeded_domain(5)):
        scan = residual_scan(domain, ks, L_trial=4)
        assert scan.shape == (3,)
        for k, r in zip(ks, scan):
            assert_allclose(r, overdetermined_residual(domain, k, L_trial=4),
                            rtol=1e-12)


def test_block_scans_are_bitwise_their_pieces():
    # 40 frequencies span three blocks; cuts inside and across blocks
    domain = seeded_domain(7)
    ks = np.linspace(0.6, 11.0, 40)
    for neumann in ("normal", "gradient"):
        scan = residual_scan(domain, ks, L_trial=4, neumann=neumann)
        pieces = np.concatenate([residual_scan(domain, ks[a:b], L_trial=4, neumann=neumann)
                                 for a, b in ((0, 5), (5, 21), (21, 40))])
        assert scan.tobytes() == pieces.tobytes()
        for k, r in zip(ks[::7], scan[::7]):
            assert_allclose(r, overdetermined_residual(domain, k, L_trial=4, neumann=neumann),
                            rtol=1e-12)


def complex_basis_residual(frame, k: float, neumann: str) -> float:
    """Reference: the residual from the complex Y_l^m basis, assembled term by term.

    Reuses only the frame's geometry; the harmonic tables, the Bessel
    derivatives, the 1j * m phi derivative and the complex solve are the
    original complex-arithmetic formulation.
    """
    lv, mv = frame.l_values, frame.m_values
    Y = np.array([ylm(int(l), int(m), frame.theta, frame.phi) for l, m in zip(lv, mv)])
    dYdt = np.array([ylm_theta_derivative(int(l), int(m), frame.theta, frame.phi)
                     for l, m in zip(lv, mv)])
    x = k * frame.rho
    jl = np.array([spherical_jn(l, x) for l in range(frame.L_trial + 1)])
    jlp = np.array([spherical_jn(l, x, derivative=True) for l in range(frame.L_trial + 1)])
    dirichlet = jl[lv] * Y
    g_r = jlp[lv] * Y
    g_t = jl[lv] / frame.rho * dYdt / k
    g_p = jl[lv] / (frame.rho * frame.sin_t) * (1j * mv[:, None]) * Y / k
    if neumann == "normal":
        blocks = [dirichlet, frame.n_r * g_r + frame.n_t * g_t + frame.n_p * g_p]
    else:
        blocks = [dirichlet, g_r, g_t, g_p]
    A = np.vstack([blk.T for blk in blocks])
    b = np.zeros(A.shape[0], dtype=complex)
    b[:frame.rho.size] = 1.0
    scale = np.linalg.norm(A, axis=0)
    scale[scale == 0.0] = 1.0
    An = A / scale
    coeffs = np.linalg.lstsq(An, b, rcond=None)[0]
    return float(np.linalg.norm(An @ coeffs - b) / math.sqrt(A.shape[0]))


@settings(max_examples=30, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1),
       neumann=st.sampled_from(("normal", "gradient")),
       L_trial=st.sampled_from((2, 4, 8)),
       k=st.floats(0.5, 12.0))
def test_real_basis_matches_the_complex_basis(seed, neumann, L_trial, k):
    domain = seeded_domain(seed)
    got = residual_scan(domain, [k], L_trial=L_trial, neumann=neumann)[0]
    want = complex_basis_residual(collocation_frame(domain, L_trial), k, neumann)
    assert_allclose(got, want, rtol=1e-12, atol=1e-13)


def test_collocation_frame_defaults_and_guards():
    frame = collocation_frame(unit_ball(), L_trial=8)
    assert frame.rho.size == 200  # max(2 (L+1)^2, 200)
    assert collocation_frame(unit_ball(), L_trial=12).rho.size == 338
    with pytest.raises(ValueError):
        collocation_frame(unit_ball(), L_trial=8, n_collocation=100)
    with pytest.raises(ValueError, match="L_trial must be nonnegative"):
        collocation_frame(unit_ball(), L_trial=-1)


@pytest.mark.parametrize("bad", [2.5, 300.5, np.float64(8.0), True, False, "8"])
def test_collocation_counts_must_be_integers(bad):
    # range() once raised a bare TypeError for 2.5 and 300.5, and True ran
    # as L_trial = 1
    for name in ("L_trial", "n_collocation"):
        want = f"^{name} must be an integer, got {re.escape(repr(bad))}$"
        with pytest.raises(ValueError, match=want):
            collocation_frame(unit_ball(), **{name: bad})
        with pytest.raises(ValueError, match=want):
            residual_scan(unit_ball(), [2.0], **{name: bad})
        with pytest.raises(ValueError, match=want):
            overdetermined_residual(unit_ball(), 2.0, **{name: bad})


def test_numpy_integer_counts_are_python_ints():
    want = residual_scan(egg_domain(), [2.0, 3.5], L_trial=4, n_collocation=300)
    got = residual_scan(egg_domain(), [2.0, 3.5], L_trial=np.int64(4),
                        n_collocation=np.int32(300))
    assert got.tobytes() == want.tobytes()


def test_a_scan_past_the_kernel_range_names_k_and_the_radius(monkeypatch):
    # the Bessel tables once refused "|z|=2e+04 exceeds supported range",
    # a z the caller never passed; k max(rho) is now checked against Z_MAX
    # once the frame is built, and exactly where the tables would refuse
    want = (r"^scan frequency k = 20000 times the largest boundary radius max rho = 1 "
            r"is 20000, beyond the Bessel kernel's limit Z_MAX = 1e\+04$")
    with pytest.raises(ValueError, match=want):
        residual_scan(unit_ball(), [2.0, 2e4])
    with pytest.raises(ValueError, match=want):
        overdetermined_residual(unit_ball(), 2e4)
    rho_top = float(collocation_frame(egg_domain()).rho.max())
    k = 1e4 / rho_top
    while k * rho_top > 1e4:
        k = float(np.nextafter(k, 0.0))
    while float(np.nextafter(k, math.inf)) * rho_top <= 1e4:
        k = float(np.nextafter(k, math.inf))
    assert residual_scan(egg_domain(), [k]).shape == (1,)

    def refuse(*args):
        raise AssertionError("a Bessel table was built")

    monkeypatch.setattr(od, "spherical_jn_table", refuse)
    past = float(np.nextafter(k, math.inf))
    with pytest.raises(ValueError, match=f"^scan frequency k = {past:.6g} times the "
                                         f"largest boundary radius max rho = {rho_top:.6g}"):
        residual_scan(egg_domain(), [past])


def test_trial_degree_past_the_order_cap_is_rejected_before_any_table():
    # L_MAX + 1 would ask for three (3844, 7688) float64 tables, 226 MiB each
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=f"L_trial={L_MAX + 1} exceeds L_MAX={L_MAX}"):
            collocation_frame(unit_ball(), L_trial=L_MAX + 1)
        with pytest.raises(ValueError, match="exceeds L_MAX"):
            residual_scan(unit_ball(), [2.0], L_trial=L_MAX + 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_collocation_count_past_the_cap_is_rejected_before_any_table():
    # the cap admits the default count at every trial degree, and a count
    # past it fails before the directions are drawn
    assert max(2 * (L_MAX + 1) ** 2, 200) <= od._MAX_COLLOCATION
    assert collocation_frame(unit_ball(), L_trial=0,
                             n_collocation=od._MAX_COLLOCATION).rho.size == 16384
    tracemalloc.start()
    try:
        for n in (od._MAX_COLLOCATION + 1, 10**8):
            with pytest.raises(ValueError, match=f"n_collocation = {n} exceeds the limit "
                                                 "of 16384 collocation points"):
                residual_scan(unit_ball(), [2.0], n_collocation=n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_least_squares_validation():
    with pytest.raises(ValueError, match="positive and finite"):
        overdetermined_residual(unit_ball(), 0.0)
    with pytest.raises(ValueError, match="positive and finite"):
        overdetermined_residual(unit_ball(), math.inf)
    with pytest.raises(ValueError, match="neumann must be one of"):
        overdetermined_residual(unit_ball(), 1.0, neumann="sideways")
    with pytest.raises(ValueError, match="k_values is empty"):
        residual_scan(unit_ball(), ())
    with pytest.raises(ValueError, match="positive and finite"):
        residual_scan(unit_ball(), (1.0, -2.0))
    with pytest.raises(ValueError, match="threads must be >= 1"):
        residual_scan(unit_ball(), (1.0,), threads=0)


def test_a_frequency_whose_reciprocal_overflows_is_rejected_unbuilt(monkeypatch):
    # the Neumann rows are weighted by 1/k; at and below 2**-1024 that is inf,
    # which read as numpy overflow warnings and an unconverged SVD
    smallest = float(np.nextafter(2.0 ** -1024, 1.0))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        warnings.filterwarnings("ignore", message=".*rank deficient")
        for neumann in ("normal", "gradient"):
            assert np.all(residual_scan(unit_ball(), [smallest, 1e-308, 1.0],
                                        neumann=neumann) >= 0.0)

    def refuse(*args):
        raise AssertionError("a frame was built")

    monkeypatch.setattr(od, "collocation_frame", refuse)
    for bad in (5e-324, 2.0 ** -1024):
        with pytest.raises(ValueError, match=f"k = {bad} is too small: 1/k overflows"):
            overdetermined_residual(unit_ball(), bad)
        with pytest.raises(ValueError, match=f"k = {bad} is too small"):
            residual_scan(unit_ball(), [1.0, bad, 2.0])


def test_healthy_solve_emits_no_warnings():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        overdetermined_residual(unit_ball(), 3.0, L_trial=4)


def safe_column_norms(A: np.ndarray) -> np.ndarray:
    """Column norms of A, 1 for a zero column; no square underflows or overflows."""
    top = np.abs(A).max(axis=0)
    top[top == 0.0] = 1.0
    norms = top * np.linalg.norm(A / top, axis=0)
    norms[norms == 0.0] = 1.0
    return norms


def lstsq_reference(A: np.ndarray, b: np.ndarray) -> tuple[float, float]:
    """(residual, cond^2) of the equilibrated system by gelsd, rcond=None."""
    An = A / safe_column_norms(A)
    coeffs, _, _, sv = np.linalg.lstsq(An, b, rcond=None)
    cond = sv[0] / sv[-1] if sv[-1] > 0 else np.inf
    return float(np.linalg.norm(An @ coeffs - b) / math.sqrt(A.shape[0])), cond * cond


def transposed_system(A: np.ndarray, b: np.ndarray) -> np.ndarray:
    """[A / scale | b] transposed, the layout od._assemble writes."""
    scale = np.linalg.norm(A, axis=0)
    scale[scale == 0.0] = 1.0
    return np.vstack([(A / scale).T, b])


def test_rank_deficient_system_warns(monkeypatch):
    A = np.ones((10, 3))
    b = np.zeros(10)
    b[:5] = 1.0
    monkeypatch.setattr(od, "_assemble", lambda rows, j, jp, k, Ab: transposed_system(A, b))
    with pytest.warns(RuntimeWarning, match="rank deficient"):
        got = overdetermined_residual(unit_ball(), 1.0, L_trial=2)
    # gelsd drops the two null directions, leaving the fit by the mean
    want, _ = lstsq_reference(A, b)
    assert_allclose(want, 0.5, rtol=1e-14)
    assert_allclose(got, want, rtol=1e-12)


def nearly_dependent_system(cond2: float) -> tuple[np.ndarray, np.ndarray]:
    """A seeded 40 x 6 system whose equilibrated cond^2 is close to ``cond2``.

    The last column is the first plus eps times a random column; cond grows
    like 1/eps, so a few secant steps on eps hit the target.
    """
    def system(eps):
        rng = np.random.default_rng(3)
        A = rng.standard_normal((40, 6))
        A[:, -1] = A[:, 0] + eps * A[:, -1]
        return A, rng.standard_normal(40)

    eps = 1e-6
    for _ in range(4):
        eps *= math.sqrt(lstsq_reference(*system(eps))[1] / cond2)
    return system(eps)


@pytest.mark.parametrize("target", (0.99e12, 1.01e12))
def test_condition_warning_follows_the_singular_values(monkeypatch, target):
    A, b = nearly_dependent_system(target)
    want, cond2 = lstsq_reference(A, b)
    assert_allclose(cond2, target, rtol=1e-3)
    monkeypatch.setattr(od, "_assemble", lambda rows, j, jp, k, Ab: transposed_system(A, b))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        got = overdetermined_residual(unit_ball(), 1.0, L_trial=1)
    rank_warnings = [w for w in caught if "rank deficient" in str(w.message)]
    assert len(rank_warnings) == (1 if cond2 > 1e12 else 0)
    assert_allclose(got, want, rtol=1e-12)


@st.composite
def least_squares_systems(draw):
    """(A, b) with 1 <= n <= 81 columns and m >= 2 (n + 1) rows.

    The last column is either independent, a near copy of the first
    (cond^2 stays below about 1e10, where a QR residual and gelsd's agree to
    rtol 1e-12), or an exact multiple of it (cond^2 far above 1e12, so the
    rank-deficient truncation runs); any one column may also be zeroed.
    """
    n = draw(st.integers(1, 81))
    m = draw(st.integers(2 * (n + 1), 2 * (n + 1) + 240))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    A = rng.standard_normal((m, n))
    b = rng.standard_normal(m)
    if n >= 2:
        dependence = draw(st.sampled_from(("none", "near", "exact")))
        if dependence == "near":
            A[:, -1] = A[:, 0] + draw(st.floats(1e-4, 1.0)) * A[:, -1]
        elif dependence == "exact":
            A[:, -1] = draw(st.floats(0.1, 3.0)) * A[:, 0]
    if draw(st.booleans()):
        A[:, draw(st.integers(0, n - 1))] = 0.0
    return A, b


@settings(max_examples=100, deadline=None, derandomize=True)
@given(system=least_squares_systems(), order=st.sampled_from("CF"),
       scale_seed=st.one_of(st.none(), st.integers(0, 2**32 - 1)), lapack=st.booleans())
def test_solve_matches_gelsd_in_any_layout(system, order, scale_seed, lapack):
    A, b = system
    if scale_seed is None:
        # the equilibrated system, as the monkeypatched _assemble gives it
        Ab = transposed_system(A, b)
    else:
        # the raw system, as _assemble writes it, with column j scaled by
        # 10^U(-150, 150)
        A = A * 10.0 ** np.random.default_rng(scale_seed).uniform(-150.0, 150.0, A.shape[1])
        Ab = np.vstack([A.T, b])
    want, cond2 = lstsq_reference(A, b)
    # the rank flag is compared with gelsd's cond^2 away from its limit;
    # test_condition_warning_follows_the_singular_values covers the limit
    assume(not 1e11 < cond2 < 1e13)
    Ab = np.asarray(Ab, order=order)
    with pytest.MonkeyPatch.context() as mp, warnings.catch_warnings(record=True) as caught:
        if not lapack:
            mp.setattr(od, "_LAPACK", None)
        warnings.simplefilter("always")
        got, flagged = od._solve(Ab)
    # _solve flags, its public callers warn
    assert caught == []
    assert (flagged is not None) == (cond2 > 1e12)
    assert_allclose(got, want, rtol=1e-12)


@pytest.mark.parametrize("lapack", (True, False))
def test_a_column_whose_squares_underflow_is_equilibrated(lapack):
    # the entries of a column times 1e-170 square to 0, so a plain norm
    # would leave it unscaled and the condition bound would overflow
    rng = np.random.default_rng(3)
    A, b = rng.standard_normal((40, 6)), rng.standard_normal(40)
    A[:, 2] *= 1e-170
    want, cond2 = lstsq_reference(A, b)
    assert cond2 < 1e3
    with pytest.MonkeyPatch.context() as mp, warnings.catch_warnings():
        if not lapack:
            mp.setattr(od, "_LAPACK", None)
        warnings.simplefilter("error")
        got, flagged = od._solve(np.vstack([A.T, b]))
    assert flagged is None
    assert_allclose(got, want, rtol=1e-12)


def test_trial_degrees_whose_column_norms_underflow_stay_well_posed():
    # at k = 1e-6 the degree 21-25 columns of the unit ball's system have
    # norms near 1e-183; equilibrated from R they are no rank deficiency
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        r25 = residual_scan(unit_ball(), [1e-6], L_trial=25)[0]
        r20 = residual_scan(unit_ball(), [1e-6], L_trial=20, n_collocation=1352)[0]
    # on the same 1352 points (L_trial = 25's default) the degree-20 trial
    # space is nested in the degree-25 one, so its minimum is no lower
    assert r25 <= r20 * (1.0 + 1e-12)


def test_rank_warnings_point_at_the_caller_in_grid_order(monkeypatch):
    A = np.ones((10, 3))
    b = np.arange(10.0)
    monkeypatch.setattr(od, "_assemble", lambda rows, j, jp, k, Ab: transposed_system(A, b))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        overdetermined_residual(unit_ball(), 1.0, L_trial=2)
    assert [w.filename for w in caught] == [__file__]
    ks = np.linspace(1.0, 4.0, 40)  # three blocks
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        residual_scan(unit_ball(), ks, L_trial=2)
    assert {w.filename for w in caught} == {__file__}
    messages = [str(w.message) for w in caught]
    assert len(messages) == ks.size
    for k, message in zip(ks.tolist(), messages):
        assert f"at k = {k};" in message and "rank deficient" in message


def test_concurrent_scans_of_two_domains_equal_their_serial_runs():
    # each scan owns its workspace, so scans running at once share no
    # buffer, and the counted pin holds BLAS at one thread while either runs
    ks = np.linspace(0.6, 11.0, 40)
    domains = [seeded_domain(11), seeded_domain(12)]
    serial = [residual_scan(d, ks, L_trial=4).tobytes() for d in domains]
    with ThreadPoolExecutor(max_workers=2) as pool:
        for _ in range(3):
            futures = [pool.submit(residual_scan, d, ks, L_trial=4) for d in domains]
            assert [f.result().tobytes() for f in futures] == serial


def test_numpy_factorization_matches_the_lapack_one():
    ks = np.linspace(0.6, 11.0, 24)
    for seed, neumann in ((1, "normal"), (2, "gradient"), (901, "normal")):
        domain = seeded_domain(seed)
        lapack = residual_scan(domain, ks, neumann=neumann)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(od, "_LAPACK", None)
            numpy_qr = residual_scan(domain, ks, neumann=neumann)
        assert_allclose(numpy_qr, lapack, rtol=1e-14)


def openblas_threads() -> int:
    get, _ = od._OPENBLAS_THREADS
    return get()


needs_openblas = pytest.mark.skipif(od._OPENBLAS_THREADS is None,
                                    reason="numpy's OpenBLAS thread controls not found")


@needs_openblas
def test_scans_factor_with_numpy_openblas_lapack(monkeypatch):
    # wherever the thread controls resolve, so do dgeqrt and dtrtri, and a
    # scan runs them: the np.linalg branch is for numpys without them
    assert od._LAPACK is not None
    want = residual_scan(seeded_domain(4), [1.5, 6.0], L_trial=4)
    calls, lapack_geqrt = [], od._LAPACK.geqrt

    def geqrt(*args):
        # dgeqrt(m, n, ...) takes its sizes by pointer: m rows, n + 1 columns
        calls.append((args[0].contents.value, args[1].contents.value))
        return lapack_geqrt(*args)

    monkeypatch.setattr(od, "_LAPACK", dataclasses.replace(od._LAPACK, geqrt=geqrt))
    got = residual_scan(seeded_domain(4), [1.5, 6.0], L_trial=4)
    assert got.tobytes() == want.tobytes()
    assert calls == [(400, 26)] * 2


@needs_openblas
@settings(max_examples=10, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1),
       neumann=st.sampled_from(("normal", "gradient")),
       ks=st.lists(st.floats(0.5, 12.0), min_size=1, max_size=6))
def test_scans_restore_the_blas_thread_count(seed, neumann, ks):
    before = openblas_threads()
    residual_scan(seeded_domain(seed), ks, L_trial=4, neumann=neumann)
    assert openblas_threads() == before


def test_threads_are_validated_and_start_nothing(monkeypatch):
    # threads > 1 is accepted and ignored: every block runs in the calling
    # thread, with no other thread alive, and the bits are the serial ones
    ks = np.linspace(0.6, 11.0, 40)  # three blocks
    domain = seeded_domain(7)
    serial = residual_scan(domain, ks, L_trial=4)
    scan_block, seen = od._scan_block, []

    def counted(*args):
        seen.append((threading.current_thread(), threading.active_count()))
        return scan_block(*args)

    monkeypatch.setattr(od, "_scan_block", counted)
    running = threading.active_count()
    assert residual_scan(domain, ks, L_trial=4, threads=4).tobytes() == serial.tobytes()
    assert seen == [(threading.current_thread(), running)] * 3
    with pytest.raises(ValueError, match="threads must be >= 1"):
        residual_scan(domain, ks, L_trial=4, threads=0)


@needs_openblas
def test_overlapping_scans_from_two_threads_restore_the_blas_thread_count(monkeypatch):
    # both scans enter the pin, then the first leaves while the second is
    # still inside: the count must stay 1 until the second leaves too, and
    # then be what it was before either entered
    get, set_ = od._OPENBLAS_THREADS
    both_in, first_out = threading.Barrier(2), threading.Event()
    scan_block, seen, errors = od._scan_block, [], []

    def gated(*args):
        both_in.wait(timeout=60)
        if threading.current_thread().name == "second":
            first_out.wait(timeout=60)
        seen.append(get())
        return scan_block(*args)

    def scan(name):
        try:
            residual_scan(unit_ball(), [1.5], L_trial=2)
        except BaseException as exc:  # reported by the main thread
            errors.append(exc)
        if name == "first":
            first_out.set()

    monkeypatch.setattr(od, "_scan_block", gated)
    previous = get()
    set_(2)
    try:
        threads = [threading.Thread(target=scan, args=(name,), name=name)
                   for name in ("first", "second")]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
        assert not errors and seen == [1, 1]
        assert get() == 2
    finally:
        set_(previous)


@needs_openblas
def test_scans_hold_blas_to_one_thread_and_restore_it_on_error(monkeypatch):
    A = np.ones((10, 3))
    b = np.ones(10)
    seen = []

    def rank_deficient(rows, j, jp, k, Ab):
        seen.append(openblas_threads())
        return transposed_system(A, b)

    monkeypatch.setattr(od, "_assemble", rank_deficient)
    before = openblas_threads()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(RuntimeWarning, match="rank deficient"):
            residual_scan(unit_ball(), [1.0, 2.0], L_trial=2)
    assert openblas_threads() == before
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(RuntimeWarning, match="rank deficient"):
            overdetermined_residual(unit_ball(), 1.0, L_trial=2)
    assert openblas_threads() == before
    assert seen and set(seen) == {1}


# ---------------------------------------------------------------- ball modes

def test_ball_eigenfunction_frequencies():
    for n, root in enumerate((4.4934094579090642, 7.7252518369377072,
                              10.904121659428899), start=1):
        k, _ = ball_eigenfunction(1.0, n)
        assert_allclose(k, root, rtol=1e-12)
    k2, _ = ball_eigenfunction(2.0, 1)
    assert_allclose(k2, 4.4934094579090642 / 2, rtol=1e-12)
    # the root comes from a scan at R = 1, so the scan's absolute tolerances
    # do not meet the scale of R
    for R in (1e-8, 1e8):
        assert_allclose(ball_eigenfunction(R, 50)[0] * R, float(_tan_root(50)), rtol=1e-14)


def test_ball_eigenfunction_boundary_data():
    k, u = ball_eigenfunction(1.0, 1)
    assert u(1.0) == 1.0
    h = 1e-5
    assert abs(u(1.0 + h) - u(1.0 - h)) / (2 * h) < 1e-8
    vals = u(np.linspace(0.1, 1.0, 7))
    assert vals.shape == (7,)
    assert np.all(np.isfinite(vals))


def _tan_root(n: int):
    """The n-th positive root of tan x = x, by mpmath at 40 digits."""
    with mpmath.workdps(40):
        start = (n + 0.5) * mpmath.pi
        return mpmath.findroot(lambda x: mpmath.sin(x) - x * mpmath.cos(x),
                               start - 1 / start)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(log_R=st.floats(-3.0, 3.0), n=st.integers(1, 50))
def test_ball_mode_sits_on_the_root_of_tan_x_equals_x(log_R, n):
    R = 10.0 ** log_R
    k, u = ball_eigenfunction(R, n)
    x = k * R
    with mpmath.workdps(40):
        root = _tan_root(n)
        assert abs((mpmath.mpf(x) - root) / root) <= 1e-14
        # R u'(R) = -x j_1(x) / j_0(x) at the double x, which sits within
        # 1e-14 x of the root, so it is at most about 1e-14 x^2
        xm = mpmath.mpf(x)
        j0 = mpmath.sin(xm) / xm
        j1 = mpmath.sin(xm) / xm ** 2 - mpmath.cos(xm) / xm
        assert abs(xm * j1 / j0) <= 1e-14 * x * x
    assert u(R) == 1.0


def test_ball_eigenfunction_validation():
    for bad_n in (0, 51, 1.5):
        with pytest.raises(ValueError):
            ball_eigenfunction(1.0, bad_n)
    with pytest.raises(ValueError, match="positive and finite"):
        ball_eigenfunction(-1.0, 1)


# ---------------------------------------------------------------- far fields

def test_single_mode_far_field():
    pattern = FarFieldPattern({(0, 0): 1.0}, 1.0)
    u = far_field_from_coeffs(pattern, [SphericalDirection(0.3, 0.7)])
    assert u.shape == (1,)
    assert u[0].real == 0.0  # 1/i is exactly -i
    assert_allclose(u[0].imag, -0.28209479177387814, rtol=1e-14)
    # 1/i^2 is exactly -1, so the degree-one mode lands on the real axis
    u1 = far_field_from_coeffs(FarFieldPattern({(1, 0): 1.0}, 1.0),
                               [SphericalDirection(0.0, 0.0)])
    assert u1[0].imag == 0.0
    assert_allclose(u1[0].real, -0.4886025119029199, rtol=1e-14)


def test_far_field_is_linear_in_the_coefficients():
    dirs = [SphericalDirection(t, p) for t, p in [(0.4, 1.0), (1.3, 2.2), (2.5, 5.0)]]
    a = {(1, -1): 0.3 - 0.2j, (2, 2): 1.1j}
    b = {(1, -1): -0.5j, (4, 0): 0.7}
    combined = {key: 2.0 * a.get(key, 0) + 3.0 * b.get(key, 0)
                for key in set(a) | set(b)}
    ua = far_field_from_coeffs(FarFieldPattern(a, 2.0), dirs)
    ub = far_field_from_coeffs(FarFieldPattern(b, 2.0), dirs)
    uc = far_field_from_coeffs(FarFieldPattern(combined, 2.0), dirs)
    assert_allclose(uc, 2.0 * ua + 3.0 * ub, rtol=1e-13)


def test_far_field_matches_brute_force_sum():
    rng = np.random.default_rng(7)
    coeffs = {(n, m): complex(rng.standard_normal(), rng.standard_normal())
              for n in range(6) for m in range(-n, n + 1)}
    k = 1.7
    dirs = [SphericalDirection(1.1, 0.6), SphericalDirection(2.0, 4.4)]
    u = far_field_from_coeffs(FarFieldPattern(coeffs, k), dirs)
    for i, d in enumerate(dirs):
        brute = sum(value * ylm(n, m, d.theta, d.phi) / (1j) ** (n + 1)
                    for (n, m), value in coeffs.items()) / k
        assert_allclose(u[i], brute, rtol=1e-12)


def test_pattern_validation():
    with pytest.raises(ValueError, match="positive and finite"):
        FarFieldPattern({(0, 0): 1.0}, 0.0)
    with pytest.raises(ValueError, match="not integer"):
        FarFieldPattern({(0.5, 0): 1.0}, 1.0)
    with pytest.raises(ValueError, match="out of range"):
        FarFieldPattern({(-1, 0): 1.0}, 1.0)
    with pytest.raises(ValueError, match="out of range"):
        FarFieldPattern({(1, 2): 1.0}, 1.0)
    with pytest.raises(ValueError, match="not finite"):
        FarFieldPattern({(0, 0): math.inf}, 1.0)


# ---------------------------------------------------------------- expansions

def test_expansion_recovers_a_pure_mode():
    quad = sphere_quadrature()
    coeffs = rellich_expand(ylm(2, 1, quad.theta[:, None], quad.phi[None, :]), 4, quad)
    assert_allclose(coeffs[(2, 1)], 1.0, rtol=1e-12)
    others = [abs(v) for key, v in coeffs.items() if key != (2, 1)]
    assert max(others) < 1e-10


def test_expansion_of_a_constant():
    quad = sphere_quadrature()
    coeffs = rellich_expand(np.ones_like(quad.weights), 2, quad)
    assert_allclose(coeffs[(0, 0)], SQRT_4PI, rtol=1e-12)


def test_expansion_reads_off_the_radial_factor():
    # u = j_1(kr) Y_1^0 sampled on the sphere kr = 6
    quad = sphere_quadrature()
    samples = spherical_jn(1, 6.0) * ylm(1, 0, quad.theta[:, None], quad.phi[None, :])
    coeffs = rellich_expand(samples, 3, quad)
    assert_allclose(coeffs[(1, 0)], -0.16778992272503115, rtol=1e-12)


def test_band_limited_roundtrip():
    rng = np.random.default_rng(11)
    quad = sphere_quadrature()
    truth = {(l, m): complex(rng.standard_normal(), rng.standard_normal())
             for l in range(9) for m in range(-l, l + 1)}
    samples = sum(c * ylm(l, m, quad.theta[:, None], quad.phi[None, :])
                  for (l, m), c in truth.items())
    recovered = rellich_expand(samples, 8, quad)
    for key, c in truth.items():
        assert_allclose(recovered[key], c, rtol=1e-10, atol=1e-12)


def test_expansion_aliasing_warning_and_shape_guard():
    quad = sphere_quadrature(16, 32)
    samples = np.ones_like(quad.weights)
    with pytest.warns(RuntimeWarning, match="alias"):
        rellich_expand(samples, 10, quad)
    with pytest.raises(ValueError, match="samples shape"):
        rellich_expand(np.ones((4, 4)), 2, quad)
