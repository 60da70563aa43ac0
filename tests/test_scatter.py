"""Starlike domains, per-ray scans, boundary least squares, far fields."""

import json
import math
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy.special import spherical_jn

from schifferlab.scatter import (
    FarFieldPattern,
    StarlikeDomain,
    axis_directions,
    ball_eigenfunction,
    boundary_normal,
    collocation_frame,
    far_field_from_coeffs,
    load_domain,
    overdetermined_residual,
    per_ray_eigen_scan,
    ray_radius,
    rellich_expand,
    residual_scan,
    save_domain,
    trial_convergence,
    unit_ball,
)
from schifferlab.scatter import overdetermined as od
from schifferlab.specfun import (
    SphericalDirection,
    sphere_quadrature,
    ylm,
    ylm_on_grid,
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


def test_ball_normal_is_radial():
    # cartesian components of r_hat at (theta, phi) = (0.8, 1.9)
    n = boundary_normal(unit_ball(), SphericalDirection(0.8, 1.9))
    st, ct = math.sin(0.8), math.cos(0.8)
    assert_allclose(n, [st * math.cos(1.9), st * math.sin(1.9), ct], rtol=1e-14)


def test_egg_normal_tilt_at_the_equator():
    # rho falls from 1.1 at the pole to 1.0 at the equator, tipping the
    # normal toward increasing theta by arctan(0.1); at theta = pi/2,
    # phi = 0 the theta direction points along -z
    n = boundary_normal(egg_domain(), SphericalDirection(math.pi / 2, 0.0))
    assert_allclose(n[0], 0.9950371902099892, rtol=1e-12)
    assert abs(n[1]) < 1e-15
    assert_allclose(n[2], -0.09950371902099889, rtol=1e-12)


def test_normals_are_unit_vectors():
    dom = load_domain(DATA / "spheroid.json")
    for theta, phi in [(0.2, 0.5), (1.0, 2.5), (1.57, 4.0), (2.9, 1.1)]:
        n = boundary_normal(dom, SphericalDirection(theta, phi))
        assert_allclose(np.linalg.norm(n), 1.0, rtol=1e-12)


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


def test_domain_file_roundtrip(tmp_path):
    egg = egg_domain()
    path = tmp_path / "egg.json"
    save_domain(egg, path)
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


def test_threaded_scan_matches_serial():
    dirs = axis_directions()
    a = per_ray_eigen_scan(unit_ball(), dirs, 1, 9.0, threads=1)
    b = per_ray_eigen_scan(unit_ball(), dirs, 1, 9.0, threads=2)
    for ra, rb in zip(a.reports, b.reports):
        assert ra.eigenvalues == rb.eigenvalues


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
    conv = trial_convergence(unit_ball(), 2.0, (2, 4, 6, 8))
    assert sorted(conv) == [2, 4, 6, 8]
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
        threaded = residual_scan(domain, ks, L_trial=4, threads=2)
        assert list(threaded) == list(scan)


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
    b[:frame.n_points] = 1.0
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
    assert frame.n_points == 200  # max(2 (L+1)^2, 200)
    assert collocation_frame(unit_ball(), L_trial=12).n_points == 338
    with pytest.raises(ValueError):
        collocation_frame(unit_ball(), L_trial=8, n_collocation=100)
    with pytest.raises(ValueError, match="L_trial must be nonnegative"):
        collocation_frame(unit_ball(), L_trial=-1)


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


def test_healthy_solve_emits_no_warnings():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        overdetermined_residual(unit_ball(), 3.0, L_trial=4)


def lstsq_reference(A: np.ndarray, b: np.ndarray) -> tuple[float, float]:
    """(residual, cond^2) of the equilibrated system by gelsd, rcond=None."""
    scale = np.linalg.norm(A, axis=0)
    scale[scale == 0.0] = 1.0
    An = A / scale
    coeffs, _, _, sv = np.linalg.lstsq(An, b, rcond=None)
    cond = sv[0] / sv[-1] if sv[-1] > 0 else np.inf
    return float(np.linalg.norm(An @ coeffs - b) / math.sqrt(A.shape[0])), cond * cond


def test_rank_deficient_system_warns(monkeypatch):
    A = np.ones((10, 3))
    b = np.zeros(10)
    b[:5] = 1.0
    monkeypatch.setattr(od, "_assemble", lambda frame, k, neumann: (A, b))
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
    monkeypatch.setattr(od, "_assemble", lambda frame, k, neumann: (A, b))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        got = overdetermined_residual(unit_ball(), 1.0, L_trial=1)
    rank_warnings = [w for w in caught if "rank deficient" in str(w.message)]
    assert len(rank_warnings) == (1 if cond2 > 1e12 else 0)
    assert_allclose(got, want, rtol=1e-12)


def openblas_threads() -> int:
    get, _ = od._OPENBLAS_THREADS
    return get()


needs_openblas = pytest.mark.skipif(od._OPENBLAS_THREADS is None,
                                    reason="numpy's OpenBLAS thread controls not found")


@needs_openblas
@settings(max_examples=10, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1),
       neumann=st.sampled_from(("normal", "gradient")),
       ks=st.lists(st.floats(0.5, 12.0), min_size=1, max_size=6))
def test_threaded_scan_is_bitwise_serial_and_restores_blas_threads(seed, neumann, ks):
    domain = seeded_domain(seed)
    before = openblas_threads()
    serial = residual_scan(domain, ks, L_trial=4, neumann=neumann)
    assert openblas_threads() == before
    threaded = residual_scan(domain, ks, L_trial=4, neumann=neumann, threads=2)
    assert openblas_threads() == before
    assert threaded.tobytes() == serial.tobytes()


@needs_openblas
def test_scans_hold_blas_to_one_thread_and_restore_it_on_error(monkeypatch):
    A = np.ones((10, 3))
    b = np.ones(10)
    seen = []

    def rank_deficient(frame, k, neumann):
        seen.append(openblas_threads())
        return A, b

    monkeypatch.setattr(od, "_assemble", rank_deficient)
    before = openblas_threads()
    for threads in (1, 2):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(RuntimeWarning, match="rank deficient"):
                residual_scan(unit_ball(), [1.0, 2.0], L_trial=2, threads=threads)
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


def test_ball_eigenfunction_boundary_data():
    k, u = ball_eigenfunction(1.0, 1)
    assert u(1.0) == 1.0
    h = 1e-5
    assert abs(u(1.0 + h) - u(1.0 - h)) / (2 * h) < 1e-8
    vals = u(np.linspace(0.1, 1.0, 7))
    assert vals.shape == (7,)
    assert np.all(np.isfinite(vals))


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


def test_pattern_truncation_and_tail():
    assert FarFieldPattern({}, 2.0).n_trunc == 0
    pattern = FarFieldPattern({(0, 0): 3.0, (2, 1): 4.0j}, 2.0)
    assert pattern.n_trunc == 2
    assert pattern.tail_energy(1) == pytest.approx(16.0)
    assert pattern.tail_energy(0) == pytest.approx(25.0)


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
    coeffs = rellich_expand(ylm_on_grid(2, 1, quad), 4, quad)
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
    samples = spherical_jn(1, 6.0) * ylm_on_grid(1, 0, quad)
    coeffs = rellich_expand(samples, 3, quad)
    assert_allclose(coeffs[(1, 0)], -0.16778992272503115, rtol=1e-12)


def test_band_limited_roundtrip():
    rng = np.random.default_rng(11)
    quad = sphere_quadrature()
    truth = {(l, m): complex(rng.standard_normal(), rng.standard_normal())
             for l in range(9) for m in range(-l, l + 1)}
    samples = sum(c * ylm_on_grid(l, m, quad) for (l, m), c in truth.items())
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
