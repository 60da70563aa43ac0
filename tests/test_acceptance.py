"""Desk-scale acceptance checks, one test per criterion.

Each test states its tolerance and runtime budget inline and emits a
single pass/fail line under pytest -v.  The density-law check is known
to fail for the two highest-degree cases at unit radius and below; the
failure message lists every measured gap so the deficit is auditable.
"""

import functools
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
from numpy.testing import assert_allclose

from schifferlab.eigsearch import (
    count_zeros_argument_principle,
    density_estimate,
    dispersion,
    dispersion_function,
    find_real_eigenvalues,
)
from schifferlab.entire import indicator
from schifferlab.radial import (
    RadialProblem,
    solve_from_boundary,
    verify_asymptotic_46,
    verify_estimate_123,
)
from schifferlab.scatter import (
    axis_directions,
    load_domain,
    overdetermined_residual,
    per_ray_eigen_scan,
    residual_scan,
    unit_ball,
)
from schifferlab.specfun import riccati_table

DATA = Path(__file__).parent / "data"
K1 = 4.4934094579090642  # first root of tan x = x, mpmath


def test_01_wronskian_identity_across_degrees_and_the_real_axis():
    """S_l C_l' - S_l' C_l = -1 to relative 1e-8, l <= 20, 1000 abscissae, < 5 s."""
    t0 = time.perf_counter()
    worst = 0.0
    for x in np.linspace(0.1, 100.0, 1000):
        S, C, Sp, Cp = riccati_table(20, x)
        worst = max(worst, float(np.max(np.abs(S * Cp - Sp * C + 1.0))))
    elapsed = time.perf_counter() - t0
    assert worst <= 1e-8, f"worst Wronskian defect {worst:.3e}"
    assert elapsed <= 5.0, f"took {elapsed:.2f} s"


def test_02_closed_form_and_ode_solutions_agree():
    """Inward/outward trajectories match A S_l + B C_l to scaled 1e-6 on [0.05, 3], < 30 s."""
    t0 = time.perf_counter()
    worst = 0.0
    for l in range(11):
        for k in (1.0, 5.0, 10.0):
            prob = RadialProblem(l, k, 1.0, None)
            for direction, r_end in (("outward", 3.0), ("inward", 0.05)):
                sol = solve_from_boundary(prob, direction, r_end, 2e-3)
                A, B = sol.closed_form
                scale = float(np.max(np.abs(sol.y)))
                for r, y in zip(sol.grid[::37], sol.y[::37]):
                    if r < 0.05:
                        continue
                    S, C, _, _ = riccati_table(l, k * r)
                    worst = max(worst, abs(y - (A * S[l] + B * C[l])) / scale)
    elapsed = time.perf_counter() - t0
    assert worst <= 1e-6, f"worst scaled defect {worst:.3e}"
    assert elapsed <= 30.0, f"took {elapsed:.2f} s"


def test_03_density_law_across_degrees_and_radii():
    """|count/K - R/pi| <= 0.03 R/pi at K = 200 max(1, 1/R), < 2 min.

    Known deficit: the l pi/2 phase shift displaces the l = 5 spectrum
    outward by about 2.5 zeros, which the fixed window cannot absorb at
    R <= 1; those cases genuinely exceed the 3 percent band.
    """
    t0 = time.perf_counter()
    rows = []
    for l in (0, 1, 2, 5):
        for R in (0.5, 1.0, 2.0):
            est = density_estimate(l, R, 200.0 * max(1.0, 1.0 / R))
            rows.append((l, R, est.relative_gap))
    elapsed = time.perf_counter() - t0
    assert elapsed <= 120.0, f"took {elapsed:.2f} s"
    offenders = [(l, R, gap) for l, R, gap in rows if gap > 0.03]
    detail = "; ".join(f"l={l} R={R}: gap {gap:.4f}" for l, R, gap in rows)
    assert not offenders, f"density gaps above 3 percent: {offenders}; all gaps: {detail}"


def test_04_every_zero_in_the_strip_is_real():
    """Argument-principle count on [0.5, 50] x [-3, 3] equals the real-axis count, l <= 5, < 2 min."""
    t0 = time.perf_counter()
    for l in range(6):
        real_count = len(find_real_eigenvalues(l, 1.0, 50.0))
        boxed = count_zeros_argument_principle(
            dispersion_function(l, 1.0), (0.5, 50.0, -3.0, 3.0))
        assert boxed == real_count, f"l={l}: boxed {boxed} vs real {real_count}"
    elapsed = time.perf_counter() - t0
    assert elapsed <= 120.0, f"took {elapsed:.2f} s"


def test_05_indicator_recovers_the_exponential_type():
    """Extrapolated h(pi/2) within 5 percent of R - xi for xi in {0, 0.25, 0.5}, < 1 min."""
    t0 = time.perf_counter()
    radii = (12.5, 25.0, 50.0, 100.0, 200.0)
    for xi in (0.0, 0.25, 0.5):
        d = 1.0 - xi
        if xi == 0.0:
            f = functools.partial(dispersion, 0, 1.0)
        else:
            f = lambda z, d=d: np.cos(z * d) - np.sin(z * d) / z
        h = indicator(f, math.pi / 2, radii).h_extrapolated
        assert abs(h - d) <= 0.05 * d, f"xi={xi}: h {h:.6f} vs type {d}"
    elapsed = time.perf_counter() - t0
    assert elapsed <= 60.0, f"took {elapsed:.2f} s"


def test_06_remainder_estimate_holds_and_decays():
    """lhs <= rhs for l <= 2, both potentials, k in {20, 40, 80}, and lhs |k| <= 12, < 1 min."""
    t0 = time.perf_counter()
    worst_excess = 0.0
    worst_scaled = 0.0
    for l in (0, 1, 2):
        for potential in (None, lambda r: 1.0):
            prob = RadialProblem(l, 1.0, 1.0, potential)
            recs = verify_estimate_123(prob, 1.0, 1.0, (0.25, 0.5, 0.75),
                                       (20.0, 40.0, 80.0))
            for rec in recs:
                assert rec.satisfied, f"l={l} xi={rec.xi} k={rec.k}: " \
                                      f"lhs {rec.lhs:.3e} > rhs {rec.rhs:.3e}"
                worst_excess = max(worst_excess, rec.lhs / rec.rhs)
                worst_scaled = max(worst_scaled, rec.lhs * abs(rec.k))
    elapsed = time.perf_counter() - t0
    assert worst_scaled <= 12.0, f"sup lhs |k| = {worst_scaled:.3f}"  # observed 9.42
    assert elapsed <= 60.0, f"took {elapsed:.2f} s"


def test_07_fixed_frequency_sequence_has_a_common_constant():
    """|s_l - R| xi_l stays below a frozen constant through l = 8 for R in {1, 2}, < 1 min."""
    t0 = time.perf_counter()
    for R, k0, cap in ((1.0, K1, 1.1e7), (2.0, K1 / 2.0, 1.6e5)):
        rep = verify_asymptotic_46(8, k0, R)
        assert rep.deviations[0] < 1e-12
        assert rep.c_common <= cap, f"R={R}: c_common {rep.c_common:.4e} > {cap:.1e}"
    elapsed = time.perf_counter() - t0
    assert elapsed <= 60.0, f"took {elapsed:.2f} s"


def test_08_boundary_least_squares_separates_ball_from_spheroid():
    """Ball residual <= 1e-8 at the eigenfrequency; spheroid dense-scan minimum
    pinned at 0.1292 and at least 10x the ball value, < 10 min."""
    t0 = time.perf_counter()
    ball_res = overdetermined_residual(unit_ball(), K1)
    assert ball_res <= 1e-8, f"ball residual {ball_res:.3e}"
    ks = np.linspace(0.52, 12.0, 575)  # step 0.02 on (0.5, 12]
    scan = residual_scan(load_domain(DATA / "spheroid.json"), ks)
    spheroid_min = float(np.min(scan))
    assert spheroid_min >= 10.0 * ball_res
    assert_allclose(spheroid_min, 0.129186556853762, rtol=1e-3)  # dense-scan regression
    elapsed = time.perf_counter() - t0
    assert elapsed <= 600.0, f"took {elapsed:.2f} s"


def test_09_per_ray_spectra_agree_only_for_the_ball():
    """Ball: spread <= 2 percent, nonempty intersection; spheroid: spread >= 15
    percent, empty intersection below k = 12, < 5 min."""
    t0 = time.perf_counter()
    dirs = axis_directions()
    ball = per_ray_eigen_scan(unit_ball(), dirs, 0, 12.0)
    assert ball.density_spread <= 0.02, f"ball spread {ball.density_spread:.4f}"
    assert ball.intersection_size > 0
    spheroid = per_ray_eigen_scan(load_domain(DATA / "spheroid.json"), dirs, 0, 12.0)
    assert spheroid.density_spread >= 0.15, \
        f"spheroid spread {spheroid.density_spread:.4f}"
    assert spheroid.intersection_size == 0
    elapsed = time.perf_counter() - t0
    assert elapsed <= 300.0, f"took {elapsed:.2f} s"


def test_10_cli_is_deterministic_and_exits_by_contract(tmp_path):
    """Byte-identical repeated output; exit codes 0, 1, and 2 all exercised."""
    env = os.environ.copy()
    env.pop("SCHIFFER_LAB_THREADS", None)

    def run(*args):
        return subprocess.run([sys.executable, "-m", "schifferlab", *args],
                              capture_output=True, text=True, env=env)

    outs = []
    for name in ("first.csv", "second.csv"):
        out = tmp_path / name
        res = run("eigen-scan", "--l", "1", "--k-max", "14", "--out", str(out))
        assert res.returncode == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1], "repeated runs differ byte for byte"

    assert run("ball-check", "--r", "1", "--n", "1").returncode == 0
    assert run("domain-residual", "--domain", str(DATA / "ball.json"),
               "--k", "2").returncode == 1
    assert run("specfun-check", "--l-max", "200").returncode == 2
