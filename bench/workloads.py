"""The four benchmark workloads: seeded inputs, the timed calls, and the gates.

Each workload builds its inputs from a seed, runs them through public
entry points of schifferlab (optionally under a ``Tracer``), and checks
every unit of output outside the timed phase.  ``canonical`` turns the
outputs into exact JSON-able data (floats as hex), so two runs can be
compared bit for bit.
"""

from __future__ import annotations

import dataclasses
import math
import os
import warnings
from pathlib import Path

import numpy as np
from scipy.optimize import brentq
from scipy.special import spherical_jn

from schifferlab.eigsearch import (
    count_zeros_argument_principle,
    dispersion_function,
    find_real_eigenvalues,
)
from schifferlab.entire import zero_count_sector
from schifferlab.scatter import (
    StarlikeDomain,
    axis_directions,
    load_domain,
    overdetermined_residual,
    per_ray_eigen_scan,
    residual_scan,
    unit_ball,
)

import tracing

DATA = Path(__file__).resolve().parent / "data"
K1 = 4.4934094579090642  # first root of tan x = x
SPHEROID_MIN = 0.129186556853762  # dense-scan minimum pinned by test_08
TEST08_GRID = np.linspace(0.52, 12.0, 575)


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def spheroid() -> StarlikeDomain:
    """The spheroid of acceptance tests 08 and 09 (a copy of its domain file)."""
    return load_domain(DATA / "spheroid.json")


def random_domain(rng: np.random.Generator, L: int = 4, amp: float = 0.08) -> StarlikeDomain:
    """A starlike perturbation of the unit ball, real coefficients up to degree L."""
    coeffs = [(0, 0, math.sqrt(4 * math.pi))]
    for l in range(1, L + 1):
        sigma = amp * math.sqrt(4 * math.pi) / ((l + 1) * math.sqrt(2 * l + 1))
        for m in range(l + 1):
            v = float(rng.normal(0.0, sigma))
            coeffs.append((l, m, v))
            if m:
                coeffs.append((l, -m, v))
    return StarlikeDomain(L, tuple(coeffs))


def _djl_brackets(l: int, x_lo: float, x_hi: float) -> tuple[np.ndarray, np.ndarray]:
    x = np.append(np.arange(x_lo, x_hi, 0.01), x_hi)
    v = spherical_jn(l, x, derivative=True)
    return x, np.nonzero(np.sign(v[:-1]) * np.sign(v[1:]) < 0)[0]


def djl_count(l: int, x_lo: float, x_hi: float) -> int:
    """Number of zeros of j_l' on (x_lo, x_hi], from scipy's sign changes alone."""
    return len(_djl_brackets(l, x_lo, x_hi)[1])


def djl_zeros(l: int, x_lo: float, x_hi: float) -> list[float]:
    """Zeros of j_l' on (x_lo, x_hi] from scipy alone, by sign changes and brentq."""
    x, idx = _djl_brackets(l, x_lo, x_hi)
    f = lambda t: spherical_jn(l, t, derivative=True)
    return [brentq(f, x[i], x[i + 1], xtol=1e-14) for i in idx]


def _hex(x: float) -> str:
    return float(x).hex()


def _error(exc: Exception) -> dict:
    return {"error": f"{type(exc).__name__}: {exc}"}


@dataclasses.dataclass
class Check:
    """Outcome of the gates: units attempted and failed, with notes on failures."""

    attempted: int = 0
    failed: int = 0
    notes: list = dataclasses.field(default_factory=list)

    def unit(self, ok: bool, note: str, n: int = 1) -> None:
        self.attempted += n
        if not ok:
            self.failed += n
            self.notes.append(note)


# --------------------------------------------------------------------------
# ray_spectrum


class RaySpectrum:
    """per_ray_eigen_scan on the ball, the spheroid and seeded starlike domains."""

    name = "ray_spectrum"
    threads = 1
    sizes = {"full": 50, "tiny": 2}
    l_max = 3
    K = 12.0  # the test_09 window

    def build(self, seed: int, size: str) -> dict:
        rng = np.random.default_rng(seed)
        domains = [("ball", unit_ball()), ("spheroid", spheroid())]
        domains += [(f"random{i}", random_domain(rng)) for i in range(self.sizes[size])]
        return {"domains": domains, "directions": axis_directions(),
                "size": {"domains": len(domains), "rays": 6, "l_max": self.l_max,
                         "K": self.K, "threads": self.threads}}

    def warm_up(self) -> None:
        per_ray_eigen_scan(unit_ball(), axis_directions()[:2], 1, 6.0)

    def run(self, inputs: dict, tracer: tracing.Tracer | None) -> list:
        out = []
        for i, (_, dom) in enumerate(inputs["domains"]):
            args = (dom, inputs["directions"], self.l_max, self.K)
            try:
                if tracer is None:
                    res = per_ray_eigen_scan(*args, threads=self.threads)
                else:
                    res = tracer.call(tracing.SCAN_RAYS, i, per_ray_eigen_scan, *args,
                                      threads=self.threads)
            except Exception as exc:  # a failed unit is counted, not fatal
                res = exc
            out.append(res)
        return out

    def canonical(self, outputs: list) -> list:
        rows = []
        for res in outputs:
            if isinstance(res, Exception):
                rows.append(_error(res))
                continue
            rows.append([[_hex(rep.R_hat),
                          {str(l): [_hex(r.k) for r in recs] for l, recs in rep.eigenvalues.items()}]
                         for rep in res.reports])
        return rows

    def check(self, inputs: dict, outputs: list) -> Check:
        """Every root against scipy's j_l' (B(k) = R x j_l'(x), x = kR), per ray and l.

        A root passes when |x j_l'(x)| <= 1e-8 at its x and the ray's root
        count equals scipy's count of j_l' zeros in the scanned window.
        The ball must keep a nonempty cross-ray intersection; the spheroid
        must have an empty one with a density spread of at least 0.15.
        """
        check = Check()
        for (label, dom), res in zip(inputs["domains"], outputs):
            if isinstance(res, Exception):
                check.unit(False, f"{label}: {res!r}")
                continue
            for rep in res.reports:
                R = rep.R_hat
                for l, recs in rep.eigenvalues.items():
                    expected = djl_count(l, math.pi / 4, self.K * R)
                    x = np.array([rec.k * R for rec in recs])
                    resid = np.abs(x * spherical_jn(l, x, derivative=True))
                    if len(recs) != expected:
                        check.unit(False, f"{label} R={R} l={l}: {len(recs)} roots, "
                                          f"scipy {expected}", n=max(len(recs), 1))
                        continue
                    for k, r in zip(x / R, resid):
                        check.unit(r <= 1e-8, f"{label} R={R} l={l} k={k}: |x j_l'(x)| = {r}")
            if label == "ball":
                check.unit(res.intersection_size > 0, "ball: empty cross-ray intersection")
            elif label == "spheroid":
                check.unit(res.intersection_size == 0 and res.density_spread >= 0.15,
                           f"spheroid: intersection {res.intersection_size}, "
                           f"spread {res.density_spread}")
        return check


# --------------------------------------------------------------------------
# contour_count


def _away_from_roots(k: float, roots: list[float], spacing: float) -> float:
    """Move a contour edge at least a quarter spacing away from every real root."""
    if any(abs(k - r) < 0.25 * spacing for r in roots):
        k += 0.5 * spacing
    return k


class ContourCount:
    """Argument-principle counts of dispersion_function(l, R) on rectangles and sectors."""

    name = "contour_count"
    threads = 1
    sizes = {"full": (0, 1, 2, 3, 4, 5), "tiny": (0, 1)}  # even l: rectangle, odd l: sector

    def build(self, seed: int, size: str) -> dict:
        rng = np.random.default_rng(seed)
        jobs = []
        for l in self.sizes[size]:
            R = float(rng.uniform(0.8, 1.25))
            spacing = math.pi / R
            roots = [x / R for x in djl_zeros(l, 0.05, 40.0 * R)]
            if l % 2 == 0:
                a = _away_from_roots(float(rng.uniform(0.5, 8.0)), roots, spacing)
                b = _away_from_roots(a + float(rng.uniform(20.0, 30.0)), roots, spacing)
                h = float(rng.uniform(1.5, 3.0))
                jobs.append({"kind": "rect", "l": l, "R": R, "rect": (a, b, -h, h)})
            else:
                r = _away_from_roots(float(rng.uniform(12.0, 20.0)), roots, spacing)
                alpha = -float(rng.uniform(0.05, 0.15))
                beta = float(rng.uniform(0.05, 0.15))
                jobs.append({"kind": "sector", "l": l, "R": R, "alpha": alpha, "beta": beta,
                             "r": r})
        return {"jobs": jobs,
                "size": {"counts": len(jobs), "degrees": list(self.sizes[size]),
                         "quad_nodes": 1024, "threads": self.threads}}

    def warm_up(self) -> None:
        count_zeros_argument_principle(dispersion_function(0, 1.0), (1.0, 6.0, -1.0, 1.0),
                                       quad_nodes=128)
        zero_count_sector(dispersion_function(0, 1.0), -0.1, 0.1, 6.0, quad_nodes=128)

    def run(self, inputs: dict, tracer: tracing.Tracer | None) -> list:
        out = []
        for i, job in enumerate(inputs["jobs"]):
            f = dispersion_function(job["l"], job["R"])
            if tracer is not None:
                f = tracer.counted("entire.f_evals", f)
            try:
                if job["kind"] == "rect":
                    args = (f, job["rect"])
                    if tracer is None:
                        res = count_zeros_argument_principle(*args)
                    else:
                        res = tracer.call(tracing.CONTOUR_RECT, i,
                                          count_zeros_argument_principle, *args)
                else:
                    args = (f, job["alpha"], job["beta"], job["r"])
                    if tracer is None:
                        res = zero_count_sector(*args)
                    else:
                        res = tracer.call(tracing.CONTOUR_SECTOR, i, zero_count_sector, *args)
                        tracer.count("entire.angle_nudges",
                                      round((job["alpha"] - res.alpha) / 1e-3))
            except Exception as exc:  # a failed unit is counted, not fatal
                res = exc
            out.append(res)
        return out

    def canonical(self, outputs: list) -> list:
        rows = []
        for res in outputs:
            if isinstance(res, Exception):
                rows.append(_error(res))
            elif isinstance(res, int):
                rows.append(res)
            else:
                rows.append([_hex(res.alpha), _hex(res.beta), _hex(res.r), res.count])
        return rows

    def check(self, inputs: dict, outputs: list) -> Check:
        """Each count equals the real-axis root count in its window (test_04's invariant).

        The real roots come from find_real_eigenvalues; scipy's j_l' zeros
        must give the same number.
        """
        check = Check()
        for job, res in zip(inputs["jobs"], outputs):
            l, R = job["l"], job["R"]
            if isinstance(res, Exception):
                check.unit(False, f"{job}: {res!r}")
                continue
            if job["kind"] == "rect":
                lo, hi = job["rect"][0], job["rect"][1]
                got = res
            else:
                lo, hi = 0.25, job["r"]
                got = res.count
            real = [r.k for r in find_real_eigenvalues(l, R, hi) if r.k > lo]
            ref = djl_count(l, lo * R, hi * R)
            check.unit(got == len(real) == ref,
                       f"{job}: contour {got}, real axis {len(real)}, scipy {ref}")
        return check


# --------------------------------------------------------------------------
# boundary_scan and boundary_scan_mt


class BoundaryScan:
    """residual_scan on the test_08 spheroid grid and on seeded non-ball domains."""

    name = "boundary_scan"
    sizes = {"full": (2, 32), "tiny": (1, 4)}
    L_trial = 8

    @property
    def threads(self) -> int:
        return 1

    def build(self, seed: int, size: str) -> dict:
        rng = np.random.default_rng(seed)
        n_dom, n_k = self.sizes[size]
        # the tiny size thins the test_08 grid; every 25th point keeps its minimum
        spheroid_grid = TEST08_GRID if size == "full" else TEST08_GRID[::25]
        scans = [("spheroid", spheroid(), spheroid_grid)]
        grid = np.linspace(0.6, 9.0, n_k)
        scans += [(f"random{i}", random_domain(rng), grid) for i in range(n_dom)]
        return {"scans": scans,
                "size": {"frequencies": int(sum(len(g) for _, _, g in scans)),
                         "domains": len(scans), "L_trial": self.L_trial,
                         "rows": 400, "columns": (self.L_trial + 1) ** 2,
                         "threads": self.threads}}

    def warm_up(self) -> None:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            residual_scan(unit_ball(), [K1, 2.0], L_trial=self.L_trial, threads=self.threads)

    def scan(self, inputs: dict, tracer: tracing.Tracer | None, threads: int) -> list:
        out = []
        for i, (_, dom, grid) in enumerate(inputs["scans"]):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always", RuntimeWarning)
                try:
                    if tracer is None:
                        res = residual_scan(dom, grid, L_trial=self.L_trial, threads=threads)
                    else:
                        res = tracer.call(tracing.SCAN_BOUNDARY, i, residual_scan, dom, grid,
                                          L_trial=self.L_trial, threads=threads)
                except Exception as exc:  # a failed unit is counted, not fatal
                    res = exc
            if tracer is not None:
                tracer.count("overdetermined.cond_warnings",
                             sum(issubclass(w.category, RuntimeWarning) for w in caught))
            out.append(res)
        return out

    def run(self, inputs: dict, tracer: tracing.Tracer | None) -> list:
        return self.scan(inputs, tracer, self.threads)

    def reference(self, inputs: dict) -> list:
        """The serial scan of the same inputs, for the bitwise threaded gate."""
        return self.scan(inputs, None, 1)

    def canonical(self, outputs: list) -> list:
        return [_error(res) if isinstance(res, Exception) else [_hex(v) for v in res]
                for res in outputs]

    def check(self, inputs: dict, outputs: list) -> Check:
        """Residuals are finite and in [0, 1/sqrt 2]; non-balls stay far above the ball.

        The spheroid's minimum on its grid is test_08's pinned 0.129186556853762
        (rtol 1e-3), the ball's residual at its first eigenfrequency is at most
        1e-8, and each non-ball minimum is at least ten times that residual.
        """
        check = Check()
        ball = overdetermined_residual(unit_ball(), K1, L_trial=self.L_trial)
        check.unit(ball <= 1e-8, f"ball residual {ball} > 1e-8")
        for (label, _, grid), res in zip(inputs["scans"], outputs):
            if isinstance(res, Exception):
                check.unit(False, f"{label}: {res!r}", n=len(grid))
                continue
            low = float(np.min(res))
            ok_domain = low >= 10.0 * ball
            if label == "spheroid":
                ok_domain = ok_domain and math.isclose(low, SPHEROID_MIN, rel_tol=1e-3)
            for k, v in zip(grid, res):
                ok = bool(np.isfinite(v)) and 0.0 <= v <= math.sqrt(0.5) + 1e-12 and ok_domain
                check.unit(ok, f"{label} k={k}: residual {v}, domain minimum {low}")
        return check


class BoundaryScanMT(BoundaryScan):
    """The same inputs as boundary_scan, fanned out over nproc threads."""

    name = "boundary_scan_mt"

    @property
    def threads(self) -> int:
        return nproc()


WORKLOADS = {w.name: w for w in (RaySpectrum(), ContourCount(), BoundaryScan(), BoundaryScanMT())}
