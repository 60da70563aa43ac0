"""Outside-in layer tracing for the benchmark.

The tracer rebinds, from outside the package, the module-level names
through which one layer of schifferlab calls the next.  Each rebound call
records a span (id, name, start, end, parent span, workload unit, size)
in a per-thread list, so pool threads never share a list or a stack.
Nothing under ``src/`` knows about it; ``uninstall`` puts every original
object back, and ``originals`` lists what is bound at each traced name.

Spans stay in memory until the worker writes them out after its timed
phase.  ``layer_metrics`` turns them into the per-layer table.
"""

from __future__ import annotations

import importlib
import itertools
import statistics
import threading
import time

import numpy as np

# (module, attribute, span name, size of one call or None)
TARGETS = (
    ("schifferlab.eigsearch", "riccati_table", "specfun.riccati_table",
     lambda args, out: int(np.size(args[1]))),
    ("schifferlab.eigsearch", "dispersion", "eigsearch.dispersion", None),
    ("schifferlab.eigsearch", "brentq", "eigsearch.brentq", None),
    ("schifferlab.scatter.rays", "find_real_eigenvalues", "eigsearch.find_real_eigenvalues",
     lambda args, out: len(out)),
    ("schifferlab.scatter.rays", "ray_radius", "domain.ray_radius", None),
    ("schifferlab.scatter.overdetermined", "collocation_frame",
     "overdetermined.collocation_frame", None),
    ("schifferlab.scatter.overdetermined", "spherical_jn", "overdetermined.spherical_jn", None),
    ("schifferlab.scatter.overdetermined", "ylm", "specfun.ylm", None),
    ("schifferlab.scatter.overdetermined", "ylm_theta_derivative",
     "specfun.ylm_theta_derivative", None),
    ("numpy.linalg", "lstsq", "numpy.linalg.lstsq", None),
)

# the spans the benchmark opens itself around public entry points
SCAN_RAYS = "rays.per_ray_eigen_scan"
SCAN_BOUNDARY = "overdetermined.residual_scan"
CONTOUR_RECT = "eigsearch.count_zeros_argument_principle"
CONTOUR_SECTOR = "entire.zero_count_sector"


class Tracer:
    """Span recorder with thread-local stacks; install once, uninstall once."""

    def __init__(self) -> None:
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._lists: list[list[tuple]] = []
        self._originals: list[tuple[object, str, object]] = []
        self._outer = 0  # span a pool thread's first call hangs under
        self.unit = -1
        self.counters: dict[str, int] = {}

    # -- recording -------------------------------------------------------
    def _state(self):
        local = self._local
        if not hasattr(local, "stack"):
            local.stack = []
            local.spans = []
            with self._lock:
                local.thread = len(self._lists)
                self._lists.append(local.spans)
        return local

    def _record(self, name, size, fn, args, kwargs):
        local = self._state()
        sid = next(self._ids)
        parent = local.stack[-1] if local.stack else self._outer
        local.stack.append(sid)
        t0 = time.perf_counter()
        try:
            out = fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter()
            local.stack.pop()
        n = size(args, out) if size is not None else 1
        local.spans.append((sid, name, t0, t1, parent, self.unit, local.thread, n))
        return out

    def call(self, name, unit, fn, *args, **kwargs):
        """Run ``fn`` as a top-level span of workload unit ``unit``."""
        self.unit = unit
        local = self._state()
        sid = next(self._ids)
        local.stack.append(sid)
        self._outer = sid
        t0 = time.perf_counter()
        try:
            out = fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter()
            local.stack.pop()
            self._outer = 0
        local.spans.append((sid, name, t0, t1, 0, unit, local.thread, 1))
        return out

    def count(self, name: str, n: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + n

    def counted(self, name: str, fn):
        """``fn`` wrapped so that each call bumps counter ``name``."""
        def wrapper(*args, **kwargs):
            self.count(name)
            return fn(*args, **kwargs)
        return wrapper

    # -- rebinding -------------------------------------------------------
    def install(self) -> None:
        if self._originals:
            raise RuntimeError("tracer is already installed")
        for module_name, attr, span, size in TARGETS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._originals.append((module, attr, original))
            setattr(module, attr, self._wrapper(span, size, original))

    def _wrapper(self, name, size, fn):
        record = self._record

        def traced(*args, **kwargs):
            return record(name, size, fn, args, kwargs)

        traced.__wrapped__ = fn
        return traced

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._originals):
            setattr(module, attr, original)
        self._originals.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    @property
    def spans(self) -> list[tuple]:
        return [s for spans in self._lists for s in spans]


def originals() -> dict[str, object]:
    """The objects currently bound at every traced name."""
    return {f"{m}.{a}": getattr(importlib.import_module(m), a) for m, a, _, _ in TARGETS}


def save_spans(spans: list[tuple], path) -> None:
    """Write spans as columns of an .npz archive; names go in a lookup table."""
    names = sorted({s[1] for s in spans})
    index = {n: i for i, n in enumerate(names)}
    cols = list(zip(*spans)) if spans else [()] * 8
    np.savez(path, names=np.array(names),
             id=np.array(cols[0], dtype=np.int64),
             name=np.array([index[n] for n in cols[1]], dtype=np.int32),
             start=np.array(cols[2], dtype=float), end=np.array(cols[3], dtype=float),
             parent=np.array(cols[4], dtype=np.int64), unit=np.array(cols[5], dtype=np.int64),
             thread=np.array(cols[6], dtype=np.int32), size=np.array(cols[7], dtype=np.int64))


def _covered(lo: float, hi: float, intervals: list[tuple[float, float]]) -> float:
    """Length of [lo, hi] covered by the union of ``intervals``."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def _percentile_ms(durations: list[float], q: int) -> float:
    if not durations:
        return 0.0
    if len(durations) == 1:
        return durations[0] * 1e3
    return statistics.quantiles(durations, n=100, method="inclusive")[q - 1] * 1e3


def layer_metrics(spans: list[tuple], counters: dict[str, int], wall_s: float,
                  threads: int) -> dict[str, float]:
    """Per-layer counts and times from one traced timed phase."""
    by_name: dict[str, list[tuple]] = {}
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        by_name.setdefault(s[1], []).append(s)
        children.setdefault(s[4], []).append((s[2], s[3]))

    def calls(name):
        return len(by_name.get(name, ()))

    def secs(name):
        return sum((s[3] - s[2] for s in by_name.get(name, ())), 0.0)

    def size(name):
        return sum(s[7] for s in by_name.get(name, ()))

    def self_s(name):
        return sum(((s[3] - s[2]) - _covered(s[2], s[3], children.get(s[0], []))
                    for s in by_name.get(name, ())), 0.0)

    def durations(name):
        return [s[3] - s[2] for s in by_name.get(name, ())]

    riccati_points = size("specfun.riccati_table")
    roots = size("eigsearch.find_real_eigenvalues")
    evals = calls("eigsearch.dispersion")
    counts = calls(CONTOUR_RECT) + calls(CONTOUR_SECTOR)
    f_evals = counters.get("entire.f_evals", 0)
    # busy time: traced calls hanging directly under a boundary scan, any thread
    scan_ids = {s[0] for s in by_name.get(SCAN_BOUNDARY, ())}
    busy = sum(s[3] - s[2] for s in spans if s[4] in scan_ids)

    return {
        "specfun.riccati_calls": calls("specfun.riccati_table"),
        "specfun.riccati_points": riccati_points,
        "specfun.riccati_s": secs("specfun.riccati_table"),
        "specfun.riccati_us_per_point":
            secs("specfun.riccati_table") / riccati_points * 1e6 if riccati_points else 0.0,
        "specfun.ylm_calls": calls("specfun.ylm") + calls("specfun.ylm_theta_derivative"),
        "specfun.ylm_s": secs("specfun.ylm") + secs("specfun.ylm_theta_derivative"),
        "eigsearch.scan_calls": calls("eigsearch.find_real_eigenvalues"),
        "eigsearch.scan_s": secs("eigsearch.find_real_eigenvalues"),
        "eigsearch.scan_ms_p50": _percentile_ms(durations("eigsearch.find_real_eigenvalues"), 50),
        "eigsearch.scan_ms_p90": _percentile_ms(durations("eigsearch.find_real_eigenvalues"), 90),
        "eigsearch.dispersion_evals": evals,
        "eigsearch.roots": roots,
        "eigsearch.evals_per_root": evals / roots if roots else 0.0,
        "eigsearch.brent_calls": calls("eigsearch.brentq"),
        "eigsearch.brent_s": secs("eigsearch.brentq"),
        "eigsearch.contour_calls": calls(CONTOUR_RECT),
        "eigsearch.contour_s": secs(CONTOUR_RECT),
        "entire.sector_calls": calls(CONTOUR_SECTOR),
        "entire.sector_s": secs(CONTOUR_SECTOR),
        "entire.angle_nudges": counters.get("entire.angle_nudges", 0),
        "entire.f_evals": f_evals,
        "entire.f_evals_per_count": f_evals / counts if counts else 0.0,
        "domain.ray_radius_calls": calls("domain.ray_radius"),
        "domain.ray_radius_s": secs("domain.ray_radius"),
        "rays.scan_s": secs(SCAN_RAYS),
        "rays.self_s": self_s(SCAN_RAYS),
        "overdetermined.scan_s": secs(SCAN_BOUNDARY),
        "overdetermined.frame_s": secs("overdetermined.collocation_frame"),
        "overdetermined.self_s": self_s(SCAN_BOUNDARY),
        "overdetermined.jn_calls": calls("overdetermined.spherical_jn"),
        "overdetermined.jn_s": secs("overdetermined.spherical_jn"),
        "overdetermined.solve_calls": calls("numpy.linalg.lstsq"),
        "overdetermined.solve_s": secs("numpy.linalg.lstsq"),
        "overdetermined.solve_ms_p50": _percentile_ms(durations("numpy.linalg.lstsq"), 50),
        "overdetermined.solve_ms_p90": _percentile_ms(durations("numpy.linalg.lstsq"), 90),
        "overdetermined.cond_warnings": counters.get("overdetermined.cond_warnings", 0),
        "overdetermined.busy_frac": busy / (wall_s * threads) if scan_ids else 0.0,
    }
