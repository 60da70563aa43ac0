"""Zero-distribution numerics for entire functions of exponential type.

Sector zero counts N(f, alpha, beta, r) by the argument principle, whose
ratio N/r over growing r is the zero density of an order-one function,
and the Lindelof indicator h_f(theta) = lim log|f(r e^{i theta})|/r.
Callers supply pure evaluators; functions that overflow double precision
along rays are handled through a log-magnitude evaluator instead of raw
magnitudes.  Zeros at the origin are excluded from every count by a
fixed inner contour radius.

Contour evaluators act elementwise on a complex ndarray and return the
pair ``(f(path), f'(path))``, two arrays of ``path.shape``; for example
``lambda z: (np.sin(z), np.cos(z))`` or ``eigsearch.dispersion_function``.
A contour is a ``PanelPath`` of panels carrying the 15 nodes of the
Gauss-Kronrod pair G7/K15 (QUADPACK, Piessens et al. 1983), geometrically
convergent on each side, corners included.  The K15 winding of f'/f is
the count when it and the summed |K15 - G7| / 2 pi lie within 1e-2 of an
integer and of 0; else flagged panels are bisected, one evaluator call a
pass (``winding_count``).  A node where |f| is at most 1e-8 of the
largest |f| on its panel is a zero of f on the contour.  Each job has one
home: the ``PanelPath`` constructors check a contour's input,
``winding_count`` counts on the path it is given, and
``zero_count_sector`` only nudges the angles off a zero on the contour.
The indicator evaluates f alone, at scalar points, after checking theta
and every radius.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Callable, Sequence

import numpy as np

from .errors import NumericalError

__all__ = [
    "PanelPath",
    "SectorCount",
    "IndicatorSample",
    "zero_count_sector",
    "winding_count",
    "indicator",
]

_INNER_RADIUS = 0.25
_ANGLE_NUDGE = 1e-3
_MAX_CONTOUR_NODES = 1 << 22  # a refined path's nodes: 64 MB complex
_BAND = 1e-2  # bound on the error estimate and on the winding's distance from an integer
_MAX_BISECTIONS = 40  # 2^-40 of a first-pass panel nears the spacing of doubles

# G7/K15 on [-1, 1] (QUADPACK's qk15): the Kronrod nodes x >= 0 from the
# outermost in, their K15 weights, and the G7 weights of the Gauss nodes
# among them (every second node from the second)
_XK = np.array([0.991455371120812639, 0.949107912342758525, 0.864864423359769073,
                0.741531185599394440, 0.586087235467691130, 0.405845151377397167,
                0.207784955007898468, 0.0])
_WK = np.array([0.022935322010529225, 0.063092092629978553, 0.104790010322250184,
                0.140653259715525919, 0.169004726639267903, 0.190350578064785410,
                0.204432940075298892, 0.209482141084727828])
_WG = np.array([0.129484966168869693, 0.279705391489276668, 0.381830050505118945,
                0.417959183673469388])
_X, _K = np.r_[-_XK, _XK[-2::-1]], np.r_[_WK, _WK[-2::-1]]  # all 15, ascending
_G = np.zeros(15)
_G[1::2] = np.r_[_WG, _WG[-2::-1]]

Evaluator = Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]]


class _ContourZeroError(NumericalError):
    """f vanishes at a contour node."""


@dataclasses.dataclass(frozen=True)
class SectorCount:
    """Zeros of f in the sector alpha < arg z < beta, inner radius < |z| <= r."""

    alpha: float
    beta: float
    r: float
    count: int


@dataclasses.dataclass(frozen=True)
class IndicatorSample:
    """Sampled quotients log|f(r e^{i theta})|/r and their extrapolated limit."""

    theta: float
    r_values: tuple[float, ...]
    h_estimates: tuple[float, ...]
    h_extrapolated: float

    def __post_init__(self) -> None:
        if len(self.r_values) < 3:
            raise ValueError("indicator extrapolation needs at least 3 radii")


@dataclasses.dataclass(frozen=True)
class PanelPath:
    """A closed counterclockwise contour as panels, each the straight
    segment ``centre[i] + half[i] x`` for x in [-1, 1].  The segments lie
    in the z plane, or with ``log`` in the log z plane, where an arc about
    the origin is straight and a ray is graded geometrically.

    The constructors take a node budget ``quad_nodes``: the sides share
    quad_nodes // 15 panels in proportion to their z-plane length, rounded
    down, at least one a side.  They hold every check of a contour's
    input, each a ValueError raised before any node exists: first their
    own checks of the shape, then ``quad_nodes`` not an integer >= 2."""

    centre: np.ndarray
    half: np.ndarray
    log: bool = False

    @classmethod
    def _polygon(cls, corners: list[complex], lengths: list[float], quad_nodes: int,
                 log: bool = False) -> "PanelPath":
        if not (isinstance(quad_nodes, (int, np.integer)) and quad_nodes >= 2):
            raise ValueError(f"quad_nodes must be an integer >= 2, got {quad_nodes!r}")
        counts = [max(1, int(int(quad_nodes) // 15 * length / sum(lengths)))
                  for length in lengths]
        frac = np.concatenate([(np.arange(n) + 0.5) / n for n in counts])
        start = np.repeat(np.array(corners, dtype=complex), counts)
        side = np.repeat(np.roll(np.array(corners, dtype=complex), -1) - corners, counts)
        return cls(start + side * frac, side / (2 * np.repeat(counts, counts)), log)

    @classmethod
    def rectangle(cls, rect: tuple[float, float, float, float], quad_nodes: int) -> "PanelPath":
        """The boundary of (re_lo, re_hi, im_lo, im_hi).  ValueError for a
        non-finite corner or an empty rectangle."""
        re_lo, re_hi, im_lo, im_hi = rect
        if not all(map(math.isfinite, rect)):
            raise ValueError(f"rectangle corners must be finite, got {rect}")
        if not (re_lo < re_hi and im_lo < im_hi):
            raise ValueError("rectangle must have positive extent")
        return cls._polygon([complex(re_lo, im_lo), complex(re_hi, im_lo),
                             complex(re_hi, im_hi), complex(re_lo, im_hi)],
                            [re_hi - re_lo, im_hi - im_lo] * 2, quad_nodes)

    @classmethod
    def sector(cls, alpha: float, beta: float, r: float, quad_nodes: int) -> "PanelPath":
        """The boundary of alpha < arg z < beta, 0.25 < |z| < r: two rays,
        the outer arc and the inner arc.  ValueError for non-finite angles
        or radius, alpha >= beta, r <= 0.25, and a path too long to refine
        to panels of length 1/4 within 2^22 nodes."""
        if not all(map(math.isfinite, (alpha, beta, r))):
            raise ValueError(f"sector angles and radius must be finite, "
                             f"got alpha={alpha}, beta={beta}, r={r}")
        if not alpha < beta:
            raise ValueError("need alpha < beta")
        if r <= _INNER_RADIUS:
            raise ValueError(f"sector radius must exceed the inner cutoff {_INNER_RADIUS}")
        ray, arc = r - _INNER_RADIUS, beta - alpha
        sides = [ray, r * arc, ray, _INNER_RADIUS * arc]
        length = sum(sides)
        if 60 * length > _MAX_CONTOUR_NODES:
            raise ValueError(f"sector radius r={r} needs {60 * length:.6g} nodes to refine "
                             f"its path of length {length:.6g} to panels of length 1/4, "
                             f"more than {_MAX_CONTOUR_NODES}")
        lo, hi = math.log(_INNER_RADIUS), math.log(r)
        return cls._polygon([complex(lo, alpha), complex(hi, alpha),
                             complex(hi, beta), complex(lo, beta)],
                            sides, quad_nodes, log=True)

    def nodes(self) -> np.ndarray:
        """The (panels, 15) array of nodes in the z plane."""
        w = self.centre[:, None] + self.half[:, None] * _X
        return np.exp(w) if self.log else w


def _panel_windings(f: Evaluator, path: PanelPath, name: str) -> tuple[np.ndarray, np.ndarray]:
    """Each panel's K15 winding (1/2 pi i) times the integral of f'/f, and
    its estimate |K15 - G7| / 2 pi, from one call f(nodes) -> (f, f')."""
    z = path.nodes()
    pair = f(z.reshape(-1))
    if not (isinstance(pair, tuple) and [np.shape(v) for v in pair] == [(z.size,)] * 2):
        raise ValueError(
            "contour evaluators must act elementwise on a complex ndarray and "
            f"return the pair (f, f') of arrays of the path's shape {(z.size,)}")
    values, deriv = (np.asarray(v).reshape(z.shape) for v in pair)
    mags = np.abs(values)
    peak = mags.max(axis=1, keepdims=True)
    if not (np.isfinite(peak).all() and np.isfinite(deriv).all()):
        raise RuntimeError(f"{name} quadrature failed: f or f' is not finite on the contour")
    # the scale is the panel's own: entire functions of exponential type
    # vary by many orders of magnitude along one contour
    if np.any(mags <= 1e-8 * peak):
        raise _ContourZeroError("zero of f detected on the contour")
    g = deriv / values * (path.half[:, None] / (2j * math.pi))
    if path.log:
        g *= z  # dz = z dw
    k15 = (g * _K).sum(axis=1)  # no BLAS call, as in the rest of a contour pass
    return k15, np.abs(k15 - (g * _G).sum(axis=1))


def winding_count(f: Evaluator, path: PanelPath, name: str) -> int:
    """Zero count of f inside ``path`` by the argument principle.

    ``path`` is the first pass, checked by the constructor that built it.
    Each pass makes one evaluator call.  The count stands when the summed
    |K15 - G7| / 2 pi and the K15 winding's distance from an integer are
    both at most 1e-2.  Otherwise the panels whose estimate exceeds an
    equal share of 1e-2 (every panel, if none does) are bisected, and the
    next pass evaluates only the new panels.  A path that would pass 2^22
    nodes, or a flagged panel bisected 40 times already, raises
    RuntimeError "<name> quadrature failed: winding <w>"; a non-finite f
    or f' raises it at once.  A node where |f| is at most 1e-8 of the
    largest |f| on its panel is a zero on the contour: NumericalError (a
    ValueError).
    """
    # per panel: centre, half-length, bisections, K15 winding, estimate
    panels = [path.centre, path.half, np.zeros(path.centre.size, dtype=int),
              *_panel_windings(f, path, name)]
    while True:
        centre, half, depth, k15, est = panels
        w, err = float(k15.sum().real), float(est.sum())
        if not math.isfinite(w + err):  # f'/f overflowed between detected zeros
            break
        nearest = round(w)
        if err <= _BAND and abs(w - nearest) <= _BAND:
            return int(nearest)
        flag = est > _BAND / est.size
        if not flag.any():
            flag[:] = True
        if 15 * (centre.size + np.count_nonzero(flag)) > _MAX_CONTOUR_NODES \
                or depth[flag].max() >= _MAX_BISECTIONS:
            break
        h = half[flag] / 2
        new = PanelPath(np.concatenate([centre[flag] - h, centre[flag] + h]),
                        np.concatenate([h, h]), path.log)
        born = [new.centre, new.half, np.tile(depth[flag] + 1, 2),
                *_panel_windings(f, new, name)]
        panels = [np.concatenate([old[~flag], young]) for old, young in zip(panels, born)]
    raise RuntimeError(f"{name} quadrature failed: winding {w}")


def zero_count_sector(f: Evaluator, alpha: float, beta: float, r: float,
                      quad_nodes: int = 1024) -> SectorCount:
    """Argument-principle zero count over the sector contour.

    The contour consists of two radial segments, the outer arc at radius
    ``r``, and an inner arc at radius 0.25 that excludes any zero at the
    origin; ``f`` maps a complex ndarray to the pair (f, f').  The count
    is ``winding_count`` on ``PanelPath.sector``, G7/K15 panels of log z,
    accepted when the summed estimate and the distance from an integer
    are both at most 1e-2.  ``PanelPath.sector`` raises the ValueError of
    a bad angle, radius or ``quad_nodes``, before any evaluation.  A node
    where |f| is at most 1e-8 of the largest |f| on its panel is a zero on
    the contour, which belongs to the countable exceptional set of ray
    angles; both angles are nudged by 1e-3 (up to three times) before the
    count is abandoned.
    """
    a, b = alpha, beta
    last_err: Exception | None = None
    for _ in range(4):
        try:
            count = winding_count(f, PanelPath.sector(a, b, r, quad_nodes), "sector")
        except _ContourZeroError as err:
            last_err = err
            a -= _ANGLE_NUDGE
            b -= _ANGLE_NUDGE
            continue
        return SectorCount(a, b, r, count)
    raise NumericalError(f"could not free the sector contour of zeros: {last_err}")


def indicator(f: Callable[[complex], complex], theta: float,
              r_sequence: Sequence[float],
              log_abs: Callable[[complex], float] | None = None) -> IndicatorSample:
    """Lindelof indicator along the ray of angle theta.

    Quotients log|f(r e^{i theta})|/r are sampled over ``r_sequence``
    (increasing, at least 3 radii, max >= 50) and extrapolated by an
    affine fit in 1/r through the top three samples, the O(log r / r)
    convergence model of sine-type functions.  For functions whose
    magnitude overflows doubles along the ray, pass ``log_abs`` computing
    log|f| directly; raw magnitudes are never required in that case.
    A non-finite theta, or a non-finite or non-positive radius, raises
    ValueError before any evaluation.
    """
    rs = [float(r) for r in r_sequence]
    if len(rs) < 3 or any(b <= a for a, b in zip(rs, rs[1:])):
        raise ValueError("r_sequence must be increasing with at least 3 entries")
    if rs[-1] < 50.0:
        raise ValueError("largest radius must be at least 50")
    if not all(math.isfinite(r) and r > 0.0 for r in rs):
        raise ValueError(f"radii must be finite and positive, got {rs}")
    if not math.isfinite(theta):
        raise ValueError(f"theta must be finite, got {theta!r}")
    direction = complex(math.cos(theta), math.sin(theta))
    hs = []
    for r in rs:
        z = r * direction
        if log_abs is not None:
            logmag = float(log_abs(z))
        else:
            mag = abs(f(z))
            if not math.isfinite(mag):
                raise OverflowError(
                    "evaluator overflowed; supply log_abs for this ray")
            if mag == 0.0:
                raise NumericalError(f"f vanishes at the sample point r={r}")
            logmag = math.log(mag)
        hs.append(logmag / r)
    top = np.array(rs[-3:])
    fit = np.polynomial.polynomial.polyfit(1.0 / top, np.array(hs[-3:]), 1)
    return IndicatorSample(theta, tuple(rs), tuple(hs), float(fit[0]))
