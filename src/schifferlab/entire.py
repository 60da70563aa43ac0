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
One contour costs one call, whatever the number of nodes, and f'/f has
no step-size error.  The indicator evaluates f alone, at scalar points.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Callable, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import NumericalError

__all__ = [
    "SectorCount",
    "IndicatorSample",
    "zero_count_sector",
    "winding_count",
    "indicator",
]

_INNER_RADIUS = 0.25
_ANGLE_NUDGE = 1e-3
_MAX_CONTOUR_NODES = 1 << 22  # a refined sector path's nodes: 64 MB complex

Evaluator = Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]]


class _ContourZeroError(NumericalError):
    """f vanishes at a contour node (or everywhere on the contour)."""


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


def _sector_sizes(alpha: float, beta: float, r: float, nodes: int) -> tuple[int, float, int]:
    """Nodes on each ray, the outer arc (nodes/(2 pi) per unit length; inf
    where that overflows) and the inner arc of the path at resolution nodes."""
    arc = nodes * r * (beta - alpha) / (2 * math.pi)
    n_arc = max(nodes, int(arc) + 16) if math.isfinite(arc) else math.inf
    return nodes, n_arc, max(64, nodes // 8)


def _sector_contour(alpha: float, beta: float, r: float,
                    nodes: int) -> np.ndarray:
    """Counterclockwise sector boundary with the inner-radius cutout."""
    r0 = _INNER_RADIUS
    n_rad, n_arc, n_inner = _sector_sizes(alpha, beta, r, nodes)
    out_ray = np.linspace(r0, r, n_rad) * np.exp(1j * alpha)
    arc = r * np.exp(1j * np.linspace(alpha, beta, n_arc))
    in_ray = np.linspace(r, r0, n_rad) * np.exp(1j * beta)
    inner = r0 * np.exp(1j * np.linspace(beta, alpha, n_inner))
    return np.concatenate([out_ray, arc[1:], in_ray[1:], inner[1:]])


def _rolling_max(a: np.ndarray, half: int = 8) -> np.ndarray:
    """Maximum of ``a`` over each window i - half..i + half that fits in it;
    a NaN in a window gives NaN.

    One reduction over the 2 half + 1 shifted views of ``a`` padded with
    -inf: reducing across the views runs along whole rows, where a
    maximum over each short window would not.
    """
    padded = np.full(a.size + 2 * half, -np.inf)
    padded[half:half + a.size] = a
    return sliding_window_view(padded, a.size).max(axis=0)


def _winding(f: Evaluator, path: np.ndarray) -> float:
    """Winding of f along a closed node path, from one call f(path) -> (f, f').

    A node is flagged as a boundary zero when |f| collapses 8 orders of
    magnitude below its neighborhood; the scale is local because entire
    functions of exponential type vary by many orders along one contour.
    """
    pair = f(path)
    if not (isinstance(pair, tuple) and [np.shape(v) for v in pair] == [path.shape] * 2):
        raise ValueError(
            "contour evaluators must act elementwise on a complex ndarray and "
            f"return the pair (f, f') of arrays of the path's shape {path.shape}")
    values, deriv = np.asarray(pair[0]), np.asarray(pair[1])
    mags = np.abs(values)
    scale = float(np.max(mags))
    if scale == 0.0:
        raise _ContourZeroError("f vanishes identically on the contour")
    if np.any(mags <= 1e-8 * _rolling_max(mags)):
        raise _ContourZeroError("zero of f detected on the contour")
    integral = np.trapezoid(deriv / values, path)
    return (integral / (2j * math.pi)).real


def winding_count(f: Evaluator, contour: Callable[[int], np.ndarray],
                  quad_nodes: int, name: str) -> int:
    """Zero count of f inside ``contour(quad_nodes)`` by the argument principle.

    ``contour(n)`` builds the closed counterclockwise node path at
    resolution n.  A winding more than 0.1 from an integer is recomputed
    once on ``contour(4 * quad_nodes)``; if it is still off, RuntimeError
    "<name> quadrature failed".  A zero of f on the contour raises
    NumericalError (a ValueError).  ``quad_nodes`` must be an integer of
    at least 2, or the path would not close.
    """
    if not (isinstance(quad_nodes, (int, np.integer)) and quad_nodes >= 2):
        raise ValueError(f"quad_nodes must be an integer >= 2, got {quad_nodes!r}")
    w = _winding(f, contour(quad_nodes))
    nearest = round(w)
    if abs(w - nearest) > 0.1:
        w = _winding(f, contour(4 * quad_nodes))
        nearest = round(w)
        if abs(w - nearest) > 0.1:
            raise RuntimeError(f"{name} quadrature failed: winding {w}")
    return int(nearest)


def zero_count_sector(f: Evaluator, alpha: float, beta: float, r: float,
                      quad_nodes: int = 1024) -> SectorCount:
    """Argument-principle zero count over the sector contour.

    The contour consists of two radial segments, the outer arc at radius
    ``r``, and an inner arc at radius 0.25 that excludes any zero at the
    origin.  ``f`` maps a complex ndarray to the pair (f, f') (see the
    module docstring).  Non-finite angles or radius, ``quad_nodes`` not an
    integer >= 2, and a radius whose refined path (4 ``quad_nodes``) holds
    more than 2^22 nodes raise ValueError before any node is built.  A
    zero landing on the contour belongs to the countable exceptional set
    of ray angles; both angles are nudged by 1e-3 (up to three times)
    before the count is abandoned.
    """
    if not all(map(math.isfinite, (alpha, beta, r))):
        raise ValueError(f"sector angles and radius must be finite, "
                         f"got alpha={alpha}, beta={beta}, r={r}")
    if not alpha < beta:
        raise ValueError("need alpha < beta")
    if r <= _INNER_RADIUS:
        raise ValueError(f"sector radius must exceed the inner cutoff {_INNER_RADIUS}")
    if isinstance(quad_nodes, (int, np.integer)):  # else winding_count rejects it
        n_rad, n_arc, n_inner = _sector_sizes(alpha, beta, r, 4 * int(quad_nodes))
        nodes = 2 * n_rad + n_arc + n_inner - 3  # the pieces share 3 joints
        if nodes > _MAX_CONTOUR_NODES:
            raise ValueError(f"sector radius r={r} needs {nodes:.6g} nodes on the refined "
                             f"contour (4 * quad_nodes = {4 * quad_nodes}), more than "
                             f"{_MAX_CONTOUR_NODES}")
    a, b = alpha, beta
    last_err: Exception | None = None
    for _ in range(4):
        try:
            count = winding_count(f, lambda n: _sector_contour(a, b, r, n),
                                  quad_nodes, "sector")
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
    """
    rs = [float(r) for r in r_sequence]
    if len(rs) < 3 or any(b <= a for a, b in zip(rs, rs[1:])):
        raise ValueError("r_sequence must be increasing with at least 3 entries")
    if rs[-1] < 50.0:
        raise ValueError("largest radius must be at least 50")
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
