"""Starlike domain geometry from spherical-harmonic boundary coefficients.

A domain is the region r < rho(theta, phi) for a positive function on the
sphere synthesized from real coefficients c_{l,m} with the conjugate
symmetry c_{l,-m} = c_{l,m}, so the synthesized rho is real.  Every ray
from the origin meets the boundary exactly once, at radius rho.
``StarlikeDomain.synthesis`` gives rho, and its angular derivatives on
request, at any angles; the outward normal is computed where it is used,
in ``overdetermined.collocation_frame``.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import math
import numbers
import os
from typing import Sequence

import numpy as np

from ..errors import NumericalError, as_integer
from ..specfun import ModePlan, SphericalDirection, sphere_quadrature, ylm_blocks

__all__ = [
    "StarlikeDomain",
    "ray_radii",
    "ray_radius",
    "load_domain",
    "unit_ball",
]

_L_GEOM_CAP = 16


@functools.cache
def _positivity_grid() -> tuple[np.ndarray, np.ndarray]:
    """The (theta[:, None], phi[None, :]) nodes of ``sphere_quadrature()``,
    on which construction checks rho > 0: built once, read-only."""
    quad = sphere_quadrature()
    for nodes in (quad.theta, quad.phi):
        nodes.flags.writeable = False
    return quad.theta[:, None], quad.phi[None, :]


@dataclasses.dataclass(frozen=True)
class StarlikeDomain:
    """Boundary coefficients of rho: S^2 -> R+ up to degree L_geom.

    ``rho_coeffs`` is a tuple of (l, m, value) triples with real values
    and the symmetry c_{l,-m} = c_{l,m}; construction validates the
    triples and checks min rho > 0 on the reference quadrature grid.
    ``L_geom``, l and m are integral numbers (2 or 2.0, stored as int; not
    a bool, a string or 2.5) and each value is a real number (not a bool
    or a string): construction owns these checks, so ``load_domain``
    passes a file's values through unconverted.
    """

    L_geom: int
    rho_coeffs: tuple[tuple[int, int, float], ...]
    # (plan, values, turns): the ModePlan of the modes of rho_coeffs, their
    # values, and value * (i m), each set once by construction
    _terms: tuple[ModePlan, np.ndarray, np.ndarray] = dataclasses.field(
        init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        L_geom = as_integer("L_geom", self.L_geom)
        if not (0 <= L_geom <= _L_GEOM_CAP):
            raise ValueError(f"L_geom must lie in [0, {_L_GEOM_CAP}], got {L_geom}")
        object.__setattr__(self, "L_geom", L_geom)
        seen: dict[tuple[int, int], float] = {}
        for entry in self.rho_coeffs:
            if len(entry) != 3:
                raise ValueError(f"coefficient entries are (l, m, value), got {entry!r}")
            l, m, value = entry
            try:
                l, m = as_integer("l", l), as_integer("m", m)
            except ValueError:
                raise ValueError(f"l, m must be integers, got ({l!r}, {m!r})") from None
            if not (0 <= l <= L_geom and abs(m) <= l):
                raise ValueError(f"mode ({l}, {m}) outside degree range 0..{L_geom}")
            try:
                bad = (isinstance(value, bool) or not isinstance(value, numbers.Real)
                       or not math.isfinite(value))
            except OverflowError:  # an integer past the float range
                bad = True
            if bad:
                raise ValueError(f"coefficient for ({l}, {m}) must be a finite real")
            if (l, m) in seen:
                raise ValueError(f"duplicate coefficient for mode ({l}, {m})")
            seen[(l, m)] = float(value)
        for (l, m), value in seen.items():
            if m != 0:
                mirror = seen.get((l, -m), 0.0)
                if abs(mirror - value) > 1e-14 * max(1.0, abs(value)):
                    raise ValueError(
                        f"realness needs c_({l},{-m}) = c_({l},{m}); "
                        f"got {mirror} vs {value}")
        coeffs = tuple(sorted((l, m, v) for (l, m), v in seen.items()))
        object.__setattr__(self, "rho_coeffs", coeffs)
        # d/dphi of value * Y_l^m is value * (i m) * Y_l^m
        columns = (np.array([v for _, _, v in coeffs], dtype=float),
                   np.array([v * (1j * m) for _, m, v in coeffs], dtype=complex))
        for column in columns:
            column.flags.writeable = False
        object.__setattr__(self, "_terms",
                           (ModePlan.build((l, m) for l, m, _ in coeffs), *columns))
        grid = self.synthesis(*_positivity_grid())
        if float(np.min(grid)) <= 0.0:
            raise ValueError("rho must be positive: the domain must contain the origin")

    def synthesis(self, theta, phi, derivatives: bool = False):
        """rho at (theta, phi), or (rho, d rho/d theta, d rho/d phi) with ``derivatives``.

        Sums value * Y_l^m in ``rho_coeffs`` order, with the terms from
        ``specfun.ylm_blocks``: each run of terms is weighted in one call
        and added in order (``_add_in_order``), so every sum is bitwise the
        term-by-term loop.  The angles broadcast as they do there, so a
        grid passes ``theta[:, None], phi[None, :]``; a non-finite theta
        raises ValueError.  The mode plan and the weights come from
        construction, so a call costs the evaluation alone.
        """
        plan, values, turns = self._terms
        shape = np.broadcast(theta, phi).shape
        lead = (-1,) + (1,) * len(shape)
        values, turns = values.reshape(lead), turns.reshape(lead)
        sums = [np.zeros(shape, dtype=complex) for _ in range(3 if derivatives else 1)]
        for span, Y, dY in ylm_blocks(plan, theta, phi, derivative=derivatives):
            w = values[span]
            parts = [(w, Y)] if dY is None else [(w, Y), (w, dY), (turns[span], Y)]
            sums = [_add_in_order(total, *part) for total, part in zip(sums, parts)]
        if not derivatives:
            return sums[0].real
        return tuple(total.real for total in sums)


def _add_in_order(total: np.ndarray, w: np.ndarray, terms: np.ndarray) -> np.ndarray:
    """total + w[0] terms[0] + w[1] terms[1] + ..., added in that order; a
    single term (a grid's run) is added to total in place."""
    if len(terms) == 1:
        total += w[0] * terms[0]
        return total
    acc = np.empty((len(terms) + 1,) + total.shape, dtype=total.dtype)
    acc[0] = total
    np.multiply(w, terms, out=acc[1:])
    return np.add.accumulate(acc, axis=0)[-1]


def unit_ball() -> StarlikeDomain:
    """The ball of radius one: a single constant mode."""
    return StarlikeDomain(0, ((0, 0, math.sqrt(4 * math.pi)),))


def ray_radii(domain: StarlikeDomain,
              directions: Sequence[SphericalDirection]) -> np.ndarray:
    """rho at every direction, in one synthesis over the array of angles.

    A direction where the synthesis leaves rho <= 0 raises NumericalError.
    """
    theta = np.array([d.theta for d in directions], dtype=float)
    phi = np.array([d.phi for d in directions], dtype=float)
    rho = domain.synthesis(theta, phi)
    bad = ~(rho > 0.0)
    if bad.any():
        i = int(np.argmax(bad))
        raise NumericalError(f"synthesis gave rho = {float(rho[i])} <= 0 at {directions[i]}")
    return rho


def ray_radius(domain: StarlikeDomain, direction: SphericalDirection) -> float:
    """rho(direction): the radius where the ray meets the boundary."""
    return float(ray_radii(domain, [direction])[0])


def load_domain(path: str | os.PathLike) -> StarlikeDomain:
    """Read a domain file: {"L_geom": int, "rho_coeffs": [[l, m, value], ...]}.

    Checks only the file's shape; ``StarlikeDomain`` checks the values,
    which reach it as JSON gave them.
    """
    with open(path, "r", encoding="utf-8") as fh:
        raw = json.load(fh)
    if not isinstance(raw, dict) or "L_geom" not in raw or "rho_coeffs" not in raw:
        raise ValueError(f"domain file {path} needs fields L_geom and rho_coeffs")
    entries = raw["rho_coeffs"]
    if not isinstance(entries, list) or not all(
            isinstance(e, (list, tuple)) and len(e) == 3 for e in entries):
        raise ValueError("rho_coeffs must be a list of [l, m, value] triples")
    return StarlikeDomain(raw["L_geom"], tuple(map(tuple, entries)))
