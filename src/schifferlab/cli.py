"""Batch command-line front end.

One binary, eight subcommands, each wrapping one experiment: special-function
margins, eigenvalue scans, zero density, the indicator, the ball interior
mode, the overdetermined boundary residual, the per-ray comparison, and
far-field synthesis.  Parameters come from inline flags or a JSON config
file (flags win).  Output is a CSV or JSON table written atomically, with a
machine-readable PASS/FAIL summary line; exit status is 0 on PASS, 1 on a
numerical failure, 2 on a usage or config error: a bad value, an
unreadable config or domain file, or an --out path that is a directory or
lies in no existing one, which is refused before the subcommand runs.

Floats are printed with 15 significant digits and lines end with a bare
newline, so identical configs give byte-identical files.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import os
import sys
import tempfile
from typing import Callable

import numpy as np

from .eigsearch import (
    density_estimate,
    dispersion_log_abs,
    find_real_eigenvalues,
    partial_trace_log_abs,
)
from .entire import indicator
from .errors import NumericalError, as_integer, check_positive
from .scatter import (
    FarFieldPattern,
    StarlikeDomain,
    axis_directions,
    ball_eigenfunction,
    far_field_from_coeffs,
    load_domain,
    overdetermined_residual,
    per_ray_eigen_scan,
    residual_scan,
)
from .specfun import (
    L_MAX,
    SphericalDirection,
    riccati_table,
    sphere_quadrature,
    spherical_jn_table,
    ylm_terms,
)

__all__ = ["main", "ConfigError"]


class ConfigError(Exception):
    """Bad flag, bad config value, or an unusable parameter combination."""


def _number(value) -> float:
    """A JSON number as a float; TypeError for a bool, a string or a list."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(value)
    return float(value)


def _coeff_rows(rows) -> dict:
    """[n, m, re, im] rows as {(n, m): re + i im}; a mode given twice is a
    ConfigError, as in a domain file."""
    coeffs = {}
    for n, m, re, im in rows:
        mode = (as_integer("n", n), as_integer("m", m))
        if mode in coeffs:
            raise ConfigError(f"duplicate coefficient for mode {mode}")
        coeffs[mode] = complex(_number(re), _number(im))
    return coeffs


# list kinds: how a flag string or JSON value parses, and what it must hold.
# A flag's string is split at commas; the elements of a JSON list follow
# the scalar rules of the int and float kinds
_LISTS = {
    "float_list": (lambda v: tuple(map(float, v.split(",")) if isinstance(v, str)
                                   else map(_number, v)),
                   "a list of numbers"),
    "directions": (lambda v: tuple((_number(a), _number(b)) for a, b in v),
                   "a list of [theta, phi] pairs"),
    "coeff_list": (_coeff_rows, "a list of [n, m, re, im] rows"),
}
# argparse type of each kind with a flag form; parameters of the other
# kinds come from a config file only
_FLAG_TYPES = {"int": int, "float": float, "positive": float, "str": str, "float_list": str}
# points in a CLI grid: 32,768 domain-residual frequencies, each a
# least-squares solve, or specfun-check arguments (orders 0..60 at this
# cap peak at 266 MB resident)
_MAX_GRID = 1 << 15


def _cast(name: str, kind: str, value):
    if kind == "int":
        return as_integer(name, value)
    if kind in ("float", "positive"):
        try:
            value = _number(value)
        except TypeError:
            raise ConfigError(f"{name} must be a number, got {value!r}")
        except OverflowError:
            raise ConfigError(f"{name} must be finite, got an integer past the float range")
        if not math.isfinite(value):
            raise ConfigError(f"{name} must be finite, got {value!r}")
        if kind == "positive":
            check_positive(name, value)
        return value
    if kind == "str":
        if not isinstance(value, str):
            raise ConfigError(f"{name} must be a string, got {value!r}")
        return value
    parse, shape = _LISTS[kind]
    try:
        out = parse(value)
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(f"{name} must be {shape}, got {value!r}")
    if not out:
        raise ConfigError(f"{name} must be nonempty")
    if kind == "float_list" and not all(map(math.isfinite, out)):
        raise ConfigError(f"{name} must hold finite numbers, got {value!r}")
    if kind == "directions":
        return tuple(SphericalDirection(theta, phi) for theta, phi in out)
    return out


@dataclasses.dataclass(frozen=True)
class _Param:
    name: str
    kind: str
    default: object = None
    required: bool = False
    help: str = ""
    choices: tuple | None = None


def _merge(args: argparse.Namespace, params: list[_Param]) -> dict:
    """Flag, else config value, else default, for every parameter; the
    config file is read here and nowhere else."""
    config = {}
    if args.config is not None:
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                config = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"malformed JSON config {args.config}: {exc}")
        if not isinstance(config, dict):
            raise ConfigError(f"config {args.config} must hold a JSON object")
    unknown = set(config) - {p.name for p in params}
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    merged = {}
    for p in params:
        # a config-only parameter has no flag, so no attribute on args
        value = getattr(args, p.name, None)
        if value is None and p.name in config:
            value = config[p.name]
        if value is None:
            if p.required:
                raise ConfigError(f"missing required parameter: {p.name}")
            merged[p.name] = p.default
            continue
        value = _cast(p.name, p.kind, value)
        if p.choices is not None and value not in p.choices:
            raise ConfigError(f"{p.name} must be one of {p.choices}, got {value!r}")
        merged[p.name] = value
    return merged


# ---------------------------------------------------------------- rendering

def _fmt(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return f"{float(value):.15g}"
    return str(value)


def _json_value(value):
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        # mirror the CSV's 15 significant digits
        return float(f"{float(value):.15g}")
    return str(value)


def _render(command: str, fmt: str, columns: list[str], rows: list[tuple],
            summary: str) -> str:
    if fmt == "csv":
        lines = [",".join(columns)]
        lines += [",".join(_fmt(c) for c in row) for row in rows]
        lines.append(f"# summary: {summary}")
        return "\n".join(lines) + "\n"
    obj = {
        "command": command,
        "columns": columns,
        "rows": [[_json_value(c) for c in row] for row in rows],
        "summary": summary,
    }
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


# ----------------------------------------------------------------- commands

def _run_specfun_check(p: dict) -> tuple[list[str], list[tuple], str]:
    if not 0 <= p["l_max"] <= L_MAX:
        raise ConfigError(f"l_max = {p['l_max']} outside the supported range [0, {L_MAX}]")
    if not (p["x_min"] > 0 and p["x_max"] > p["x_min"] and p["n_x"] >= 2):
        raise ConfigError("need 0 < x_min < x_max and n_x >= 2")
    if p["n_x"] > _MAX_GRID:
        raise ConfigError(f"n_x = {p['n_x']} exceeds the limit of {_MAX_GRID} grid points")
    if not 0 <= p["gram_l_max"] <= 20:
        raise ConfigError(f"gram_l_max = {p['gram_l_max']} outside [0, 20]")
    lmax = max(p["l_max"], 1)
    x_grid = np.linspace(p["x_min"], p["x_max"], p["n_x"])
    # tables may overflow at small x and high l.  At real x the scaled
    # tables equal the unscaled ones but raise no OverflowError, so an
    # overflow becomes a NaN margin; np.max keeps NaN margins, so they read
    # "exceeded"
    with np.errstate(over="ignore", invalid="ignore"):
        S, C, Sp, Cp = riccati_table(lmax, x_grid, scaled=True)
        wron = float(np.max(np.abs(S * Cp - Sp * C + 1.0)))
        # f_{l+1} = (2l+1)/x f_l - f_{l-1} for l = 1..lmax-1 on every 10th x
        coupling = (2 * np.arange(1, lmax)[:, None] + 1) / x_grid[::10]

        def recurrence(T):
            T = T[:, ::10]
            scale = np.maximum(np.maximum(np.abs(T[2:]), np.abs(T[:-2])), 1e-300)
            return float(np.max(np.abs(T[2:] - (coupling * T[1:-1] - T[:-2])) / scale,
                                initial=0.0))

        rec_S, rec_C = recurrence(S), recurrence(C)
    quad = sphere_quadrature()
    modes = [(l, m) for l in range(p["gram_l_max"] + 1) for m in range(-l, l + 1)]
    M = np.stack(list(ylm_terms(modes, quad.theta[:, None], quad.phi[None, :])))
    gram = np.einsum("iab,ab,jab->ij", M, quad.weights, np.conj(M))
    gram_err = float(np.max(np.abs(gram - np.eye(len(modes)))))
    rows = []
    ok = True
    for name, margin, tol in [("wronskian", wron, p["tol"]),
                              ("recurrence_S", rec_S, p["tol"]),
                              ("recurrence_C", rec_C, p["tol"]),
                              ("orthonormality", gram_err, p["gram_tol"])]:
        good = margin <= tol
        ok = ok and good
        rows.append((name, margin, tol, "ok" if good else "exceeded"))
    return ["check", "margin", "tolerance", "status"], rows, "PASS" if ok else "FAIL"


def _run_eigen_scan(p: dict) -> tuple[list[str], list[tuple], str]:
    records = find_real_eigenvalues(p["l"], p["r_hat"], p["k_max"],
                                    scan_step=p["scan_step"], tol=p["tol"])
    rows = [(rec.l, rec.k, rec.residual, rec.bracket[0], rec.bracket[1])
            for rec in records]
    return ["l", "k", "residual", "bracket_lo", "bracket_hi"], rows, "PASS"


def _run_density(p: dict) -> tuple[list[str], list[tuple], str]:
    est = density_estimate(p["l"], p["r_hat"], p["k_max"])
    ok = est.relative_gap <= p["gap_tol"]
    rows = [(p["l"], p["r_hat"], p["k_max"], est.count, est.density,
             est.target, est.relative_gap, "ok" if ok else "exceeded")]
    columns = ["l", "r_hat", "k_max", "count", "density", "target",
               "relative_gap", "status"]
    return columns, rows, "PASS" if ok else "FAIL"


def _run_indicator(p: dict) -> tuple[list[str], list[tuple], str]:
    l, xi, r_hat = p["l"], p["xi"], p["r_hat"]
    if l < 0:
        raise ConfigError(f"l must be nonnegative, got {l}")
    if not 0.0 <= xi < r_hat:
        raise ConfigError(f"xi must lie in [0, r_hat), got xi={xi}, r_hat={r_hat}")
    if l > 0 and xi != 0.0:
        raise ConfigError(
            "the partial-interval trace has a closed form only at l = 0; "
            "use xi = 0 for higher degrees")
    theta = p["theta"]
    sin_theta = abs(math.sin(theta))
    # at a multiple of pi, sin(theta) is rounding noise of order eps * |theta|
    if sin_theta <= 4 * sys.float_info.epsilon * max(1.0, abs(theta)):
        raise ConfigError(
            f"sin(theta) = 0 at theta = {theta}: the expected type "
            "(r_hat - xi)|sin theta| vanishes, so the relative test is undefined")
    log_abs = (functools.partial(partial_trace_log_abs, r_hat, xi) if l == 0
               else functools.partial(dispersion_log_abs, l, r_hat))
    sample = indicator(log_abs, theta, p["r_values"], log=True)
    # a sine-type function of type r_hat - xi has h(theta) = type * |sin theta|
    expected = (r_hat - xi) * sin_theta
    rel = abs(sample.h_extrapolated - expected) / expected
    ok = rel <= p["type_tol"]
    rows = [(float(r), float(h), sample.h_extrapolated, expected, rel,
             "ok" if ok else "exceeded")
            for r, h in zip(sample.r_values, sample.h_estimates)]
    columns = ["r", "h_estimate", "h_extrapolated", "expected_type",
               "rel_err", "status"]
    return columns, rows, "PASS" if ok else "FAIL"


def _run_ball_check(p: dict) -> tuple[list[str], list[tuple], str]:
    R, n = p["r"], p["n"]
    k, _ = ball_eigenfunction(R, n)
    ball = StarlikeDomain(0, ((0, 0, R * math.sqrt(4.0 * math.pi)),))
    residual = overdetermined_residual(ball, k, p["l_trial"])
    j0, j1 = spherical_jn_table(1, k * R)
    du = -k * j1 / j0
    ok = residual <= p["tol"] and abs(du) <= 1e-10
    rows = [(R, n, k, residual, du, "ok" if ok else "exceeded")]
    columns = ["R", "n", "k", "residual", "du_dr_boundary", "status"]
    return columns, rows, "PASS" if ok else "FAIL"


def _run_domain_residual(p: dict) -> tuple[list[str], list[tuple], str]:
    domain = load_domain(p["domain"])
    grid_parts = (p["k_min"], p["k_max"], p["k_step"])
    if p["k"] is not None:
        if any(v is not None for v in grid_parts):
            raise ConfigError("give either k or the k_min/k_max/k_step grid, not both")
        ks = np.array([p["k"]])
    else:
        if any(v is None for v in grid_parts):
            raise ConfigError("need k, or all of k_min, k_max, k_step")
        k_min, k_max, k_step = grid_parts
        if not (0 < k_min <= k_max and k_step > 0):
            raise ConfigError("need 0 < k_min <= k_max and k_step > 0")
        # np.arange below gives ceil(steps + 1/2) frequencies
        steps = (k_max - k_min) / k_step
        if steps + 0.5 > _MAX_GRID:
            raise ConfigError(f"k_step {k_step} gives {steps + 1:.6g} frequencies from "
                              f"k_min to k_max, more than {_MAX_GRID}")
        ks = np.arange(k_min, k_max + k_step / 2, k_step)
        ks = ks[ks <= k_max + 1e-12 * k_max]
    res = residual_scan(domain, ks, p["l_trial"], p["n_collocation"], p["neumann"])
    ok = bool(res.min() <= p["threshold"])
    rows = [(float(k), float(r)) for k, r in zip(ks, res)]
    return ["k", "residual"], rows, "PASS" if ok else "FAIL"


def _run_ray_scan(p: dict) -> tuple[list[str], list[tuple], str]:
    domain = load_domain(p["domain"])
    result = per_ray_eigen_scan(domain, p["directions"], p["l_max"], p["k_max"])
    spread = result.density_spread
    common = result.intersection_size
    ok = spread <= p["spread_tol"] and common > 0
    rows = [(rep.direction.theta, rep.direction.phi, rep.R_hat,
             rep.density.count, rep.density.density, spread, common)
            for rep in result.reports]
    columns = ["theta", "phi", "r_hat", "count", "density",
               "density_spread", "intersection_size"]
    return columns, rows, "PASS" if ok else "FAIL"


def _run_farfield(p: dict) -> tuple[list[str], list[tuple], str]:
    # the Legendre layout is built per degree up to the largest one
    top = max(n for n, _ in p["a_coeffs"])
    if top > L_MAX:
        raise ConfigError(f"a_coeffs degree n = {top} outside the supported range [0, {L_MAX}]")
    pattern = FarFieldPattern(p["a_coeffs"], p["k"])
    values = far_field_from_coeffs(pattern, p["directions"])
    ok = bool(np.all(np.isfinite(values)))
    rows = [(d.theta, d.phi, v.real, v.imag, abs(v))
            for d, v in zip(p["directions"], values)]
    columns = ["theta", "phi", "re_u", "im_u", "abs_u"]
    return columns, rows, "PASS" if ok else "FAIL"


_Runner = Callable[[dict], tuple[list[str], list[tuple], str]]

# every subcommand takes these, and the directions parameter means the same
# in each subcommand that has one
_OUTPUT = [_Param("out", "str", None, help="output path (default: stdout)"),
           _Param("format", "str", "csv", choices=("csv", "json"))]
_DIRECTIONS = _Param("directions", "directions", axis_directions(),
                     help="[[theta, phi], ...]; default: the six coordinate axes")

_COMMANDS: dict[str, tuple[str, list[_Param], _Runner]] = {
    "specfun-check": (
        "special-function identity margins (Wronskian, recurrences, Gram matrix)",
        [_Param("l_max", "int", 20, help="largest order checked"),
         _Param("x_min", "float", 0.1), _Param("x_max", "float", 100.0),
         _Param("n_x", "int", 1000, help="argument grid size"),
         _Param("tol", "positive", 1e-8, help="identity margin tolerance"),
         _Param("gram_l_max", "int", 8, help="largest degree in the Gram check"),
         _Param("gram_tol", "positive", 1e-10)],
        _run_specfun_check),
    "eigen-scan": (
        "real eigenvalues of the two-way radial problem on (0, k_max]",
        [_Param("l", "int", 0), _Param("r_hat", "float", 1.0),
         _Param("k_max", "float", required=True),
         _Param("scan_step", "float", None, help="bracketing step (default pi/(4 r_hat))"),
         _Param("tol", "float", 1e-9, help="residual bound per accepted root")],
        _run_eigen_scan),
    "density": (
        "eigenvalue count on (0, k_max] against the r_hat/pi density law",
        [_Param("l", "int", 0), _Param("r_hat", "float", 1.0),
         _Param("k_max", "float", required=True),
         _Param("gap_tol", "positive", 0.03, help="PASS margin for the relative gap")],
        _run_density),
    "indicator": (
        "growth indicator of the boundary-trace function along one ray",
        [_Param("l", "int", 0), _Param("xi", "float", 0.0),
         _Param("r_hat", "float", 1.0),
         _Param("theta", "float", math.pi / 2, help="ray angle in the k plane"),
         _Param("r_values", "float_list", (12.5, 25.0, 50.0, 100.0, 200.0),
                help="comma-separated radii, increasing"),
         _Param("type_tol", "positive", 0.05,
                help="PASS margin against (r_hat - xi)|sin theta|")],
        _run_indicator),
    "ball-check": (
        "interior mode of the ball: eigenvalue, boundary residual, normal derivative",
        [_Param("r", "float", 1.0, help="ball radius"),
         _Param("n", "int", 1, help="eigenvalue branch index"),
         _Param("l_trial", "int", 4), _Param("tol", "positive", 1e-8)],
        _run_ball_check),
    "domain-residual": (
        "overdetermined boundary least-squares residual at k or over a k grid",
        [_Param("domain", "str", required=True, help="domain JSON path"),
         _Param("k", "float", None), _Param("k_min", "float", None),
         _Param("k_max", "float", None), _Param("k_step", "float", None),
         _Param("l_trial", "int", 8), _Param("n_collocation", "int", None),
         _Param("neumann", "str", "normal", choices=("normal", "gradient")),
         _Param("threshold", "positive", 1e-8, help="PASS iff some residual is below")],
        _run_domain_residual),
    "ray-scan": (
        "per-ray eigenvalue lists, densities, and the cross-ray intersection",
        [_Param("domain", "str", required=True, help="domain JSON path"),
         _Param("l_max", "int", 0), _Param("k_max", "float", 12.0),
         _Param("spread_tol", "positive", 0.02), _DIRECTIONS],
        _run_ray_scan),
    "farfield": (
        "far-field synthesis from harmonic coefficients",
        [_Param("k", "float", required=True),
         _Param("a_coeffs", "coeff_list", required=True,
                help="[[n, m, re, im], ...]; required"),
         _DIRECTIONS],
        _run_farfield),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="schifferlab",
        description="numerical experiments on radial eigenvalue problems, "
                    "entire-function zero densities, and the overdetermined "
                    "boundary test that separates balls from other starlike domains")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, params, _) in _COMMANDS.items():
        # parameters without a flag are listed after the options
        config_only = [param for param in params if param.kind not in _FLAG_TYPES]
        epilog = None
        if config_only:
            epilog = "config-only parameters (keys of the --config file):\n" + "".join(
                f"  {param.name:<12} {param.help}\n" for param in config_only)
        p = sub.add_parser(name, help=help_text, description=help_text, epilog=epilog,
                           formatter_class=argparse.RawDescriptionHelpFormatter)
        p.add_argument("--config", help="JSON file with parameter defaults")
        for param in _OUTPUT + params:
            if param.kind in _FLAG_TYPES:
                p.add_argument("--" + param.name.replace("_", "-"), dest=param.name,
                               type=_FLAG_TYPES[param.kind], choices=param.choices,
                               help=param.help or None)
    return parser


def _check_out(path: str) -> None:
    """Refuse, before any work, an output path that _write_atomic cannot
    replace: a directory, or a name in a directory that does not exist."""
    target = os.path.abspath(path)
    if os.path.isdir(target):
        raise ConfigError(f"output path {path} is a directory")
    if not os.path.isdir(os.path.dirname(target)):
        raise ConfigError(f"output directory {os.path.dirname(target)} is not an "
                          "existing directory")


def _write_atomic(path: str, text: str) -> None:
    """Write ``text`` as UTF-8 with bare newlines through a temp file in the
    target's directory and a rename, so no reader sees a partial file."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".schifferlab-")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    _, params, runner = _COMMANDS[args.command]
    try:
        merged = _merge(args, _OUTPUT + params)
        if merged["out"] is not None:
            _check_out(merged["out"])
        columns, rows, summary = runner(merged)
    except (NumericalError, RuntimeError, OverflowError) as exc:
        print(f"schifferlab: numerical failure: {exc}", file=sys.stderr)
        return 1
    except (ConfigError, OSError, ValueError) as exc:
        # an OSError is an unreadable --config or domain file, and names it
        print(f"schifferlab: config error: {exc}", file=sys.stderr)
        return 2
    text = _render(args.command, merged["format"], columns, rows, summary)
    if merged["out"] is None:
        sys.stdout.write(text)
    else:
        _write_atomic(merged["out"], text)
        print(summary)
    return 0 if summary == "PASS" else 1


if __name__ == "__main__":
    sys.exit(main())
