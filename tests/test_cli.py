"""End-to-end checks of the batch front end.

Most tests call ``cli.main`` in process.  Two run a real ``python -m
schifferlab`` subprocess: one smoke test of the module entry point, and the
overflow test, whose numpy warnings would have to reach the real stderr.
"""

import builtins
import contextlib
import io
import json
import math
import os
import shlex
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from schifferlab import cli
from schifferlab.eigsearch import count_zeros_argument_principle, dispersion_function

ROOT = Path(__file__).resolve().parent.parent
DATA = Path(__file__).parent / "data"
BALL = str(DATA / "ball.json")
SPHEROID = str(DATA / "spheroid.json")
FARFIELD = str(DATA / "farfield.json")
# a JSON integer past the float range, as json.dumps writes 10**400
HUGE = 10 ** 400


class Result(NamedTuple):
    returncode: int
    stdout: str
    stderr: str


@pytest.fixture
def run_cli(capsys):
    """``cli.main`` in process."""

    def run(*args):
        code = cli.main(list(args))
        out, err = capsys.readouterr()
        return Result(code, out, err)

    return run


def run_module(*args):
    """A real ``python -m schifferlab`` subprocess."""
    return subprocess.run([sys.executable, "-m", "schifferlab", *args],
                          capture_output=True, text=True)


def test_eigen_scan_reference_rows():
    res = run_module("eigen-scan", "--l", "0", "--r-hat", "1", "--k-max", "12")
    assert res.returncode == 0
    lines = res.stdout.strip().split("\n")
    assert lines[0] == "l,k,residual,bracket_lo,bracket_hi"
    assert lines[-1] == "# summary: PASS"
    ks = [row.split(",")[1] for row in lines[1:-1]]
    assert len(ks) == 3
    assert ks[0].startswith("4.4934094579090")
    assert ks[1].startswith("7.7252518369377")
    assert ks[2].startswith("10.904121659428")


@pytest.mark.parametrize("r_hat, k_max, count", [("1e10", "1e-9", 2), ("1e5", "1.6e-3", 50)])
def test_eigen_scan_on_a_huge_radius_passes(run_cli, r_hat, k_max, count):
    # both exited 1 on a residual test absolute in k and |B|; the scan's
    # tolerances are now on x = k R, so k R are the roots of tan x = x
    res = run_cli("eigen-scan", "--l", "0", "--r-hat", r_hat, "--k-max", k_max)
    assert res.returncode == 0
    rows = [line.split(",") for line in res.stdout.strip().split("\n")[1:-1]]
    assert len(rows) == count
    x = [float(row[1]) * float(r_hat) for row in rows[:2]]
    # the CSV carries 15 significant digits
    np.testing.assert_allclose(x, [4.493409457909064, 7.725251836937707], rtol=1e-14)


def test_eigen_scan_empty_window(run_cli):
    res = run_cli("eigen-scan", "--l", "0", "--r-hat", "1", "--k-max", "2")
    assert res.returncode == 0
    lines = res.stdout.strip().split("\n")
    assert len(lines) == 2  # header and summary only


def test_repeated_runs_are_byte_identical(run_cli, tmp_path):
    outs = []
    for name in ("a.csv", "b.csv"):
        out = tmp_path / name
        res = run_cli("eigen-scan", "--l", "2", "--k-max", "15",
                      "--out", str(out))
        assert res.returncode == 0
        assert res.stdout.strip() == "PASS"
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_density_example(run_cli):
    res = run_cli("density", "--l", "0", "--r-hat", "2", "--k-max", "100")
    assert res.returncode == 0
    assert "# summary: PASS" in res.stdout
    assert "0.63" in res.stdout


def test_ball_check(run_cli):
    res = run_cli("ball-check", "--r", "1", "--n", "1")
    assert res.returncode == 0
    assert "4.4934094579090" in res.stdout
    assert res.stdout.strip().endswith("# summary: PASS")


def test_domain_residual_pass_and_fail(run_cli):
    good = run_cli("domain-residual", "--domain", BALL,
                   "--k", "4.493409457909064")
    assert good.returncode == 0
    assert "# summary: PASS" in good.stdout
    bad = run_cli("domain-residual", "--domain", BALL, "--k", "2")
    assert bad.returncode == 1
    assert "# summary: FAIL" in bad.stdout


def test_ray_scan_separates_ball_from_spheroid(run_cli):
    ball = run_cli("ray-scan", "--domain", BALL, "--k-max", "12")
    assert ball.returncode == 0
    spheroid = run_cli("ray-scan", "--domain", SPHEROID, "--k-max", "12")
    assert spheroid.returncode == 1
    assert "# summary: FAIL" in spheroid.stdout


def test_specfun_check_fails_on_overflowed_tables(run_cli):
    res = run_cli("specfun-check", "--l-max", "40")
    assert res.returncode == 0
    assert res.stdout.endswith("# summary: PASS\n")
    # C_60 overflows at x = 1e-4, so its identity margins are NaN
    res = run_cli("specfun-check", "--l-max", "60", "--x-min", "1e-4", "--x-max", "1.0")
    assert res.returncode == 1
    assert "Traceback" not in res.stderr
    lines = res.stdout.strip().split("\n")
    rows = {row.split(",")[0]: row.split(",") for row in lines[1:-1]}
    assert rows["wronskian"][1:] == ["nan", "1e-08", "exceeded"]
    assert rows["recurrence_C"][1:] == ["nan", "1e-08", "exceeded"]
    assert rows["recurrence_S"][3] == "ok"
    assert lines[-1] == "# summary: FAIL"


def test_specfun_check_order_range_is_the_library_cap(run_cli):
    # the CLI range is the cap that riccati_table enforces
    assert run_cli("specfun-check", "--l-max", "60", "--n-x", "20").returncode == 0
    for l_max in ("61", "80", "120"):
        res = run_cli("specfun-check", "--l-max", l_max)
        assert res.returncode == 2, l_max
        assert res.stderr == (f"schifferlab: config error: l_max = {l_max} outside "
                              "the supported range [0, 60]\n")


@pytest.mark.parametrize("n", [61, HUGE])
def test_farfield_degrees_past_the_cap_exit_2(run_cli, tmp_path, n):
    # there was no cap: the Legendre layout loops over every degree up to
    # n, so a degree of 10**400 could not finish
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"k": 2.0, "a_coeffs": [[1, 0, 1.0, 0.0], [n, 0, 1.0, 0.0]]}))
    res = run_cli("farfield", "--config", str(path))
    assert res.returncode == 2
    assert res.stderr == (f"schifferlab: config error: a_coeffs degree n = {n} outside "
                          "the supported range [0, 60]\n")
    path.write_text(json.dumps({"k": 2.0, "a_coeffs": [[60, -60, 1.0, 0.0]]}))
    assert run_cli("farfield", "--config", str(path)).returncode == 0


def test_overflow_is_a_numerical_failure(monkeypatch, capsys):
    def overflow(*args, **kwargs):
        raise OverflowError("Riccati table overflows double range at z=(0.0001+0j)")

    monkeypatch.setattr(cli, "find_real_eigenvalues", overflow)
    assert cli.main(["eigen-scan", "--l", "0", "--k-max", "12"]) == 1
    err = capsys.readouterr().err
    assert err == ("schifferlab: numerical failure: Riccati table overflows "
                   "double range at z=(0.0001+0j)\n")


def test_overflow_stderr_is_one_line():
    # S_60 and S_60' underflow to 0 at k = 1e-5; numpy warnings must not
    # precede the message
    res = run_module("eigen-scan", "--l", "60", "--r-hat", "1", "--k-max", "0.01",
                     "--scan-step", "1e-5")
    assert res.returncode == 1
    assert res.stderr == ("schifferlab: numerical failure: S_60 and S_60' underflow "
                          "to 0 at k=1e-05\n")


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_rounding_zeros_at_tiny_k_are_a_numerical_failure(run_cli):
    # B_0 cancels to exactly 0 at every node below k = 1e-8 (R = 1); the scan
    # used to report nine roots there with residual 0 and PASS
    res = run_cli("eigen-scan", "--l", "0", "--r-hat", "1", "--k-max", "1e-8",
                  "--scan-step", "1e-9")
    assert res.returncode == 1
    assert res.stdout == ""
    assert res.stderr == ("schifferlab: numerical failure: B_0 reads exactly 0 at k=1e-09 "
                          "and a quarter step below, at k=7.500000000000001e-10: "
                          "rounding hides any root there\n")


def test_ball_check_takes_no_bessel_value_or_root_from_scipy(run_cli, monkeypatch):
    import scipy.optimize
    import scipy.special

    from schifferlab.scatter import ball_eigenfunction, overdetermined

    def refuse(*args, **kwargs):
        raise AssertionError("scipy called")

    monkeypatch.setattr(overdetermined, "spherical_jn", refuse)
    monkeypatch.setattr(scipy.special, "spherical_jn", refuse)
    monkeypatch.setattr(scipy.optimize, "brentq", refuse)
    k, u = ball_eigenfunction(2.0, 3)
    assert u(2.0) == 1.0 and u(np.linspace(0.0, 2.0, 5)).shape == (5,)
    res = run_cli("ball-check", "--r", "2", "--n", "3")
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip().endswith("# summary: PASS")


def test_a_zero_on_a_contour_is_a_numerical_failure(run_cli, monkeypatch):
    # the right edge of the rectangle runs through K1 = 4.4934..., a root of
    # B_0 at R = 1, and 960 nodes give that edge 11 panels, the middle one
    # centred on the real axis there
    def count(p):
        count_zeros_argument_principle(dispersion_function(0, 1.0),
                                       (1.0, 4.4934094579090642, -1.0, 1.0), quad_nodes=960)

    help_text, params, _ = cli._COMMANDS["eigen-scan"]
    monkeypatch.setitem(cli._COMMANDS, "eigen-scan", (help_text, params, count))
    res = run_cli("eigen-scan", "--k-max", "12")
    assert res.returncode == 1
    assert res.stderr == "schifferlab: numerical failure: zero of f detected on the contour\n"


def test_rho_at_or_below_zero_at_a_collocation_point_is_a_numerical_failure(run_cli, tmp_path):
    # rho = 1 + 1.0003 cos(theta) dips below 0 within 0.025 of the south
    # pole: the domain check's nearest node (0.037 away) keeps rho > 0, but
    # 4000 collocation points put one 0.022 from the pole
    path = tmp_path / "dip.json"
    path.write_text(json.dumps({"L_geom": 1, "rho_coeffs": [
        [0, 0, math.sqrt(4 * math.pi)], [1, 0, 1.0003 * math.sqrt(4 * math.pi / 3)]]}))
    # 3000 points keep clear of the dip: a residual, not an error
    res = run_cli("domain-residual", "--domain", str(path), "--k", "1",
                  "--n-collocation", "3000")
    assert res.stdout.endswith("# summary: FAIL\n") and res.stderr == ""
    res = run_cli("domain-residual", "--domain", str(path), "--k", "1",
                  "--n-collocation", "4000")
    assert res.returncode == 1
    assert res.stdout == ""
    assert res.stderr == ("schifferlab: numerical failure: boundary synthesis gave "
                          "rho <= 0 at a collocation point\n")


# the README examples that FAIL on purpose: the spheroid is not a ball
README_FAILS = {
    "schifferlab domain-residual --domain tests/data/spheroid.json --k-min 1 --k-max 3 "
    "--k-step 0.5",
    "schifferlab ray-scan --domain tests/data/spheroid.json --k-max 12",
}


def test_readme_examples_run_as_documented(monkeypatch, capsys):
    monkeypatch.chdir(ROOT)
    lines = [line for line in (ROOT / "README.md").read_text(encoding="utf-8").splitlines()
             if line.startswith("schifferlab ")]
    assert README_FAILS <= set(lines)
    assert {line.split()[1] for line in lines} == set(cli._COMMANDS)
    for line in lines:
        argv = shlex.split(line)[1:]
        code = cli.main(argv)
        out = capsys.readouterr().out
        if "--format" in argv and argv[argv.index("--format") + 1] == "json":
            summary = json.loads(out)["summary"]
        else:
            last = out.splitlines()[-1]
            assert last.startswith("# summary: "), (line, last)
            summary = last.removeprefix("# summary: ")
        assert code == (1 if line in README_FAILS else 0), line
        assert summary == ("FAIL" if code else "PASS"), line


def test_trial_degree_past_the_order_cap_exits_2(run_cli):
    # the frame would need three 1.5 GiB tables at L_trial = 100
    res = run_cli("ball-check", "--l-trial", "100")
    assert res.returncode == 2
    assert res.stderr == "schifferlab: config error: L_trial=100 exceeds L_MAX=60\n"
    assert res.stdout == ""


def test_collocation_count_past_the_cap_exits_2(run_cli):
    # 10^8 points would ask for three 65 GB harmonic tables at L_trial = 8
    res = run_cli("domain-residual", "--domain", BALL, "--k", "2",
                  "--n-collocation", "100000000")
    assert res.returncode == 2
    assert res.stderr == ("schifferlab: config error: n_collocation = 100000000 exceeds "
                          "the limit of 16384 collocation points\n")
    assert res.stdout == ""


def test_a_frequency_past_the_kernel_range_exits_2_naming_k(run_cli):
    # the spheroid's largest radius is 1.19737, so k = 9000 asks the
    # Bessel kernel for x = 10776; the message once named only that x
    res = run_cli("domain-residual", "--domain", SPHEROID, "--k", "9000")
    assert res.returncode == 2
    assert res.stderr == ("schifferlab: config error: scan frequency k = 9000 times the "
                          "largest boundary radius max rho = 1.19737 is 10776.3, beyond "
                          "the Bessel kernel's limit Z_MAX = 1e+04\n")
    assert res.stdout == ""


_BALL_RESIDUAL = ("domain-residual", "--domain", BALL, "--k-min", "1", "--k-step", "0.5")


@pytest.mark.parametrize("args, config, message", [
    (("eigen-scan", "--k-max", "nan"), None, "k_max must be finite, got nan"),
    (("eigen-scan", "--k-max", "inf"), None, "k_max must be finite, got inf"),
    (("eigen-scan", "--k-max=-inf"), None, "k_max must be finite, got -inf"),
    (("eigen-scan", "--k-max", "12", "--tol", "nan"), None, "tol must be finite, got nan"),
    (("density", "--k-max", "inf"), None, "k_max must be finite, got inf"),
    (("ray-scan", "--domain", BALL, "--k-max", "inf"), None, "k_max must be finite, got inf"),
    (_BALL_RESIDUAL + ("--k-max", "inf"), None, "k_max must be finite, got inf"),
    (("indicator", "--r-values", "60,70,inf"), None,
     "r_values must hold finite numbers, got '60,70,inf'"),
    (("eigen-scan",), '{"k_max": NaN}', "k_max must be finite, got nan"),
    (("eigen-scan",), '{"k_max": 12, "tol": Infinity}', "tol must be finite, got inf"),
    (("indicator",), '{"r_values": [60, -Infinity]}',
     "r_values must hold finite numbers, got [60, -inf]"),
])
def test_non_finite_numbers_exit_2(run_cli, tmp_path, args, config, message):
    if config is not None:
        path = tmp_path / "config.json"
        path.write_text(config)
        args = args + ("--config", str(path))
    res = run_cli(*args)
    assert res.returncode == 2
    assert res.stderr == f"schifferlab: config error: {message}\n"
    assert res.stdout == ""


def test_config_errors_exit_2(run_cli, tmp_path):
    cases = [
        ("specfun-check", "--l-max", "200"),
        ("domain-residual", "--domain", str(tmp_path / "missing.json"), "--k", "2"),
        ("indicator", "--l", "2", "--xi", "0.25"),
        ("indicator", "--theta", "0"),
        ("indicator", "--theta", "nan"),
        ("indicator", "--r-values", "0,20,60"),  # once a ZeroDivisionError traceback
    ]
    for args in cases:
        res = run_cli(*args)
        assert res.returncode == 2, args
        assert "config error" in res.stderr

    malformed = tmp_path / "broken.json"
    malformed.write_text("{ not json")
    res = run_cli("eigen-scan", "--config", str(malformed))
    assert res.returncode == 2
    assert "config error" in res.stderr

    unknown = tmp_path / "unknown.json"
    unknown.write_text(json.dumps({"l": 0, "k_max": 12.0, "bogus": 1}))
    res = run_cli("eigen-scan", "--config", str(unknown))
    assert res.returncode == 2
    assert "bogus" in res.stderr


def test_unreadable_config_and_domain_paths_exit_2_naming_them(run_cli, tmp_path,
                                                              monkeypatch):
    # a directory once ended in an IsADirectoryError traceback (exit 1)
    for args in (("domain-residual", "--domain", str(tmp_path), "--k", "1"),
                 ("ray-scan", "--domain", str(tmp_path)),
                 ("eigen-scan", "--config", str(tmp_path))):
        res = run_cli(*args)
        assert res.returncode == 2, args
        assert res.stdout == ""
        assert res.stderr == f"schifferlab: config error: [Errno 21] Is a directory: '{tmp_path}'\n"
    # a file without read permission, as open() reports it to any user
    locked = tmp_path / "locked.json"
    locked.write_text(json.dumps({"k_max": 12}))
    real_open = builtins.open

    def refuse(file, *args, **kwargs):
        if os.fspath(file) == str(locked):
            raise PermissionError(13, "Permission denied", os.fspath(file))
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr(builtins, "open", refuse)
    for args in (("eigen-scan", "--config", str(locked)),
                 ("ray-scan", "--domain", str(locked))):
        res = run_cli(*args)
        assert res.returncode == 2, args
        assert res.stderr == f"schifferlab: config error: [Errno 13] Permission denied: '{locked}'\n"


def test_an_unusable_out_path_is_refused_before_any_work(run_cli, tmp_path, monkeypatch):
    # both once ran the whole scan and then ended in a FileNotFoundError or
    # IsADirectoryError traceback
    def refuse(*args, **kwargs):
        raise AssertionError("the scan ran")

    monkeypatch.setattr(cli, "find_real_eigenvalues", refuse)
    missing = tmp_path / "missing"
    for out, message in (
            (missing / "x.csv", f"output directory {missing} is not an existing directory"),
            (tmp_path, f"output path {tmp_path} is a directory")):
        res = run_cli("eigen-scan", "--k-max", "5", "--out", str(out))
        assert res.returncode == 2
        assert res.stdout == ""
        assert res.stderr == f"schifferlab: config error: {message}\n"
    assert list(tmp_path.rglob(".schifferlab-*")) == []


@pytest.mark.parametrize("config, message", [
    ({"r_values": ["50", 100, 200]}, "r_values must be a list of numbers, got ['50', 100, 200]"),
    ({"r_values": [50, True]}, "r_values must be a list of numbers, got [50, True]"),
    ({"r_values": [[50], 100]}, "r_values must be a list of numbers, got [[50], 100]"),
    ({"k": 2.0, "a_coeffs": [[0, 0, 1.0, 0.0]], "directions": [[True, "0.5"]]},
     "directions must be a list of [theta, phi] pairs, got [[True, '0.5']]"),
    ({"k": 2.0, "a_coeffs": [[1.9, 0, True, 0]]},
     "a_coeffs must be a list of [n, m, re, im] rows, got [[1.9, 0, True, 0]]"),
    ({"k": 2.0, "a_coeffs": [[1, 0, "1", 0]]},
     "a_coeffs must be a list of [n, m, re, im] rows, got [[1, 0, '1', 0]]"),
    ({"k": 2.0, "a_coeffs": [[0, 0, 1, 0], [0, 0, 2, 0]]},
     "duplicate coefficient for mode (0, 0)"),
    ({"k": 2.0, "a_coeffs": [[1, 0, 1, 0], [2, 1, 0, 1], [1.0, -0.0, 2, 0]]},
     "duplicate coefficient for mode (1, 0)"),
])
def test_list_keys_follow_the_scalar_rules(run_cli, tmp_path, config, message):
    # each of these once ran: "50" as 50, true as 1, a_coeffs' n = 1.9
    # truncated to 1, and a repeated mode's last row in place of the others
    command = "indicator" if "r_values" in config else "farfield"
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    res = run_cli(command, "--config", str(path))
    assert res.returncode == 2
    assert res.stdout == ""
    assert res.stderr == f"schifferlab: config error: {message}\n"


def test_integral_list_entries_run_as_integers(run_cli, tmp_path):
    outputs = []
    for n, m in ((2, 0), (2.0, -0.0)):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"k": 2.0, "a_coeffs": [[n, m, 0.5, 0.0]]}))
        outputs.append(run_cli("farfield", "--config", str(path)))
    assert outputs[0].returncode == 0 and outputs[0] == outputs[1]


@pytest.mark.parametrize("command, flag", [
    ("specfun-check", "--tol"), ("specfun-check", "--gram-tol"), ("density", "--gap-tol"),
    ("indicator", "--type-tol"), ("ball-check", "--tol"),
    ("domain-residual", "--threshold"), ("ray-scan", "--spread-tol")])
def test_tolerances_must_be_positive(run_cli, command, flag):
    # indicator --type-tol -1 once ran and FAILed (exit 1)
    fixed = {"density": ("--k-max", "60"), "domain-residual": ("--domain", BALL, "--k", "2"),
             "ray-scan": ("--domain", BALL)}.get(command, ())
    name = flag[2:].replace("-", "_")
    for bad in ("-1", "0"):
        res = run_cli(command, *fixed, flag, bad)
        assert res.returncode == 2, (flag, bad)
        assert res.stdout == ""
        assert res.stderr == (f"schifferlab: config error: {name} must be positive and "
                              f"finite, got {float(bad)}\n")


@pytest.mark.parametrize("raw, message", [
    ({"L_geom": 2.7, "rho_coeffs": [[0, 0, 3.5449077018110318]]},
     "L_geom must be an integer, got 2.7"),
    ({"L_geom": True, "rho_coeffs": [[0, 0, 3.5449077018110318]]},
     "L_geom must be an integer, got True"),
    ({"L_geom": 2, "rho_coeffs": [[0, 0, 3.5449077018110318], [2.5, 0, 0.1]]},
     "l, m must be integers, got (2.5, 0)"),
    ({"L_geom": 0, "rho_coeffs": [[0, 0, "3.5449077018110318"]]},
     "coefficient for (0, 0) must be a finite real"),
    ({"L_geom": 0, "rho_coeffs": [[0, 0, HUGE]]},
     "coefficient for (0, 0) must be a finite real"),
])
def test_domain_file_values_are_checked_unconverted(run_cli, tmp_path, raw, message):
    # load_domain once cast them: "L_geom": 2.7 ran as 2, an l of 2.5 as 2,
    # and a string value through float(); an integer past the float range
    # read "numerical failure: int too large to convert to float" (exit 1)
    path = tmp_path / "domain.json"
    path.write_text(json.dumps(raw))
    for args in (("domain-residual", "--k", "2"), ("ray-scan",)):
        res = run_cli(*args, "--domain", str(path))
        assert res.returncode == 2
        assert res.stderr == f"schifferlab: config error: {message}\n"


@pytest.mark.parametrize("command, config, name", [
    ("eigen-scan", {"k_max": HUGE}, "k_max"),
    ("eigen-scan", {"k_max": 12, "r_hat": -HUGE}, "r_hat"),
    ("density", {"k_max": 60, "gap_tol": HUGE}, "gap_tol"),
])
def test_an_integer_past_the_float_range_is_a_config_error(run_cli, tmp_path, command,
                                                           config, name):
    # it once read "numerical failure: int too large to convert to float"
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    res = run_cli(command, "--config", str(path))
    assert res.returncode == 2
    assert res.stdout == ""
    assert res.stderr == (f"schifferlab: config error: {name} must be finite, "
                          "got an integer past the float range\n")


def test_specfun_check_refuses_a_grid_past_the_cap_before_any_table(run_cli, tmp_path,
                                                                     monkeypatch):
    # n_x had no bound: 32,768 points of orders 0..60 peak at 266 MB, and
    # the cost grows with n_x
    def never(*args, **kwargs):
        raise AssertionError("a table was built")

    path = tmp_path / "config.json"
    path.write_text(json.dumps({"n_x": HUGE}))
    monkeypatch.setattr(cli, "riccati_table", never)
    for args, n_x in ((("--n-x", "32769"), 32769), (("--n-x", "1000000"), 1000000),
                      (("--config", str(path)), HUGE)):
        res = run_cli("specfun-check", "--l-max", "60", *args)
        assert res.returncode == 2
        assert res.stdout == ""
        assert res.stderr == (f"schifferlab: config error: n_x = {n_x} exceeds the limit "
                              "of 32768 grid points\n")
    monkeypatch.undo()
    assert run_cli("specfun-check", "--l-max", "2", "--n-x", "32768").returncode == 0


def test_indicator_expects_the_type_times_sin_theta(run_cli):
    # l = 0, r_hat = 1: h(theta) = |sin theta|, so theta = 1 expects sin(1)
    res = run_cli("indicator", "--theta", "1.0")
    assert res.returncode == 0
    lines = res.stdout.strip().split("\n")
    assert lines[0] == "r,h_estimate,h_extrapolated,expected_type,rel_err,status"
    assert lines[-1] == "# summary: PASS"
    assert {row.split(",")[3] for row in lines[1:-1]} == {"0.841470984807897"}
    # the default ray theta = pi/2 has sin theta = 1 exactly
    res = run_cli("indicator")
    assert res.returncode == 0
    rows = res.stdout.strip().split("\n")[1:-1]
    assert {row.split(",")[3] for row in rows} == {"1"}


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("radii, message", [
    # once numpy warnings, LAPACK's "DLASCL ... illegal value" on stderr and
    # "config error: SVD did not converge in Linear Least Squares"
    ("5e-324,1,60", "log|f|/r is not finite at the sample point r=5e-324"),
    # once a RankWarning and an extrapolated type of -1.2e301
    ("1e-300,1,60", "the affine fit in 1/r through r=[1e-300, 1.0, 60.0] is rank deficient"),
])
def test_indicator_radii_it_cannot_fit_are_a_numerical_failure(run_cli, radii, message):
    res = run_cli("indicator", "--r-values", radii)
    assert res.returncode == 1
    assert res.stdout == ""
    assert res.stderr == f"schifferlab: numerical failure: {message}\n"


def test_indicator_rejects_the_real_axis(run_cli):
    # sin(pi) rounds to 1.2e-16, not 0; the ray still lies on the real axis
    res = run_cli("indicator", "--theta", "3.141592653589793")
    assert res.returncode == 2
    assert "config error" in res.stderr
    assert "relative test is undefined" in res.stderr


def test_unknown_subcommand_exits_2():
    with pytest.raises(SystemExit) as exc:
        cli.main(["frobnicate"])
    assert exc.value.code == 2


@pytest.mark.parametrize("command, keys", [("farfield", ("a_coeffs", "directions")),
                                           ("ray-scan", ("directions",))])
def test_help_lists_the_config_only_parameters(capsys, command, keys):
    with pytest.raises(SystemExit) as exc:
        cli.main([command, "--help"])
    assert exc.value.code == 0
    text = capsys.readouterr().out
    tail = text[text.index("config-only parameters"):]
    for key in keys:
        assert f"  {key} " in tail
        assert "--" + key.replace("_", "-") not in text
    assert "[[theta, phi], ...]" in tail


def test_flags_override_config(run_cli, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"l": 0, "r_hat": 1.0, "k_max": 2.0}))
    narrow = run_cli("eigen-scan", "--config", str(cfg))
    assert len(narrow.stdout.strip().split("\n")) == 2
    wide = run_cli("eigen-scan", "--config", str(cfg), "--k-max", "12")
    assert len(wide.stdout.strip().split("\n")) == 5


def test_output_keys_come_from_the_config_read_once(run_cli, tmp_path, monkeypatch):
    cfg = tmp_path / "cfg.json"
    table = tmp_path / "from_config.json"
    cfg.write_text(json.dumps({"l": 0, "k_max": 12.0, "format": "json",
                               "out": str(table)}))
    opens = []
    real_open = builtins.open

    def counting_open(file, *args, **kwargs):
        if os.fspath(file) == str(cfg):
            opens.append(file)
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr(builtins, "open", counting_open)
    # both keys honoured: a JSON table at the config's path, PASS on stdout
    res = run_cli("eigen-scan", "--config", str(cfg))
    assert res.returncode == 0
    assert res.stdout == "PASS\n"
    assert len(opens) == 1
    doc = json.loads(table.read_text(encoding="utf-8"))
    assert doc["command"] == "eigen-scan" and len(doc["rows"]) == 3
    # each flag beats its config key
    flagged = tmp_path / "from_flag.csv"
    res = run_cli("eigen-scan", "--config", str(cfg), "--format", "csv",
                  "--out", str(flagged))
    assert res.returncode == 0
    assert flagged.read_text(encoding="utf-8").startswith("l,k,residual,")
    assert json.loads(table.read_text(encoding="utf-8")) == doc
    assert len(opens) == 2


def test_bad_config_format_exits_2(run_cli, tmp_path):
    for bad in ("xml", 5):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"l": 0, "k_max": 12.0, "format": bad}))
        res = run_cli("eigen-scan", "--config", str(cfg))
        assert res.returncode == 2, bad
        assert res.stdout == ""
        assert "config error" in res.stderr and "format" in res.stderr


def test_json_output_mirrors_the_table(run_cli, tmp_path):
    cfg = tmp_path / "far.json"
    cfg.write_text(json.dumps({
        "k": 1.0,
        "a_coeffs": [[0, 0, 1.0, 0.0]],
        "directions": [[0.5, 0.5], [1.5, 2.5]],
    }))
    res = run_cli("farfield", "--config", str(cfg), "--format", "json")
    assert res.returncode == 0
    doc = json.loads(res.stdout)
    assert doc["command"] == "farfield"
    assert doc["summary"] == "PASS"
    assert len(doc["rows"]) == 2


def test_the_threads_env_var_is_not_read(run_cli, monkeypatch):
    # the boundary scan is serial; the variable that once sized its thread
    # pool neither changes the output nor is validated
    args = ("domain-residual", "--domain", SPHEROID, "--k-min", "1", "--k-max", "3",
            "--k-step", "0.5")
    monkeypatch.delenv("SCHIFFER_LAB_THREADS", raising=False)
    unset = run_cli(*args)
    monkeypatch.setenv("SCHIFFER_LAB_THREADS", "zero")
    assert run_cli(*args) == unset
    assert unset.returncode == 1  # no eigenvalue on this coarse grid


_TOO_SMALL = "scan frequency k = 5e-324 is too small: 1/k overflows at and below 2**-1024"


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("args, message", [
    # 1/k overflows, which read as numpy warnings and an unconverged SVD
    (("--k", "5e-324"), _TOO_SMALL),
    (("--k-min", "5e-324", "--k-max", "1", "--k-step", "0.5"), _TOO_SMALL),
    # the first grid would have allocated 7.11 PiB, the second run for hours
    (("--k-min", "1", "--k-max", "1e6", "--k-step", "1e-9"),
     "k_step 1e-09 gives 9.99999e+14 frequencies from k_min to k_max, more than 32768"),
    (("--k-min", "1", "--k-max", "2", "--k-step", "1e-7"),
     "k_step 1e-07 gives 1e+07 frequencies from k_min to k_max, more than 32768"),
    (("--k-min", "1", "--k-max", "2", "--k-step", "5e-324"),
     "k_step 5e-324 gives inf frequencies from k_min to k_max, more than 32768"),
])
def test_unusable_frequencies_exit_2_before_any_work(run_cli, args, message):
    res = run_cli("domain-residual", "--domain", BALL, *args)
    assert res.returncode == 2
    assert res.stdout == ""
    assert res.stderr == f"schifferlab: config error: {message}\n"


# numeric flag values at the edges: zero, negative, NaN, +-inf, huge, tiny.
# Should a guard go, every pairing still allocates either little or far
# more than any machine has, which numpy refuses at once
_EDGE_FLOATS = st.sampled_from(["0", "-0", "-1", "nan", "inf", "-inf", "1e6", "1e300",
                                "-1e300", "1e-300", "5e-324", "0.5", "12"])
_EDGE_INTS = st.sampled_from(["0", "-1", "3", "61", "1000000", "nan", "1e3"])
# each case: a command line the fuzzed flags are appended to (a later flag
# wins), and the flags
_RESIDUAL_FLAGS = {"--l-trial": _EDGE_INTS, "--threshold": _EDGE_FLOATS,
                   "--n-collocation": st.sampled_from(["0", "-1", "3", "61", "1000000",
                                                       "100000000", "nan", "1e3"])}
_FUZZED = {
    "eigen-scan": (("eigen-scan",), {"--l": _EDGE_INTS, "--r-hat": _EDGE_FLOATS,
                                     "--k-max": _EDGE_FLOATS, "--scan-step": _EDGE_FLOATS,
                                     "--tol": _EDGE_FLOATS}),
    "density": (("density",), {"--l": _EDGE_INTS, "--r-hat": _EDGE_FLOATS,
                               "--k-max": _EDGE_FLOATS, "--gap-tol": _EDGE_FLOATS}),
    "domain-residual at k": (("domain-residual", "--domain", BALL, "--k", "2"),
                             {"--k": _EDGE_FLOATS, **_RESIDUAL_FLAGS}),
    "domain-residual on a grid": (("domain-residual", "--domain", BALL, "--k-min", "1",
                                   "--k-max", "3", "--k-step", "0.5"),
                                  {"--k": _EDGE_FLOATS, "--k-min": _EDGE_FLOATS,
                                   "--k-max": _EDGE_FLOATS, "--k-step": _EDGE_FLOATS,
                                   **_RESIDUAL_FLAGS}),
    "ray-scan": (("ray-scan", "--domain", BALL), {"--l-max": _EDGE_INTS,
                                                  "--k-max": _EDGE_FLOATS,
                                                  "--spread-tol": _EDGE_FLOATS}),
    # n_x is capped at 32,768, so 1000000 is refused before any table
    "specfun-check": (("specfun-check",), {"--l-max": _EDGE_INTS, "--x-min": _EDGE_FLOATS,
                                           "--x-max": _EDGE_FLOATS, "--n-x": _EDGE_INTS,
                                           "--tol": _EDGE_FLOATS, "--gram-l-max": _EDGE_INTS,
                                           "--gram-tol": _EDGE_FLOATS}),
    "indicator": (("indicator",), {"--l": _EDGE_INTS, "--xi": _EDGE_FLOATS,
                                   "--r-hat": _EDGE_FLOATS, "--theta": _EDGE_FLOATS,
                                   "--r-values": st.sampled_from([
                                       "12.5,25,50", "0,20,60", "60,70,inf", "nan,20,60",
                                       "5e-324,1,60", "50,40,60", "60", "1e6,2e6,4e6",
                                       "100,1e300,inf"]),
                                   "--type-tol": _EDGE_FLOATS}),
    # the trial degree stays below 60, whose system is 14,884 x 3,721
    "ball-check": (("ball-check",), {"--r": _EDGE_FLOATS, "--n": _EDGE_INTS,
                                     "--l-trial": _EDGE_INTS, "--tol": _EDGE_FLOATS}),
    "farfield": (("farfield", "--config", FARFIELD), {"--k": _EDGE_FLOATS}),
}


@settings(max_examples=300, deadline=None, derandomize=True)
@given(data=st.data())
def test_numeric_flags_at_the_edges_exit_cleanly(data):
    # every outcome is PASS/FAIL (0/1), a numerical failure (1) or a config
    # error (2), never a traceback; the only warnings are the documented ones
    # about near-coincident roots (a tol above the root spacing) and, from
    # the boundary least squares, a rank-deficient trial space
    case = data.draw(st.sampled_from(sorted(_FUZZED)))
    fixed, flags = _FUZZED[case]
    chosen = data.draw(st.lists(st.sampled_from(sorted(flags)), unique=True))
    args = list(fixed)
    for flag in chosen:
        args += [flag + "=" + data.draw(flags[flag])]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            code = cli.main(args)
        except SystemExit as exc:  # argparse's usage errors
            code = exc.code
    event(f"{case} exit {code}")
    assert code in (0, 1, 2), (args, code)
    assert "Traceback" not in err.getvalue(), args
    allowed = ("near-coincident roots",) + (
        ("rank deficient",) if args[0] == "domain-residual" else ())
    assert all(any(text in str(w.message) for text in allowed) for w in caught), \
        (args, [str(w.message) for w in caught])


# config-file values: JSON bools, strings, integral and non-integral
# floats, NaN and the infinities, null, nested lists, and integers past
# the float range.  Other integers stay small or past every cap: an order
# of 60 is valid and would build a least-squares system of 3,721 columns
_JSON_SCALARS = st.sampled_from([True, False, None, "2", "", "0.5", "nan", 0, 1, 2, 3, -1, 61,
                                 HUGE, -HUGE, 0.0, -0.0, 2.0, 3.0, -1.0, 61.0, 0.5, 2.5,
                                 1e-300, 5e-324, 1e300, math.nan, math.inf, -math.inf])
_JSON_VALUES = st.recursive(_JSON_SCALARS, lambda inner: st.lists(inner, max_size=4),
                            max_leaves=8)
# a valid config per subcommand, which the fuzzed keys then overwrite; the
# domain key is filled in with the fuzzed domain file's path
_BASE_CONFIGS = {
    "specfun-check": {"l_max": 5, "n_x": 50, "gram_l_max": 2},
    "eigen-scan": {"k_max": 12},
    "density": {"k_max": 60},
    "indicator": {},
    "ball-check": {},
    "domain-residual": {"k": 2.0},
    "ray-scan": {},
    "farfield": {"k": 2.0, "a_coeffs": [[0, 0, 1.0, 0.0]]},
}


@settings(max_examples=300, deadline=None, derandomize=True)
@given(data=st.data())
def test_config_and_domain_file_values_exit_cleanly(data):
    # as for the flags above: PASS/FAIL (0/1), a numerical failure (1) or a
    # config error (2), never a traceback, and only the documented warnings
    command = data.draw(st.sampled_from(sorted(_BASE_CONFIGS)))
    _, params, _ = cli._COMMANDS[command]
    names = sorted(p.name for p in cli._OUTPUT + params if p.name not in ("out", "domain"))
    config = dict(_BASE_CONFIGS[command])
    for name in data.draw(st.lists(st.sampled_from(names), unique=True, max_size=2)):
        config[name] = data.draw(_JSON_VALUES)
    # L_geom, then the l, m and value of a second mode; at most one is fuzzed
    slots = [2, 2, 0, 0.1]
    fuzzed = data.draw(st.sampled_from([None, 0, 1, 2, 3]))
    if fuzzed is not None:
        slots[fuzzed] = data.draw(_JSON_VALUES)
    domain = {"L_geom": slots[0], "rho_coeffs": [[0, 0, 3.5449077018110318], slots[1:]]}
    with tempfile.TemporaryDirectory() as tmp:
        if any(p.name == "domain" for p in params):
            config["domain"] = os.path.join(tmp, "domain.json")
            with open(config["domain"], "w", encoding="utf-8") as fh:
                json.dump(domain, fh)
        path = os.path.join(tmp, "config.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(config, fh)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
                warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = cli.main([command, "--config", path])
    event(f"{command} exit {code}")
    assert code in (0, 1, 2), (config, domain, code)
    assert "Traceback" not in err.getvalue(), (config, domain)
    allowed = ("near-coincident roots", "rank deficient")
    assert all(any(text in str(w.message) for text in allowed) for w in caught), \
        (config, domain, [str(w.message) for w in caught])
