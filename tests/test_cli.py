"""End-to-end checks of the batch front end through real subprocesses."""

import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from schifferlab import cli

ROOT = Path(__file__).resolve().parent.parent
DATA = Path(__file__).parent / "data"
BALL = str(DATA / "ball.json")
SPHEROID = str(DATA / "spheroid.json")


def run_cli(*args, env_extra=None):
    env = os.environ.copy()
    env.pop("SCHIFFER_LAB_THREADS", None)
    if env_extra:
        env.update(env_extra)
    return subprocess.run([sys.executable, "-m", "schifferlab", *args],
                          capture_output=True, text=True, env=env)


def test_eigen_scan_reference_rows():
    res = run_cli("eigen-scan", "--l", "0", "--r-hat", "1", "--k-max", "12")
    assert res.returncode == 0
    lines = res.stdout.strip().split("\n")
    assert lines[0] == "l,k,residual,bracket_lo,bracket_hi"
    assert lines[-1] == "# summary: PASS"
    ks = [row.split(",")[1] for row in lines[1:-1]]
    assert len(ks) == 3
    assert ks[0].startswith("4.4934094579090")
    assert ks[1].startswith("7.7252518369377")
    assert ks[2].startswith("10.904121659428")


def test_eigen_scan_empty_window():
    res = run_cli("eigen-scan", "--l", "0", "--r-hat", "1", "--k-max", "2")
    assert res.returncode == 0
    lines = res.stdout.strip().split("\n")
    assert len(lines) == 2  # header and summary only


def test_repeated_runs_are_byte_identical(tmp_path):
    outs = []
    for name in ("a.csv", "b.csv"):
        out = tmp_path / name
        res = run_cli("eigen-scan", "--l", "2", "--k-max", "15",
                      "--out", str(out))
        assert res.returncode == 0
        assert res.stdout.strip() == "PASS"
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_density_example():
    res = run_cli("density", "--l", "0", "--r-hat", "2", "--k-max", "100")
    assert res.returncode == 0
    assert "# summary: PASS" in res.stdout
    assert "0.63" in res.stdout


def test_ball_check():
    res = run_cli("ball-check", "--r", "1", "--n", "1")
    assert res.returncode == 0
    assert "4.4934094579090" in res.stdout
    assert res.stdout.strip().endswith("# summary: PASS")


def test_domain_residual_pass_and_fail():
    good = run_cli("domain-residual", "--domain", BALL,
                   "--k", "4.493409457909064")
    assert good.returncode == 0
    assert "# summary: PASS" in good.stdout
    bad = run_cli("domain-residual", "--domain", BALL, "--k", "2")
    assert bad.returncode == 1
    assert "# summary: FAIL" in bad.stdout


def test_ray_scan_separates_ball_from_spheroid():
    ball = run_cli("ray-scan", "--domain", BALL, "--k-max", "12")
    assert ball.returncode == 0
    spheroid = run_cli("ray-scan", "--domain", SPHEROID, "--k-max", "12")
    assert spheroid.returncode == 1
    assert "# summary: FAIL" in spheroid.stdout


def test_specfun_check_fails_on_overflowed_tables():
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


def test_overflow_is_a_numerical_failure(monkeypatch, capsys):
    def overflow(*args, **kwargs):
        raise OverflowError("Riccati table overflows double range at z=(0.0001+0j)")

    monkeypatch.setattr(cli, "find_real_eigenvalues", overflow)
    assert cli.main(["eigen-scan", "--l", "0", "--k-max", "12"]) == 1
    err = capsys.readouterr().err
    assert err == ("schifferlab: numerical failure: Riccati table overflows "
                   "double range at z=(0.0001+0j)\n")


def test_overflow_stderr_is_one_line():
    # C_60 overflows at k = 1e-5; numpy warnings must not precede the message
    res = run_cli("eigen-scan", "--l", "60", "--r-hat", "1", "--k-max", "0.01",
                  "--scan-step", "1e-5")
    assert res.returncode == 1
    assert res.stderr == ("schifferlab: numerical failure: Riccati table overflows "
                          "double range at z=(1e-05+0j)\n")


# the README examples that FAIL on purpose: the spheroid is not a ball
README_FAILS = {
    "schifferlab domain-residual --domain tests/data/spheroid.json --k-min 1 --k-max 3 "
    "--k-step 0.5",
    "schifferlab ray-scan --domain tests/data/spheroid.json --k-max 12",
}


def test_readme_examples_run_as_documented(monkeypatch, capsys):
    monkeypatch.chdir(ROOT)
    monkeypatch.delenv("SCHIFFER_LAB_THREADS", raising=False)
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


def test_config_errors_exit_2(tmp_path):
    cases = [
        ("specfun-check", "--l-max", "200"),
        ("domain-residual", "--domain", str(tmp_path / "missing.json"), "--k", "2"),
        ("indicator", "--l", "2", "--xi", "0.25"),
        ("indicator", "--theta", "0"),
        ("indicator", "--theta", "nan"),
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


def test_indicator_expects_the_type_times_sin_theta():
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


def test_indicator_rejects_the_real_axis():
    # sin(pi) rounds to 1.2e-16, not 0; the ray still lies on the real axis
    res = run_cli("indicator", "--theta", "3.141592653589793")
    assert res.returncode == 2
    assert "config error" in res.stderr
    assert "relative test is undefined" in res.stderr


def test_unknown_subcommand_exits_2():
    assert run_cli("frobnicate").returncode == 2


def test_flags_override_config(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"l": 0, "r_hat": 1.0, "k_max": 2.0}))
    narrow = run_cli("eigen-scan", "--config", str(cfg))
    assert len(narrow.stdout.strip().split("\n")) == 2
    wide = run_cli("eigen-scan", "--config", str(cfg), "--k-max", "12")
    assert len(wide.stdout.strip().split("\n")) == 5


def test_json_output_mirrors_the_table(tmp_path):
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


def test_threads_env_is_validated():
    res = run_cli("ray-scan", "--domain", BALL,
                  env_extra={"SCHIFFER_LAB_THREADS": "zero"})
    assert res.returncode == 2
    assert "SCHIFFER_LAB_THREADS" in res.stderr


def test_threaded_run_matches_serial(tmp_path):
    outs = []
    codes = []
    for name, threads in (("serial.csv", "1"), ("fanout.csv", "4")):
        out = tmp_path / name
        res = run_cli("domain-residual", "--domain", SPHEROID,
                      "--k-min", "1", "--k-max", "3", "--k-step", "0.5",
                      "--out", str(out),
                      env_extra={"SCHIFFER_LAB_THREADS": threads})
        codes.append(res.returncode)
        outs.append(out.read_bytes())
    assert codes[0] == codes[1] == 1  # no eigenvalue on this coarse grid
    assert outs[0] == outs[1]
