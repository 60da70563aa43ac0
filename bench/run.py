"""Run one benchmark workload and print its metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--size full|tiny]

Run it from the root of a source checkout; it imports schifferlab from
``src/`` and nothing else.  Workloads: ray_spectrum, contour_count,
boundary_scan, boundary_scan_mt (see bench/README.md).

With ``--trace 0`` it starts three fresh worker processes one after
another.  Each sets up, then repeats the same seeded batch until its
timed phase covers S/3 seconds.  It reports the median set-up time and
peak memory over the workers and the median wall and CPU time over all
batches.  With ``--trace 1`` it runs one untraced
and one traced round and reports the per-layer metrics.  Every output is
checked; the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``, and the exit code
is 1 when any gate failed.  The full record, with the environment, goes
to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path.cwd()
BENCH = Path(__file__).resolve().parent
OUT = ROOT / ".bench_out"
ROUNDS = 3  # fresh workers per untraced run, so set-up is timed three times
BUDGET_S = 160.0  # every run ends well inside 180 s
ENV_PREFIXES = ("OMP_", "OPENBLAS_")
ENV_NAMES = ("SCHIFFER_LAB_THREADS",)


class BenchError(Exception):
    """The benchmark could not produce a result (not a failed gate)."""


def git_sha() -> str:
    """HEAD of the checkout, or 'unknown' outside a git repository."""
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def worker_env() -> dict:
    env = os.environ.copy()
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_worker(args, deadline: float, *, target: float = 0.0, trace: bool = False,
               reference: bool = False) -> dict:
    """Start one worker, wait for it, and return its result with its set-up time."""
    cmd = [sys.executable]
    if trace:
        cmd += ["-X", "importtime"]
    cmd += [str(BENCH / "worker.py"), "--workload", args.workload, "--seed", str(args.seed),
            "--size", args.size, "--target", str(target)]
    if trace:
        cmd += ["--trace", "--spans", str(OUT / f"spans-{args.workload}-seed{args.seed}.npz")]
    if reference:
        cmd.append("--reference")
    err_path = OUT / f"stderr-{args.workload}{'-traced' if trace else ''}.txt"
    with open(err_path, "w+", encoding="utf-8") as err:
        spawned_at = time.clock_gettime(time.CLOCK_MONOTONIC)
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=err, cwd=ROOT,
                                env=worker_env(), text=True)
        try:
            stdout, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            raise BenchError(f"worker for {args.workload} overran the time budget")
        finally:
            if proc.poll() is None:  # timed out or interrupted: never leave it running
                proc.kill()
                proc.communicate()
        err.seek(0)
        stderr = err.read()
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = "\n".join(stderr.strip().splitlines()[-15:])
        raise BenchError(f"worker for {args.workload} exited with {proc.returncode}:\n{tail}")
    result = json.loads(lines[-1])
    result["setup_s"] = result["ready_at"] - spawned_at
    if trace:
        result["imports"] = import_times(stderr)
    return result


def import_times(stderr: str) -> dict:
    """Cumulative import seconds of schifferlab.cli and scipy.special from -X importtime."""
    found = {}
    for line in stderr.splitlines():
        m = re.match(r"import time:\s+\d+ \|\s+(\d+) \|\s*(\S+)\s*$", line)
        if m and m.group(2) in ("schifferlab.cli", "scipy.special"):
            found.setdefault(m.group(2), int(m.group(1)) / 1e6)
    if len(found) != 2:
        raise BenchError("-X importtime did not report schifferlab.cli and scipy.special")
    return found


def bitwise_mismatches(rounds: list[dict], reference: list) -> int:
    """Units whose threaded residual differs in any bit from the serial one."""
    bad = 0
    for r in rounds:
        for got, want in zip(r["outputs"], reference):
            if isinstance(got, dict) or isinstance(want, dict) or len(got) != len(want):
                bad += len(want) if isinstance(want, list) else 1
            else:
                bad += sum(a != b for a, b in zip(got, want))
    return bad


def environment(args, worker_env_record: dict) -> dict:
    inherited = {k: v for k, v in sorted(os.environ.items())
                 if k.startswith(ENV_PREFIXES) or k in ENV_NAMES}
    return {"nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
            "git_sha": git_sha(), "seed": args.seed, "workload": args.workload,
            "size": args.size, "inherited_env": inherited, **worker_env_record}


def measure(args, deadline: float) -> tuple[dict, list[dict], list[str]]:
    """ROUNDS fresh workers, each repeating the batch for --seconds / ROUNDS.

    On a machine slow enough that another worker would overrun the time
    budget, fewer rounds are reported rather than none.
    """
    mt = args.workload == "boundary_scan_mt"
    rounds: list[dict] = []
    started = time.monotonic()
    while len(rounds) < ROUNDS:
        per_round = (time.monotonic() - started) / max(len(rounds), 1)
        if rounds and time.monotonic() + 1.5 * per_round > deadline:
            break
        rounds.append(run_worker(args, deadline, target=args.seconds / ROUNDS,
                                 reference=mt and not rounds))
    metrics = {
        "setup_s": statistics.median(r["setup_s"] for r in rounds),
        "wall_s": statistics.median(w for r in rounds for w in r["wall_s"]),
        "cpu_s": statistics.median(c for r in rounds for c in r["cpu_s"]),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in rounds),
    }
    notes = [n for r in rounds for n in r["notes"]]
    return metrics, rounds, notes


def traced(args, deadline: float) -> tuple[dict, list[dict], list[str]]:
    """One untraced and one traced round of the same inputs."""
    mt = args.workload == "boundary_scan_mt"
    plain = run_worker(args, deadline, reference=mt)
    traced_round = run_worker(args, deadline, trace=True)
    layers = dict(traced_round["layers"])
    layers["process.cpu_per_wall"] = plain["cpu_s"][0] / plain["wall_s"][0]
    layers["cli.import_s"] = traced_round["imports"]["schifferlab.cli"]
    layers["cli.import_scipy_special_s"] = traced_round["imports"]["scipy.special"]
    layers["trace.overhead_s"] = traced_round["wall_s"][0] - plain["wall_s"][0]
    return layers, [plain, traced_round], plain["notes"] + traced_round["notes"]


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny is for the benchmark's own tests")
    args = ap.parse_args()
    # a terminated run unwinds through run_worker, which stops its worker
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not (ROOT / "src" / "schifferlab" / "__init__.py").is_file():
        print(f"bench: no src/schifferlab under {ROOT}; run from a source checkout",
              file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    deadline = time.monotonic() + BUDGET_S
    try:
        if args.trace:
            metrics, rounds, notes = traced(args, deadline)
            units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        else:
            metrics, rounds, notes = measure(args, deadline)
            units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2

    attempted = sum(r["attempted"] for r in rounds)
    failed = sum(r["failed"] for r in rounds)
    references = [r["reference"] for r in rounds if "reference" in r]
    if references:
        # boundary_scan_mt: every threaded residual equals the serial one bit for bit
        mismatched = bitwise_mismatches(rounds, references[0])
        failed += mismatched
        if mismatched:
            notes.append(f"{mismatched} threaded residuals differ from the serial scan")
    if args.trace and rounds[0]["digest"] != rounds[1]["digest"]:
        failed += 1
        notes.append("traced outputs differ from untraced outputs")
    correct = failed == 0

    record = {
        "environment": environment(args, rounds[0]["environment"]),
        "input_size": rounds[0]["input_size"],
        "threads": rounds[0]["threads"],
        "rounds": [{k: r[k] for k in ("setup_s", "wall_s", "cpu_s", "peak_rss_mb",
                                      "attempted", "failed", "digest")} for r in rounds],
        "notes": notes[:50],
        "metrics": metrics,
    }
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    print("# environment " + json.dumps(record["environment"]))
    print(f"# {args.workload}: {len(rounds)} rounds, input {json.dumps(record['input_size'])}")
    for note in notes[:10]:
        print(f"# FAIL {note}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
