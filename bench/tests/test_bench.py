"""The benchmark's own tests: a tiny smoke run of every workload, and tracing.

Run from the repository root:

    python3 -m pytest -q bench/tests

They are outside the Tier-1 suite (pyproject's testpaths is ``tests``).
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SEED = 2  # not one of the seeds the full-size runs were tuned on


def _run(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(SEED),
         "--seconds", "0.1", "--trace", str(trace), "--size", "tiny"],
        capture_output=True, text=True, cwd=ROOT, timeout=170)
    assert proc.returncode == 0, proc.stderr + proc.stdout
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _check_metrics(result: dict, spec: list[dict]) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    got = result["metrics"]
    assert set(got) == {m["name"] for m in spec}
    for m in spec:
        assert got[m["name"]]["unit"] == m["unit"]
        assert isinstance(got[m["name"]]["value"], (int, float))


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_every_workload(workload):
    _check_metrics(_run(workload, 0), SPEC["end_to_end"])
    _check_metrics(_run(workload, 1), SPEC["per_layer"])


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_traced_outputs_equal_untraced_and_names_are_restored(workload):
    wl = workloads.WORKLOADS[workload]
    inputs = wl.build(SEED, "tiny")
    before = tracing.originals()
    plain = wl.canonical(wl.run(inputs, None))
    tracer = tracing.Tracer()
    with tracer:
        traced = wl.canonical(wl.run(inputs, tracer))
    assert tracing.originals() == before
    assert traced == plain
    assert tracer.spans, "the traced run recorded no spans"
    check = wl.check(inputs, wl.run(inputs, None))
    assert check.failed == 0, check.notes


def test_layer_counts_repeat_exactly():
    wl = workloads.WORKLOADS["ray_spectrum"]
    inputs = wl.build(SEED, "tiny")
    counts = []
    for _ in range(2):
        tracer = tracing.Tracer()
        with tracer:
            wl.run(inputs, tracer)
        layers = tracing.layer_metrics(tracer.spans, tracer.counters, 1.0, 1)
        counts.append({k: v for k, v in layers.items() if isinstance(v, int)})
    assert counts[0] == counts[1]
    assert counts[0]["eigsearch.roots"] > 0


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "ray_spectrum", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path, env=env, timeout=60)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
