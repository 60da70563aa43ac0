"""One benchmark round in a fresh process: set up, run the timed phase, check.

Usage (run.py starts it; it is not meant to be run by hand):

    python3 bench/worker.py --workload NAME --seed N --size full|tiny
                            [--target S] [--trace] [--reference] [--spans PATH]

Set-up is everything before the timed phase: interpreter start,
``import schifferlab.cli``, input generation and a warm-up call.  The
worker stamps the end of set-up on CLOCK_MONOTONIC, which run.py also
reads before spawning it.  Untraced, the worker repeats its seeded batch
until the timed phase covers ``--target`` seconds and reports each
repetition; a traced worker runs the batch once.  The last line of
standard output is one JSON object with the timings, the gate outcome
and the canonical outputs.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import platform
import resource
import sys
import time

import schifferlab.cli  # noqa: F401  (the cold start every CLI call pays)

import numpy as np
import scipy

import tracing
import workloads


_BLAS_QUERIES = (("scipy_openblas_get_config64_", "scipy_openblas_get_num_threads64_"),
                 ("scipy_openblas_get_config", "scipy_openblas_get_num_threads"),
                 ("openblas_get_config", "openblas_get_num_threads"))


def _blas_libraries() -> list[dict]:
    """Name, version and thread count of every OpenBLAS this process loaded."""
    out = []
    seen = set()
    with open("/proc/self/maps", encoding="utf-8") as fh:
        for line in fh:
            path = line.split()[-1]
            if "openblas" not in path.lower() or not path.endswith(".so") or path in seen:
                continue
            seen.add(path)
            lib = ctypes.CDLL(path)
            info = {"library": path.rsplit("/", 1)[-1]}
            for config_name, threads_name in _BLAS_QUERIES:
                if hasattr(lib, config_name) and hasattr(lib, threads_name):
                    config = getattr(lib, config_name)
                    config.restype = ctypes.c_char_p
                    info["config"] = config().decode()
                    info["threads"] = int(getattr(lib, threads_name)())
                    break
            out.append(info)
    return out


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": {"name": blas.get("name"), "version": blas.get("version")},
        "blas_libraries": _blas_libraries(),
    }


def digest(rows) -> str:
    return hashlib.sha256(json.dumps(rows, sort_keys=True).encode()).hexdigest()


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--size", default="full", choices=("full", "tiny"))
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--reference", action="store_true",
                    help="also run the serial scan of the same inputs")
    ap.add_argument("--spans", help="write the trace spans to this .npz file")
    ap.add_argument("--target", type=float, default=0.0,
                    help="repeat the batch until the timed phase covers this many seconds")
    args = ap.parse_args()

    wl = workloads.WORKLOADS[args.workload]
    inputs = wl.build(args.seed, args.size)
    wl.warm_up()
    tracer = tracing.Tracer() if args.trace else None
    if tracer is not None:
        tracer.install()
    ready_at = time.clock_gettime(time.CLOCK_MONOTONIC)

    walls, cpus, digests = [], [], []
    outputs = None
    while not walls or (tracer is None and sum(walls) < args.target):
        ru0 = resource.getrusage(resource.RUSAGE_SELF)
        t0 = time.perf_counter()
        batch = wl.run(inputs, tracer)
        walls.append(time.perf_counter() - t0)
        ru1 = resource.getrusage(resource.RUSAGE_SELF)
        cpus.append((ru1.ru_utime - ru0.ru_utime) + (ru1.ru_stime - ru0.ru_stime))
        if outputs is None:
            outputs = batch
        else:
            digests.append(digest(wl.canonical(batch)))
    wall = walls[0]

    result = {
        "ready_at": ready_at,
        "wall_s": walls,
        "cpu_s": cpus,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "threads": wl.threads,
        "input_size": inputs["size"],
    }
    if tracer is not None:
        tracer.uninstall()
        spans = tracer.spans
        result["layers"] = tracing.layer_metrics(spans, tracer.counters, wall, wl.threads)
        result["spans"] = len(spans)
        if args.spans:
            tracing.save_spans(spans, args.spans)

    check = wl.check(inputs, outputs)
    rows = wl.canonical(outputs)
    repeats = sum(d != digest(rows) for d in digests)
    if repeats:
        check.unit(False, f"{repeats} repeated batches gave different outputs", n=repeats)
    result.update(attempted=check.attempted, failed=check.failed, notes=check.notes[:20],
                  digest=digest(rows), environment=environment())
    if hasattr(wl, "reference"):
        result["outputs"] = rows
        if args.reference:
            result["reference"] = wl.canonical(wl.reference(inputs))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
