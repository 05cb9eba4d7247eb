"""Benchmark entry point: one workload, one pass, one JSON line.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Every measurement runs in a fresh subprocess (``perfbench.worker``) with
the allocator pinned (see ``NOISE_ENV``). With ``--trace 0`` the
measured time is split over ``PROCESSES`` subprocesses, one after the
other: ``setup_s`` is the median of their set-ups, and the round samples
are pooled, so neither one process's memory layout nor one burst of
interference from the host decides the result. Metric names, units and
bounds live in ``BENCHMARK.json`` at the root of the checkout; this
script prints exactly the metrics that file lists.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path
from statistics import median
from typing import Dict, List, Optional

ROOT = Path(__file__).resolve().parent.parent
PROCESSES = 3
CHILD_TIMEOUT_S = 170

#: glibc malloc would otherwise mmap/munmap every large numpy temporary and
#: trim the heap between rounds: ~20 k minor page faults per run_batch, and
#: 0.04-0.71 s of kernel time that swings run to run. Allocation churn stays
#: visible through host.minor_faults / host.cpu_sys_s.
NOISE_ENV = {
    "MALLOC_MMAP_THRESHOLD_": "33554432",
    "MALLOC_TRIM_THRESHOLD_": "2147483648",
    "MALLOC_TOP_PAD_": "268435456",
    "PYTHONHASHSEED": "0",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as handle:
        return json.load(handle)


def _spawn(workload: str, seed: int, seconds: float, trace: int,
           extra: List[str]) -> dict:
    env = dict(os.environ, **NOISE_ENV)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT), str(ROOT / "src")] + env.get("PYTHONPATH", "").split(os.pathsep)
    ).rstrip(os.pathsep)
    command = [
        sys.executable, "-m", "perfbench.worker",
        "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
        "--trace", str(trace), "--spawned-at", repr(time.time()), *extra,
    ]
    # subprocess.run kills and reaps the child when the timeout expires.
    done = subprocess.run(command, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                          text=True, timeout=CHILD_TIMEOUT_S)
    if done.returncode != 0:
        raise RuntimeError(f"worker for {workload} exited with {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def _stats(values: List[float]) -> Dict[str, float]:
    return {"n": len(values), "median": median(values),
            "min": min(values), "max": max(values)}


def run_workload(workload: str, seed: int, seconds: float, trace: int,
                 quick: bool = False, spans_out: Optional[str] = None) -> dict:
    """Run one pass of one workload; returns its result record."""
    extra = ["--quick"] if quick else []
    if trace:
        if spans_out:
            extra += ["--spans-out", spans_out]
        return _spawn(workload, seed, seconds, 1, extra + ["--verify"])
    # Only the last process pays for the reference checks; every process
    # checks each of its rounds against its own warm-up round.
    parts = [
        _spawn(workload, seed, seconds, 0,
               extra + ["--part", f"{index}/{PROCESSES}"]
               + (["--verify"] if index == PROCESSES - 1 else []))
        for index in range(PROCESSES)
    ]
    result = parts[-1]
    run_s = [x for part in parts for x in part["run_s"]]
    waits_ms = [x for part in parts for x in part["waits_ms"]]
    drifted = sum(part["counts"] != result["counts"] for part in parts if part["run_s"])
    result.update(
        rounds=len(run_s),
        ops_attempted=sum(part["ops_attempted"] for part in parts),
        ops_failed=sum(part["ops_failed"] for part in parts)
        + (drifted if result["counts_repeat"] else 0),
        metrics={
            "setup_s": median(part["setup_s"] for part in parts),
            "run_s": median(run_s),
            "qps": sum(part["timed_ops"] for part in parts)
            / sum(part["timed_s"] for part in parts),
            "latency_p50_ms": median(waits_ms),
            "peak_rss_mb": max(part["peak_rss_mb"] for part in parts),
        },
        samples={
            "setup_s": _stats([part["setup_s"] for part in parts]),
            "run_s": _stats(run_s),
            "latency_p50_ms": _stats(waits_ms),
        },
    )
    return result


def contract_line(result: dict, spec: dict) -> Dict[str, object]:
    """The record the benchmark driver reads from the last line of output."""
    listed = spec["per_layer"] if result["trace"] else spec["end_to_end"]
    return {
        "correct": result["ops_failed"] == 0,
        "attempted": result["ops_attempted"],
        "failed": result["ops_failed"],
        "metrics": {
            m["name"]: {"value": result["metrics"][m["name"]], "unit": m["unit"]}
            for m in listed
        },
    }


def main(argv: Optional[List[str]] = None) -> int:
    spec = load_spec()
    parser = argparse.ArgumentParser(prog="python3 perfbench/run.py")
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print("perfbench: src/repro is not in this checkout", file=sys.stderr)
        return 2
    result = run_workload(args.workload, args.seed, args.seconds, args.trace)
    print(json.dumps(contract_line(result, spec)))
    return 0 if result["ops_failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
