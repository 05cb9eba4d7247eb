"""Run the whole suite, or compare two suite results.

    PYTHONPATH=src python -m perfbench [--workload W] [--seed N] [--out FILE]
    PYTHONPATH=src python -m perfbench --repeat 2
    PYTHONPATH=src python -m perfbench --compare A.json B.json

Each workload runs twice, each time in fresh subprocesses: an untraced
pass for the end-to-end metrics, then a traced pass for the per-layer
ones. Exits non-zero when any operation failed verification, or when a
comparison finds a regression or a changed exact count.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
from typing import Dict, List, Optional

import numpy

from perfbench.run import NOISE_ENV, load_spec, run_workload


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def _host() -> Dict[str, object]:
    return {
        "platform": platform.platform(),
        "cpu": _cpu_model(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


# ----------------------------------------------------------------------
# Running
# ----------------------------------------------------------------------
def run_suite(spec: dict, workloads: List[str], seed: int, seconds: float,
              quick: bool, spans_prefix: Optional[str]) -> dict:
    results = {}
    for name in workloads:
        untraced = run_workload(name, seed, seconds, 0, quick)
        traced = run_workload(
            name, seed, seconds, 1, quick,
            spans_out=f"{spans_prefix}.{name}.spans.json" if spans_prefix else None)
        results[name] = {"end_to_end": untraced, "per_layer": traced}
        _print_workload(spec, name, untraced, traced)
    return {
        "meta": {"seed": seed, "seconds": seconds, "quick": quick,
                 "env": NOISE_ENV, "host": _host()},
        "results": results,
    }


def _print_workload(spec: dict, name: str, untraced: dict, traced: dict) -> None:
    print(f"\n== {name}: ops_attempted={untraced['ops_attempted']} "
          f"ops_failed={untraced['ops_failed']} (untraced), "
          f"{traced['ops_attempted']}/{traced['ops_failed']} (traced)")
    samples = untraced["samples"]
    for metric in spec["end_to_end"]:
        line = (f"  {metric['name']:<34}{untraced['metrics'][metric['name']]:>14.6g} "
                f"{metric['unit']:<6}")
        seen = samples.get(metric["name"])
        if seen:
            line += (f" n={seen['n']} median={seen['median']:.6g} "
                     f"min={seen['min']:.6g} max={seen['max']:.6g}")
        print(line)
    root = traced["metrics"]["trace.round_s"]
    for metric in spec["per_layer"]:
        value = traced["metrics"][metric["name"]]
        line = f"  {metric['name']:<34}{value:>14.6g} {metric['unit']:<6}"
        if metric["unit"] == "s" and metric["name"].split(".")[0] not in ("graph", "host", "trace"):
            line += f" {value / root:6.1%} of the traced round"
        print(line)
    print(f"  traced rounds: {traced['rounds']}; exact counts: {traced['counts']}")


# ----------------------------------------------------------------------
# Comparing
# ----------------------------------------------------------------------
def _verdict(base: dict, new: dict, metric: dict) -> str:
    """``ok`` / ``regressed`` / ``unresolved`` for one (metric, workload)."""
    name, bound = metric["name"], metric["bound"]
    b, n = base["metrics"][name], new["metrics"][name]
    worse = (n - b) / b if metric["better"] == "lower" else (b - n) / b
    sides = [r["samples"][name] for r in (base, new) if name in r["samples"]]
    if len(sides) == 2:
        spread = max((s["max"] - s["min"]) / s["median"] for s in sides)
        lo, hi = (new, base) if metric["better"] == "lower" else (base, new)
        all_better = lo["samples"][name]["max"] < hi["samples"][name]["min"]
        if spread > bound and not all_better:
            return "unresolved"
    return "regressed" if worse > bound else "ok"


def compare(spec: dict, base: dict, new: dict) -> int:
    """Print one row per (metric, workload); returns the count of failures."""
    bad = 0
    print(f"{'workload':<14}{'metric':<18}{'base':>12}{'new':>12}{'new/base':>10}  verdict")
    for name in base["results"]:
        if name not in new["results"]:
            continue
        b, n = (side["results"][name]["end_to_end"] for side in (base, new))
        for metric in spec["end_to_end"]:
            verdict = _verdict(b, n, metric)
            bad += verdict == "regressed"
            bv, nv = b["metrics"][metric["name"]], n["metrics"][metric["name"]]
            print(f"{name:<14}{metric['name']:<18}{bv:>12.5g}{nv:>12.5g}"
                  f"{nv / bv:>10.3f}  {verdict} (bound {metric['bound']:.0%})")
        same = b["counts"] == n["counts"]
        exact = same or not b["counts_repeat"]
        bad += not exact
        print(f"{name:<14}{'exact counts':<18}{'':>34}  "
              f"{'identical' if same else 'differ' if exact else 'CHANGED'}")
    return bad


def main(argv: Optional[List[str]] = None) -> int:
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(prog="python -m perfbench")
    parser.add_argument("--workload", choices=names, action="append",
                        help="run only this workload (repeatable)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--out", help="write the results (and spans) here")
    parser.add_argument("--quick", action="store_true",
                        help="smoke run: scale 0.05, one round")
    parser.add_argument("--repeat", type=int, choices=(1, 2), default=1,
                        help="2 = run the suite twice and compare the two")
    parser.add_argument("--compare", nargs=2, metavar=("BASE", "NEW"))
    args = parser.parse_args(argv)

    if args.compare:
        sides = []
        for path in args.compare:
            with open(path) as handle:
                sides.append(json.load(handle))
        return 1 if compare(spec, *sides) else 0

    runs = [
        run_suite(spec, args.workload or names, args.seed, args.seconds, args.quick,
                  args.out and f"{args.out}.{index}")
        for index in range(args.repeat)
    ]
    if args.out:
        with open(args.out, "w") as handle:
            json.dump(runs[0] if args.repeat == 1 else runs, handle, indent=1)
    failed = sum(
        side["ops_failed"]
        for run in runs for result in run["results"].values() for side in result.values()
    )
    print(f"\nops_failed = {failed}")
    regressions = compare(spec, *runs) if args.repeat == 2 else 0
    return 1 if failed or regressions else 0


if __name__ == "__main__":
    sys.exit(main())
