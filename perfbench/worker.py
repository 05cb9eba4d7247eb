"""One workload, one pass, in this process (spawned by ``perfbench.run``).

Untraced pass (``--trace 0``): set-up, one warm-up round, rounds for
``--seconds`` of measured time, then verification -> the samples that
``perfbench.run`` pools into the end-to-end metrics.
Traced pass (``--trace 1``): set-up under the tracer, warm-up, untraced
rounds for half the time (the overhead baseline and the rusage window),
traced rounds for the other half, control runs -> per-layer metrics.
Prints one JSON object as its last line of output.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from statistics import median
from typing import List, Optional, Tuple


def run(workload: str, seed: int, seconds: float, trace: bool, quick: bool,
        verify: bool, spawned_at: float, spans_out: Optional[str] = None,
        part: Tuple[int, int] = (0, 1)) -> dict:
    # Imports are part of set-up time, so they happen here, not at the top.
    from perfbench.layers import SETUP, TARGETS, layer_metrics
    from perfbench.trace import Tracer
    from perfbench.workloads import WORKLOADS

    bench = WORKLOADS[workload](seed, quick)
    setup_tracer = Tracer()
    with setup_tracer.installed(TARGETS if trace else ()), setup_tracer.span(SETUP):
        bench.setup()
    try:
        warm = bench.round()
        setup_s = time.time() - spawned_at

        usage_before = resource.getrusage(resource.RUSAGE_SELF)
        rounds = bench.timed(
            warm, seconds / 2 if trace else bench.part_seconds(seconds, *part))
        usage = resource.getrusage(resource.RUSAGE_SELF)
        run_s = [bench.round_seconds(r) for r in rounds]
        result = {
            "workload": workload, "seed": seed, "trace": int(trace),
            "setup_s": setup_s,
            "run_s": run_s,
            "waits_ms": bench.waits_ms(rounds),
            "timed_ops": sum(r.ops for r in rounds),
            "timed_s": sum(r.seconds for r in rounds),
            "peak_rss_mb": usage.ru_maxrss / 1024.0,
            "rounds": len(rounds),
            "counts": dict(rounds[-1].counts) if rounds else {},
            "counts_repeat": bench.counts_repeat,
        }
        counted = [warm] + rounds
        if trace:
            bench.tracer = tracer = Tracer()
            with tracer.installed(TARGETS):
                traced = bench.timed(warm, seconds / 2)
            counted += traced
            metrics = layer_metrics(setup_tracer.spans, tracer.spans, len(traced))
            metrics.update(bench.controls(traced))
            metrics.update({
                "sim.us_per_round": float(traced[-1].counts["sim_us"]),
                "host.cpu_user_s": usage.ru_utime - usage_before.ru_utime,
                "host.cpu_sys_s": usage.ru_stime - usage_before.ru_stime,
                "host.minor_faults": float(usage.ru_minflt - usage_before.ru_minflt),
                "trace.round_s": median(r.seconds for r in traced),
                "trace.overhead_ratio": (
                    median(bench.round_seconds(r) for r in traced) / median(run_s)
                ),
            })
            result.update(metrics=metrics, rounds=len(traced))
            if spans_out:
                tracer.dump(spans_out)
        result["ops_attempted"] = sum(r.ops for r in counted)
        result["ops_failed"] = (
            sum(r.failed for r in counted) + (bench.verify(warm) if verify else 0)
        )
        return result
    finally:
        bench.close()


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m perfbench.worker")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--verify", action="store_true",
                        help="also check the warm-up round against the references")
    parser.add_argument("--spans-out")
    parser.add_argument("--part", default="0/1", metavar="INDEX/OF",
                        help="this process is one of OF that share --seconds")
    args = parser.parse_args(argv)
    result = run(args.workload, args.seed, args.seconds, bool(args.trace),
                 args.quick, args.verify, args.spawned_at, args.spans_out,
                 tuple(int(x) for x in args.part.split("/")))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
