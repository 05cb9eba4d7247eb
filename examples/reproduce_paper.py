#!/usr/bin/env python3
"""Regenerate every table and figure of the paper in one run.

This is the human-friendly driver around :mod:`repro.bench.experiments`: a
loop over its ``EXPERIMENTS`` registry (the pytest benchmarks in
``benchmarks/`` run the same sweep functions with shape assertions). It
prints each paper artifact in roughly the layout the paper uses; the
entries behind EXPERIMENTS.md print too when named with ``--only``.

Run with:      python examples/reproduce_paper.py
Quick subset:  python examples/reproduce_paper.py --datasets LJ,RC,TW --skip figure13
"""

from __future__ import annotations

import argparse
import time

from repro.bench import experiments
from repro.bench.harness import BenchmarkContext
from repro.graph.datasets import DATASET_ORDER


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--datasets", default=",".join(DATASET_ORDER),
                        help="comma-separated dataset abbreviations")
    parser.add_argument("--scale", type=float, default=1.0,
                        help="dataset size multiplier")
    parser.add_argument("--device", default="K40", help="GPU model (K20/K40/P100)")
    parser.add_argument("--only", default="", help="run only these artifacts")
    parser.add_argument("--skip", default="", help="skip these artifacts")
    args = parser.parse_args()

    datasets = tuple(d.strip().upper() for d in args.datasets.split(",") if d.strip())
    ctx = BenchmarkContext(scale=args.scale, datasets=datasets, device=args.device)
    only = {a.strip() for a in args.only.split(",") if a.strip()}
    skip = {a.strip() for a in args.skip.split(",") if a.strip()}

    print(f"Reproducing SIMD-X experiments on datasets {datasets} "
          f"(scale={args.scale}, device={args.device})")

    for entry in experiments.EXPERIMENTS:
        # Without --only: the paper's artifacts, not the EXPERIMENTS.md sections.
        selected = entry.key in only if only else not entry.documented
        if not selected or entry.key in skip:
            continue
        start = time.time()
        print("\n" + "=" * 78)
        print(entry.title)
        print("=" * 78)
        print(entry.render(entry.run(ctx)))
        print(f"[{entry.key} generated in {time.time() - start:.1f}s]")


if __name__ == "__main__":
    main()
