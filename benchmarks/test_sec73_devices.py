"""Section 7.3: performance scaling across GPU generations (K20, K40, P100).

Paper result (shape): SIMD-X improves 1.7x moving from K20 to K40 and 5.1x
moving to P100, more than Gunrock (1.1x / 1.7x) and CuSha (1.2x / 3.5x),
because its fused kernels re-derive their CTA count from each device's
register file and so convert the larger machines into more resident threads.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.bench import experiments
from repro.gpu.device import get_device_spec


def test_section73_device_scaling(ctx):
    result = experiments.section7_3(ctx)
    print()
    print(experiments.experiment("section7_3").render(result))

    rows = {r["system"]: r for r in result["rows"]}

    # A system's devices are averaged over one graph set: the graphs it
    # completed on every device, and no other.
    for system, row in rows.items():
        assert row["graphs"], system
        runs = {
            device: {
                abbrev: ctx.run(system, abbrev, "bfs", device_spec=get_device_spec(device))
                for abbrev in ctx.datasets
            }
            for device in row["mean_ms"]
        }
        completed = [
            g for g in ctx.datasets
            if not any(runs[device][g].failed for device in runs)
        ]
        assert row["graphs"] == completed, system
        for device, by_graph in runs.items():
            assert row["mean_ms"][device] == pytest.approx(
                np.mean([by_graph[g].elapsed_ms for g in completed])
            ), (system, device)

    # Every system gets faster on newer devices.
    for system, row in rows.items():
        speedups = row["speedup_vs_first"]
        assert speedups["K40"] >= 1.0, system
        assert speedups["P100"] > speedups["K40"], system

    # SIMD-X benefits from the newer devices. (The paper reports it scaling
    # *better* than the baselines; at the analogue scale SIMD-X's runtime is
    # dominated by per-iteration costs that shrink less with the device, so
    # the check here is directional - see EXPERIMENTS.md.)
    assert rows["simdx"]["speedup_vs_first"]["P100"] > 1.1

    # The mechanism: the fused kernel's configurable thread count grows with
    # the device (paper: 1.2x and 5.1x over K20 for K40 and P100).
    threads = result["simdx_configurable_threads"]
    assert threads["K20"] < threads["K40"] < threads["P100"]
    assert threads["P100"] / threads["K20"] > 3.0
