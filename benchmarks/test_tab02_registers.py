"""Table 2: register consumption and kernel-launch counts per fusion strategy.

Paper result: unfused kernels use 22-30 registers, the selectively fused
push/pull kernels 48/50, the all-fused kernel 110; kernel launches collapse
from up to 40,688 (4 per iteration, no fusion) to 3 (push-pull) and 1 (all).
"""

from __future__ import annotations

from repro.bench import experiments


def test_table2_registers_and_launches(ctx):
    result = experiments.table2(ctx)
    print()
    print(experiments.experiment("table2").render(result))

    registers = result["registers"]
    for group in ("push_no_fusion", "pull_no_fusion"):
        assert all(20 <= v <= 30 for v in registers[group].values())
    assert registers["selective_fusion"]["push"] == 48
    assert registers["selective_fusion"]["pull"] == 50
    assert registers["all_fusion"] == 110

    launches = result["launches"]
    assert launches, "measured launch counts missing"
    none = launches["none"]
    push_pull = launches["push_pull"]
    all_fusion = launches["all"]
    # 4 launches per iteration without fusion.
    assert none["kernel_launches"] == 4 * none["iterations"]
    # All-fusion launches exactly once.
    assert all_fusion["kernel_launches"] == 1
    # Push-pull fusion relaunches only at direction switches.
    assert push_pull["kernel_launches"] == push_pull["direction_switches"] + 1
    assert push_pull["kernel_launches"] <= 5
