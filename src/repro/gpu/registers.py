"""Register pressure, occupancy, and the deadlock-free CTA count (Eq. 1).

Section 5 of the paper derives the number of CTAs that can be *resident
simultaneously* on the device from the register budget:

    #CTA = floor(registersPerSMX / (registersPerThread * threadsPerCTA)) * #SMX

Launching exactly this many CTAs for a persistent (fused) kernel guarantees
every CTA - including the barrier's monitor CTA - owns hardware resources at
all times, which is the paper's deadlock-freedom argument. The same quantity
drives occupancy: a kernel that burns 110 registers per thread (all-fusion in
Table 2) can keep only about half the threads resident compared to one using
50 registers (push-pull fusion), and that occupancy loss is why aggressive
fusion loses on compute-heavy algorithms.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.gpu.device import GPUSpec


@dataclass(frozen=True, slots=True)
class OccupancyInfo:
    """Occupancy achieved by a kernel configuration on one device."""

    ctas_per_smx: int
    resident_ctas: int
    resident_threads: int
    occupancy: float          # resident threads / max resident threads
    limited_by: str           # "registers", "threads", "cta_slots" or "launch"


def compute_cta_count(
    spec: "GPUSpec",
    *,
    registers_per_thread: int,
    threads_per_cta: int,
) -> int:
    """Deadlock-free CTA count for a persistent kernel (paper Eq. 1)."""
    if registers_per_thread <= 0 or threads_per_cta <= 0:
        raise ValueError("register and thread counts must be positive")
    per_smx = spec.registers_per_smx // (registers_per_thread * threads_per_cta)
    per_smx = min(per_smx, spec.max_ctas_per_smx,
                  spec.max_threads_per_smx // threads_per_cta)
    return max(per_smx, 0) * spec.num_smx


def compute_occupancy(
    spec: "GPUSpec",
    *,
    registers_per_thread: int,
    threads_per_cta: int,
    num_ctas: Optional[int] = None,
) -> OccupancyInfo:
    """Occupancy for a kernel configuration.

    ``num_ctas`` limits residency further when the launch grid is smaller
    than what the hardware could host (e.g. a tiny frontier); ``None`` means
    the grid is large enough to saturate the device.
    """
    if registers_per_thread <= 0 or threads_per_cta <= 0:
        raise ValueError("register and thread counts must be positive")

    by_registers = spec.registers_per_smx // (registers_per_thread * threads_per_cta)
    by_threads = spec.max_threads_per_smx // threads_per_cta
    by_slots = spec.max_ctas_per_smx

    ctas_per_smx = min(by_registers, by_threads, by_slots)
    if ctas_per_smx <= 0:
        # The kernel cannot run even one CTA per SMX at this register cost;
        # clamp to one and let occupancy be tiny rather than erroring, which
        # mirrors the compiler spilling registers to local memory.
        ctas_per_smx = 1
        limited_by = "registers"
    elif ctas_per_smx == by_registers and by_registers < min(by_threads, by_slots):
        limited_by = "registers"
    elif ctas_per_smx == by_threads and by_threads < min(by_registers, by_slots):
        limited_by = "threads"
    else:
        limited_by = "cta_slots"

    resident_ctas = ctas_per_smx * spec.num_smx
    if num_ctas is not None and num_ctas < resident_ctas:
        resident_ctas = max(0, num_ctas)
        limited_by = "launch"

    resident_threads = resident_ctas * threads_per_cta
    occupancy = resident_threads / spec.max_resident_threads if spec.max_resident_threads else 0.0
    return OccupancyInfo(
        ctas_per_smx=ctas_per_smx,
        resident_ctas=resident_ctas,
        resident_threads=resident_threads,
        occupancy=min(1.0, occupancy),
        limited_by=limited_by,
    )


def configurable_thread_count(
    spec: "GPUSpec",
    *,
    registers_per_thread: int,
    threads_per_cta: int,
) -> int:
    """Total threads a persistent kernel can keep resident on the device.

    This is the quantity the paper reports increasing by ~50% when moving
    from all-fusion (110 registers) to push-pull fusion (~50 registers), and
    by 1.2x / 5.1x moving a fused BFS kernel from K20 to K40 / P100.
    """
    return compute_cta_count(
        spec,
        registers_per_thread=registers_per_thread,
        threads_per_cta=threads_per_cta,
    ) * threads_per_cta
