"""Per-device profiling: launches, timing breakdowns, memory high-water mark.

The profiler is what the systems read to report kernel launch counts
(Table 2) and what the superstep driver reads for a run's per-component
time breakdown. It is intentionally append-only and cheap: recording a launch is
one list append of the :class:`~repro.gpu.kernel.LaunchResult` the device
just computed (or, for an idle phase, looked up) - there is no second record
type - and every query walks ``records`` when asked.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List

if TYPE_CHECKING:  # pragma: no cover
    from repro.gpu.kernel import LaunchResult


@dataclass
class DeviceProfiler:
    """Accumulates statistics for every launch on one simulated device."""

    device_name: str = ""
    #: One entry per kernel phase, in launch order.
    records: List["LaunchResult"] = field(default_factory=list)
    peak_allocated_bytes: int = 0
    allocation_log: List[tuple] = field(default_factory=list)

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def record_launch(self, result: "LaunchResult") -> None:
        self.records.append(result)

    def record_allocation(self, label: str, nbytes: int, total_allocated: int) -> None:
        self.allocation_log.append((label, nbytes))
        if total_allocated > self.peak_allocated_bytes:
            self.peak_allocated_bytes = total_allocated

    def reset(self) -> None:
        self.records.clear()
        self.allocation_log.clear()
        self.peak_allocated_bytes = 0

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def launch_count(self, *, include_fused: bool = False) -> int:
        """Number of real kernel launches (fused phases excluded by default)."""
        if include_fused:
            return len(self.records)
        return sum(1 for r in self.records if not r.fused)

    def breakdown(self) -> Dict[str, float]:
        """Total time split by cost component."""
        return {
            "launch_overhead_us": sum(r.launch_overhead_us for r in self.records),
            "memory_us": sum(r.memory_us for r in self.records),
            "compute_us": sum(r.compute_us for r in self.records),
            "atomic_us": sum(r.atomic_us for r in self.records),
        }
