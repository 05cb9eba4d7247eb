"""Per-device profiling: launches, timing breakdowns, memory high-water mark.

The profiler is what the benchmark harness reads to produce the rows of
Table 2 (kernel launch counts) and the per-phase breakdowns quoted in the
text (e.g. "99.23% of time spent scanning metadata in the ballot filter on
ER"). It is intentionally append-only and cheap: recording a launch is one
list append of the :class:`~repro.gpu.kernel.LaunchResult` the device just
computed (or, for an idle phase, looked up) - there is no second record
type - and every query walks ``records`` when asked.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional

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
    @property
    def total_us(self) -> float:
        return sum(r.total_us for r in self.records)

    @property
    def total_launch_overhead_us(self) -> float:
        return sum(r.launch_overhead_us for r in self.records)

    def launch_count(self, *, include_fused: bool = False) -> int:
        """Number of real kernel launches (fused phases excluded by default)."""
        if include_fused:
            return len(self.records)
        return sum(1 for r in self.records if not r.fused)

    def phase_count(self) -> int:
        """Number of kernel phases executed, fused or not."""
        return len(self.records)

    def time_by_kernel(self) -> Dict[str, float]:
        out: Dict[str, float] = defaultdict(float)
        for r in self.records:
            out[r.kernel_name] += r.total_us
        return dict(out)

    def launches_by_kernel(self) -> Dict[str, int]:
        out: Dict[str, int] = defaultdict(int)
        for r in self.records:
            if not r.fused:
                out[r.kernel_name] += 1
        return dict(out)

    def breakdown(self) -> Dict[str, float]:
        """Total time split by cost component."""
        return {
            "launch_overhead_us": sum(r.launch_overhead_us for r in self.records),
            "memory_us": sum(r.memory_us for r in self.records),
            "compute_us": sum(r.compute_us for r in self.records),
            "atomic_us": sum(r.atomic_us for r in self.records),
        }

    def fraction_in(self, kernel_name_prefix: str) -> float:
        """Fraction of total simulated time spent in matching kernels."""
        total = self.total_us
        if total == 0:
            return 0.0
        matched = sum(
            r.total_us for r in self.records if r.kernel_name.startswith(kernel_name_prefix)
        )
        return matched / total

    def summary(self) -> Dict[str, object]:
        return {
            "device": self.device_name,
            "total_us": round(self.total_us, 3),
            "launches": self.launch_count(),
            "phases": self.phase_count(),
            "launch_overhead_us": round(self.total_launch_overhead_us, 3),
            "peak_allocated_bytes": self.peak_allocated_bytes,
            "time_by_kernel": {k: round(v, 3) for k, v in self.time_by_kernel().items()},
        }
