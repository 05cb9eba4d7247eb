"""Kernel abstraction and per-launch work description.

A :class:`Kernel` captures the static properties a CUDA compiler would
report (``-Xptxas -v`` in the paper): the register footprint per thread and
the CTA geometry. A :class:`KernelLaunch` pairs a kernel with a
:class:`WorkEstimate` describing the dynamic work of one invocation; the
device cost model (:meth:`repro.gpu.device.GPUDevice.launch`) converts that
into simulated time.

Register footprints for the SIMD-X kernels come directly from Table 2 of the
paper and are defined in :mod:`repro.core.fusion`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Optional

DEFAULT_THREADS_PER_CTA = 128


@dataclass(frozen=True)
class Kernel:
    """Static description of a GPU kernel."""

    name: str
    registers_per_thread: int
    threads_per_cta: int = DEFAULT_THREADS_PER_CTA
    shared_mem_per_cta: int = 0

    def __post_init__(self) -> None:
        if self.registers_per_thread <= 0:
            raise ValueError("registers_per_thread must be positive")
        if self.threads_per_cta <= 0 or self.threads_per_cta % 32:
            raise ValueError("threads_per_cta must be a positive multiple of 32")
        if self.shared_mem_per_cta < 0:
            raise ValueError("shared_mem_per_cta must be non-negative")


@dataclass(slots=True)
class WorkEstimate:
    """Dynamic work performed by one kernel invocation.

    Attributes
    ----------
    coalesced_bytes:
        Bytes moved through fully coalesced transactions (sequential CSR
        neighbour lists, sorted worklists, metadata scans).
    scattered_transactions:
        Number of isolated 32-byte transactions caused by random access
        (metadata lookups of scattered destinations, unsorted worklists).
    compute_ops:
        Simple arithmetic/compare operations executed across all threads.
    atomic_ops:
        Atomic read-modify-write operations issued.
    atomic_contention:
        Average number of atomics contending for the same address
        (1.0 = uncontended). Contention serializes atomics.
    warp_primitive_ops:
        Warp-level votes / shuffles / scan steps (ballot, prefix sums).
    divergence_fraction:
        Fraction of extra serialized work due to intra-warp branch
        divergence, in [0, 1]; 0 means perfectly converged warps.
    """

    coalesced_bytes: float = 0.0
    scattered_transactions: float = 0.0
    compute_ops: float = 0.0
    atomic_ops: float = 0.0
    atomic_contention: float = 1.0
    warp_primitive_ops: float = 0.0
    divergence_fraction: float = 0.0

    def __post_init__(self) -> None:
        # The passing case is one comparison chain (an estimate is built per
        # charged kernel phase); a failing one goes on to name the offender.
        if (
            0 <= self.divergence_fraction <= 1
            and self.atomic_contention >= 1.0
            and min(self.coalesced_bytes, self.scattered_transactions,
                    self.compute_ops, self.atomic_ops,
                    self.warp_primitive_ops) >= 0
        ):
            return
        if self.divergence_fraction < 0 or self.divergence_fraction > 1:
            raise ValueError("divergence_fraction must be within [0, 1]")
        for name in ("coalesced_bytes", "scattered_transactions", "compute_ops",
                     "atomic_ops", "warp_primitive_ops"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")
        if self.atomic_contention < 1.0:
            raise ValueError("atomic_contention must be >= 1.0")

    def nonzero(self) -> bool:
        return bool(
            self.coalesced_bytes
            or self.scattered_transactions
            or self.compute_ops
            or self.atomic_ops
            or self.warp_primitive_ops
        )

    def merged_with(self, other: "WorkEstimate") -> "WorkEstimate":
        """Combine two estimates (used when kernels are fused)."""
        total_atomics = self.atomic_ops + other.atomic_ops
        if total_atomics:
            contention = (
                self.atomic_ops * self.atomic_contention
                + other.atomic_ops * other.atomic_contention
            ) / total_atomics
        else:
            contention = 1.0
        weight = self.compute_ops + other.compute_ops
        if weight:
            divergence = (
                self.compute_ops * self.divergence_fraction
                + other.compute_ops * other.divergence_fraction
            ) / weight
        else:
            divergence = max(self.divergence_fraction, other.divergence_fraction)
        return WorkEstimate(
            coalesced_bytes=self.coalesced_bytes + other.coalesced_bytes,
            scattered_transactions=self.scattered_transactions + other.scattered_transactions,
            compute_ops=self.compute_ops + other.compute_ops,
            atomic_ops=total_atomics,
            atomic_contention=contention,
            warp_primitive_ops=self.warp_primitive_ops + other.warp_primitive_ops,
            divergence_fraction=min(1.0, divergence),
        )


class KernelLaunch(NamedTuple):
    """One invocation of a kernel.

    ``fused_continuation`` marks a phase that runs inside an already-resident
    (fused / persistent) kernel: it performs its work but pays no launch
    overhead, which is exactly the saving kernel fusion buys.
    """

    kernel: Kernel
    work: WorkEstimate
    num_ctas: Optional[int] = None
    fused_continuation: bool = False


class LaunchResult(NamedTuple):
    """Timing breakdown for one (possibly fused) kernel phase.

    Immutable: the device hands the same instance to every idle launch of
    a kernel, and adds each to its running totals of launches and time.
    """

    kernel_name: str
    total_us: float
    launch_overhead_us: float
    memory_us: float
    compute_us: float
    atomic_us: float
    primitive_us: float
    latency_us: float
    occupancy: "OccupancyInfo"
    #: The phase ran inside an already-resident kernel (no launch of its own).
    fused: bool

    @property
    def busy_us(self) -> float:
        return self.total_us - self.launch_overhead_us


# Imported at the bottom to avoid a circular import: registers.py does not
# depend on kernel.py, but type checkers want the symbol available here.
from repro.gpu.registers import OccupancyInfo  # noqa: E402  (intentional)
