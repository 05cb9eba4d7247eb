"""GPU device model: hardware parameters, memory capacity and launch costs.

The three devices the paper evaluates (K20, K40, P100) are described by a
:class:`GPUSpec`. Parameters are taken from NVIDIA's published specifications
where the paper cites them (e.g. 65,536 registers per SMX on K40, 32,768 on
K20 as stated in Section 5) and from the architecture whitepapers otherwise.
Absolute bandwidth numbers matter only in that their *ratios* across devices
determine the Section 7.3 scaling experiment.

Memory feasibility is a pure check, :func:`reserve`: the systems size
their buffers against the *modeled* (paper-scale) graph and place them on
``GPUSpec.global_memory_bytes``, so the laptop-sized dataset analogues
reproduce the OOM behaviour the paper observes with the full-size graphs on
5-16 GB boards.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Tuple

from repro.gpu.kernel import Kernel, KernelLaunch, LaunchResult, WorkEstimate
from repro.gpu.registers import OccupancyInfo, compute_occupancy
from repro.gpu.profiler import DeviceProfiler


class DeviceOutOfMemory(MemoryError):
    """Raised when a device allocation exceeds the remaining global memory."""


@dataclass(frozen=True)
class GPUSpec:
    """Static hardware description of one GPU model."""

    name: str
    num_smx: int
    cuda_cores_per_smx: int
    registers_per_smx: int
    max_threads_per_smx: int
    max_ctas_per_smx: int
    warp_size: int
    shared_mem_per_smx: int          # bytes
    global_memory_bytes: int
    memory_bandwidth_gbps: float     # GB/s
    core_clock_ghz: float
    kernel_launch_overhead_us: float
    atomic_cost_ops: float           # simple-op equivalents per atomic update
    global_latency_us: float         # latency component per kernel phase

    @property
    def total_cuda_cores(self) -> int:
        return self.num_smx * self.cuda_cores_per_smx

    @property
    def peak_gips(self) -> float:
        """Peak simple-integer-op throughput in giga-ops per second."""
        return self.total_cuda_cores * self.core_clock_ghz

    @property
    def max_resident_threads(self) -> int:
        return self.num_smx * self.max_threads_per_smx


# Published / whitepaper-derived parameters. Launch overhead and atomic
# latency are calibration constants chosen so the relative results in the
# paper's figures (fusion benefit, atomic-free benefit) fall in the reported
# ranges; see EXPERIMENTS.md.
K20 = GPUSpec(
    name="K20",
    num_smx=13,
    cuda_cores_per_smx=192,
    registers_per_smx=32_768,
    max_threads_per_smx=2048,
    max_ctas_per_smx=16,
    warp_size=32,
    shared_mem_per_smx=48 * 1024,
    global_memory_bytes=5 * 1024**3,
    memory_bandwidth_gbps=208.0,
    core_clock_ghz=0.706,
    kernel_launch_overhead_us=9.0,
    atomic_cost_ops=72.0,
    global_latency_us=0.8,
)

K40 = GPUSpec(
    name="K40",
    num_smx=15,
    cuda_cores_per_smx=192,
    registers_per_smx=65_536,
    max_threads_per_smx=2048,
    max_ctas_per_smx=16,
    warp_size=32,
    shared_mem_per_smx=48 * 1024,
    global_memory_bytes=12 * 1024**3,
    memory_bandwidth_gbps=288.0,
    core_clock_ghz=0.745,
    kernel_launch_overhead_us=8.0,
    atomic_cost_ops=56.0,
    global_latency_us=0.6,
)

P100 = GPUSpec(
    name="P100",
    num_smx=56,
    cuda_cores_per_smx=64,
    registers_per_smx=65_536,
    max_threads_per_smx=2048,
    max_ctas_per_smx=32,
    warp_size=32,
    shared_mem_per_smx=64 * 1024,
    global_memory_bytes=16 * 1024**3,
    memory_bandwidth_gbps=732.0,
    core_clock_ghz=1.328,
    kernel_launch_overhead_us=6.0,
    atomic_cost_ops=32.0,
    global_latency_us=0.4,
)

KNOWN_DEVICES: Dict[str, GPUSpec] = {"K20": K20, "K40": K40, "P100": P100}


def get_device_spec(name: str) -> GPUSpec:
    """Look up a device spec by name (case-insensitive)."""
    key = name.upper()
    if key not in KNOWN_DEVICES:
        raise KeyError(f"unknown device {name!r}; known: {sorted(KNOWN_DEVICES)}")
    return KNOWN_DEVICES[key]


def reserve(
    spec: GPUSpec, buffers: Iterable[Tuple[str, int]], resident: int = 0
) -> int:
    """Place ``buffers`` - ``(label, bytes)`` in allocation order - on top
    of ``resident`` bytes of ``spec``'s global memory.

    Returns the bytes then resident; raises :class:`DeviceOutOfMemory`
    naming the first buffer that does not fit and the room left for it.
    """
    capacity = spec.global_memory_bytes
    for label, nbytes in buffers:
        if resident + nbytes > capacity:
            raise DeviceOutOfMemory(
                f"{spec.name}: cannot allocate {nbytes} bytes for {label}; "
                f"{capacity - resident} of {capacity} bytes free"
            )
        resident += nbytes
    return resident


class GPUDevice:
    """A simulated GPU: the kernel-launch cost model of one ``spec``
    (defaults to the paper's primary K40 device), with its profiler.
    Memory feasibility is :func:`reserve`'s, priced from the run's
    buffers."""

    def __init__(self, spec: GPUSpec = K40):
        self.spec = spec
        self.profiler = DeviceProfiler()
        # Both tables cache pure functions of the (immutable) spec, so they
        # outlive runs. No kernel shape keeps more CTAs resident than the
        # hardware has slots, and a grid at least that large is never
        # launch-limited: occupancy is memoised on the grid size clamped to
        # the slot count, which bounds the table by the hardware.
        self._cta_slots = max(1, spec.max_ctas_per_smx) * spec.num_smx
        self._peak_ops_per_us = spec.peak_gips * 1e3
        self._occupancy: Dict[Tuple[int, int, int], OccupancyInfo] = {}
        #: ``(kernel, fused) -> `` the result of a phase with no work.
        self._idle: Dict[Tuple[Kernel, bool], LaunchResult] = {}

    # ------------------------------------------------------------------
    # Kernel execution cost model
    # ------------------------------------------------------------------
    def launch(self, launch: KernelLaunch) -> LaunchResult:
        """Account the cost of one kernel launch and return its timing."""
        if launch.num_ctas == 1 and not launch.work.nonzero():
            return self.launch_idle(launch.kernel, launch.fused_continuation)
        result = self.estimate(launch)
        self.profiler.record_launch(result)
        return result

    def launch_idle(self, kernel: Kernel, fused: bool) -> LaunchResult:
        """Account a phase with no work on one CTA (an empty Thread / Warp /
        CTA stage).

        It costs the same every time - its launch overhead, if it pays
        one - so it is estimated once per ``(kernel, fused)`` and charged
        from the table after that, with no estimate or launch to build.
        """
        result = self._idle.get((kernel, fused))
        if result is None:
            result = self._idle[kernel, fused] = self.estimate(
                KernelLaunch(kernel, WorkEstimate(), 1, fused)
            )
        self.profiler.record_launch(result)
        return result

    def estimate(self, launch: KernelLaunch) -> LaunchResult:
        """Compute simulated time for a launch without recording it."""
        spec = self.spec
        kernel, work, num_ctas, fused = launch

        slots = self._cta_slots
        ctas = slots if num_ctas is None else max(0, min(num_ctas, slots))
        registers, threads = kernel.registers_per_thread, kernel.threads_per_cta
        occupancy = self._occupancy.get((registers, threads, ctas))
        if occupancy is None:
            occupancy = self._occupancy[registers, threads, ctas] = compute_occupancy(
                spec,
                registers_per_thread=registers,
                threads_per_cta=threads,
                num_ctas=ctas,
            )

        # Memory time: coalesced traffic moves at peak bandwidth; scattered
        # accesses each occupy a 32-byte transaction of which only
        # `useful_bytes` are useful, so their effective bandwidth drops by
        # the ratio. Low occupancy cannot cover memory latency, modelled as a
        # linear derating below 50% occupancy (the classic rule of thumb).
        coalesced_bytes = work.coalesced_bytes
        scattered_bytes = work.scattered_transactions * 32
        total_bytes = coalesced_bytes + scattered_bytes
        latency_cover = min(1.0, occupancy.occupancy / 0.5) if total_bytes else 1.0
        effective_bw = spec.memory_bandwidth_gbps * max(latency_cover, 0.05)
        memory_us = (total_bytes / (effective_bw * 1e3)) if total_bytes else 0.0

        # Compute time: simple ops at peak integer throughput, derated by
        # occupancy (fewer resident warps -> fewer issue slots covered) and
        # by warp divergence (divergent branches serialize lanes).
        compute_throughput = self._peak_ops_per_us * max(occupancy.occupancy, 0.05)
        divergence_penalty = 1.0 + work.divergence_fraction
        compute_us = (
            work.compute_ops * divergence_penalty / compute_throughput
            if work.compute_ops
            else 0.0
        )

        # Atomic time: an uncontended atomic costs roughly
        # ``atomic_cost_ops`` simple-op equivalents (read-modify-write at L2);
        # contention serializes updates to the same address, softened with a
        # square root because the hardware aggregates same-address updates
        # within a warp and spreads traffic across memory partitions.
        atomic_us = 0.0
        if work.atomic_ops:
            contention = max(1.0, min(work.atomic_contention, 64.0))
            cost_ops = spec.atomic_cost_ops * (contention ** 0.5)
            atomic_us = work.atomic_ops * cost_ops / compute_throughput

        # Warp-vote / scan primitives are cheap but not free.
        primitive_us = work.warp_primitive_ops * 0.5 / self._peak_ops_per_us

        # Fixed latency per kernel phase (pipeline drain, barrier at end).
        latency_us = spec.global_latency_us if work.nonzero() else 0.0

        launch_us = 0.0 if fused else spec.kernel_launch_overhead_us

        busy_us = memory_us + compute_us + atomic_us + primitive_us + latency_us
        # Positional, in ``LaunchResult`` field order.
        return LaunchResult(
            kernel.name, launch_us + busy_us, launch_us, memory_us,
            compute_us, atomic_us, primitive_us, latency_us, occupancy, fused,
        )
