"""SIMT GPU cost-model simulator.

The paper runs on NVIDIA K20 / K40 / P100 GPUs; this environment has no GPU,
so the substrate is a deterministic simulator. Kernels execute *functionally*
in NumPy inside the graph systems, and every launch reports a
:class:`~repro.gpu.kernel.WorkEstimate` describing what a real CUDA kernel
would have done (coalesced and scattered memory traffic, arithmetic
operations, atomics and their contention, warp votes). The simulator turns
that estimate into simulated time using the device's occupancy, bandwidth and
launch-overhead parameters.

Everything the paper's evaluation depends on is modelled explicitly:

* register pressure -> occupancy -> effective throughput (Section 5, Eq. 1);
* kernel launch overhead, so fusing kernels matters (Table 2, Figure 13);
* atomic serialization, so the atomic-free ACC combine matters (Figure 5);
* coalesced versus scattered memory transactions, so sorted worklists from
  the ballot filter matter (Section 4);
* device memory capacity, so edge lists / batch filters can go OOM (Table 4);
* a software global barrier whose deadlock-freedom condition depends on the
  resident CTA count (Section 5).
"""

from repro.gpu.device import (
    GPUSpec,
    GPUDevice,
    DeviceOutOfMemory,
    K20,
    K40,
    P100,
    get_device_spec,
    KNOWN_DEVICES,
)
from repro.gpu.kernel import Kernel, KernelLaunch, LaunchResult, WorkEstimate
from repro.gpu.registers import OccupancyInfo, compute_cta_count, compute_occupancy
from repro.gpu.barrier import SoftwareGlobalBarrier, BarrierDeadlockError

__all__ = [
    "GPUSpec",
    "GPUDevice",
    "DeviceOutOfMemory",
    "K20",
    "K40",
    "P100",
    "get_device_spec",
    "KNOWN_DEVICES",
    "Kernel",
    "KernelLaunch",
    "LaunchResult",
    "WorkEstimate",
    "OccupancyInfo",
    "compute_cta_count",
    "compute_occupancy",
    "SoftwareGlobalBarrier",
    "BarrierDeadlockError",
]
