"""Shared machinery for the baseline systems.

All comparator systems (GPU and CPU) produce results that are functionally
identical to SIMD-X - the paper compares *performance*, not outputs - so
none of them executes anything of its own: each prices one SIMD-X run,
:func:`execute`, forced to push with Combine priced as atomics. Its
iteration records carry, per iteration, the frontier size, the expanded
edge count, the valid and applied update counts and the atomic profile of
the update destinations; each baseline converts them into simulated time
with its own cost model, which is where the systems genuinely differ
(memory layout, atomics, filtering strategy, kernel launches, CPU vs GPU
execution). The frontier they price is therefore SIMD-X's: a vertex that is
active but received no update this iteration does not expand next
iteration.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.analysis import registry as extra_keys
from repro.core.acc import ACCAlgorithm
from repro.core.direction import Direction
from repro.core.engine import EngineConfig, SIMDXEngine
from repro.core.metrics import IterationRecord, RunResult
from repro.gpu.device import DeviceOutOfMemory, GPUDevice, GPUSpec, reserve
from repro.graph.csr import CSRGraph

#: The configuration of the run every baseline prices: a pure scatter every
#: iteration (the baselines' frontier expansion) with each record carrying
#: the atomic profile of its updates.
PRICED_CONFIG = EngineConfig(forced_direction=Direction.PUSH, atomic_combine=True)


def execute(algorithm: ACCAlgorithm, graph: CSRGraph, **params) -> RunResult:
    """The SIMD-X run a baseline prices."""
    return SIMDXEngine(graph, config=PRICED_CONFIG).run(algorithm, **params)


class PricedSystem:
    """A comparator system: one :func:`execute` run, priced.

    A subclass names itself (``SYSTEM_NAME``, ``MODEL``) and prices the
    run's iteration records in ``_price``. On the GPU it holds its
    ``spec``, is priced on a fresh ``GPUDevice(spec)`` per ``run`` and
    lists its resident buffers, ``(label, bytes)`` at paper scale, in
    ``_footprint(algorithm, graph)`` (a buffer that does not fit the device
    fails the run as an OOM, before anything executes); a CPU system holds
    a ``cpu`` instead and prices with ``device=None``.
    """

    SYSTEM_NAME = ""
    MODEL = ""
    spec: Optional[GPUSpec] = None
    cpu: Optional[CPUSpec] = None

    def run(
        self,
        algorithm: ACCAlgorithm,
        graph: CSRGraph,
        *,
        execution: Optional[RunResult] = None,
        **params,
    ) -> RunResult:
        """Price ``algorithm`` on ``graph``. ``execution`` shares one
        :func:`execute` run of it across systems (the benchmark harness
        caches them); when omitted the system executes it itself. Raises
        if that run failed: a failed run is never priced."""
        spec = self.spec
        name = self.cpu.name if spec is None else spec.name
        if spec is not None:
            try:
                reserve(spec, self._footprint(algorithm, graph))
            except DeviceOutOfMemory as exc:
                return RunResult.failure(
                    self.SYSTEM_NAME, algorithm.name, graph.name, f"OOM: {exc}",
                    device=name,
                )
        if execution is None:
            execution = execute(algorithm, graph, **params)
        if execution.failed:
            raise RuntimeError(
                f"{algorithm.name} on {graph.name}: the run the baselines "
                f"price failed ({execution.failure_reason})"
            )
        device = None if spec is None else GPUDevice(spec)
        total_us = self._price(device, execution.iteration_records, algorithm, graph)
        return RunResult(
            system=self.SYSTEM_NAME,
            algorithm=algorithm.name,
            graph=graph.name,
            values=execution.values,
            elapsed_us=total_us,
            iterations=execution.iterations,
            device=name,
            kernel_launches=0 if device is None else device.launches,
            extra={extra_keys.MODEL: self.MODEL},
        )

    def _price(
        self, device: Optional[GPUDevice], records: List[IterationRecord],
        algorithm: ACCAlgorithm, graph: CSRGraph,
    ) -> float:
        """Simulated microseconds of the priced run's ``records``, charging
        its kernels to ``device`` - ``None`` for a CPU system."""
        raise NotImplementedError


@dataclass(frozen=True)
class CPUSpec:
    """Parameters of the CPU host used by the Galois/Ligra cost models.

    The paper's testbed has two Xeon E5-2683 v3 CPUs (28 physical cores,
    512 GB RAM). The throughput constants are calibration values chosen so
    the CPU baselines land in the same performance band relative to SIMD-X
    that Table 4 reports; EXPERIMENTS.md documents the calibration.
    """

    name: str = "2x Xeon E5-2683"
    cores: int = 28
    edge_ns: float = 16.0           # amortized cost of touching one edge
    vertex_ns: float = 25.0         # per-frontier-vertex bookkeeping
    sync_overhead_us: float = 30.0  # parallel-for fork/join + barrier
    task_overhead_ns: float = 120.0 # per-task scheduling (async worklists)
    memory_bytes: int = 512 * 1024**3


DEFAULT_CPU = CPUSpec()
