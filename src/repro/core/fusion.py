"""Push-pull based kernel fusion and the register model (Section 5, Table 2).

Three strategies are modelled:

* ``NONE`` (no fusion)  -- each iteration launches separate kernels for the
  Thread / Warp / CTA compute stages and for task management, in both
  directions; every launch pays the device's launch overhead. Register use
  per kernel is small (22-30 registers, Table 2).
* ``ALL`` (aggressive fusion) -- the whole algorithm is one persistent
  kernel: a single launch, but the fused kernel needs ~110 registers per
  thread, which roughly halves occupancy and therefore throughput.
* ``PUSH_PULL`` (selective fusion, SIMD-X's contribution) -- kernels are
  fused within each push phase and within each pull phase; the fused push
  and pull kernels need ~48 / ~50 registers, and a typical run relaunches
  only when the direction switches (3 launches for BFS/SSSP: push, pull,
  push).

Within a fused phase, iterations are separated by the deadlock-free software
global barrier instead of kernel relaunches; the barrier requires the CTA
count to respect Eq. 1, which :mod:`repro.gpu.barrier` computes from the
fused kernel's register footprint (:class:`FusionPlan` supplies it).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import cached_property
from typing import Dict, Optional, Tuple

from repro.gpu.device import GPUSpec
from repro.gpu.kernel import Kernel, DEFAULT_THREADS_PER_CTA
from repro.gpu.registers import configurable_thread_count
from repro.core.direction import Direction


class FusionStrategy(enum.Enum):
    """Kernel fusion strategies compared in Figure 13 / Table 2."""

    NONE = "none"
    ALL = "all"
    PUSH_PULL = "push_pull"


#: Register consumption per kernel, from Table 2 of the paper
#: (``-Xptxas -v`` output of the authors' CUDA build).
REGISTERS_TABLE: Dict[str, int] = {
    "push_thread": 26,
    "push_warp": 27,
    "push_cta": 28,
    "push_task_mgt": 24,
    "pull_thread": 24,
    "pull_warp": 24,
    "pull_cta": 22,
    "pull_task_mgt": 30,
    "fused_push": 48,
    "fused_pull": 50,
    "fused_all": 110,
}


@dataclass(frozen=True)
class PhaseKernels:
    """The kernels involved in one direction phase of one iteration.

    ``launch_kernels`` pay launch overhead; ``continuation_kernels`` run
    inside an already-resident fused kernel and only pay their work cost.
    """

    launch_kernels: Tuple[Kernel, ...]
    continuation_kernels: Tuple[Kernel, ...]
    barrier_kernel: Optional[Kernel]

    @cached_property
    def stages(self) -> Tuple[Tuple[Kernel, bool], ...]:
        """The four ``(kernel, fused)`` slots in stage order: Thread, Warp,
        CTA compute, then task management."""
        return tuple(
            [(k, False) for k in self.launch_kernels]
            + [(k, True) for k in self.continuation_kernels]
        )


class FusionPlan:
    """Maps (strategy, direction, iteration state) to kernel launches."""

    def __init__(
        self,
        strategy: FusionStrategy,
        *,
        threads_per_cta: int = DEFAULT_THREADS_PER_CTA,
        registers: Optional[Dict[str, int]] = None,
    ):
        self.strategy = strategy
        self.threads_per_cta = threads_per_cta
        self.registers = dict(REGISTERS_TABLE)
        if registers:
            self.registers.update(registers)
        self._kernels: Dict[str, Kernel] = {}
        #: ``(direction prefix, fused kernel already resident) ->`` the phase;
        #: at most four, so an iteration looks its kernels up, not builds them.
        self._phases: Dict[Tuple[str, bool], PhaseKernels] = {}
        self._active_fused_kernel: Optional[str] = None

    # ------------------------------------------------------------------
    def kernel(self, key: str) -> Kernel:
        """Kernel object for a register-table key (cached)."""
        if key not in self._kernels:
            if key not in self.registers:
                raise KeyError(f"unknown kernel key {key!r}")
            self._kernels[key] = Kernel(
                name=key,
                registers_per_thread=self.registers[key],
                threads_per_cta=self.threads_per_cta,
            )
        return self._kernels[key]

    def reset(self) -> None:
        """Forget any resident fused kernel (start of a new run)."""
        self._active_fused_kernel = None

    # ------------------------------------------------------------------
    def phase_kernels(self, direction: Direction) -> PhaseKernels:
        """Kernels for one iteration in ``direction`` under this strategy.

        The same stages always run (Thread/Warp/CTA compute plus task
        management); the strategy only changes which of them are separate
        launches versus phases of a resident fused kernel.
        """
        prefix = "push" if direction is Direction.PUSH else "pull"
        # NONE: no fused kernel; ALL: one for the whole run; PUSH_PULL: one
        # per direction, relaunched on a switch.
        if self.strategy == FusionStrategy.NONE:
            fused_key = None
        elif self.strategy == FusionStrategy.ALL:
            fused_key = "fused_all"
        else:
            fused_key = f"fused_{prefix}"
        resident = fused_key is not None and self._active_fused_kernel == fused_key
        self._active_fused_kernel = fused_key
        phase = self._phases.get((prefix, resident))
        if phase is None:
            if fused_key is None:
                phase = PhaseKernels(
                    launch_kernels=tuple(
                        self.kernel(f"{prefix}_{stage}")
                        for stage in ("thread", "warp", "cta", "task_mgt")
                    ),
                    continuation_kernels=(),
                    barrier_kernel=None,
                )
            else:
                fused = self.kernel(fused_key)
                phase = PhaseKernels(
                    launch_kernels=() if resident else (fused,),
                    continuation_kernels=(fused,) * (4 if resident else 3),
                    barrier_kernel=fused,
                )
            self._phases[prefix, resident] = phase
        return phase

    # ------------------------------------------------------------------
    # Static properties used by the Table 2 bench and Section 7.3
    # ------------------------------------------------------------------
    def max_registers_per_thread(self) -> int:
        """Register footprint of the widest kernel this strategy runs."""
        if self.strategy == FusionStrategy.ALL:
            return self.registers["fused_all"]
        if self.strategy == FusionStrategy.PUSH_PULL:
            return max(self.registers["fused_push"], self.registers["fused_pull"])
        return max(
            self.registers[k]
            for k in self.registers
            if not k.startswith("fused_")
        )

    def configurable_threads(self, spec: GPUSpec) -> int:
        """Resident thread count the strategy can sustain on ``spec``.

        This is the quantity the paper says grows by ~50% when moving from
        all-fusion to push-pull fusion, and which scales across GPU models in
        Section 7.3.
        """
        return configurable_thread_count(
            spec,
            registers_per_thread=self.max_registers_per_thread(),
            threads_per_cta=self.threads_per_cta,
        )
