"""SIMD-X core: the ACC model, JIT task management and kernel fusion.

This subpackage is the paper's primary contribution:

* :mod:`repro.core.acc` -- the Active-Compute-Combine programming model a
  user implements to express a graph algorithm (Section 3).
* :mod:`repro.core.frontier` -- worklists, degree classification into
  small/medium/large lists and bounded per-thread bins (Section 4).
* :mod:`repro.core.filters` -- the online and ballot filters.
* :mod:`repro.core.jit` -- the just-in-time controller that picks a filter
  each iteration (Section 4, Figure 7).
* :mod:`repro.core.fusion` -- push-pull based kernel fusion and the register
  model behind Table 2 (Section 5).
* :mod:`repro.core.direction` -- push/pull direction selection.
* :mod:`repro.core.engine` -- the BSP execution engine tying it together.
* :mod:`repro.core.metrics` -- per-run metrics and traces for the figures.
"""

from repro.core.acc import ACCAlgorithm, CombineKind, CombineOp
from repro.core.direction import (
    DEFAULT_TRAFFIC_MODEL,
    Direction,
    DirectionSelector,
    TrafficModel,
)
from repro.core.engine import EngineConfig, SIMDXEngine, RunResult
from repro.core.filters import FilterMode
from repro.core.frontier import WorklistClassifier, WorklistSizes
from repro.core.fusion import FusionStrategy
from repro.core.jit import JITDecision, JITTaskManager

__all__ = [
    "ACCAlgorithm",
    "CombineKind",
    "CombineOp",
    "DEFAULT_TRAFFIC_MODEL",
    "Direction",
    "DirectionSelector",
    "EngineConfig",
    "SIMDXEngine",
    "RunResult",
    "FilterMode",
    "TrafficModel",
    "WorklistClassifier",
    "WorklistSizes",
    "FusionStrategy",
    "JITDecision",
    "JITTaskManager",
]
