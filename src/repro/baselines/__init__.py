"""Comparator systems (Section 7.1) and correctness oracles.

* :mod:`repro.baselines.reference` -- straightforward single-threaded
  BFS, SSSP and PageRank, used as correctness oracles by the examples and
  the test suite (never timed).
* :mod:`repro.baselines.gunrock` -- Gunrock-like GPU system: AFC
  (advance / filter / compute) model with a batch filter and atomic updates.
* :mod:`repro.baselines.cusha` -- CuSha-like GPU system: edge-list (shard)
  ICU model with no task filtering.
* :mod:`repro.baselines.ligra` -- Ligra-like CPU system: shared-memory
  push/pull frontier framework.
* :mod:`repro.baselines.galois` -- Galois-like CPU system: asynchronous
  worklist execution with work-stealing.

None of the four executes anything of its own: each prices one SIMD-X run
forced to push with atomic Combine (:func:`repro.baselines.common.execute`,
one execution for every system), so all produce SIMD-X's functional results
and price SIMD-X's frontier definition. They differ in how much memory they
allocate, how many atomics they issue, how they build worklists and how
many kernels they launch - exactly the axes along which the paper compares
them. The GPU baselines place their buffers on their ``GPUSpec`` and
launch on a device built for each ``run``.
"""

from repro.baselines.gunrock import GunrockLike
from repro.baselines.cusha import CuShaLike
from repro.baselines.ligra import LigraLike
from repro.baselines.galois import GaloisLike
from repro.baselines import reference

SYSTEMS = {
    "gunrock": GunrockLike,
    "cusha": CuShaLike,
    "ligra": LigraLike,
    "galois": GaloisLike,
}

__all__ = ["GunrockLike", "CuShaLike", "LigraLike", "GaloisLike", "reference", "SYSTEMS"]
