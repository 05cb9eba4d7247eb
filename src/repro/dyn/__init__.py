"""Dynamic graph updates and incremental recompute (docs/dynamic.md).

Two pieces:

* :mod:`repro.dyn.overlay` - a delta overlay over the immutable
  :class:`repro.graph.csr.CSRGraph`: each edge insert/delete batch splices
  a new CSR snapshot from the last one at the cost of the rows it touches,
  every query runs against a snapshot, and a periodic rebuild promotes the
  snapshot to the base (invalidating the lazily-cached in-CSR transpose
  along the way).
* :mod:`repro.dyn.incremental` - incremental recompute for the monotone
  min-combine algorithms (BFS/SSSP/WCC): repair a previous result from
  the affected frontier instead of rerunning from scratch, with results
  bit-identical to a from-scratch engine run (the exactness contract the
  differential fuzz harness enforces).
"""

from repro.dyn.overlay import DynamicGraph, EdgeUpdateBatch, UpdateReceipt
from repro.dyn.incremental import IncrementalRecompute, RepairPlan, plan_repair

__all__ = [
    "DynamicGraph",
    "EdgeUpdateBatch",
    "UpdateReceipt",
    "IncrementalRecompute",
    "RepairPlan",
    "plan_repair",
]
