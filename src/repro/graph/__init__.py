"""Graph substrate: data structures, generators, datasets and utilities.

This subpackage provides everything SIMD-X and the baseline systems need to
represent and produce graph workloads:

* :mod:`repro.graph.csr` -- the compressed-sparse-row graph used by SIMD-X
  and every baseline (out-CSR always, in-CSR for directed graphs so that
  both push and pull traversal are possible). The CuSha-like baseline keeps
  no edge-list copy: it prices its G-Shards from the modeled edge count.
* :mod:`repro.graph.generators` -- synthetic generators (R-MAT, Kronecker,
  uniform random, road lattice, small-world, power-law, web).
* :mod:`repro.graph.datasets` -- the Table-3 analogue registry, scaled down
  to laptop size but preserving the structural class of each paper graph.
* :mod:`repro.graph.properties` -- degree statistics and diameter
  estimation for the Table-3 summary.
"""

from repro.graph.csr import CSRGraph
from repro.graph.generators import (
    grid_graph,
    kronecker_graph,
    random_uniform_graph,
    rmat_graph,
    road_network_graph,
    small_world_graph,
)
from repro.graph.datasets import DATASETS, DatasetSpec, load_dataset

__all__ = [
    "CSRGraph",
    "grid_graph",
    "kronecker_graph",
    "random_uniform_graph",
    "rmat_graph",
    "road_network_graph",
    "small_world_graph",
    "DATASETS",
    "DatasetSpec",
    "load_dataset",
]
