"""Scaled-down analogues of the paper's graph benchmarks (Table 3).

The original graphs range up to 787 million edges; the paper's phenomena,
however, are driven by graph *class* (degree skew, diameter, density), not by
absolute size. Each entry here maps one Table-3 graph to a generator
configuration preserving that class, at a size that runs in seconds on a
laptop. ``scale`` multiplies the default sizes for users who want larger
runs.

=========  =====================  ==========================================
Abbrev.    Paper graph            Analogue
=========  =====================  ==========================================
FB         Facebook               power-law social graph, heavy tail
ER         Europe-osm             road lattice, diameter in the hundreds
KR         Kron24 (Graph500)      Kronecker graph
LJ         LiveJournal            power-law social graph
OR         Orkut                  denser power-law social graph
PK         Pokec                  smaller power-law social graph (directed)
RD         Random (GTgraph)       uniform random graph
RC         RoadCA-net             road lattice, smaller than ER
RM         R-MAT (GTgraph)        R-MAT graph
UK         UK-2002 web            small-world + power-law overlay (directed)
TW         Twitter                largest, most skewed power-law graph
=========  =====================  ==========================================
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List

from repro.graph.csr import CSRGraph
from repro.graph import generators as gen


@dataclass(frozen=True)
class DatasetSpec:
    """Description of one dataset analogue.

    Attributes
    ----------
    abbrev:
        The paper's two-letter abbreviation (FB, ER, ...).
    paper_name:
        Full name used in Table 3.
    category:
        One of ``social``, ``road``, ``web``, ``synthetic``.
    paper_vertices / paper_edges:
        The original sizes from Table 3 (for the Table-3 reproduction bench).
    diameter_class:
        ``low`` (< 10), ``medium`` (10 - 30) or ``high`` (hundreds+), as the
        paper classifies graphs in Section 6.
    builder:
        Callable ``builder(scale) -> CSRGraph`` producing the analogue.
    directed:
        Whether the analogue is built as a directed graph.
    """

    abbrev: str
    paper_name: str
    category: str
    paper_vertices: int
    paper_edges: int
    diameter_class: str
    builder: Callable[[float], CSRGraph] = field(repr=False)
    directed: bool = False

    def build(self, scale: float = 1.0) -> CSRGraph:
        """Materialize the analogue graph at the given scale factor."""
        if scale <= 0:
            raise ValueError("scale must be positive")
        graph = self.builder(scale)
        graph.name = self.abbrev
        graph.meta.update(
            {
                "paper_name": self.paper_name,
                "category": self.category,
                "diameter_class": self.diameter_class,
                "paper_vertices": self.paper_vertices,
                "paper_edges": self.paper_edges,
                "scale": scale,
            }
        )
        return graph


def _social(scale: float, *, vertices: int, avg_degree: float, exponent: float,
            seed: int, directed: bool = False) -> CSRGraph:
    n = max(64, int(vertices * scale))
    return gen.power_law_graph(
        n, avg_degree, exponent=exponent, seed=seed, directed=directed
    )


def _rmat(scale: float, *, base_scale: int, edge_factor: int, seed: int) -> CSRGraph:
    import math

    extra = int(round(math.log2(max(scale, 1e-9)))) if scale != 1.0 else 0
    s = max(6, base_scale + extra)
    return gen.rmat_graph(s, edge_factor, seed=seed)


def _kron(scale: float, *, base_scale: int, edge_factor: int, seed: int) -> CSRGraph:
    import math

    extra = int(round(math.log2(max(scale, 1e-9)))) if scale != 1.0 else 0
    s = max(6, base_scale + extra)
    return gen.kronecker_graph(s, edge_factor, seed=seed)


def _road(scale: float, *, rows: int, cols: int, seed: int) -> CSRGraph:
    factor = scale ** 0.5
    r = max(8, int(rows * factor))
    c = max(8, int(cols * factor))
    return gen.road_network_graph(r, c, seed=seed)


def _random(scale: float, *, vertices: int, edges: int, seed: int) -> CSRGraph:
    n = max(64, int(vertices * scale))
    m = max(n, int(edges * scale))
    return gen.random_uniform_graph(n, m, seed=seed)


def _web(scale: float, *, vertices: int, avg_degree: float, seed: int) -> CSRGraph:
    n = max(64, int(vertices * scale))
    return gen.web_graph(n, avg_degree, seed=seed)


DATASETS: Dict[str, DatasetSpec] = {
    "FB": DatasetSpec(
        "FB", "Facebook", "social", 16_777_215, 775_824_943, "low",
        lambda s: _social(s, vertices=12_000, avg_degree=46, exponent=2.0, seed=11),
    ),
    "ER": DatasetSpec(
        "ER", "Europe-osm", "road", 50_912_018, 108_109_319, "high",
        lambda s: _road(s, rows=160, cols=160, seed=12),
    ),
    "KR": DatasetSpec(
        "KR", "Kron24", "synthetic", 16_777_216, 536_870_911, "low",
        lambda s: _kron(s, base_scale=12, edge_factor=16, seed=13),
    ),
    "LJ": DatasetSpec(
        "LJ", "LiveJournal", "social", 4_847_571, 136_950_781, "medium",
        lambda s: _social(s, vertices=10_000, avg_degree=28, exponent=2.1, seed=14),
    ),
    "OR": DatasetSpec(
        "OR", "Orkut", "social", 3_072_626, 234_370_165, "low",
        lambda s: _social(s, vertices=8_000, avg_degree=76, exponent=2.2, seed=15),
    ),
    "PK": DatasetSpec(
        "PK", "Pokec", "social", 1_632_803, 61_245_127, "medium",
        lambda s: _social(s, vertices=6_000, avg_degree=37, exponent=2.2, seed=16,
                          directed=True),
        directed=True,
    ),
    "RD": DatasetSpec(
        "RD", "Random", "synthetic", 4_000_000, 511_999_999, "low",
        lambda s: _random(s, vertices=8_000, edges=256_000, seed=17),
    ),
    "RC": DatasetSpec(
        "RC", "RoadCA-net", "road", 1_971_281, 5_533_213, "high",
        lambda s: _road(s, rows=96, cols=96, seed=18),
    ),
    "RM": DatasetSpec(
        "RM", "R-MAT", "synthetic", 3_999_983, 511_999_999, "low",
        lambda s: _rmat(s, base_scale=12, edge_factor=32, seed=19),
    ),
    "UK": DatasetSpec(
        "UK", "UK-2002", "web", 18_520_343, 596_227_523, "medium",
        lambda s: _web(s, vertices=12_000, avg_degree=32, seed=20),
    ),
    "TW": DatasetSpec(
        "TW", "Twitter", "social", 25_165_811, 787_169_139, "low",
        lambda s: _social(s, vertices=16_000, avg_degree=50, exponent=1.9, seed=21),
    ),
}

#: Order in which the paper's figures list the graphs.
DATASET_ORDER: List[str] = ["FB", "ER", "KR", "LJ", "OR", "PK", "RD", "RC", "RM", "UK", "TW"]

#: The graphs the paper calls out as "large" (where CuSha / Gunrock hit OOM).
LARGE_GRAPHS: List[str] = ["FB", "KR", "RD", "RM", "UK", "TW"]

#: High-diameter graphs (online filter should win end to end on these).
HIGH_DIAMETER_GRAPHS: List[str] = ["ER", "RC"]

_CACHE: Dict[tuple, CSRGraph] = {}


def load_dataset(abbrev: str, scale: float = 1.0, *, cache: bool = True) -> CSRGraph:
    """Build (or fetch from cache) the analogue for one Table-3 graph.

    Parameters
    ----------
    abbrev:
        Dataset abbreviation, case-insensitive (``"FB"``, ``"tw"``...).
    scale:
        Size multiplier; 1.0 gives the default laptop-scale graph.
    cache:
        Cache materialized graphs so experiment sweeps do not regenerate
        them. Graphs are immutable so sharing is safe.
    """
    key = abbrev.upper()
    if key not in DATASETS:
        raise KeyError(f"unknown dataset {abbrev!r}; known: {sorted(DATASETS)}")
    cache_key = (key, scale)
    if cache and cache_key in _CACHE:
        return _CACHE[cache_key]
    graph = DATASETS[key].build(scale)
    if cache:
        _CACHE[cache_key] = graph
    return graph
