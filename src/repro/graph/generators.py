"""Synthetic graph generators.

The paper evaluates on four graph classes (Table 3): social networks,
road maps, hyperlink webs and synthetic R-MAT / Kronecker / uniform graphs.
We cannot ship the original multi-hundred-million-edge datasets, so the
dataset registry (:mod:`repro.graph.datasets`) builds scaled-down analogues
from the generators in this module. Each generator documents which
structural property it preserves and why that property matters for the
experiments.

All generators are deterministic given a ``seed`` argument.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.graph.csr import CSRGraph


def _finalize(
    num_vertices: int,
    edges: np.ndarray,
    *,
    directed: bool,
    name: str,
    seed: Optional[int],
) -> CSRGraph:
    return CSRGraph.from_edges(
        num_vertices,
        edges,
        directed=directed,
        name=name,
        weight_seed=seed,
    )


def grid_graph(rows: int, cols: int, *, name: str = "grid", seed: int = 0) -> CSRGraph:
    """A 2-D lattice; the building block of road-network analogues."""
    if rows < 1 or cols < 1:
        raise ValueError("rows and cols must be >= 1")
    n = rows * cols
    ids = np.arange(n, dtype=np.int64).reshape(rows, cols)
    horiz = np.stack([ids[:, :-1].ravel(), ids[:, 1:].ravel()], axis=1)
    vert = np.stack([ids[:-1, :].ravel(), ids[1:, :].ravel()], axis=1)
    edges = np.concatenate([horiz, vert], axis=0)
    return _finalize(n, edges, directed=False, name=name, seed=seed)


# ----------------------------------------------------------------------
# R-MAT / Kronecker: skewed power-law graphs (social / synthetic classes)
# ----------------------------------------------------------------------
def rmat_graph(
    scale: int,
    edge_factor: int = 16,
    *,
    a: float = 0.57,
    b: float = 0.19,
    c: float = 0.19,
    seed: int = 1,
    directed: bool = False,
    name: str = "rmat",
) -> CSRGraph:
    """Recursive-MATrix generator (Chakrabarti et al., SDM'04).

    ``2**scale`` vertices and roughly ``edge_factor * 2**scale`` edges with a
    heavy-tailed degree distribution. The Graph500 Kronecker generator the
    paper uses for KR is the special case with the standard (0.57, 0.19,
    0.19, 0.05) probabilities, exposed as :func:`kronecker_graph`.

    Skewed degrees are what make workload balancing matter: the medium and
    large worklists of SIMD-X, and the ballot-filter activation in the middle
    of BFS, only appear on graphs of this class.
    """
    if scale < 1:
        raise ValueError("scale must be >= 1")
    if edge_factor < 1:
        raise ValueError("edge_factor must be >= 1")
    d = 1.0 - a - b - c
    if d < 0:
        raise ValueError("a + b + c must be <= 1")

    n = 1 << scale
    m = edge_factor * n
    rng = np.random.default_rng(seed)

    src = np.zeros(m, dtype=np.int64)
    dst = np.zeros(m, dtype=np.int64)
    # Standard bit-by-bit R-MAT recursion, vectorised across all edges.
    for bit in range(scale):
        r = rng.random(m)
        go_right = ((r >= a) & (r < a + b)) | (r >= a + b + c)
        go_down = r >= a + b
        src = (src << 1) | go_down.astype(np.int64)
        dst = (dst << 1) | go_right.astype(np.int64)

    # Permute vertex ids so that degree is not correlated with id, as the
    # Graph500 reference generator does.
    perm = rng.permutation(n).astype(np.int64)
    src = perm[src]
    dst = perm[dst]
    edges = np.stack([src, dst], axis=1)
    return _finalize(n, edges, directed=directed, name=name, seed=seed)


def kronecker_graph(
    scale: int,
    edge_factor: int = 16,
    *,
    seed: int = 2,
    directed: bool = False,
    name: str = "kron",
) -> CSRGraph:
    """Graph500-style Kronecker graph (R-MAT with the Graph500 parameters)."""
    return rmat_graph(
        scale,
        edge_factor,
        a=0.57,
        b=0.19,
        c=0.19,
        seed=seed,
        directed=directed,
        name=name,
    )


def power_law_graph(
    num_vertices: int,
    average_degree: float,
    *,
    exponent: float = 2.1,
    seed: int = 3,
    directed: bool = False,
    name: str = "powerlaw",
) -> CSRGraph:
    """Configuration-model power-law graph.

    Used for the social-network analogues where we want explicit control of
    the tail exponent (Facebook / LiveJournal / Orkut / Pokec / Twitter all
    have exponents near 2, with a handful of celebrity vertices whose degree
    dwarfs the average - precisely the vertices the CTA worklist exists for).
    """
    if num_vertices < 2:
        raise ValueError("num_vertices must be >= 2")
    rng = np.random.default_rng(seed)
    # Draw degrees from a bounded Pareto distribution.
    u = rng.random(num_vertices)
    x_min = 1.0
    x_max = max(2.0, num_vertices / 8)
    alpha = exponent - 1.0
    degrees = (
        x_min
        * (1 - u * (1 - (x_min / x_max) ** alpha)) ** (-1.0 / alpha)
    )
    degrees = degrees / degrees.mean() * average_degree
    degrees = np.maximum(1, np.round(degrees)).astype(np.int64)
    stubs = np.repeat(np.arange(num_vertices, dtype=np.int64), degrees)
    rng.shuffle(stubs)
    if stubs.shape[0] % 2:
        stubs = stubs[:-1]
    half = stubs.shape[0] // 2
    edges = np.stack([stubs[:half], stubs[half:]], axis=1)
    return _finalize(num_vertices, edges, directed=directed, name=name, seed=seed)


# ----------------------------------------------------------------------
# Uniform random (RD analogue)
# ----------------------------------------------------------------------
def random_uniform_graph(
    num_vertices: int,
    num_edges: int,
    *,
    seed: int = 4,
    directed: bool = False,
    name: str = "random",
) -> CSRGraph:
    """Erdos-Renyi-style uniform random graph.

    Uniform degrees mean workload balancing brings little benefit, which is
    why the paper's RD graph is the one case where Galois beats SIMD-X; the
    dataset analogue preserves this property.
    """
    if num_vertices < 2:
        raise ValueError("num_vertices must be >= 2")
    rng = np.random.default_rng(seed)
    src = rng.integers(0, num_vertices, size=num_edges, dtype=np.int64)
    dst = rng.integers(0, num_vertices, size=num_edges, dtype=np.int64)
    edges = np.stack([src, dst], axis=1)
    return _finalize(num_vertices, edges, directed=directed, name=name, seed=seed)


# ----------------------------------------------------------------------
# Road networks (ER / RC analogues): high diameter, tiny degrees
# ----------------------------------------------------------------------
def road_network_graph(
    rows: int,
    cols: int,
    *,
    extra_edge_fraction: float = 0.05,
    removal_fraction: float = 0.05,
    seed: int = 5,
    name: str = "road",
) -> CSRGraph:
    """Perturbed 2-D lattice resembling a road map.

    Road graphs (Europe-osm, RoadCA) have near-constant degree (2-4) and
    diameters in the hundreds or thousands; BFS/SSSP run thousands of nearly
    empty iterations on them, which is exactly the regime where the online
    filter wins and the ballot filter's full metadata scans dominate runtime
    (Figure 8 and Figure 12). A lattice with a few shortcuts added and a few
    edges removed reproduces both the degree profile and the high diameter.
    """
    base = grid_graph(rows, cols, name=name, seed=seed)
    rng = np.random.default_rng(seed)
    edges = base.to_edge_array()
    # Keep each undirected edge once (src < dst) before perturbation.
    mask = edges[:, 0] < edges[:, 1]
    edges = edges[mask]

    if removal_fraction > 0 and edges.shape[0] > 0:
        keep = rng.random(edges.shape[0]) >= removal_fraction
        edges = edges[keep]

    n = rows * cols
    n_extra = int(extra_edge_fraction * edges.shape[0])
    if n_extra > 0:
        # Shortcuts connect nearby vertices only (local bypass roads), so the
        # diameter stays high.
        base_v = rng.integers(0, n, size=n_extra, dtype=np.int64)
        offset = rng.integers(1, max(2, cols // 8), size=n_extra, dtype=np.int64)
        extra = np.stack([base_v, np.minimum(n - 1, base_v + offset)], axis=1)
        edges = np.concatenate([edges, extra], axis=0)

    graph = _finalize(n, edges, directed=False, name=name, seed=seed)
    return graph


def small_world_graph(
    num_vertices: int,
    k: int = 4,
    rewire_probability: float = 0.05,
    *,
    seed: int = 6,
    name: str = "smallworld",
) -> CSRGraph:
    """Watts-Strogatz small-world graph (ring lattice with rewiring).

    Used as the UK-2002 web-graph analogue together with an R-MAT overlay:
    webs combine locally dense link structure with a modest diameter
    (10 - 30 in the paper's classification).
    """
    if num_vertices < 3:
        raise ValueError("num_vertices must be >= 3")
    if k < 2 or k % 2:
        raise ValueError("k must be an even integer >= 2")
    rng = np.random.default_rng(seed)
    ids = np.arange(num_vertices, dtype=np.int64)
    edge_blocks = []
    for offset in range(1, k // 2 + 1):
        dst = (ids + offset) % num_vertices
        edge_blocks.append(np.stack([ids, dst], axis=1))
    edges = np.concatenate(edge_blocks, axis=0)
    rewire = rng.random(edges.shape[0]) < rewire_probability
    edges[rewire, 1] = rng.integers(0, num_vertices, size=int(rewire.sum()))
    return _finalize(num_vertices, edges, directed=False, name=name, seed=seed)


def web_graph(
    num_vertices: int,
    average_degree: float = 16.0,
    *,
    seed: int = 7,
    name: str = "web",
) -> CSRGraph:
    """Hyperlink-web analogue: power-law overlay on a small-world backbone."""
    backbone = small_world_graph(
        num_vertices, k=4, rewire_probability=0.02, seed=seed, name=name
    )
    overlay = power_law_graph(
        num_vertices,
        max(1.0, average_degree - 4.0),
        exponent=2.2,
        seed=seed + 1,
        name=name,
    )
    edges = np.concatenate([backbone.to_edge_array(), overlay.to_edge_array()], axis=0)
    return _finalize(num_vertices, edges, directed=False, name=name, seed=seed)

