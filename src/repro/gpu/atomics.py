"""Atomic-operation cost model.

The AFC / edge-centric baselines (Gunrock, CuSha in Table 1) apply edge
updates with ``atomicMin`` / ``atomicAdd`` on the destination vertex. On a
GPU those serialize whenever several threads touch the same address in the
same window, and on skewed graphs the high-degree destinations receive a
large share of all updates, so contention is far from uniform.

The helpers here compute, from the actual destination array of a functional
execution, how many atomics were issued and how contended they were - the
two numbers the device cost model charges for. ACC avoids issuing them at
all, which is where the Figure 5 speedup comes from.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class AtomicProfile:
    """Summary of one batch of atomic updates."""

    num_ops: int
    contention: float       # average concurrent ops per distinct address (>= 1)
    max_contention: int     # updates hitting the single hottest address


def profile_atomic_updates(destinations: np.ndarray) -> AtomicProfile:
    """Profile atomics from the destination vertex of every update.

    ``contention`` is the expected queue depth seen by an update: the
    average, weighted by updates, of the number of updates sharing its
    destination. For a uniform spread it is ~1; for a star graph where every
    update targets the hub it equals the update count.
    """
    destinations = np.asarray(destinations)
    n = int(destinations.size)
    if n == 0:
        return AtomicProfile(num_ops=0, contention=1.0, max_contention=0)
    _, counts = np.unique(destinations, return_counts=True)
    # Each update to an address shared by c updates waits behind ~c ops.
    weighted = float((counts.astype(np.float64) ** 2).sum() / n)
    return AtomicProfile(
        num_ops=n,
        contention=max(1.0, weighted),
        max_contention=int(counts.max()),
    )
