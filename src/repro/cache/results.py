"""Version-tagged LRU result cache with landmark pinning.

An entry stores one finished query's ``values`` array together with the
:class:`~repro.dyn.overlay.DynamicGraph` version it was computed at. A
lookup at the same version is an **exact hit** - the stored array *is*
the bits a fresh engine run would produce, so serving it preserves the
repository-wide bit-identity contract for free. A lookup at a newer
version is a **stale hit**: the caller may repair the entry forward
through the update receipts (:mod:`repro.dyn.incremental`) or treat it
as a miss; the cache itself never serves stale values.

Sources queried at least ``landmark_threshold`` times are promoted to
**landmarks**: pinned entries exempt from LRU eviction (bounded by
``landmark_capacity``), which the reuse front-end
(:class:`repro.cache.reuse.CachedQueryEngine`) refreshes eagerly after
each graph update so the hot sources keep answering at the current
version. This is the repository's take on landmark-based distance
serving: rather than approximating d(s, t) through a landmark's
triangle inequality (which would break exactness), a landmark here is a
source whose full result is kept warm.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, Iterator, Mapping, Optional, Tuple

import numpy as np

from repro.gpu.device import GPUSpec, K40


def params_key(params: Optional[Mapping[str, object]]) -> Tuple:
    """Canonical hashable form of a query's extra parameters."""
    if not params:
        return ()
    return tuple(sorted(params.items()))


@dataclass
class CacheEntry:
    """One cached query result."""

    algorithm: str
    source: Optional[int]
    params: Dict[str, object]
    values: np.ndarray
    #: DynamicGraph version the values were computed at.
    version: int
    hits: int = 0
    pinned: bool = False


class ResultCache:
    """LRU cache of query results with version tags and landmark pinning."""

    def __init__(
        self,
        capacity: int = 128,
        *,
        landmark_threshold: int = 4,
        landmark_capacity: int = 16,
    ):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self.landmark_threshold = landmark_threshold
        self.landmark_capacity = landmark_capacity
        self._entries: "OrderedDict[Tuple, CacheEntry]" = OrderedDict()
        self.stats: Dict[str, int] = {
            "hits": 0,
            "stale_hits": 0,
            "misses": 0,
            "stores": 0,
            "evictions": 0,
            "landmarks_promoted": 0,
            "landmarks_refreshed": 0,
        }

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def landmarks(self) -> int:
        return sum(1 for e in self._entries.values() if e.pinned)

    def entries(self) -> Iterator[CacheEntry]:
        return iter(list(self._entries.values()))

    # ------------------------------------------------------------------
    # Lookup / store
    # ------------------------------------------------------------------
    def lookup(
        self,
        algorithm: str,
        source: Optional[int],
        params: Optional[Mapping[str, object]],
        *,
        version: int,
    ) -> Optional[CacheEntry]:
        """The entry for this query, or None.

        The returned entry may be *stale* (``entry.version < version``);
        callers decide whether to repair it forward or fall back. Stats
        classify the access as hit / stale_hit / miss against ``version``.
        """
        key = (algorithm, source, params_key(params))
        entry = self._entries.get(key)
        if entry is None:
            self.stats["misses"] += 1
            return None
        self._entries.move_to_end(key)
        entry.hits += 1
        if (
            not entry.pinned
            and entry.hits >= self.landmark_threshold
            and self.landmarks < self.landmark_capacity
        ):
            entry.pinned = True
            self.stats["landmarks_promoted"] += 1
        if entry.version == version:
            self.stats["hits"] += 1
        else:
            self.stats["stale_hits"] += 1
        return entry

    def store(
        self,
        algorithm: str,
        source: Optional[int],
        params: Optional[Mapping[str, object]],
        values: np.ndarray,
        *,
        version: int,
    ) -> CacheEntry:
        """Insert or refresh the entry for this query."""
        key = (algorithm, source, params_key(params))
        entry = self._entries.get(key)
        if entry is not None:
            entry.values = values
            entry.version = version
            self._entries.move_to_end(key)
        else:
            entry = CacheEntry(
                algorithm=algorithm,
                source=None if source is None else int(source),
                params=dict(params or {}),
                values=values,
                version=version,
            )
            self._entries[key] = entry
            self._evict()
        self.stats["stores"] += 1
        return entry

    def _evict(self) -> None:
        """Drop least-recently-used unpinned entries over capacity."""
        while len(self._entries) > self.capacity:
            victim_key = None
            for key, entry in self._entries.items():
                if not entry.pinned:
                    victim_key = key
                    break
            if victim_key is None:
                # Everything is pinned; capacity is soft in that case.
                return
            del self._entries[victim_key]
            self.stats["evictions"] += 1

    # ------------------------------------------------------------------
    # Update integration
    # ------------------------------------------------------------------
    def refresh_landmarks(
        self,
        receipt,
        *,
        algorithms: Mapping[str, object],
        config=None,
        spec: GPUSpec = K40,
    ) -> int:
        """Repair pinned entries forward through one update receipt.

        Only entries that were current before the update (``version ==
        receipt.version - 1``) are refreshed, through the one-receipt
        routine the reuse front-end repairs with
        (:func:`repro.cache.reuse.repair_entry`); the repaired values are
        bit-identical to a from-scratch run on the new snapshot. Returns
        the refresh count.
        """
        from repro.cache.reuse import repair_entry
        from repro.dyn.incremental import IncrementalRecompute

        recompute = IncrementalRecompute(config=config, spec=spec)
        refreshed = 0
        for entry in self.entries():
            if not entry.pinned or entry.version != receipt.version - 1:
                continue
            result = repair_entry(entry, [receipt], recompute, algorithms)
            if result is None:
                continue
            entry.values = result.values
            entry.version = receipt.version
            refreshed += 1
            self.stats["landmarks_refreshed"] += 1
        return refreshed
