"""Cross-query result reuse: landmark/result cache (docs/caching.md).

:mod:`repro.cache.results` stores finished per-query values keyed by
``(algorithm, source, params)`` and tagged with the
:class:`repro.dyn.overlay.DynamicGraph` version they were computed at;
hot sources are promoted to pinned *landmarks*. :mod:`repro.cache.reuse`
wraps a dynamic graph, a cache and the engine into the one reuse
front-end (``query`` and the server both go through it) that serves
repeated queries from the cache, repairs near-repeated ones (stale
entries) forward through the exact update receipts, and falls back to a
normal engine run otherwise - every path returning the same bits a
from-scratch run would (the exactness contract).
"""

from repro.cache.results import CacheEntry, ResultCache
from repro.cache.reuse import CachedAnswer, CachedQueryEngine

__all__ = [
    "CacheEntry",
    "ResultCache",
    "CachedAnswer",
    "CachedQueryEngine",
]
