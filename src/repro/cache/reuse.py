"""The one reuse front-end over the dynamic graph, cache and engine.

:class:`CachedQueryEngine` alone decides result reuse and maps a graph
version to its engine. ``reuse`` answers with the bits a from-scratch
run on the current snapshot would return, or not at all:

* **hit** - the cache holds this query's values at the current version;
* **repair** - it holds them at an older version and the receipt chain
  since is retained and at most ``max_repair_chain`` long: repair the
  entry forward through it (:func:`repair_entry`, exact - see
  docs/dynamic.md), and store it;
* **miss** - ``None``: the caller runs the query on ``engine`` and
  ``store``s it (``query`` alone, :class:`repro.serve.SIMDXServer` in a
  batch lane).

Landmark refresh (``update``) repairs through the same routine. The
differential fuzz harness's dyn axis checks every answer against a fresh
from-scratch run, bit for bit, sanitize-clean.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Mapping, Optional, Sequence, Union

import numpy as np

from repro.algorithms import ALGORITHMS
from repro.analysis import registry as extra_keys
from repro.analysis.sanitizer import RuntimeSanitizer
from repro.cache.results import CacheEntry, ResultCache
from repro.core.engine import EngineConfig, SIMDXEngine
from repro.core.metrics import RunResult
from repro.dyn.incremental import REPAIRABLE_ALGORITHMS, IncrementalRecompute
from repro.dyn.overlay import DynamicGraph, EdgeUpdateBatch, UpdateReceipt
from repro.gpu.device import GPUSpec, K40


def make_algorithm(algorithms: Mapping[str, Callable], name, source, params):
    """The algorithm instance answering one cached query."""
    if source is not None:
        params = {**params, "source": int(source)}
    return algorithms[name](**params)


def repair_entry(
    entry: CacheEntry,
    chain: Sequence[UpdateReceipt],
    recompute: IncrementalRecompute,
    algorithms: Mapping[str, Callable],
) -> Optional[RunResult]:
    """The last step's result of repairing ``entry`` through ``chain``, or
    None when its algorithm is not repairable or a step failed."""
    name, result = entry.algorithm, None
    if name not in REPAIRABLE_ALGORITHMS or name not in algorithms:
        return None
    for receipt in chain:
        result = recompute.run(
            receipt,
            make_algorithm(algorithms, name, entry.source, entry.params),
            entry.values if result is None else result.values,
        )
        if result.failed:
            return None
    return result


@dataclass(frozen=True)
class CachedAnswer:
    """What ``reuse`` and ``query`` return."""

    #: The query's values (a private copy; identical to a from-scratch run).
    values: np.ndarray
    #: "hit", "repair" or "miss" (registry.CACHE_OUTCOME vocabulary).
    outcome: str
    #: Graph version the answer is valid for.
    version: int
    #: The engine result of the miss run or of the last repair step; None
    #: on a cache hit.
    result: Optional[RunResult] = None
    #: Annotations (cache_outcome, dyn_graph_version).
    extra: Mapping[str, object] = field(default_factory=dict)


class CachedQueryEngine:
    """Serve repeated and near-repeated queries exactly, via the cache.

    ``cache`` is a :class:`ResultCache`; ``None`` or ``True`` builds a
    default one and ``False`` turns reuse off, leaving versions, the engine
    and updates.
    """

    def __init__(
        self,
        graph,
        *,
        config: Optional[EngineConfig] = None,
        spec: GPUSpec = K40,
        cache: Union[ResultCache, bool, None] = None,
        algorithms: Optional[Dict[str, Callable]] = None,
        max_repair_chain: int = 8,
    ):
        self.dyn = (
            graph if isinstance(graph, DynamicGraph) else DynamicGraph(graph)
        )
        self.config = config
        self.spec = spec
        # Not ``cache or ...``: an *empty* ResultCache is falsy (len 0).
        if cache is None or cache is True:
            cache = ResultCache()
        self.cache: Optional[ResultCache] = None if cache is False else cache
        self._algorithms = dict(
            algorithms if algorithms is not None else ALGORITHMS
        )
        self.max_repair_chain = max_repair_chain
        self._recompute = IncrementalRecompute(config=config, spec=spec)
        self._engine: Optional[SIMDXEngine] = None
        self._engine_version = -1

    @property
    def engine(self) -> SIMDXEngine:
        """The engine of the current snapshot, built once per version
        (graph-derived caches - classifiers, in-degrees, transpose - belong
        to one immutable graph)."""
        version = self.dyn.version
        if self._engine is None or self._engine_version != version:
            self._engine = SIMDXEngine(self.dyn.snapshot(), self.spec, self.config)
            self._engine_version = version
        return self._engine

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def reuse(self, algorithm: str, source, params=None) -> Optional[CachedAnswer]:
        """The hit or repaired answer at the current version; None on a miss."""
        if algorithm not in self._algorithms:
            raise KeyError(f"unknown algorithm {algorithm!r}")
        if self.cache is None:
            return None
        version = self.dyn.version
        entry = self.cache.lookup(algorithm, source, params, version=version)
        if entry is None:
            return None
        if entry.version == version:
            return self._answer(entry.values, "hit")
        chain = self.dyn.receipts_since(entry.version)
        if chain is None or len(chain) > self.max_repair_chain:
            return None
        result = repair_entry(entry, chain, self._recompute, self._algorithms)
        if result is None:
            return None
        self.store(algorithm, source, params, result.values)
        return self._answer(result.values, "repair", result)

    def store(self, algorithm: str, source, params, values: np.ndarray) -> None:
        """Cache ``values`` as this query's answer at the current version."""
        if self.cache is not None:
            self.cache.store(
                algorithm, source, params, values, version=self.dyn.version
            )

    def query(self, algorithm: str, source=None, **params) -> CachedAnswer:
        """Answer one query: reuse it, or run it on ``engine`` and store."""
        answer = self.reuse(algorithm, source, params)
        if answer is not None:
            return answer
        result = self.engine.run(
            make_algorithm(self._algorithms, algorithm, source, params)
        )
        if result.failed:
            raise RuntimeError(
                f"engine failed {algorithm} query: {result.failure_reason}"
            )
        self.store(algorithm, source, params, result.values)
        return self._answer(result.values, "miss", result)

    # ------------------------------------------------------------------
    # Updates
    # ------------------------------------------------------------------
    def update(
        self,
        *,
        inserts=None,
        insert_weights=None,
        deletes=None,
        refresh_landmarks: bool = True,
    ) -> UpdateReceipt:
        """Apply one edge-update batch; optionally keep landmarks warm."""
        receipt = self.dyn.apply(
            EdgeUpdateBatch.of(
                inserts=inserts,
                insert_weights=insert_weights,
                deletes=deletes,
            )
        )
        if refresh_landmarks and self.cache is not None:
            self.cache.refresh_landmarks(
                receipt,
                algorithms=self._algorithms,
                config=self.config,
                spec=self.spec,
            )
        return receipt

    @property
    def stats(self) -> Dict[str, object]:
        cache = self.cache.stats if self.cache is not None else {}
        return {**cache, **self.dyn.stats()}

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _answer(self, values, outcome: str, result=None) -> CachedAnswer:
        version = self.dyn.version
        extra = {
            extra_keys.CACHE_OUTCOME: outcome,
            extra_keys.DYN_GRAPH_VERSION: version,
        }
        if self.config is not None and self.config.sanitize:
            RuntimeSanitizer(self.dyn.snapshot()).validate_extra(extra)
        return CachedAnswer(
            values=np.array(values, copy=True),
            outcome=outcome,
            version=version,
            result=result,
            extra=extra,
        )
