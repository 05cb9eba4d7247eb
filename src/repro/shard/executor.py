"""Sharded multi-device execution of the SIMD-X superstep loop.

:class:`ShardedExecutor` runs ``SIMDXEngine.run`` / ``run_batch``
semantics across ``EngineConfig.num_shards`` simulated devices, one per
contiguous vertex range of a :class:`~repro.shard.partition.ShardPlan`.
It does not own a loop: it builds one
:class:`~repro.core.superstep.Stream` per shard - the range's metadata
(and lane-metadata) slice with a whole device's memory budget, its JIT
task-management stream and direction selector - and hands them to the
same :class:`~repro.core.superstep.SuperstepDriver` a single device runs
on one stream. Direction is decided per shard on the shard's own frontier
slice, so one superstep may mix push and pull shards.

What sharding adds to the driver's superstep: push-mode destinations are
produced by scatter units (each shard with frontier vertices walks its
local out-edges, keeps the edges whose destination owner is push-mode and
routes the valid updates to the owner's queue - local or boundary);
pull-mode destinations by the owning shard's gather unit over its slice of
the gather candidates (a remote source is a boundary read). Every shard's
unit carries every lane, so a lane drains in the superstep's last unit,
after all its Computes: each owner's queue in source-shard order. Shards
are contiguous ranges of a sorted frontier and in-CSR rows are sorted by
source, so every destination's combine stream is in global
source-ascending order - the single-device order that makes the ACC
ordering invariants (and bit-identity) hold across shards
(``docs/sharding.md``).

Each superstep's last record carries every shard's boundary receive
buffer. Pricing (:func:`repro.core.pricing.price`) fails the run as an OOM
on a shard that cannot hold it beside its static footprint, and charges
each shard's units and its boundary-merge kernel to its own device; a
superstep costs its slowest shard (devices run concurrently).
"""

from __future__ import annotations

from typing import List

from repro.analysis import registry as extra_keys
from repro.core.direction import Direction
from repro.core.metrics import BatchRunResult, RunResult
from repro.core.superstep import Stream, SuperstepDriver
from repro.shard.partition import ShardPlan

#: Modeled bytes per exchanged boundary update: destination id (8) plus
#: the update value (8), staged in a transient receive buffer.
BOUNDARY_UPDATE_BYTES = 16

#: Staging cap for the exchange: boundary updates drain through a
#: double-buffered chunk of at most this size, so the transient receive
#: buffer never scales past a fixed footprint even when a superstep
#: crosses hundreds of millions of modeled edges (the merge *work* still
#: scales with the full update count - only the resident staging memory
#: is bounded, as in any chunked device-to-device exchange).
EXCHANGE_CHUNK_BYTES = 256 * 1024 * 1024


class ShardedExecutor:
    """Runs one engine's configuration across vertex-range shards."""

    def __init__(self, engine):
        self.engine = engine
        self.graph = engine.graph
        self.plan = ShardPlan.build(engine.graph, engine.config.num_shards)

    def _driver(self, algorithm) -> SuperstepDriver:
        """One stream per shard (each priced on its own simulated device)."""
        engine, plan = self.engine, self.plan
        start_direction = (
            Direction.PULL if algorithm.starts_in_pull else Direction.PUSH
        )
        streams: List[Stream] = [
            Stream(
                engine, t, int(plan.starts[t]), int(plan.stops[t]),
                total_edges=int(plan.out_edge_counts[t]),
                start_direction=start_direction,
            )
            for t in range(plan.num_shards)
        ]
        return SuperstepDriver(engine, streams, sharding=self)

    def run(self, algorithm, **params) -> RunResult:
        return self._driver(algorithm).run(algorithm, params)

    def run_batch(
        self, algorithm, sources: List[int], *, lane_params=None, **params
    ) -> BatchRunResult:
        return self._driver(algorithm).run_batch(
            algorithm, [int(s) for s in sources], lane_params, params
        )

    # ------------------------------------------------------------------
    # What the driver asks of a sharded plan
    # ------------------------------------------------------------------
    def boundary_buffer_bytes(self, received: int) -> int:
        """A shard's transient receive buffer for one superstep's
        ``received`` boundary updates, modeled at paper scale like every
        other edge-proportional buffer (0: no buffer)."""
        return 0 if received <= 0 else min(
            int(received * BOUNDARY_UPDATE_BYTES * self.graph.modeled_edge_scale()),
            EXCHANGE_CHUNK_BYTES,
        )

    def shard_extra(self, records, boundary_updates: int, static: List[int]) -> dict:
        """The ``shard_*`` keys a sharded run adds to ``extra``. A shard's
        peak is its resident (``static``) bytes plus its largest transient
        buffer - each is released before the next is placed."""
        scanned = [0] * len(static)
        peak = list(static)
        for record in records:
            t = record.stream
            scanned[t] += record.frontier_edges
            peak[t] = max(peak[t], static[t] + record.edge_list_bytes)
            for s, nbytes in enumerate(record.boundary_bytes):
                peak[s] = max(peak[s], static[s] + nbytes)
        return {
            extra_keys.SHARDS: self.plan.num_shards,
            extra_keys.SHARD_BOUNDARY_UPDATES: int(boundary_updates),
            extra_keys.SHARD_SCANNED_EDGES: scanned,
            extra_keys.SHARD_PEAK_BYTES: peak,
        }
