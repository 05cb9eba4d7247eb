"""Sharded multi-device execution of the SIMD-X superstep loop.

:class:`ShardedExecutor` runs ``SIMDXEngine.run`` / ``run_batch``
semantics across ``EngineConfig.num_shards`` simulated devices, one per
contiguous vertex range of a :class:`~repro.shard.partition.ShardPlan`.
It does not own a loop: it builds one
:class:`~repro.core.superstep.Stream` per shard - the range's metadata
(and lane-metadata) slice, its own device + memory budget, fusion plan,
JIT task-management stream and direction selector - and hands them to the
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

Costs are charged per shard through the engine's shared iteration tail; a
superstep's elapsed time is the *max* over shards (devices run
concurrently) including the per-shard boundary-merge kernel charged here.
"""

from __future__ import annotations

from typing import List

from repro.analysis import registry as extra_keys
from repro.core.direction import Direction
from repro.core.fusion import FusionPlan
from repro.core.metrics import BatchRunResult, RunResult
from repro.core.superstep import Stream, SuperstepDriver
from repro.gpu import memory as gmem
from repro.gpu.device import GPUDevice
from repro.gpu.kernel import Kernel, KernelLaunch, WorkEstimate
from repro.shard.partition import ShardPlan


#: The per-superstep exchange kernel: each shard scatters the boundary
#: updates it received into its local combine buffers.
BOUNDARY_MERGE_KERNEL = Kernel("shard_boundary_merge", 24)

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
        """One stream per shard, each on its own simulated device."""
        engine, plan = self.engine, self.plan
        start_direction = (
            Direction.PULL if algorithm.starts_in_pull else Direction.PUSH
        )
        streams: List[Stream] = [
            Stream(
                engine, t, int(plan.starts[t]), int(plan.stops[t]),
                device=GPUDevice(
                    engine.device.spec, memory_scale=engine.device.memory_scale
                ),
                fusion_plan=FusionPlan(engine.config.fusion),
                total_edges=int(plan.out_edge_counts[t]),
                start_direction=start_direction,
                modeled_vertices=int(plan.modeled_vertices[t]),
                modeled_edges=int(plan.modeled_edges[t]),
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
    def charge_boundary_merge(self, stream: Stream, received: int) -> float:
        """Charge ``stream`` for draining ``received`` boundary updates.

        The receive buffer is a transient allocation (modeled at paper
        scale like every other edge-proportional buffer) and the merge
        itself is one scatter-dominated kernel on the receiving device.
        Returns the simulated microseconds.
        """
        if received <= 0:
            return 0.0
        buffer_alloc = stream.device.malloc(
            min(
                int(
                    received * BOUNDARY_UPDATE_BYTES
                    * self.graph.modeled_edge_scale()
                ),
                EXCHANGE_CHUNK_BYTES,
            ),
            label="boundary_updates",
        )
        work = WorkEstimate(
            scattered_transactions=gmem.metadata_scatter_transactions(received),
            compute_ops=float(received),
        )
        result = stream.device.launch(KernelLaunch(
            kernel=BOUNDARY_MERGE_KERNEL,
            work=work,
            num_ctas=max(
                1, -(-received // BOUNDARY_MERGE_KERNEL.threads_per_cta)
            ),
        ))
        stream.device.free(buffer_alloc)
        return result.total_us

    def shard_extra(self, streams: List[Stream], boundary_updates: int) -> dict:
        """The ``shard_*`` keys a sharded run adds to ``extra``."""
        return {
            extra_keys.SHARDS: self.plan.num_shards,
            extra_keys.SHARD_BOUNDARY_UPDATES: int(boundary_updates),
            extra_keys.SHARD_SCANNED_EDGES: [
                int(s.scanned_edges) for s in streams
            ],
            extra_keys.SHARD_PEAK_BYTES: [
                int(s.device.profiler.peak_allocated_bytes) for s in streams
            ],
        }
