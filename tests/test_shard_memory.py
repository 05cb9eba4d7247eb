"""Table-4 memory-feasibility regression for sharded execution.

The engine sizes its allocations against the *modeled* (paper-scale)
graph, so a batch whose K lane-metadata arrays exceed one K40's 12 GiB
fails with an OOM ``RunResult`` exactly like Table 4's blank cells. The
sharded executor gives each shard its own device with the full per-device
budget but only ``~1/num_shards`` of the modeled vertices and edges, so
the same batch must *complete* on enough shards - with per-lane results
bit-identical to per-lane single-source runs (which fit one device and
tie the batch back to the serial semantics), and with every shard's peak
below the single-device capacity that the unsharded run blew through.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro.algorithms import BFS
from repro.core.engine import EngineConfig, SIMDXEngine
from repro.graph import generators as gen
from repro.gpu.device import K40

#: Twitter-scale annotation (Table 4's largest graphs): K=16 lanes of
#: paper-scale metadata alone need 2 * 16 * 60e6 * 8 B = 15.36 GB, which
#: exceeds one K40 (12 GiB) before the CSR is even resident.
PAPER_VERTICES = 60_000_000
PAPER_EDGES = 400_000_000
NUM_LANES = 16


@pytest.fixture()
def annotated_graph():
    graph = gen.rmat_graph(9, 8, seed=31, name="tw-analogue")
    graph.meta["paper_vertices"] = PAPER_VERTICES
    graph.meta["paper_edges"] = PAPER_EDGES
    return graph


def _sources(graph, k):
    degrees = graph.out_degrees()
    hubs = np.argsort(degrees)[::-1][:k]
    return [int(v) for v in hubs]


class TestShardOOMRegression:
    def test_high_k_batch_ooms_on_one_device(self, annotated_graph):
        sources = _sources(annotated_graph, NUM_LANES)
        result = SIMDXEngine(annotated_graph).run_batch(BFS(source=0), sources)
        assert result.failed
        assert "OOM" in result.failure_reason
        assert result.device == K40.name

    def test_same_batch_completes_on_four_shards(self, annotated_graph):
        sources = _sources(annotated_graph, NUM_LANES)
        engine = SIMDXEngine(
            annotated_graph, config=EngineConfig(num_shards=4)
        )
        batch = engine.run_batch(BFS(source=0), sources)
        assert not batch.failed, batch.failure_reason
        assert batch.device == f"{K40.name}x4"
        assert batch.extra["shards"] == 4

        # Every shard stayed under the budget one device could not meet.
        peaks = batch.extra["shard_peak_bytes"]
        assert len(peaks) == 4
        assert max(peaks) < K40.global_memory_bytes

        # Lane-identical to the serial single-source runs (each of which
        # fits one K40: a single run needs only 2 * 60e6 * 8 B = 960 MB of
        # metadata), so completing sharded does not change the answers.
        for lane, source in enumerate(sources):
            single = SIMDXEngine(annotated_graph).run(BFS(source=source))
            assert not single.failed, single.failure_reason
            assert np.array_equal(batch.values[lane], single.values), (
                f"lane {lane} (source {source}) diverged on 4 shards"
            )

    def test_two_shards_also_sufficient(self, annotated_graph):
        # 2 shards halve the lane-metadata footprint to ~7.7 GB + ~2.4 GB
        # of CSR per shard; the per-shard total fits a K40 with room to
        # spare, so the minimal useful shard count already completes.
        sources = _sources(annotated_graph, NUM_LANES)
        engine = SIMDXEngine(
            annotated_graph, config=EngineConfig(num_shards=2)
        )
        batch = engine.run_batch(BFS(source=0), sources)
        assert not batch.failed, batch.failure_reason
        assert max(batch.extra["shard_peak_bytes"]) < K40.global_memory_bytes

    def test_moderate_k_still_fits_one_device(self, annotated_graph):
        # K=4 stays under 12 GiB unsharded - the OOM above is the lane
        # count, not an unconditional failure of the annotation.
        sources = _sources(annotated_graph, 4)
        result = SIMDXEngine(annotated_graph).run_batch(BFS(source=0), sources)
        assert not result.failed, result.failure_reason


class TestBoundaryBufferOOM:
    """Each shard's resident buffers fit, one superstep's boundary receive
    buffer does not: the run fails as an OOM on that shard."""

    def test_boundary_receive_buffer_ooms(self, rmat_graph):
        rmat_graph.meta["paper_vertices"] = 10**7
        rmat_graph.meta["paper_edges"] = 10**8
        # The larger shard's static footprint (590,406,180 B) plus 1 MiB.
        spec = replace(K40, global_memory_bytes=591_454_756)
        source = int(np.argmax(rmat_graph.out_degrees()))
        result = SIMDXEngine(
            rmat_graph, spec, config=EngineConfig(num_shards=2)
        ).run(BFS(source=source))
        assert result.failed
        assert result.device == "K40x2"
        assert result.failure_reason == (
            "OOM: K40: cannot allocate 26732325 bytes for boundary_updates; "
            "21860944 of 591454756 bytes free"
        )
