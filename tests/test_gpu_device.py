"""Tests for the GPU device model: specs, memory, occupancy, cost model."""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro.algorithms import BFS
from repro.core.engine import SIMDXEngine
from repro.core.superstep import static_footprint
from repro.gpu.barrier import SoftwareGlobalBarrier
from repro.gpu.device import (
    DeviceOutOfMemory,
    GPUDevice,
    K20,
    K40,
    P100,
    KNOWN_DEVICES,
    get_device_spec,
    reserve,
)
from repro.gpu.kernel import Kernel, KernelLaunch, WorkEstimate
from repro.gpu.registers import (
    compute_cta_count,
    compute_occupancy,
    configurable_thread_count,
)


class TestSpecs:
    def test_known_devices(self):
        assert set(KNOWN_DEVICES) == {"K20", "K40", "P100"}
        assert get_device_spec("k40") is K40
        with pytest.raises(KeyError):
            get_device_spec("V100")

    def test_paper_register_file_sizes(self):
        # Section 5 quotes these numbers explicitly.
        assert K40.registers_per_smx == 65_536
        assert K20.registers_per_smx == 32_768

    def test_device_ordering_by_capability(self):
        assert P100.memory_bandwidth_gbps > K40.memory_bandwidth_gbps > K20.memory_bandwidth_gbps
        assert P100.peak_gips > K40.peak_gips > K20.peak_gips
        assert P100.global_memory_bytes > K40.global_memory_bytes

    def test_derived_quantities(self):
        assert K40.total_cuda_cores == 15 * 192
        assert K40.max_resident_threads == 15 * 2048


class TestFootprintCheck:
    """``reserve`` places buffers in order on the spec's global memory."""

    SPEC = replace(K40, global_memory_bytes=1000)

    def test_buffers_accumulate_in_order(self):
        assert reserve(self.SPEC, [("a", 300), ("b", 500)]) == 800
        assert reserve(self.SPEC, [("c", 200)], resident=800) == 1000

    def test_first_buffer_that_does_not_fit_is_named(self):
        # "b" alone fits; "a" then "b" does not, and "c" is never tried.
        with pytest.raises(DeviceOutOfMemory) as exc:
            reserve(self.SPEC, [("a", 600), ("b", 500), ("c", 2000)])
        assert str(exc.value) == (
            "K40: cannot allocate 500 bytes for b; 400 of 1000 bytes free"
        )

    def test_resident_bytes_count_against_the_capacity(self):
        with pytest.raises(DeviceOutOfMemory) as exc:
            reserve(self.SPEC, [("active_edge_list", 101)], resident=900)
        assert str(exc.value) == (
            "K40: cannot allocate 101 bytes for active_edge_list; "
            "100 of 1000 bytes free"
        )

    def test_engine_places_its_static_footprint_in_order(self, rmat_graph):
        # The run's buffers are csr_graph, metadata, worklists: a capacity
        # one byte short of all three fails on the last, with the room the
        # first two left.
        footprint = static_footprint(rmat_graph, None)
        assert [label for label, _ in footprint[0]] == [
            "csr_graph", "metadata", "worklists",
        ]
        csr, metadata, worklists = (n for _, n in footprint[0])
        capacity = csr + metadata + worklists - 1
        spec = replace(K40, global_memory_bytes=capacity)
        result = SIMDXEngine(rmat_graph, device=GPUDevice(spec)).run(BFS(source=0))
        assert result.failure_reason == (
            f"OOM: K40: cannot allocate {worklists} bytes for worklists; "
            f"{capacity - csr - metadata} of {capacity} bytes free"
        )
        spec = replace(K40, global_memory_bytes=capacity + 1)
        result = SIMDXEngine(rmat_graph, device=GPUDevice(spec)).run(BFS(source=0))
        assert not result.failed, result.failure_reason


class TestOccupancy:
    def test_cta_count_formula_matches_paper_example(self):
        # Section 5: 110 regs/thread, 128 threads/CTA on K40 -> 4 CTA/SMX,
        # 60 CTAs total (the paper floors 65536 / (110 * 128) = 4.65 -> 4).
        assert compute_cta_count(K40, registers_per_thread=110, threads_per_cta=128) == 60

    def test_cta_count_halves_on_k20(self):
        k40 = compute_cta_count(K40, registers_per_thread=110, threads_per_cta=128)
        k20 = compute_cta_count(K20, registers_per_thread=110, threads_per_cta=128)
        assert k20 < k40

    def test_lower_registers_more_threads(self):
        low = configurable_thread_count(K40, registers_per_thread=50, threads_per_cta=128)
        high = configurable_thread_count(K40, registers_per_thread=110, threads_per_cta=128)
        assert low > high

    def test_occupancy_limited_by_registers(self):
        info = compute_occupancy(K40, registers_per_thread=110, threads_per_cta=128)
        assert info.limited_by == "registers"
        assert info.occupancy < 0.5

    def test_occupancy_limited_by_launch_size(self):
        info = compute_occupancy(
            K40, registers_per_thread=32, threads_per_cta=128, num_ctas=2
        )
        assert info.limited_by == "launch"
        assert info.resident_ctas == 2
        assert info.occupancy < 0.05

    def test_occupancy_full_for_light_kernels(self):
        info = compute_occupancy(K40, registers_per_thread=24, threads_per_cta=128)
        assert info.occupancy == pytest.approx(1.0)

    def test_occupancy_clamped_when_kernel_too_fat(self):
        info = compute_occupancy(K40, registers_per_thread=100_000, threads_per_cta=128)
        assert info.ctas_per_smx == 1
        assert info.limited_by == "registers"

    def test_resident_warps(self):
        info = compute_occupancy(K40, registers_per_thread=32, threads_per_cta=128)
        assert info.resident_threads == info.resident_ctas * 128
        assert info.resident_threads % 32 == 0

    def test_cta_count_for_kernel(self):
        # The barrier sizes a persistent launch from the kernel's own
        # register and thread counts (Eq. 1).
        kernel = Kernel("k", 110)
        assert SoftwareGlobalBarrier(K40, kernel).max_resident_ctas == 60

    def test_invalid_inputs_rejected(self):
        with pytest.raises(ValueError):
            compute_occupancy(K40, registers_per_thread=0, threads_per_cta=128)
        with pytest.raises(ValueError):
            compute_cta_count(K40, registers_per_thread=10, threads_per_cta=0)


class TestKernelAbstraction:
    def test_kernel_validation(self):
        with pytest.raises(ValueError):
            Kernel("bad", registers_per_thread=0)
        with pytest.raises(ValueError):
            Kernel("bad", registers_per_thread=32, threads_per_cta=100)
        with pytest.raises(ValueError):
            Kernel("bad", registers_per_thread=32, shared_mem_per_cta=-1)

    def test_work_estimate_validation(self):
        with pytest.raises(ValueError):
            WorkEstimate(divergence_fraction=1.5)
        with pytest.raises(ValueError):
            WorkEstimate(coalesced_bytes=-1)
        with pytest.raises(ValueError):
            WorkEstimate(atomic_ops=1, atomic_contention=0.5)

    def test_work_estimate_nonzero(self):
        assert not WorkEstimate().nonzero()
        assert WorkEstimate(compute_ops=1).nonzero()

    def test_merged_with_sums_components(self):
        a = WorkEstimate(coalesced_bytes=100, compute_ops=10, atomic_ops=5,
                         atomic_contention=2.0)
        b = WorkEstimate(coalesced_bytes=50, compute_ops=30, atomic_ops=15,
                         atomic_contention=4.0)
        merged = a.merged_with(b)
        assert merged.coalesced_bytes == 150
        assert merged.compute_ops == 40
        assert merged.atomic_ops == 20
        # Contention is op-weighted: (5*2 + 15*4) / 20 = 3.5
        assert merged.atomic_contention == pytest.approx(3.5)

    def test_merged_divergence_weighted_by_compute(self):
        a = WorkEstimate(compute_ops=10, divergence_fraction=0.0)
        b = WorkEstimate(compute_ops=30, divergence_fraction=0.4)
        assert a.merged_with(b).divergence_fraction == pytest.approx(0.3)


class TestCostModel:
    def _launch(self, device, **work_kwargs):
        kernel = Kernel("test", 32)
        return device.launch(KernelLaunch(kernel=kernel, work=WorkEstimate(**work_kwargs)))

    def test_empty_work_costs_only_launch_overhead(self):
        dev = GPUDevice(K40)
        result = self._launch(dev)
        assert result.total_us == pytest.approx(K40.kernel_launch_overhead_us)

    def test_fused_continuation_skips_launch_overhead(self):
        dev = GPUDevice(K40)
        kernel = Kernel("fused", 48)
        result = dev.launch(
            KernelLaunch(kernel=kernel, work=WorkEstimate(compute_ops=1000),
                         fused_continuation=True)
        )
        assert result.launch_overhead_us == 0.0
        assert result.total_us > 0

    def test_more_memory_traffic_costs_more(self):
        dev = GPUDevice(K40)
        small = self._launch(dev, coalesced_bytes=1e6)
        large = self._launch(dev, coalesced_bytes=1e8)
        assert large.memory_us > small.memory_us

    def test_scattered_traffic_costs_more_than_coalesced(self):
        dev = GPUDevice(K40)
        # Same useful bytes: 1e6 coalesced vs 1e6/4 scattered 4-byte accesses.
        coalesced = self._launch(dev, coalesced_bytes=1e6)
        scattered = self._launch(dev, scattered_transactions=250_000)
        assert scattered.memory_us > coalesced.memory_us

    def test_atomics_add_cost_and_contention_hurts(self):
        dev = GPUDevice(K40)
        none = self._launch(dev, compute_ops=1e6)
        some = self._launch(dev, compute_ops=1e6, atomic_ops=1e5)
        contended = self._launch(dev, compute_ops=1e6, atomic_ops=1e5,
                                 atomic_contention=64.0)
        assert some.total_us > none.total_us
        assert contended.atomic_us > some.atomic_us

    def test_divergence_increases_compute_time(self):
        dev = GPUDevice(K40)
        converged = self._launch(dev, compute_ops=1e7)
        diverged = self._launch(dev, compute_ops=1e7, divergence_fraction=0.9)
        assert diverged.compute_us > converged.compute_us

    def test_fat_kernel_slower_than_lean_kernel(self):
        dev = GPUDevice(K40)
        work = WorkEstimate(compute_ops=5e7, coalesced_bytes=5e7)
        lean = dev.launch(KernelLaunch(kernel=Kernel("lean", 48), work=work))
        fat = dev.launch(KernelLaunch(kernel=Kernel("fat", 110), work=work))
        assert fat.busy_us > lean.busy_us

    def test_p100_faster_than_k20(self):
        work = WorkEstimate(compute_ops=1e7, coalesced_bytes=1e8)
        kernel = Kernel("k", 48)
        t_k20 = GPUDevice(K20).launch(KernelLaunch(kernel=kernel, work=work)).total_us
        t_p100 = GPUDevice(P100).launch(KernelLaunch(kernel=kernel, work=work)).total_us
        assert t_p100 < t_k20

    def test_estimate_does_not_record(self):
        dev = GPUDevice(K40)
        dev.estimate(KernelLaunch(kernel=Kernel("k", 32), work=WorkEstimate()))
        assert dev.profiler.launch_count() == 0
        dev.launch(KernelLaunch(kernel=Kernel("k", 32), work=WorkEstimate()))
        assert dev.profiler.launch_count() == 1

    def test_profiler_breakdown(self):
        dev = GPUDevice(K40)
        self._launch(dev, compute_ops=1e6, coalesced_bytes=1e6, atomic_ops=100)
        breakdown = dev.profiler.breakdown()
        assert breakdown["compute_us"] > 0
        assert breakdown["memory_us"] > 0

    def test_profiler_by_kernel_queries(self):
        dev = GPUDevice(K40)
        kernel_a = Kernel("alpha", 32)
        kernel_b = Kernel("beta", 32)
        dev.launch(KernelLaunch(kernel=kernel_a, work=WorkEstimate(compute_ops=1e6)))
        dev.launch(KernelLaunch(kernel=kernel_b, work=WorkEstimate(compute_ops=1e6)))
        dev.launch(KernelLaunch(kernel=kernel_a, work=WorkEstimate(compute_ops=1e6),
                                fused_continuation=True))
        launched = [r.kernel_name for r in dev.profiler.records if not r.fused]
        assert launched == ["alpha", "beta"]
        assert dev.profiler.launch_count() == 2
        assert dev.profiler.launch_count(include_fused=True) == 3


class _CountingDevice(GPUDevice):
    """Records every launch that reaches the cost formula."""

    def __init__(self, spec=K40):
        super().__init__(spec)
        self.estimated = []

    def estimate(self, launch):
        self.estimated.append(launch)
        return super().estimate(launch)


def _is_idle(launch: KernelLaunch) -> bool:
    return launch.num_ctas == 1 and not launch.work.nonzero()


class TestFixedCostTail:
    """A superstep's charges cost what its non-empty stages cost: an empty
    stage is a table lookup, occupancy is computed once per distinct
    configuration, and none of the tables grows with the number of runs."""

    @pytest.fixture
    def occupancy_keys(self, monkeypatch):
        """Arguments of every call that reached ``compute_occupancy``'s body."""
        keys = []

        def counted(spec, *, registers_per_thread, threads_per_cta, num_ctas=None):
            keys.append((registers_per_thread, threads_per_cta, num_ctas))
            return compute_occupancy(
                spec, registers_per_thread=registers_per_thread,
                threads_per_cta=threads_per_cta, num_ctas=num_ctas,
            )

        monkeypatch.setattr("repro.gpu.device.compute_occupancy", counted)
        return keys

    def test_road_bfs_pays_only_for_non_empty_stages(
        self, road_graph, occupancy_keys, monkeypatch
    ):
        from repro.algorithms import BFS
        from repro.core import pricing
        from repro.core.engine import SIMDXEngine

        stage_vertices = []
        stage_work = pricing.stage_work

        def counting(num_vertices, *args, **kwargs):
            stage_vertices.append(num_vertices)
            return stage_work(num_vertices, *args, **kwargs)

        monkeypatch.setattr(pricing, "stage_work", counting)
        device = _CountingDevice()
        engine = SIMDXEngine(road_graph, device=device)
        result = engine.run(BFS(source=0))
        assert not result.failed

        records = device.profiler.records
        idle_records = [r for r in records if r.busy_us == 0.0]
        # Max out-degree is far below the warp separator: the Warp and CTA
        # stages are empty on every superstep, half of all launches.
        assert len(idle_records) == 2 * len(result.iteration_records)
        assert len(records) == 4 * len(result.iteration_records)

        idle_keys = {
            (launch.kernel, launch.fused_continuation)
            for launch in device.estimated if _is_idle(launch)
        }
        assert sum(_is_idle(launch) for launch in device.estimated) == len(idle_keys)
        assert len(device.estimated) == len(records) - len(idle_records) + len(idle_keys)

        assert len(occupancy_keys) == len(set(occupancy_keys)) == len(device._occupancy)

        # One Thread stage per superstep did work; no empty stage was priced.
        assert all(n > 0 for n in stage_vertices)
        assert len(stage_vertices) == len(result.iteration_records)

        # Bounded state: fifteen more runs on the same engine add nothing.
        sizes = (len(device._occupancy), len(device._idle))
        for _ in range(15):
            engine.run(BFS(source=0))
        assert (len(device._occupancy), len(device._idle)) == sizes
        per_shape = K40.max_ctas_per_smx * K40.num_smx + 1
        shapes = {key[:2] for key in device._occupancy}
        assert len(device._occupancy) <= per_shape * len(shapes)

    @pytest.mark.parametrize("spec", [K20, K40, P100], ids=lambda s: s.name)
    def test_cached_and_memoised_launch_equals_a_fresh_estimate(self, spec):
        rng = np.random.default_rng(18)
        slots = spec.max_ctas_per_smx * spec.num_smx
        kernels = [Kernel("lean", 24), Kernel("fused_push", 48),
                   Kernel("fused_all", 110), Kernel("wide", 64, threads_per_cta=256)]
        device = GPUDevice(spec)
        for _ in range(200):
            kernel = kernels[int(rng.integers(len(kernels)))]
            if rng.random() < 0.3:
                work, num_ctas = WorkEstimate(), 1          # an idle stage
            else:
                work = WorkEstimate(
                    coalesced_bytes=float(rng.integers(0, 10**7)),
                    scattered_transactions=float(rng.integers(0, 10**5)),
                    compute_ops=float(rng.integers(0, 10**7)),
                    atomic_ops=float(rng.integers(0, 10**4)) * (rng.random() < 0.5),
                    atomic_contention=float(rng.choice([1.0, 7.5, 100.0])),
                    warp_primitive_ops=float(rng.integers(0, 10**4)),
                    divergence_fraction=float(rng.choice([0.0, 0.3, 1.0])),
                )
                num_ctas = [None, 0, 1, 2, slots - 1, slots, slots + 1, 10 * slots][
                    int(rng.integers(8))
                ]
            launch = KernelLaunch(kernel, work, num_ctas, bool(rng.random() < 0.5))
            charged = device.launch(launch)
            assert charged == GPUDevice(spec).estimate(launch)   # exact floats
            assert charged.occupancy == compute_occupancy(
                spec, registers_per_thread=kernel.registers_per_thread,
                threads_per_cta=kernel.threads_per_cta, num_ctas=num_ctas,
            )
            assert device.profiler.records[-1] is charged
