"""Software global barrier with the deadlock-freedom check (Section 5).

GPUs have no device-wide barrier a kernel can call, so fusing kernels across
iterations requires a *software* global barrier: worker CTAs flip a flag in a
``lock`` array on arrival and spin until a monitor CTA flips every flag to
"depart" (simulated here by its cost alone - the flags of a round are only
ever all set, then all cleared, so no state outlives a round). The paper's
observation is that this deadlocks whenever more CTAs are launched than can
be simultaneously resident - non-resident CTAs can never arrive because the
resident (spinning) ones never release their SMX resources.

SIMD-X sidesteps the problem by computing the resident-CTA bound from the
kernel's register footprint at compile time (Eq. 1, implemented in
:func:`repro.gpu.registers.compute_cta_count`) and launching exactly that
many CTAs. The :class:`SoftwareGlobalBarrier` here enforces the same
condition: constructing it for an over-subscribed launch raises
:class:`BarrierDeadlockError` unless deadlock checking is explicitly
disabled, in which case :meth:`synchronize` reports the deadlock the way a
hung kernel would - this is used by tests and by the fusion ablation to
demonstrate the failure mode the paper describes for prior work.
"""

from __future__ import annotations

from repro.gpu.device import GPUSpec
from repro.gpu.kernel import Kernel
from repro.gpu.registers import compute_cta_count


class BarrierDeadlockError(RuntimeError):
    """Raised when a software global barrier would hang on real hardware."""


class SoftwareGlobalBarrier:
    """Lock-array style global barrier between CTAs of a persistent kernel.

    Parameters
    ----------
    spec:
        Device the fused kernel runs on.
    kernel:
        The fused kernel (its register footprint bounds residency).
    num_ctas:
        CTAs actually launched. Defaults to the deadlock-free count.
    check_deadlock:
        When True (default), constructing an over-subscribed barrier raises
        immediately - this is SIMD-X's compile-time guarantee. When False,
        the over-subscription is only detected at :meth:`synchronize`,
        modelling the runtime hang of prior-work barriers.
    """

    #: Simulated cost of one global synchronization: every CTA performs one
    #: global write (arrival) and polls until the monitor's release write
    #: becomes visible; on real hardware this is on the order of a few
    #: microseconds, far cheaper than a kernel relaunch.
    SYNC_COST_PER_CTA_US = 0.001
    SYNC_BASE_COST_US = 0.5

    def __init__(
        self,
        spec: GPUSpec,
        kernel: Kernel,
        *,
        num_ctas: int | None = None,
        check_deadlock: bool = True,
    ):
        self.spec = spec
        self.kernel = kernel
        self.max_resident_ctas = compute_cta_count(
            spec,
            registers_per_thread=kernel.registers_per_thread,
            threads_per_cta=kernel.threads_per_cta,
        )
        self.num_ctas = num_ctas if num_ctas is not None else self.max_resident_ctas
        if self.num_ctas <= 0:
            raise ValueError("a barrier needs at least one CTA")

        if check_deadlock and not self.is_deadlock_free:
            raise BarrierDeadlockError(
                f"{kernel.name}: launching {self.num_ctas} CTAs but only "
                f"{self.max_resident_ctas} can be resident on {spec.name} "
                f"({kernel.registers_per_thread} regs/thread x "
                f"{kernel.threads_per_cta} threads/CTA); the software global "
                "barrier would deadlock"
            )

    @property
    def is_deadlock_free(self) -> bool:
        """True when every launched CTA can be simultaneously resident."""
        return self.num_ctas <= self.max_resident_ctas

    def synchronize(self) -> float:
        """Run one arrival/departure round; returns simulated cost in us.

        Raises :class:`BarrierDeadlockError` for an over-subscribed launch,
        because the non-resident CTAs can never reach their arrival write.
        """
        if not self.is_deadlock_free:
            raise BarrierDeadlockError(
                f"{self.kernel.name}: barrier hang - "
                f"{self.num_ctas - self.max_resident_ctas} CTAs can never arrive"
            )
        return self.SYNC_BASE_COST_US + self.SYNC_COST_PER_CTA_US * self.num_ctas

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "ok" if self.is_deadlock_free else "DEADLOCK"
        return (
            f"SoftwareGlobalBarrier({self.kernel.name}, ctas={self.num_ctas}/"
            f"{self.max_resident_ctas} resident, {state})"
        )
