"""Best-effort application profiles.

A BE application's user experience is its instruction throughput, reported
as IPC (§I). The model: the application runs ``threads`` worker threads; its
aggregate instruction rate scales with the share of those threads' worth of
cores it actually receives, and degrades with cache pressure and memory
bandwidth contention exactly like LC service rates do.

``IPC`` here is the aggregate instructions-per-cycle across the
application's threads divided by the thread count — i.e. the per-thread
average that the paper plots (Fluidanimate around 1.1–2.6).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError, ModelError
from repro.perfmodel.slowdown import stretch_from_reference
from repro.workloads.base import ApplicationProfile


@dataclass(frozen=True)
class BEProfile(ApplicationProfile):
    """A best-effort application.

    Attributes (beyond :class:`ApplicationProfile`)
    -----------------------------------------------
    base_ipc:
        Per-thread IPC at the reference configuration (solo, full LLC,
        uncontended bandwidth, one core per thread).
    """

    base_ipc: float = 0.0

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.kind.is_lc:
            raise ConfigurationError(f"{self.name}: BEProfile requires a BE kind")
        if self.base_ipc <= 0:
            raise ConfigurationError(f"{self.name}: base_ipc must be positive")

    @property
    def ipc_solo(self) -> float:
        """IPC when running alone with ample resources (``IPC_solo``)."""
        return self.base_ipc

    def ipc(
        self,
        cores: float,
        effective_ways: float,
        bandwidth_stretch: float = 1.0,
        transient_penalty: float = 1.0,
    ) -> float:
        """``IPC_real`` at the current allocation.

        ``cores`` may be fractional (time-sliced shared pools); receiving
        fewer cores than threads scales throughput down proportionally.
        The result is floored at a tiny positive value so the entropy
        formulas never divide by zero when an application is fully starved.
        """
        if cores < 0:
            raise ModelError(f"{self.name}: cores cannot be negative: {cores}")
        if transient_penalty < 1.0:
            raise ModelError(f"{self.name}: transient penalty must be ≥ 1")
        core_fraction = min(1.0, cores / float(self.threads))
        stretch = stretch_from_reference(
            self.curve,
            effective_ways,
            self.reference_miss,
            self.memory_fraction,
            bandwidth_stretch,
        )
        value = self.base_ipc * core_fraction / (stretch * transient_penalty)
        return max(1e-6, value)

    def demand_cores(self) -> float:
        """BE applications are always runnable on all their threads."""
        return float(self.threads)

    def activity(self, cores: float) -> float:
        """Fraction of full-throttle work happening at this core share."""
        if cores < 0:
            raise ModelError(f"{self.name}: cores cannot be negative: {cores}")
        return min(1.0, cores / float(self.threads))
