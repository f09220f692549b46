"""Shared application-profile fields.

Every application — latency-critical or best-effort — is described by a
*profile*: an immutable bundle of the parameters the substrate's
performance models need. Profiles carry no runtime state; per-run state
(backlogs, warm-up) lives in :mod:`repro.cluster`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from repro.errors import ConfigurationError
from repro.server.llc import MissRatioCurve
from repro.types import AppKind


@dataclass(frozen=True)
class ApplicationProfile:
    """Resource-behaviour description common to LC and BE applications.

    Attributes
    ----------
    name:
        Unique application name (catalog key).
    kind:
        Latency-critical or best-effort.
    threads:
        Worker threads; also the maximum number of cores the application
        can exploit. The paper instantiates most applications with 4
        threads and STREAM with 10 (§V).
    curve:
        LLC miss-ratio curve.
    reference_ways:
        LLC ways at which the application's base performance was
        calibrated (solo on the full machine → the full LLC).
    memory_fraction:
        Fraction of execution time spent waiting on memory at the
        reference configuration.
    membw_ref_gbps:
        Memory bandwidth consumed at the reference configuration with all
        threads fully active.
    """

    name: str
    kind: AppKind
    threads: int
    curve: MissRatioCurve
    reference_ways: float
    memory_fraction: float
    membw_ref_gbps: float

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigurationError("application name cannot be empty")
        if self.threads < 1:
            raise ConfigurationError(f"{self.name}: needs at least one thread")
        if self.reference_ways <= 0:
            raise ConfigurationError(f"{self.name}: reference_ways must be positive")
        if not 0.0 <= self.memory_fraction < 1.0:
            raise ConfigurationError(
                f"{self.name}: memory_fraction must be in [0, 1)"
            )
        if self.membw_ref_gbps < 0:
            raise ConfigurationError(
                f"{self.name}: membw_ref_gbps cannot be negative"
            )

    @property
    def is_lc(self) -> bool:
        return self.kind.is_lc

    @cached_property
    def reference_miss(self) -> float:
        """``mr(reference_ways)``: fixed per profile, so computed once."""
        return self.curve.miss_ratio(self.reference_ways)

    def membw_demand_gbps(self, activity: float, effective_ways: float) -> float:
        """Memory bandwidth demanded at the current activity and cache size.

        ``activity`` is the fraction of the application's full-throttle work
        actually happening (core share for BE, utilisation for LC). Demand
        scales with the miss ratio relative to the reference configuration
        (a squeezed cache turns hits into memory traffic) and is *concave*
        in activity: memory-bound applications saturate the channels well
        before all their threads run — half of STREAM's threads already
        pull nearly its peak bandwidth.
        """
        if activity < 0:
            raise ConfigurationError(
                f"{self.name}: activity cannot be negative: {activity}"
            )
        reference_miss = self.reference_miss
        if reference_miss <= 0:
            return 0.0
        miss_scaling = self.curve.miss_ratio(effective_ways) / reference_miss
        effective_activity = min(1.0, 2.0 * min(activity, 1.0))
        # Blend toward linearity for lightly memory-bound applications:
        # their bandwidth follows instruction throughput, not channel
        # saturation.
        concave_share = self.memory_fraction
        scaled = (
            concave_share * effective_activity
            + (1.0 - concave_share) * min(activity, 1.0)
        )
        return self.membw_ref_gbps * scaled * miss_scaling

    def cache_pressure(self, activity: float, effective_ways: float) -> float:
        """Weight used when competing for shared LLC ways.

        Occupancy in a shared LRU cache grows with insertion (miss)
        traffic, but *retention* favours lines that are re-referenced —
        a streaming hog does not displace a hot working set one-for-one.
        The square root of the miss-bandwidth demand captures this
        sub-linear relationship: a 50 GB/s streamer out-pressures a
        5 GB/s search index by ~3×, not 10×.
        """
        return self.membw_demand_gbps(activity, effective_ways) ** 0.5
