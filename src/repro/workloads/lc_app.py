"""Latency-critical application profiles, calibrated to Table IV.

An LC application is a queueing system (:class:`repro.perfmodel.queueing.
QueueModel`) with two separate scales:

* a **latency scale** — the mean per-request service time (gamma
  distributed with coefficient of variation ``service_cv``), which sets
  the ideal tail latency ``TL_i0``;
* a **throughput scale** — the application's sustainable request rate
  ``wall_rps`` with all its threads running, which sets where the
  tail-latency knee sits. Granting ``c < threads`` cores scales capacity
  to ``wall · c/threads``; interference (cache squeeze, bandwidth
  saturation) stretches service time and shrinks capacity by the same
  factor.

Calibration (:func:`calibrate_lc_profile`) reproduces two anchors from the
paper for each application:

* the ideal tail latency ``TL_i0`` at 20% load with ample resources
  (Table II's constants), and
* the tail-latency threshold ``M_i`` being reached exactly at max load
  (Table IV's definition: the threshold *is* the latency at the knee).
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Optional

from repro.errors import ConfigurationError, ModelError
from repro.perfmodel.queueing import QueueModel, service_quantile_ms
from repro.perfmodel.slowdown import stretch_from_reference
from repro.server.llc import MissRatioCurve
from repro.types import AppKind, QoSTarget
from repro.workloads.base import ApplicationProfile

#: Memoised reserve_cores results — (model fields, load, safety) → cores.
_RESERVE_CACHE: dict = {}


@dataclass(frozen=True)
class LCProfile(ApplicationProfile):
    """A latency-critical application.

    Attributes (beyond :class:`ApplicationProfile`)
    -----------------------------------------------
    max_load_qps:
        Maximum sustainable load (Table IV "Max Load").
    threshold_ms:
        Tail-latency threshold ``M_i`` (Table IV).
    service_time_ms:
        Calibrated mean per-request service time at the reference
        configuration.
    wall_rps:
        Calibrated sustainable throughput with all threads at the
        reference configuration.
    service_cv:
        Coefficient of variation of the service time.
    base_latency_ms:
        Deterministic latency floor added on top of queueing delay
        (network/framework overhead); usually 0 after calibration.
    percentile:
        Latency percentile of the QoS target (95 in the paper).
    """

    max_load_qps: float = 0.0
    threshold_ms: float = 0.0
    service_time_ms: float = 0.0
    wall_rps: float = 0.0
    service_cv: float = 0.25
    base_latency_ms: float = 0.0
    percentile: float = 95.0

    def __post_init__(self) -> None:
        super().__post_init__()
        if not self.kind.is_lc:
            raise ConfigurationError(f"{self.name}: LCProfile requires an LC kind")
        if self.max_load_qps <= 0:
            raise ConfigurationError(f"{self.name}: max_load_qps must be positive")
        if self.threshold_ms <= 0:
            raise ConfigurationError(f"{self.name}: threshold_ms must be positive")
        if self.service_time_ms <= 0:
            raise ConfigurationError(f"{self.name}: service_time_ms must be positive")
        if self.wall_rps <= self.max_load_qps:
            raise ConfigurationError(
                f"{self.name}: wall_rps must exceed max_load_qps for the max "
                "load to be sustainable"
            )
        if self.service_cv < 0:
            raise ConfigurationError(f"{self.name}: service_cv cannot be negative")
        if self.base_latency_ms < 0:
            raise ConfigurationError(
                f"{self.name}: base_latency_ms cannot be negative"
            )

    @property
    def qos(self) -> QoSTarget:
        return QoSTarget(tail_latency_ms=self.threshold_ms, percentile=self.percentile)

    @property
    def per_core_rate_rps(self) -> float:
        """Throughput contributed by one core at the reference config."""
        return self.wall_rps / float(self.threads)

    def arrival_rps(self, load_fraction: float) -> float:
        """Absolute arrival rate at a fractional load level."""
        if load_fraction < 0:
            raise ModelError(f"{self.name}: load fraction cannot be negative")
        return load_fraction * self.max_load_qps

    def stretch(
        self, effective_ways: float, bandwidth_stretch: float = 1.0
    ) -> float:
        """Execution-time multiplier from cache/bandwidth interference."""
        return stretch_from_reference(
            self.curve,
            effective_ways,
            self.reference_miss,
            self.memory_fraction,
            bandwidth_stretch,
        )

    def capacity_rps(
        self,
        cores: float,
        effective_ways: float,
        bandwidth_stretch: float = 1.0,
        transient_penalty: float = 1.0,
        parallelism: Optional[int] = None,
    ) -> float:
        """Sustainable throughput at the current allocation.

        ``parallelism`` overrides the thread count (used by the Fig. 7
        load-curve experiment, which re-instantiates applications with as
        many threads as cores).
        """
        if cores < 0:
            raise ModelError(f"{self.name}: cores cannot be negative")
        if transient_penalty < 1.0:
            raise ModelError(f"{self.name}: transient penalty must be ≥ 1")
        threads = float(self.threads if parallelism is None else parallelism)
        stretch = self.stretch(effective_ways, bandwidth_stretch) * transient_penalty
        core_fraction = min(cores, threads) / float(self.threads)
        return self.wall_rps * core_fraction / stretch

    def queue_model(
        self,
        load_fraction: float,
        cores: float,
        effective_ways: float,
        bandwidth_stretch: float = 1.0,
        transient_penalty: float = 1.0,
        parallelism: Optional[int] = None,
    ) -> QueueModel:
        """The stationary queue at the given load and allocation."""
        threads = float(self.threads if parallelism is None else parallelism)
        stretch = self.stretch(effective_ways, bandwidth_stretch) * transient_penalty
        return QueueModel(
            arrival_rps=self.arrival_rps(load_fraction),
            capacity_rps=self.capacity_rps(
                cores,
                effective_ways,
                bandwidth_stretch,
                transient_penalty,
                parallelism,
            ),
            servers=min(cores, threads),
            service_time_ms=self.service_time_ms * stretch,
            service_cv=self.service_cv,
        )

    def tail_latency_ms(
        self,
        load_fraction: float,
        cores: float,
        effective_ways: float,
        bandwidth_stretch: float = 1.0,
        transient_penalty: float = 1.0,
        parallelism: Optional[int] = None,
    ) -> float:
        """Stationary tail latency at the given allocation (no backlog)."""
        model = self.queue_model(
            load_fraction,
            cores,
            effective_ways,
            bandwidth_stretch,
            transient_penalty,
            parallelism,
        )
        return self.base_latency_ms + model.percentile_ms(self.percentile)

    def ideal_latency_ms(self, load_fraction: float) -> float:
        """``TL_i0``: tail latency with ample resources (solo, full cache).

        Calibration pins the knee so that ``TL_i0`` meets ``M_i`` exactly
        at 100% of max load; float round-off can land one ulp above, so
        the result is clamped to the threshold — the entropy layer treats
        ``TL_i0 > M_i`` as an unsatisfiable QoS target and rejects it.
        """
        latency = self.tail_latency_ms(
            load_fraction,
            cores=float(self.threads),
            effective_ways=self.reference_ways,
        )
        if load_fraction <= 1.0:
            return min(latency, self.threshold_ms)
        return latency

    def demand_cores(self, load_fraction: float, headroom: float = 0.1) -> float:
        """CPU time the application actually *consumes* at this load.

        Used for CFS water-filling: the OS grants what threads consume,
        and the calibration ties the max load to the full thread count,
        so an application at ``x`` of its max load burns ``x`` of its
        threads' worth of cores (plus wake-up/preemption headroom). For
        the capacity a QoS-aware scheduler should *reserve*, see
        :meth:`reserve_cores` — the two differ markedly for applications
        with tight latency budgets.
        """
        if headroom < 0:
            raise ModelError(f"{self.name}: headroom cannot be negative")
        if load_fraction < 0:
            raise ModelError(f"{self.name}: load fraction cannot be negative")
        needed = load_fraction * float(self.threads)
        return min(float(self.threads), max(0.05, needed * (1.0 + headroom)))

    def reserve_cores(self, load_fraction: float, safety: float = 0.8) -> float:
        """Smallest core count keeping the tail below ``safety × M_i``.

        Solved by bisection at the reference cache/bandwidth state and
        memoised per (model, load, safety): the model is every profile
        field except the display ``name``, so renamed replicas share one
        entry while a profile with any model field changed gets its own.
        Applications whose thresholds are tight relative to their request
        rate (e.g. Silo: millisecond budget, tens of requests per second)
        legitimately need far more reserved capacity than their raw
        utilisation suggests — keeping the waiting probability under the
        QoS percentile's survival level requires low utilisation.
        """
        if not 0 < safety <= 1:
            raise ModelError(f"{self.name}: safety must be in (0, 1]")
        if load_fraction < 0:
            raise ModelError(f"{self.name}: load fraction cannot be negative")
        key = (
            tuple(getattr(self, name) for name in _MODEL_FIELDS),
            round(load_fraction, 6),
            safety,
        )
        cached = _RESERVE_CACHE.get(key)
        if cached is not None:
            return cached

        target_ms = safety * self.threshold_ms
        threads = float(self.threads)

        def tail(cores: float) -> float:
            return self.tail_latency_ms(load_fraction, cores, self.reference_ways)

        if tail(threads) > target_ms:
            reserve = threads  # even all cores cannot hit the safety target
        else:
            low, high = 0.02, threads
            for _ in range(40):
                mid = 0.5 * (low + high)
                if tail(mid) > target_ms:
                    low = mid
                else:
                    high = mid
            reserve = high
        reserve = min(threads, max(0.05, reserve))
        _RESERVE_CACHE[key] = reserve
        return reserve


#: The fields a reservation depends on: all but the display name.
_MODEL_FIELDS = tuple(f.name for f in fields(LCProfile) if f.name != "name")


def calibrate_lc_profile(
    name: str,
    threshold_ms: float,
    max_load_qps: float,
    ideal_at_20pct_ms: float,
    curve: MissRatioCurve,
    memory_fraction: float,
    membw_ref_gbps: float,
    threads: int = 4,
    reference_ways: float = 20.0,
    percentile: float = 95.0,
    service_cv: float = 0.25,
) -> LCProfile:
    """Solve for ``(service_time, wall)`` matching the paper's anchors.

    A short fixed-point iteration: the service time is set so the 20%-load
    tail latency equals ``TL_i0`` (given the current estimate of low-load
    waiting), and the wall is bisected so the tail latency at max load
    equals ``M_i``.
    """
    if ideal_at_20pct_ms >= threshold_ms:
        raise ConfigurationError(
            f"{name}: ideal latency {ideal_at_20pct_ms} must be below the "
            f"threshold {threshold_ms}"
        )

    quantile_factor = service_quantile_ms(1.0, percentile, service_cv)
    low_load_rps = 0.2 * max_load_qps

    def latency_at(arrival_rps: float, service_ms: float, wall_rps: float) -> float:
        return QueueModel(
            arrival_rps=arrival_rps,
            capacity_rps=wall_rps,
            servers=float(threads),
            service_time_ms=service_ms,
            service_cv=service_cv,
        ).percentile_ms(percentile)

    service_ms = ideal_at_20pct_ms / quantile_factor
    wall = max_load_qps * 2.0

    # Each loop body below is a pure function of its loop state, so once
    # one iteration leaves the state unchanged every later iteration would
    # reproduce it: stopping there returns exactly what running to the cap
    # returns (≈ 55 bisection steps and 2 outer passes instead of 180 × 10).
    for _ in range(10):
        previous_service_ms, previous_wall = service_ms, wall
        # Latency anchor: p-th percentile at 20% load equals TL_i0.
        # Monotone increasing in the service time → bisection.
        svc_low, svc_high = 1e-9, ideal_at_20pct_ms
        for _ in range(80):
            svc_mid = 0.5 * (svc_low + svc_high)
            if latency_at(low_load_rps, svc_mid, wall) < ideal_at_20pct_ms:
                if svc_low == svc_mid:
                    break
                svc_low = svc_mid
            else:
                if svc_high == svc_mid:
                    break
                svc_high = svc_mid
        service_ms = 0.5 * (svc_low + svc_high)

        # Knee anchor: percentile at max load equals M_i.
        # Monotone decreasing in the wall → bisection.
        wall_low = max_load_qps * 1.0001
        wall_high = max_load_qps * 1000.0
        if latency_at(max_load_qps, service_ms, wall_high) > threshold_ms:
            raise ConfigurationError(
                f"{name}: anchors unsatisfiable — even an enormous wall "
                "leaves the knee above the threshold"
            )
        for _ in range(100):
            wall_mid = 0.5 * (wall_low + wall_high)
            if latency_at(max_load_qps, service_ms, wall_mid) > threshold_ms:
                if wall_low == wall_mid:
                    break
                wall_low = wall_mid
            else:
                if wall_high == wall_mid:
                    break
                wall_high = wall_mid
        wall = 0.5 * (wall_low + wall_high)
        if service_ms == previous_service_ms and wall == previous_wall:
            break

    return LCProfile(
        name=name,
        kind=AppKind.LATENCY_CRITICAL,
        threads=threads,
        curve=curve,
        reference_ways=reference_ways,
        memory_fraction=memory_fraction,
        membw_ref_gbps=membw_ref_gbps,
        max_load_qps=max_load_qps,
        threshold_ms=threshold_ms,
        service_time_ms=service_ms,
        wall_rps=wall,
        service_cv=service_cv,
        base_latency_ms=0.0,
        percentile=percentile,
    )
