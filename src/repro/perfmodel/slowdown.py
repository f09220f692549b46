"""Composition of core/cache/bandwidth effects into service rates.

The substrate needs one scalar per application per epoch: how fast does a
unit of work complete given the application's *effective* resources? We use
a two-phase work model: a fraction of each request (or instruction window)
is compute-bound and scales only with core speed; the remaining
memory-bound fraction scales with the LLC miss ratio and the memory access
latency (bandwidth stretch).

Calibration convention: an application's ``base`` rate is measured at a
*reference* configuration — running alone with ``reference_ways`` of LLC
and uncontended memory. :func:`memory_time_stretch` then answers "how much
longer does the same work take at this configuration?".
"""

from __future__ import annotations

from repro.errors import ModelError
from repro.server.llc import MissRatioCurve


def memory_time_stretch(
    curve: MissRatioCurve,
    effective_ways: float,
    reference_ways: float,
    memory_fraction: float,
    bandwidth_stretch: float = 1.0,
) -> float:
    """Execution-time multiplier relative to the reference configuration.

    Parameters
    ----------
    curve:
        The application's miss-ratio curve.
    effective_ways:
        LLC ways the application effectively occupies now.
    reference_ways:
        Ways at which the application's base rate was calibrated
        (typically the full LLC, solo).
    memory_fraction:
        Fraction of execution time spent waiting on memory at the
        reference configuration, in [0, 1).
    bandwidth_stretch:
        Memory-access latency multiplier from channel contention (≥ 1).

    Returns
    -------
    float
        ``(1 − m) + m · (mr(w)/mr(w_ref)) · stretch`` — 1.0 exactly at the
        reference configuration, larger when cache shrinks or bandwidth
        saturates.
    """
    if not 0.0 <= memory_fraction < 1.0:
        raise ModelError(f"memory fraction must be in [0, 1), got {memory_fraction}")
    if reference_ways <= 0:
        raise ModelError(f"reference ways must be positive, got {reference_ways}")
    return stretch_from_reference(
        curve,
        effective_ways,
        curve.miss_ratio(reference_ways),
        memory_fraction,
        bandwidth_stretch,
    )


def stretch_from_reference(
    curve: MissRatioCurve,
    effective_ways: float,
    reference_miss: float,
    memory_fraction: float,
    bandwidth_stretch: float = 1.0,
) -> float:
    """:func:`memory_time_stretch` given ``reference_miss = mr(w_ref)``.

    For callers that hold the reference miss ratio as a per-profile
    constant and validated ``memory_fraction`` and ``reference_ways``
    when the profile was built; ``bandwidth_stretch`` varies per call and
    is checked here.
    """
    if bandwidth_stretch < 1.0:
        raise ModelError(f"bandwidth stretch must be ≥ 1, got {bandwidth_stretch}")
    if reference_miss <= 0:
        # A perfectly cache-resident application has no memory-bound phase.
        return 1.0
    miss_scaling = curve.miss_ratio(effective_ways) / reference_miss
    return (1.0 - memory_fraction) + memory_fraction * miss_scaling * bandwidth_stretch


def service_rate_per_core(
    base_rate_rps: float,
    curve: MissRatioCurve,
    effective_ways: float,
    reference_ways: float,
    memory_fraction: float,
    bandwidth_stretch: float = 1.0,
    transient_penalty: float = 1.0,
) -> float:
    """Per-core request completion rate at the current configuration.

    ``base_rate_rps`` is the per-core rate at the reference configuration;
    the result divides it by the execution-time stretch and an optional
    transient penalty (cache warm-up / context-switch overhead in the epoch
    following a re-allocation).
    """
    if base_rate_rps <= 0:
        raise ModelError(f"base rate must be positive, got {base_rate_rps}")
    if transient_penalty < 1.0:
        raise ModelError(f"transient penalty must be ≥ 1, got {transient_penalty}")
    stretch = memory_time_stretch(
        curve, effective_ways, reference_ways, memory_fraction, bandwidth_stretch
    )
    return base_rate_rps / (stretch * transient_penalty)


def instruction_rate(
    base_ips: float,
    curve: MissRatioCurve,
    effective_ways: float,
    reference_ways: float,
    memory_fraction: float,
    bandwidth_stretch: float = 1.0,
    core_fraction: float = 1.0,
) -> float:
    """Aggregate instruction throughput of a best-effort application.

    ``base_ips`` is the solo throughput at the reference configuration with
    all its threads running; ``core_fraction`` scales it by the share of
    needed cores actually granted (time-slicing in a shared pool).
    """
    if base_ips <= 0:
        raise ModelError(f"base instruction rate must be positive, got {base_ips}")
    if not 0.0 <= core_fraction <= 1.0:
        raise ModelError(f"core fraction must be in [0, 1], got {core_fraction}")
    stretch = memory_time_stretch(
        curve, effective_ways, reference_ways, memory_fraction, bandwidth_stretch
    )
    return base_ips * core_fraction / stretch
