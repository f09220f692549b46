"""Queueing models for latency-critical applications.

Two models live here:

* :class:`MMcQueue` — the textbook M/M/c queue with its *exact* sojourn-time
  distribution (Erlang-C waiting probability, exponential waiting tail,
  exponential service). It is validated against the request-level
  discrete-event simulator and serves as the ground truth for the
  approximation below.

* :class:`QueueModel` — the G/G/c-style approximation the substrate
  actually uses. Real Tailbench applications have (a) service times far
  less variable than exponential and (b) a throughput *wall* that is not a
  pure function of core count (software serialisation, batching, harness
  limits). The model therefore separates:

  - **latency scale**: mean per-request service time with a gamma
    (Erlang-like) distribution of coefficient of variation ``service_cv``;
  - **throughput scale**: a capacity in requests/second, supplied by the
    caller (cores × per-core rate, possibly capped by the application's
    wall).

  The p-th percentile sojourn time is approximated as
  ``service-quantile + waiting-quantile`` with the waiting tail
  exponential at rate ``(capacity − λ) · 2/(1 + cv²)`` (Allen–Cunneen
  style) and waiting probability from Erlang-C on the equivalent offered
  load. This produces the hockey-stick curves of Fig. 7: flat at low
  load, exploding at the knee.

* :class:`OverloadState` — a fluid backlog carried across monitoring
  epochs. When ``λ ≥ capacity`` the queue grows and latency is dominated
  by draining the backlog; this is what makes scheduler reaction time
  observable (the paper notes PARTIES' core re-allocations can take
  >500 ms to take effect because of queues that built up).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from scipy import special

from repro.errors import ModelError

#: Latency cap so that fully-starved applications report a large but finite
#: tail latency (milliseconds).
MAX_LATENCY_MS = 1e6

#: Utilisation above which stationary formulas are abandoned for the fluid
#: overload model (stationary percentiles diverge as rho -> 1).
STATIONARY_RHO_LIMIT = 0.995

#: Master switch for the hot-path memoisation below. The uncached path
#: evaluates ``gammaincinv(shape, q) * scale`` afresh on every call, which
#: is how scipy itself computes ``gamma.ppf(q, a, scale)``, so both paths
#: are numerically identical. The switch exists so the perf harness
#: (``benchmarks/perf/bench_sweep.py``) can measure the speedup and the
#: property tests can compare both paths. ``scipy.stats`` is deliberately
#: not imported here: it costs ≈ 0.8 s of every cold ``import repro``, and
#: ``stats.gamma.ppf`` is needed only as the reference oracle in the tests.
_CACHES_ENABLED = True


def set_caches_enabled(enabled: bool) -> None:
    """Enable or disable the gamma-quantile and sojourn-time caches."""
    global _CACHES_ENABLED
    _CACHES_ENABLED = bool(enabled)


def caches_enabled() -> bool:
    """Whether the hot-path memoisation is currently active."""
    return _CACHES_ENABLED


def clear_caches() -> None:
    """Drop all memoised quantiles and sojourn times."""
    _unit_gamma_quantile.cache_clear()
    _cached_sojourn_ms.cache_clear()


@lru_cache(maxsize=4096)
def _unit_gamma_quantile(shape: float, percentile: float) -> float:
    """p-th percentile of Gamma(shape, scale=1).

    The gamma distribution is a scale family, so one cached unit-scale
    quantile serves every service time sharing a CV and percentile:
    ``ppf(p; shape, scale) = ppf(p; shape, 1) · scale``. scipy evaluates
    the scaled ppf exactly this way internally, so multiplying the cached
    value is bit-identical to calling ``scipy.stats.gamma.ppf`` directly —
    minus the per-call ``argsreduce``/broadcast overhead, which dominated
    the simulator's epoch loop before this cache existed.
    """
    return float(special.gammaincinv(shape, percentile / 100.0))


def _require_finite(label: str, value: float) -> None:
    """Reject NaN/±inf inputs with a :class:`ModelError`.

    Sign checks alone are not enough: every comparison against NaN is
    False, so ``x < 0`` guards let corrupt telemetry flow straight into
    the stationary formulas and out as NaN latencies.
    """
    if not math.isfinite(value):
        raise ModelError(f"{label} must be finite, got {value}")


def erlang_c(servers: int, offered_load: float) -> float:
    """Erlang-C probability that an arriving request must wait.

    Parameters
    ----------
    servers:
        Number of servers ``c`` (≥ 1).
    offered_load:
        ``a = λ/μ`` in Erlangs; values ≥ ``c`` (unstable) return 1.0.
    """
    if servers < 1:
        raise ModelError(f"Erlang-C needs at least one server, got {servers}")
    _require_finite("offered load", offered_load)
    if offered_load < 0:
        raise ModelError(f"offered load cannot be negative: {offered_load}")
    if offered_load >= servers:
        return 1.0
    if offered_load == 0:
        return 0.0
    # Iterative Erlang-B, then convert to Erlang-C (numerically stable).
    blocking = 1.0
    for k in range(1, servers + 1):
        blocking = offered_load * blocking / (k + offered_load * blocking)
    rho = offered_load / servers
    return blocking / (1.0 - rho + rho * blocking)


def waiting_probability(servers: float, utilisation: float) -> float:
    """Erlang-C waiting probability with fractional server interpolation."""
    _require_finite("utilisation", utilisation)
    if servers <= 0:
        return 1.0
    if utilisation >= 1.0:
        return 1.0
    if utilisation < 0:
        raise ModelError(f"utilisation cannot be negative: {utilisation}")
    lower = max(1, math.floor(servers))
    upper = math.ceil(servers)
    p_lower = erlang_c(lower, utilisation * lower)
    if upper <= lower:
        return p_lower
    p_upper = erlang_c(upper, utilisation * upper)
    fraction = servers - lower
    return (1.0 - fraction) * p_lower + fraction * p_upper


def concurrency_waiting_probability(slots: float, concurrency: float) -> float:
    """Erlang-C waiting probability over *concurrency slots*.

    ``concurrency = λ · service_time`` (Little's law) is the number of
    requests simultaneously in service; ``slots = capacity · service_time``
    is how many can be in service at once — the self-consistent server
    count of an M/G/c queue whose total completion rate is exactly the
    capacity. For applications whose throughput wall is software (locks,
    batching) rather than CPU, the slot count is far below the thread
    count, and vice versa for internally-pipelined servers. Fractional
    slot counts interpolate between the neighbouring integers; the floor
    of one slot reflects that a single in-flight request never waits.
    """
    _require_finite("concurrency", concurrency)
    if slots <= 0:
        return 1.0
    if concurrency < 0:
        raise ModelError(f"concurrency cannot be negative: {concurrency}")
    if concurrency >= slots:
        return 1.0
    slots = max(1.0, slots)
    if concurrency >= slots:
        return 1.0
    lower = math.floor(slots)
    upper = math.ceil(slots)
    p_lower = erlang_c(lower, concurrency) if concurrency < lower else 1.0
    if upper <= lower:
        return p_lower
    p_upper = erlang_c(upper, concurrency)
    fraction = slots - lower
    return (1.0 - fraction) * p_lower + fraction * p_upper


def service_quantile_ms(
    service_time_ms: float, percentile: float, service_cv: float
) -> float:
    """p-th percentile of a gamma-distributed service time.

    ``service_cv`` is the coefficient of variation: 1.0 reproduces the
    exponential distribution, values near 0 a deterministic service time.
    """
    _require_finite("service time", service_time_ms)
    _require_finite("service CV", service_cv)
    if service_time_ms < 0:
        raise ModelError(f"service time cannot be negative: {service_time_ms}")
    if service_cv < 0:
        raise ModelError(f"service CV cannot be negative: {service_cv}")
    if not 0 < percentile < 100:
        raise ModelError(f"percentile must be in (0, 100), got {percentile}")
    if service_time_ms == 0:
        return 0.0
    if service_cv < 1e-6:
        return service_time_ms
    shape = 1.0 / (service_cv * service_cv)
    scale = service_time_ms / shape
    if not _CACHES_ENABLED:
        return float(special.gammaincinv(shape, percentile / 100.0)) * scale
    # Rounding the shape to 12 decimals folds float noise in the CV into
    # one cache entry; for the catalog's literal CVs it is the identity.
    return _unit_gamma_quantile(round(shape, 12), percentile) * scale


@dataclass(frozen=True)
class QueueModel:
    """G/G/c approximation with an explicit capacity (module docstring).

    Attributes
    ----------
    arrival_rps:
        Request arrival rate λ.
    capacity_rps:
        Sustainable throughput of the whole application at its current
        allocation (cores × per-core rate, capped by the software wall).
    servers:
        Effective parallelism (may be fractional for time-sliced pools);
        only influences the waiting *probability*, not the capacity.
    service_time_ms:
        Mean per-request service time (latency scale).
    service_cv:
        Coefficient of variation of the service time.
    """

    arrival_rps: float
    capacity_rps: float
    servers: float
    service_time_ms: float
    service_cv: float = 1.0

    def __post_init__(self) -> None:
        _require_finite("arrival rate", self.arrival_rps)
        _require_finite("capacity", self.capacity_rps)
        _require_finite("server count", self.servers)
        _require_finite("service time", self.service_time_ms)
        _require_finite("service CV", self.service_cv)
        if self.arrival_rps < 0:
            raise ModelError("arrival rate cannot be negative")
        if self.capacity_rps < 0:
            raise ModelError("capacity cannot be negative")
        if self.servers < 0:
            raise ModelError("server count cannot be negative")
        if self.service_time_ms < 0:
            raise ModelError("service time cannot be negative")
        if self.service_cv < 0:
            raise ModelError("service CV cannot be negative")

    @property
    def utilisation(self) -> float:
        if self.capacity_rps <= 0:
            return float("inf")
        return self.arrival_rps / self.capacity_rps

    @property
    def concurrency(self) -> float:
        """Requests simultaneously in service (Little's law)."""
        return self.arrival_rps * self.service_time_ms / 1e3

    @property
    def slots(self) -> float:
        """Concurrency slots: in-service capacity of the consistent M/G/c."""
        return self.capacity_rps * self.service_time_ms / 1e3

    @property
    def is_stable(self) -> bool:
        return self.utilisation < 1.0

    def waiting_prob(self) -> float:
        """Probability an arrival finds every concurrency slot busy."""
        if self.utilisation >= 1.0:
            return 1.0
        return concurrency_waiting_probability(self.slots, self.concurrency)

    def waiting_quantile_ms(self, percentile: float = 95.0) -> float:
        """p-th percentile of the waiting time (0 when rarely waiting)."""
        if not 0 < percentile < 100:
            raise ModelError(f"percentile must be in (0, 100), got {percentile}")
        rho = self.utilisation
        if rho >= STATIONARY_RHO_LIMIT:
            return MAX_LATENCY_MS
        if self.arrival_rps == 0:
            return 0.0
        wait_prob = self.waiting_prob()
        survival = 1.0 - percentile / 100.0
        if wait_prob <= survival:
            return 0.0
        drain_rps = self.capacity_rps - self.arrival_rps
        tail_rate = drain_rps * 2.0 / (1.0 + self.service_cv * self.service_cv)
        wait_s = math.log(wait_prob / survival) / tail_rate
        return min(MAX_LATENCY_MS, wait_s * 1e3)

    def percentile_ms(self, percentile: float = 95.0) -> float:
        """Approximate p-th percentile sojourn time in milliseconds.

        The sojourn quantile blends the waiting and service contributions
        by the waiting probability: at low load it equals the service
        quantile exactly; near saturation it approaches
        ``waiting-quantile + mean service`` (a request deep in the waiting
        tail is not simultaneously deep in its own service tail). The
        blend is validated against the exact M/M/c distribution and the
        request-level simulator to within a few percent across
        utilisations.
        """
        if not self.is_stable or self.utilisation >= STATIONARY_RHO_LIMIT:
            return MAX_LATENCY_MS
        service_q = service_quantile_ms(
            self.service_time_ms, percentile, self.service_cv
        )
        wait_prob = self.waiting_prob()
        survival = 1.0 - percentile / 100.0
        # The discount weight starts at zero exactly where the waiting
        # quantile does (waiting probability = survival level), so the two
        # terms grow together and the percentile stays monotone in load.
        weight = max(0.0, (wait_prob - survival) / (1.0 - survival))
        blended_service = service_q - (service_q - self.service_time_ms) * weight
        blended = blended_service + self.waiting_quantile_ms(percentile)
        return min(MAX_LATENCY_MS, max(service_q, blended))

    def mean_sojourn_ms(self) -> float:
        """Approximate mean time in system (Allen–Cunneen waiting time)."""
        if not self.is_stable:
            return MAX_LATENCY_MS
        wait_prob = self.waiting_prob()
        drain_rps = self.capacity_rps - self.arrival_rps
        mean_wait_s = (
            wait_prob * (1.0 + self.service_cv * self.service_cv) / (2.0 * drain_rps)
        )
        return min(MAX_LATENCY_MS, (mean_wait_s * 1e3) + self.service_time_ms)


@dataclass(frozen=True)
class MMcQueue:
    """Exact stationary M/M/c queue (validation ground truth)."""

    arrival_rps: float
    service_rate_rps: float
    servers: int

    def __post_init__(self) -> None:
        if self.arrival_rps < 0:
            raise ModelError("arrival rate cannot be negative")
        if self.service_rate_rps <= 0:
            raise ModelError("service rate must be positive")
        if self.servers < 1:
            raise ModelError("server count must be at least 1")

    @property
    def capacity_rps(self) -> float:
        return self.service_rate_rps * self.servers

    @property
    def utilisation(self) -> float:
        return self.arrival_rps / self.capacity_rps

    @property
    def is_stable(self) -> bool:
        return self.utilisation < 1.0

    def sojourn_cdf(self, t_s: float) -> float:
        """Exact CDF of the sojourn time at ``t_s`` seconds."""
        if not self.is_stable:
            return 0.0
        if t_s <= 0:
            return 0.0
        mu = self.service_rate_rps
        wait_prob = erlang_c(self.servers, self.arrival_rps / mu)
        drain = self.capacity_rps - self.arrival_rps
        if abs(drain - mu) < 1e-12 * mu:
            conditional = 1.0 - math.exp(-mu * t_s) * (1.0 + mu * t_s)
        else:
            conditional = 1.0 - (
                drain * math.exp(-mu * t_s) - mu * math.exp(-drain * t_s)
            ) / (drain - mu)
        return (1.0 - wait_prob) * (1.0 - math.exp(-mu * t_s)) + wait_prob * conditional

    def mean_sojourn_ms(self) -> float:
        if not self.is_stable:
            return MAX_LATENCY_MS
        wait_prob = erlang_c(self.servers, self.arrival_rps / self.service_rate_rps)
        drain = self.capacity_rps - self.arrival_rps
        mean_s = 1.0 / self.service_rate_rps + wait_prob / drain
        return min(MAX_LATENCY_MS, mean_s * 1e3)

    def percentile_ms(self, percentile: float = 95.0) -> float:
        """Exact p-th percentile sojourn time via bisection on the CDF."""
        if not 0 < percentile < 100:
            raise ModelError(f"percentile must be in (0, 100), got {percentile}")
        if self.utilisation >= STATIONARY_RHO_LIMIT:
            return MAX_LATENCY_MS
        target = percentile / 100.0
        low = 0.0
        high = -math.log(max(1e-300, 1.0 - target)) / self.service_rate_rps
        while self.sojourn_cdf(high) < target:
            high *= 2.0
            if high * 1e3 > MAX_LATENCY_MS:
                return MAX_LATENCY_MS
        for _ in range(80):
            mid = 0.5 * (low + high)
            if self.sojourn_cdf(mid) < target:
                low = mid
            else:
                high = mid
        return 0.5 * (low + high) * 1e3


@lru_cache(maxsize=131072)
def _cached_sojourn_ms(
    arrival_rps: float,
    capacity_rps: float,
    servers: float,
    service_time_ms: float,
    percentile: float,
    service_cv: float,
) -> float:
    model = QueueModel(
        arrival_rps=arrival_rps,
        capacity_rps=capacity_rps,
        servers=servers,
        service_time_ms=service_time_ms,
        service_cv=service_cv,
    )
    return model.percentile_ms(percentile)


def percentile_sojourn_ms(
    arrival_rps: float,
    capacity_rps: float,
    servers: float,
    service_time_ms: float,
    percentile: float = 95.0,
    service_cv: float = 1.0,
) -> float:
    """Convenience wrapper over :meth:`QueueModel.percentile_ms`.

    Memoised: within a run the scheduler revisits the same (load,
    allocation) operating points epoch after epoch, so the Erlang-C
    interpolation and gamma quantile behind each stationary evaluation are
    computed once per distinct argument tuple instead of once per epoch.
    The function is pure, so memoisation cannot change results.
    """
    if not _CACHES_ENABLED:
        return QueueModel(
            arrival_rps=arrival_rps,
            capacity_rps=capacity_rps,
            servers=servers,
            service_time_ms=service_time_ms,
            service_cv=service_cv,
        ).percentile_ms(percentile)
    return _cached_sojourn_ms(
        arrival_rps, capacity_rps, servers, service_time_ms, percentile, service_cv
    )


#: Maximum queue depth, expressed in seconds of work at the current service
#: capacity. Real serving stacks bound their queues (listen backlogs,
#: admission control, client timeouts); without a bound, a transient
#: mis-allocation would poison tail latency for the rest of a run.
BACKLOG_CAP_S = 0.5


@dataclass
class OverloadState:
    """Backlog carried across monitoring epochs (fluid overload model).

    One instance exists per LC application inside the cluster simulator.
    :meth:`step` advances one epoch and returns the epoch's observed
    percentile latency in milliseconds. All stationary evaluations go
    through the memoised :func:`percentile_sojourn_ms`, so an epoch at an
    already-seen operating point costs one dict lookup instead of an
    Erlang-C interpolation plus a scipy gamma quantile.
    """

    backlog_requests: float = 0.0
    backlog_cap_s: float = BACKLOG_CAP_S

    def step(
        self,
        arrival_rps: float,
        capacity_rps: float,
        servers: float,
        service_time_ms: float,
        epoch_s: float,
        percentile: float = 95.0,
        service_cv: float = 1.0,
    ) -> float:
        """Advance one epoch; returns the p-th percentile latency (ms)."""
        _require_finite("epoch length", epoch_s)
        _require_finite("arrival rate", arrival_rps)
        _require_finite("capacity", capacity_rps)
        _require_finite("service time", service_time_ms)
        if epoch_s <= 0:
            raise ModelError(f"epoch length must be positive: {epoch_s}")
        if arrival_rps < 0:
            raise ModelError(f"arrival rate cannot be negative: {arrival_rps}")
        if capacity_rps <= 0:
            # Completely starved: nothing drains, everything queues.
            self.backlog_requests += arrival_rps * epoch_s
            return MAX_LATENCY_MS

        net_rps = arrival_rps - capacity_rps
        backlog_start = self.backlog_requests
        backlog_limit = capacity_rps * self.backlog_cap_s
        self.backlog_requests = min(
            backlog_limit, max(0.0, backlog_start + net_rps * epoch_s)
        )

        rho = arrival_rps / capacity_rps
        negligible_backlog = backlog_start * 1e3 / capacity_rps < 1.0  # < 1 ms
        if negligible_backlog and rho < STATIONARY_RHO_LIMIT:
            return percentile_sojourn_ms(
                arrival_rps,
                capacity_rps,
                servers,
                service_time_ms,
                percentile,
                service_cv,
            )

        # Fluid regime: a request arriving at time t waits for the backlog
        # in front of it. The p-th percentile across the epoch's (uniform)
        # arrivals sits at t = p·T when the backlog is growing and at
        # t = (1−p)·T when it is draining.
        quantile_time = (
            (percentile / 100.0) * epoch_s
            if net_rps >= 0
            else (1.0 - percentile / 100.0) * epoch_s
        )
        backlog_at_quantile = min(
            backlog_limit, max(0.0, backlog_start + net_rps * quantile_time)
        )
        fluid_wait_ms = backlog_at_quantile * 1e3 / capacity_rps

        # Baseline service (+ mild queueing) latency on top of the drain.
        base_arrival = min(arrival_rps, 0.9 * capacity_rps)
        base_ms = percentile_sojourn_ms(
            base_arrival, capacity_rps, servers, service_time_ms, percentile, service_cv
        )
        return min(MAX_LATENCY_MS, fluid_wait_ms + base_ms)

    def reset(self) -> None:
        self.backlog_requests = 0.0
