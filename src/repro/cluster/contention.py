"""Resolve a region plan plus current loads into effective resources.

This is the physics of the substrate: given who owns what (the plan) and
how hard everyone is pushing (the loads), compute what each application
*actually* gets this epoch:

1. **Cores** — isolated cores are private. Within the shared region, core
   time is water-filled by demand (CFS) or LC-priority (RT / ARQ's shared
   region rule); leftover shared capacity is handed out as burst headroom,
   because a CFS task can always soak up idle cycles.
2. **LLC ways** — isolated ways are private; shared ways are occupied in
   proportion to cache pressure with a conflict discount. Effective ways
   move toward their target with an exponential warm-up (a re-partitioned
   way is not instantly warm — §IV-D's re-partitioning overhead).
3. **Memory bandwidth** — per-application demands (scaled by miss traffic)
   are clipped by isolated-region caps and then contend for the node's
   channels; over-subscription stretches everyone's memory latency.
4. **Transients** — an application whose core/way allocation just changed
   pays a one-epoch penalty (context switches, cache warm-up).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Mapping, Optional, Tuple

from repro.errors import SchedulingError
from repro.schedulers.base import RegionPlan, SchedulerContext
from repro.server.cores import CoreDemand, CorePolicy, share_cores
from repro.server.llc import shared_way_occupancy
from repro.server.membw import bandwidth_stretch, capped_demands, throttle_factors

#: Fraction of the way-occupancy gap closed per epoch (cache warm-up).
WAY_WARMUP_RATE = 0.6
#: Extra demand headroom granted to LC applications in LC-priority pools:
#: a real-time thread preempts whenever runnable, so its effective claim
#: sits above its mean utilisation (but well below full cores — it still
#: sleeps between requests).
RT_DEMAND_MULTIPLIER = 1.3
#: One-epoch service penalty after a core re-assignment.
CORE_CHANGE_PENALTY = 1.05
#: One-epoch service penalty after a way re-partitioning.
WAY_CHANGE_PENALTY = 1.02
#: Cache-pressure multiplier for LC members of an LC-priority shared pool:
#: real-time threads run whenever runnable, so their lines are re-referenced
#: far more often than the preempted best-effort tenants' — LRU retention
#: follows. This is what lets LC applications "quickly preempt the resources
#: in the shared region" when load spikes (§VI-B).
LC_PRIORITY_CACHE_BOOST = 3.0


#: p95 scheduling (run-queue/wake-up) delay per unit of pool
#: over-subscription in a completely-fair pool. A woken latency-critical
#: thread in an oversubscribed CFS pool waits for a slice behind the
#: always-runnable best-effort hogs; at real overcommit ratios the 95th
#: percentile of this delay reaches tens of milliseconds — the reason
#: operators pin LC applications. Real-time priority (LC-first, ARQ's
#: shared region) eliminates it, which is exactly the LC-first baseline's
#: advantage in the paper.
SCHED_DELAY_SCALE_MS = 40.0


@dataclass(frozen=True)
class EffectiveResources:
    """What one application actually gets in one epoch."""

    name: str
    cores: float
    ways: float
    bandwidth_multiplier: float
    transient_penalty: float
    activity: float
    sched_delay_ms: float = 0.0


@dataclass
class ContentionState:
    """Warm-up state carried across epochs.

    ``fixed_point`` remembers the last call that left the three warm-up
    dicts unchanged: its context, plan, loads, the state dicts it left
    and its result. A call with the same inputs against the same dicts
    is that computation again, so :func:`resolve_contention` returns the
    remembered result instead of recomputing it.
    """

    effective_ways: Dict[str, float] = field(default_factory=dict)
    previous_cores: Dict[str, float] = field(default_factory=dict)
    previous_plan_ways: Dict[str, float] = field(default_factory=dict)
    fixed_point: Optional[tuple] = field(
        default=None, init=False, repr=False, compare=False
    )


def _core_allocation(
    context: SchedulerContext,
    plan: RegionPlan,
    loads: Mapping[str, float],
    previous_ways: Mapping[str, float],
) -> Tuple[Dict[str, float], float]:
    """Per-application effective cores (isolated + shared grant + burst),
    and the fair-pool scheduling delay in milliseconds.

    An LC application's core demand is scaled by its current execution-time
    stretch (estimated from last epoch's effective cache): a cache-squeezed
    request takes longer on the CPU, and the OS scheduler sees exactly that
    inflated CPU usage.
    """
    cores: Dict[str, float] = {}
    runnable_threads = 0.0
    demands = []
    for name in context.app_names:
        iso_cores = plan.isolated_of(name).cores
        threads = float(context.threads_of(name))
        if name in context.lc_profiles:
            profile = context.lc_profiles[name]
            stretch = profile.stretch(
                previous_ways.get(name, profile.reference_ways)
            )
            want = profile.demand_cores(loads.get(name, 0.0)) * stretch
        else:
            want = threads
        if name in plan.shared_members:
            runnable_threads += min(want, threads)
        is_lc = name in context.lc_profiles
        if is_lc and plan.shared_policy is CorePolicy.LC_PRIORITY:
            want = want * RT_DEMAND_MULTIPLIER
        cores[name] = min(iso_cores, threads)
        if name in plan.shared_members:
            residual = max(0.0, min(want, threads) - iso_cores)
            demands.append(
                CoreDemand(
                    name=name,
                    weight=threads,
                    demand=residual,
                    is_lc=is_lc,
                )
            )
    grants = share_cores(plan.shared.cores, demands, plan.shared_policy)
    for name, grant in grants.items():
        cores[name] += grant

    # Burst headroom for latency-critical members. Two mechanisms let an
    # LC application's short bursts exceed its sustained grant:
    #
    # * idle shared cycles are available to *every* member's transient
    #   bursts (bursts are short and largely uncorrelated, so each
    #   application sees the idle capacity, not a 1/n slice — the
    #   statistical-multiplexing benefit §IV-A's space-time model
    #   illustrates);
    # * even in a saturated pool, wake-up preemption lets a sleeping LC
    #   thread claim CPU up to its *fair share* immediately (CFS credits
    #   sleepers; RT priority preempts outright), so burst capacity never
    #   falls below the weight share.
    #
    # BE throughput is sustained, not bursty, so BE members keep their
    # water-filled grants.
    leftover = plan.shared.cores - sum(grants.values())
    total_weight = sum(d.weight for d in demands) or 1.0
    for d in demands:
        if not d.is_lc:
            continue
        fair_share = plan.shared.cores * d.weight / total_weight
        threads = float(context.threads_of(d.name))
        iso = min(plan.isolated_of(d.name).cores, threads)
        cores[d.name] = max(cores[d.name], min(threads, iso + fair_share))
        room = max(0.0, threads - cores[d.name])
        cores[d.name] += min(room, max(0.0, leftover))

    # Scheduling delay: in a completely-fair pool, oversubscription makes
    # woken LC threads queue behind the runnable hogs.
    delay_ms = 0.0
    if plan.shared_policy is CorePolicy.FAIR and plan.shared.cores > 0:
        overcommit = max(0.0, runnable_threads / plan.shared.cores - 1.0)
        delay_ms = SCHED_DELAY_SCALE_MS * overcommit
    return cores, delay_ms


def _way_targets(
    context: SchedulerContext,
    plan: RegionPlan,
    activities: Mapping[str, float],
    previous_ways: Mapping[str, float],
) -> Dict[str, float]:
    """Target effective ways: isolated + pressure-proportional shared."""
    profiles = {**context.lc_profiles, **context.be_profiles}
    pressures = {}
    # Sorted: shared_members is a frozenset, and the occupancy sums below
    # must not depend on the interpreter's hash seed.
    for name in sorted(plan.shared_members):
        profile = profiles[name]
        ways_guess = previous_ways.get(name, profile.reference_ways)
        pressure = profile.cache_pressure(activities.get(name, 0.0), ways_guess)
        if (
            plan.shared_policy is CorePolicy.LC_PRIORITY
            and name in context.lc_profiles
        ):
            pressure *= LC_PRIORITY_CACHE_BOOST
        pressures[name] = pressure
    occupancy = shared_way_occupancy(plan.shared.llc_ways, pressures)
    targets = {}
    for name in context.app_names:
        targets[name] = plan.isolated_of(name).llc_ways + occupancy.get(name, 0.0)
    return targets


def resolve_contention(
    context: SchedulerContext,
    plan: RegionPlan,
    loads: Mapping[str, float],
    state: Optional[ContentionState] = None,
) -> Dict[str, EffectiveResources]:
    """Compute every application's effective resources for one epoch.

    ``state`` carries cache warm-up and change-detection across epochs;
    pass ``None`` for a stateless steady-state resolution (used by
    analytic experiments that do not care about transients).

    With a ``state``, a call whose context and plan are the same objects
    as the state's last fixed point, whose loads compare equal to it and
    whose warm-up dicts are still the ones that call left, returns that
    call's result dict unchanged (callers must not mutate it).
    """
    plan.validate(context.node)
    if state is not None and state.fixed_point is not None:
        (
            last_context,
            last_plan,
            last_loads,
            last_ways,
            last_cores,
            last_plan_ways,
            last_results,
        ) = state.fixed_point
        if (
            last_context is context
            and last_plan is plan
            and last_ways is state.effective_ways
            and last_cores is state.previous_cores
            and last_plan_ways is state.previous_plan_ways
            and last_loads == loads
        ):
            return last_results
    profiles = {**context.lc_profiles, **context.be_profiles}
    for name in sorted(plan.shared_members):
        if name not in profiles:
            raise SchedulingError(f"shared member {name!r} is not collocated here")

    transient = state is not None
    previous_ways = dict(state.effective_ways) if transient else {}

    cores, fair_pool_delay_ms = _core_allocation(context, plan, loads, previous_ways)

    # Activity: how hard each application drives the memory system.
    activities: Dict[str, float] = {}
    for name in context.app_names:
        threads = float(context.threads_of(name))
        if name in context.lc_profiles:
            profile = context.lc_profiles[name]
            capacity = profile.wall_rps * min(cores[name], threads) / threads
            arrival = profile.arrival_rps(loads.get(name, 0.0))
            activities[name] = min(1.0, arrival / capacity) if capacity > 0 else 0.0
            # Utilisation relative to full-machine activity for bandwidth:
            activities[name] *= min(cores[name], threads) / threads
        else:
            activities[name] = min(1.0, cores[name] / threads)

    targets = _way_targets(context, plan, activities, previous_ways)

    effective_ways: Dict[str, float] = {}
    for name, target in targets.items():
        if transient and name in previous_ways:
            previous = previous_ways[name]
            effective_ways[name] = previous + WAY_WARMUP_RATE * (target - previous)
        else:
            effective_ways[name] = target

    # Memory bandwidth: clipped demands contend for the node's channels.
    demands = {
        name: profiles[name].membw_demand_gbps(
            activities[name], max(0.01, effective_ways[name])
        )
        for name in context.app_names
    }
    caps = {
        name: plan.isolated_of(name).membw_gbps
        for name in context.app_names
        if plan.isolated_of(name).membw_gbps > 0
    }
    # The shared region's bandwidth acts as an aggregate MBA-style cap on
    # its best-effort members (LC members take precedence and stay
    # uncapped). With the whole node in the shared region the cap is the
    # node's full bandwidth — a no-op — but a scheduler that moves
    # bandwidth out of the shared region throttles the BE hogs there.
    be_shared = [
        name
        for name in sorted(plan.shared_members)
        if name in context.be_profiles and name not in caps
    ]
    if be_shared:
        be_demand_total = sum(demands[name] for name in be_shared)
        budget = plan.shared.membw_gbps
        if be_demand_total > budget:
            for name in be_shared:
                share = demands[name] / be_demand_total if be_demand_total > 0 else 0
                caps[name] = budget * share
    clipped = capped_demands(demands, caps)
    stretch = bandwidth_stretch(sum(clipped.values()), context.node.spec.membw_gbps)
    throttles = throttle_factors(demands, caps)

    results: Dict[str, EffectiveResources] = {}
    for name in context.app_names:
        penalty = 1.0
        if transient:
            if abs(cores[name] - state.previous_cores.get(name, cores[name])) >= 0.5:
                penalty *= CORE_CHANGE_PENALTY
            plan_ways = plan.isolated_of(name).llc_ways
            if (
                abs(plan_ways - state.previous_plan_ways.get(name, plan_ways))
                >= 0.5
            ):
                penalty *= WAY_CHANGE_PENALTY
        sched_delay = (
            fair_pool_delay_ms
            if name in context.lc_profiles and name in plan.shared_members
            else 0.0
        )
        results[name] = EffectiveResources(
            name=name,
            cores=cores[name],
            ways=max(0.01, effective_ways[name]),
            bandwidth_multiplier=stretch * throttles[name],
            transient_penalty=penalty,
            activity=activities[name],
            sched_delay_ms=sched_delay,
        )

    if transient:
        effective = {name: r.ways for name, r in results.items()}
        plan_ways = {
            name: plan.isolated_of(name).llc_ways for name in context.app_names
        }
        if (
            effective == state.effective_ways
            and cores == state.previous_cores
            and plan_ways == state.previous_plan_ways
        ):
            # A fixed point: the state this call leaves is the state it
            # read, so the same inputs next epoch give this same result.
            state.fixed_point = (
                context,
                plan,
                dict(loads),
                state.effective_ways,
                state.previous_cores,
                state.previous_plan_ways,
                results,
            )
        else:
            state.effective_ways = effective
            state.previous_cores = dict(cores)
            state.previous_plan_ways = plan_ways
    return results
