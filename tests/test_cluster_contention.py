"""Contention resolution: isolation semantics, sharing, caps, transients."""

from __future__ import annotations

import random

import pytest

from repro.cluster.contention import (
    ContentionState,
    EffectiveResources,
    resolve_contention,
)
from repro.schedulers.base import RegionPlan
from repro.schedulers.unmanaged import UnmanagedScheduler
from repro.schedulers.parties import PartiesScheduler
from repro.server.cores import CorePolicy
from repro.server.resources import ResourceVector
from repro.types import ResourceKind

LOW_LOADS = {"xapian": 0.2, "moses": 0.2, "img-dnn": 0.2}


def arq_style_plan(context, xapian_cores=2.0, xapian_ways=4.0):
    """Xapian isolated; everything else in an LC-priority shared region."""
    capacity = context.node.capacity
    return RegionPlan(
        isolated={"xapian": ResourceVector(cores=xapian_cores, llc_ways=xapian_ways)},
        shared=ResourceVector(
            cores=capacity.cores - xapian_cores,
            llc_ways=capacity.llc_ways - xapian_ways,
            membw_gbps=capacity.membw_gbps,
        ),
        shared_members=frozenset(context.app_names),
        shared_policy=CorePolicy.LC_PRIORITY,
    )


def pure_isolated(context, cores: float) -> RegionPlan:
    """Xapian isolated outside the shared region with ``cores`` cores."""
    capacity = context.node.capacity
    return RegionPlan(
        isolated={"xapian": ResourceVector(cores=cores, llc_ways=6.0)},
        shared=ResourceVector(
            cores=capacity.cores - cores,
            llc_ways=capacity.llc_ways - 6.0,
            membw_gbps=capacity.membw_gbps,
        ),
        shared_members=frozenset(n for n in context.app_names if n != "xapian"),
        shared_policy=CorePolicy.LC_PRIORITY,
    )


class TestSharedEverything:
    def test_everyone_gets_resources(self, context):
        plan = UnmanagedScheduler().initial_plan(context)
        resources = resolve_contention(context, plan, LOW_LOADS)
        for name in context.app_names:
            assert resources[name].cores > 0
            assert resources[name].ways > 0

    def test_cores_within_thread_limits(self, context):
        plan = UnmanagedScheduler().initial_plan(context)
        resources = resolve_contention(context, plan, LOW_LOADS)
        for name in context.app_names:
            assert resources[name].cores <= context.threads_of(name) + 1e-9

    def test_idle_capacity_boosts_lc_bursts(self, context):
        plan = UnmanagedScheduler().initial_plan(context)
        resources = resolve_contention(context, plan, LOW_LOADS)
        # At 20% load each LC application's sustained demand is < 1 core,
        # but idle burst capacity lifts its effective cores well above it.
        assert resources["xapian"].cores > 1.5


class TestIsolation:
    def test_isolated_region_is_private(self, context):
        plan = PartiesScheduler().initial_plan(context)
        resources = resolve_contention(context, plan, LOW_LOADS)
        for name in context.app_names:
            iso = plan.isolated_of(name)
            assert resources[name].cores <= min(
                iso.cores, context.threads_of(name)
            ) + 1e-9
            assert resources[name].ways == pytest.approx(iso.llc_ways)

    def test_membw_caps_throttle(self, context, stream_collocation):
        from repro.schedulers.base import SchedulerContext
        from repro.sim.rng import RngStreams

        ctx = SchedulerContext(
            node=stream_collocation.node,
            lc_profiles=stream_collocation.lc_profiles,
            be_profiles=stream_collocation.be_profiles,
            rng=RngStreams(1),
        )
        capacity = ctx.node.capacity
        plan = RegionPlan(
            isolated={
                "stream": ResourceVector(
                    cores=4.0, llc_ways=4.0, membw_gbps=7.68
                ),
                "xapian": ResourceVector(cores=2.0, llc_ways=6.0),
                "moses": ResourceVector(cores=2.0, llc_ways=5.0),
                "img-dnn": ResourceVector(cores=2.0, llc_ways=5.0),
            },
        )
        resources = resolve_contention(ctx, plan, LOW_LOADS)
        # Stream demands tens of GB/s but is capped at 7.68 → heavy
        # throttling shows up in its bandwidth multiplier.
        assert resources["stream"].bandwidth_multiplier > 2.0
        # The LC applications see an uncontended memory system.
        assert resources["xapian"].bandwidth_multiplier < 1.2


class TestSharedRegionSemantics:
    def test_lc_can_use_both_isolated_and_shared(self, context):
        plan = arq_style_plan(context, xapian_cores=2.0)
        resources = resolve_contention(
            context, plan, {"xapian": 0.9, "moses": 0.2, "img-dnn": 0.2}
        )
        # Xapian's 2 isolated cores alone cannot host 90% load; the shared
        # region tops it up toward its 4 threads.
        assert resources["xapian"].cores > 2.0

    def test_be_restricted_to_shared(self, context):
        plan = arq_style_plan(context, xapian_cores=2.0)
        resources = resolve_contention(context, plan, LOW_LOADS)
        shared_cores = plan.shared.cores
        assert resources["fluidanimate"].cores <= shared_cores + 1e-9

    def test_shared_bandwidth_caps_be_members(self, context):
        # Shrinking the shared region's bandwidth throttles the BE member.
        generous = arq_style_plan(context)
        resources_generous = resolve_contention(context, generous, LOW_LOADS)
        throttled_plan = RegionPlan(
            isolated=dict(generous.isolated),
            shared=generous.shared.with_component(ResourceKind.MEMBW, 3.0),
            shared_members=generous.shared_members,
            shared_policy=generous.shared_policy,
        )
        resources_throttled = resolve_contention(context, throttled_plan, LOW_LOADS)
        assert (
            resources_throttled["fluidanimate"].bandwidth_multiplier
            > resources_generous["fluidanimate"].bandwidth_multiplier
        )


class TestTransients:
    def test_warmup_smooths_way_changes(self, context):
        state = ContentionState()
        plan_small = arq_style_plan(context, xapian_ways=2.0)
        plan_large = arq_style_plan(context, xapian_ways=10.0)
        small_settled = None
        for _ in range(10):
            small_settled = resolve_contention(context, plan_small, LOW_LOADS, state)
        after_switch = resolve_contention(context, plan_large, LOW_LOADS, state)
        large_settled = after_switch
        for _ in range(10):
            large_settled = resolve_contention(context, plan_large, LOW_LOADS, state)
        # One epoch after the repartition the effective ways sit strictly
        # between the two settled levels (cache warm-up), and eventually
        # converge to the larger allocation's level.
        assert (
            small_settled["xapian"].ways
            < after_switch["xapian"].ways
            < large_settled["xapian"].ways
        )
        assert large_settled["xapian"].ways > small_settled["xapian"].ways + 5.0

    def test_change_penalty_applied_once(self, context):
        # Pure isolated plans (xapian outside the shared region) so the
        # core re-assignment actually changes its effective cores.
        state = ContentionState()
        plan_a = pure_isolated(context, 2.0)
        plan_b = pure_isolated(context, 4.0)
        resolve_contention(context, plan_a, LOW_LOADS, state)
        switched = resolve_contention(context, plan_b, LOW_LOADS, state)
        assert switched["xapian"].transient_penalty > 1.0
        settled = resolve_contention(context, plan_b, LOW_LOADS, state)
        assert settled["xapian"].transient_penalty == pytest.approx(1.0)

    def test_stateless_resolution_has_no_transients(self, context):
        plan = arq_style_plan(context)
        resources = resolve_contention(context, plan, LOW_LOADS, state=None)
        for eff in resources.values():
            assert eff.transient_penalty == 1.0


class TestValidation:
    def test_rejects_unknown_shared_member(self, context):
        from repro.errors import SchedulingError

        plan = RegionPlan(
            shared=context.node.capacity,
            shared_members=frozenset({"ghost"}),
        )
        with pytest.raises(SchedulingError):
            resolve_contention(context, plan, LOW_LOADS)

    def test_rejects_oversubscribed_plan(self, context):
        from repro.errors import AllocationError

        plan = RegionPlan(
            isolated={"xapian": ResourceVector(cores=99.0)},
        )
        with pytest.raises(AllocationError):
            resolve_contention(context, plan, LOW_LOADS)


class TestFixedPointReuse:
    """A stateful call at a fixed point of the warm-up state is reused."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_fresh_state_reference(self, context, seed):
        rng = random.Random(seed)
        plans = [
            UnmanagedScheduler().initial_plan(context),
            arq_style_plan(context, xapian_ways=2.0),
            arq_style_plan(context, xapian_ways=10.0),
            pure_isolated(context, 2.0),
            pure_isolated(context, 4.0),
        ]
        load_levels = [
            LOW_LOADS,
            {"xapian": 0.5, "moses": 0.2, "img-dnn": 0.2},
            {"xapian": 0.9, "moses": 0.2, "img-dnn": 0.7},
        ]
        memo_state = ContentionState()
        reference = ((), {}, {}, {})
        previous = None
        hits = 0
        for _ in range(12):
            plan = rng.choice(plans)
            loads_choice = rng.choice(load_levels)
            for _ in range(rng.randrange(1, 60)):
                # Equal loads arrive as a fresh dict, as the run loop's do.
                loads = dict(loads_choice)
                _, ways, cores, plan_ways = reference
                ref_state = ContentionState(
                    effective_ways=dict(ways),
                    previous_cores=dict(cores),
                    previous_plan_ways=dict(plan_ways),
                )
                expected = resolve_contention(context, plan, loads, ref_state)
                reference = (
                    expected,
                    ref_state.effective_ways,
                    ref_state.previous_cores,
                    ref_state.previous_plan_ways,
                )
                got = resolve_contention(context, plan, loads, memo_state)
                hits += got is previous
                previous = got
                assert got == expected
                assert memo_state.effective_ways == ref_state.effective_ways
                assert memo_state.previous_cores == ref_state.previous_cores
                assert memo_state.previous_plan_ways == ref_state.previous_plan_ways
        assert hits > 0

    def test_hit_returns_the_identical_result(self, context):
        state = ContentionState()
        plan = arq_style_plan(context, xapian_ways=10.0)
        results = [
            resolve_contention(context, plan, dict(LOW_LOADS), state)
            for _ in range(200)
        ]
        assert results[-1] is results[-2]
        # Another plan object, even an equal one, is a miss.
        other = arq_style_plan(context, xapian_ways=10.0)
        assert other == plan
        assert resolve_contention(context, other, LOW_LOADS, state) is not results[-1]

    def test_changed_loads_miss(self, context):
        state = ContentionState()
        plan = arq_style_plan(context, xapian_ways=10.0)
        for _ in range(200):
            settled = resolve_contention(context, plan, LOW_LOADS, state)
        busier = dict(LOW_LOADS, xapian=0.6)
        moved = resolve_contention(context, plan, busier, state)
        assert moved is not settled
        assert moved["xapian"].activity > settled["xapian"].activity

    def test_capacity_degradation_leaves_the_cached_result_intact(self, context):
        from repro.faults import CapacityDegradation, FaultInjector, FaultPlan

        injector = FaultInjector(
            FaultPlan(
                faults=(
                    CapacityDegradation(
                        start_s=0.0, duration_s=60.0, cores_factor=0.5, ways_factor=0.5
                    ),
                )
            )
        )
        state = ContentionState()
        plan = arq_style_plan(context, xapian_ways=10.0)
        lc_names = tuple(context.lc_profiles)
        returned = []
        for index in range(100):
            time_s = index * 0.5
            injector.begin_epoch(time_s)
            resources = resolve_contention(context, plan, dict(LOW_LOADS), state)
            snapshot = dict(resources)
            degraded = injector.degrade(time_s, resources, lc_names)
            assert degraded is not resources
            assert degraded["xapian"].cores == resources["xapian"].cores * 0.5
            returned.append((resources, snapshot))
        hits = sum(
            1
            for (current, _), (previous, _) in zip(returned[1:], returned)
            if current is previous
        )
        assert hits > 0
        for resources, snapshot in returned:
            assert resources == snapshot
