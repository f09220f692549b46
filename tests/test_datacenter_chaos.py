"""Cluster fault plans, quarantine/failover, and checkpoint/resume.

The degraded-mode contract: a datacenter run under an arbitrary crash
schedule stays byte-identical at any ``--jobs``, a checkpointed prefix
plus ``resume`` reproduces the uninterrupted timeline exactly, and every
failure mode (crash, straggler, flap, summary loss/corruption, transient
run failure) degrades service without sinking the loop.
"""

from __future__ import annotations

import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.collocation import BEMember, LCMember
from repro.datacenter import (
    CLUSTER_FAULT_PRESETS,
    Assignment,
    BinPackingPlacement,
    ClusterFaultPlan,
    Datacenter,
    EntropyGuidedMigration,
    NodeCrash,
    NodeFlap,
    NodeStraggle,
    Quarantine,
    ShardReport,
    SummaryCorruption,
    SummaryLoss,
    cluster_fault_preset,
    failover_moves,
    summary_is_sane,
)
from repro.datacenter.chaos import cluster_fault_from_dict
from repro.datacenter.shard import NodeEpochSummary, NodeRun, run_shards
from repro.errors import ConfigurationError, FaultError
from repro.experiments.common import make_collocation
from repro.obs.events import CollectingTracer
from repro.obs.windows import WindowConfig, WindowedTracer, why_slow
from repro.parallel.runner import ParallelRunError
from repro.schedulers import ARQScheduler
from repro.server.spec import PAPER_NODE


def lc(name, load=0.3):
    """A latency-critical member at ``load``."""
    return LCMember.of(name, load)


MEMBERS = (
    lc("xapian", 0.5),
    lc("moses", 0.2),
    lc("img-dnn", 0.3),
    lc("silo", 0.2),
    BEMember.of("fluidanimate"),
    BEMember.of("streamcluster"),
)


def summary_stub(node, mean=0.1):
    """A minimal sane node summary for unit-level tests."""
    return NodeEpochSummary(
        node_index=node,
        scheduler_name="arq",
        seed=1,
        epochs=4,
        measured_epochs=4,
        mean_e_s=mean,
        mean_e_lc=mean,
        mean_e_be=mean,
        violations=0,
        lc=(),
        be=(),
    )


def canonical(timeline):
    """The byte-identity currency: canonical sorted-key JSON."""
    return json.dumps(timeline.to_dict(), sort_keys=True)


def run_chaos(
    plan,
    *,
    jobs=1,
    epochs=4,
    nodes=4,
    seed=11,
    quarantine=None,
    migration=None,
    tracer=None,
    checkpoint_path=None,
    checkpoint_every=1,
    resume=False,
):
    """One small degraded-mode epoch loop run (4 nodes, 6s epochs)."""
    datacenter = Datacenter(specs=(PAPER_NODE,) * nodes)
    return datacenter.run_epochs(
        MEMBERS,
        BinPackingPlacement(),
        ARQScheduler,
        epochs=epochs,
        epoch_duration_s=6.0,
        seed=seed,
        jobs=jobs,
        migration=migration,
        chaos=plan,
        quarantine=quarantine,
        tracer=tracer,
        checkpoint_path=checkpoint_path,
        checkpoint_every=checkpoint_every,
        resume=resume,
    )


class TestClusterFaultPlan:
    def test_presets_round_trip_json(self):
        for name in CLUSTER_FAULT_PRESETS:
            plan = cluster_fault_preset(name, 24)
            assert ClusterFaultPlan.from_json(plan.to_json()) == plan

    def test_save_load(self, tmp_path):
        plan = cluster_fault_preset("chaos", 24)
        path = tmp_path / "plan.json"
        plan.save(str(path))
        assert ClusterFaultPlan.load(str(path)) == plan

    def test_unknown_kind_rejected(self):
        with pytest.raises(FaultError, match="unknown cluster fault kind"):
            cluster_fault_from_dict({"kind": "meteor", "node": 0, "epoch": 0})

    def test_unknown_preset_rejected(self):
        with pytest.raises(FaultError):
            cluster_fault_preset("bogus", 24)

    def test_crash_window_is_half_open(self):
        crash = NodeCrash(node=3, epoch=1, duration_epochs=2)
        assert [crash.down_at(e) for e in range(5)] == [
            False,
            True,
            True,
            False,
            False,
        ]
        plan = ClusterFaultPlan(faults=(crash,))
        assert plan.down_nodes(1) == (3,)  # other nodes unaffected

    def test_flap_alternates_on_its_phase(self):
        flap = NodeFlap(
            node=1, epoch=2, duration_epochs=6, down_epochs=1, up_epochs=2
        )
        downs = [flap.down_at(e) for e in range(2, 8)]
        assert downs == [True, False, False, True, False, False]
        assert not flap.down_at(1) and not flap.down_at(8)

    def test_straggle_factor_is_max_of_active(self):
        plan = ClusterFaultPlan(
            faults=(
                NodeStraggle(node=0, epoch=1, duration_epochs=2, factor=2.0),
                NodeStraggle(node=0, epoch=2, duration_epochs=1, factor=5.0),
            )
        )
        assert plan.straggle_factor(0, 1) == 2.0
        assert plan.straggle_factor(0, 2) == 5.0
        assert plan.straggle_factor(0, 3) == 1.0
        assert plan.straggle_factor(1, 2) == 1.0

    def test_straggle_factor_below_one_rejected(self):
        with pytest.raises(FaultError):
            NodeStraggle(node=0, epoch=0, factor=0.5)

    def test_corruption_poisons_the_summary(self):
        sane = summary_stub(0)
        assert summary_is_sane(sane)
        nan = SummaryCorruption(node=0, epoch=0, mode="nan").corrupt(sane)
        assert math.isnan(nan.mean_e_s) and not summary_is_sane(nan)
        negative = SummaryCorruption(node=0, epoch=0, mode="negative").corrupt(
            sane
        )
        assert negative.mean_e_s < 0 and not summary_is_sane(negative)

    def test_corruption_mode_validated(self):
        with pytest.raises(FaultError):
            SummaryCorruption(node=0, epoch=0, mode="garble")

    def test_down_nodes_sorted_and_deduplicated(self):
        plan = ClusterFaultPlan(
            faults=(
                NodeCrash(node=5, epoch=0, duration_epochs=2),
                NodeCrash(node=2, epoch=1, duration_epochs=1),
                NodeFlap(node=5, epoch=1, duration_epochs=2),
            )
        )
        assert plan.down_nodes(1) == (2, 5)


class TestQuarantine:
    def test_sentence_doubles_per_strike_up_to_the_cap(self):
        guard = Quarantine(quarantine_epochs=2, backoff_cap=4)
        assert guard.report_failure(7) == 2
        # Serve the sentence, then fail again on probation: strike 2.
        for _ in range(2):
            guard.tick()
        assert guard.begin_epoch() == (7,)
        assert guard.report_failure(7) == 4
        for _ in range(4):
            guard.tick()
        guard.begin_epoch()
        assert guard.report_failure(7) == 8  # capped at 2 * 4
        for _ in range(8):
            guard.tick()
        guard.begin_epoch()
        assert guard.report_failure(7) == 8

    def test_surviving_probation_clears_strikes(self):
        guard = Quarantine(quarantine_epochs=1, probation_epochs=1)
        guard.report_failure(3)
        guard.tick()  # sentence served
        assert guard.begin_epoch() == (3,)
        assert guard.on_probation() == (3,)
        guard.tick()  # probation served: strikes wiped
        assert guard.on_probation() == ()
        assert guard.report_failure(3) == 1  # back to strike one

    def test_refresh_extends_without_new_strike(self):
        guard = Quarantine(quarantine_epochs=2)
        guard.report_failure(1)
        guard.tick()
        guard.refresh(1)  # still down per the plan
        assert guard.is_quarantined(1)
        guard.tick()
        guard.tick()
        assert guard.begin_epoch() == (1,)
        assert guard.report_failure(1) == 4  # one strike, not two

    def test_held_scores_expire_at_the_staleness_cap(self):
        guard = Quarantine(staleness_cap_epochs=2)
        guard.hold(0, summary_stub(0, mean=0.25))
        assert guard.held_score(0) == 0.25
        guard.tick()
        guard.tick()
        assert guard.held_score(0) == 0.25
        guard.tick()
        assert guard.held_score(0) is None
        assert guard.held_score(9) is None

    def test_state_round_trips(self):
        guard = Quarantine(quarantine_epochs=3)
        guard.report_failure(2)
        guard.hold(1, summary_stub(1, mean=0.4))
        guard.tick()
        clone = Quarantine(quarantine_epochs=3)
        clone.load_state(guard.state_dict())
        assert clone.state_dict() == guard.state_dict()
        assert clone.is_quarantined(2)
        assert clone.held_score(1) == 0.4

    def test_config_validated(self):
        with pytest.raises(ConfigurationError):
            Quarantine(quarantine_epochs=0)
        with pytest.raises(ConfigurationError):
            Quarantine(straggle_threshold=0.5)


class TestFailoverMoves:
    def test_targets_the_lowest_scoring_feasible_survivor(self):
        assignment = Assignment(
            per_node=(
                (lc("xapian", 0.4), BEMember.of("fluidanimate")),
                (),
                (lc("moses", 0.2),),
            )
        )
        moves = failover_moves(
            assignment,
            [0],
            {1: 0.5, 2: 0.01},
            (PAPER_NODE,) * 3,
            now_s=0.0,
            horizon_s=6.0,
        )
        assert [m.source for m in moves] == [0, 0]
        # LC evacuates first (it carries the QoS), both onto the
        # lower-scoring survivor.
        assert moves[0].member == "xapian"
        assert all(m.target == 2 for m in moves)

    def test_unscored_survivor_ranks_as_idle(self):
        assignment = Assignment(
            per_node=((lc("xapian", 0.4),), (lc("silo", 0.2),), ())
        )
        moves = failover_moves(
            assignment,
            [0],
            {1: 0.001},
            (PAPER_NODE,) * 3,
            now_s=0.0,
            horizon_s=6.0,
        )
        assert [m.target for m in moves] == [2]

    def test_no_survivors_no_moves(self):
        assignment = Assignment(per_node=((lc("xapian", 0.4),),))
        assert failover_moves(
            assignment, [0], {}, (PAPER_NODE,), now_s=0.0, horizon_s=6.0
        ) == []


class _Boom:
    """A scheduler factory that always fails (picklable)."""

    def __call__(self):
        raise RuntimeError("boom: node is on fire")


class _Flaky:
    """A factory that fails on the first call, then behaves.

    Stateful on purpose: on the ``jobs=1`` in-process path the retry
    reuses this same instance, so the second attempt succeeds — the
    transient-failure shape retries exist for.
    """

    def __init__(self):
        self.calls = 0

    def __call__(self):
        self.calls += 1
        if self.calls == 1:
            raise RuntimeError("transient: first attempt fails")
        return ARQScheduler()


def _node_items(factories):
    """One NodeRun per factory on a tiny one-app collocation."""
    return [
        NodeRun(
            node_index=index,
            collocation=make_collocation(
                {"xapian": 0.3}, ["fluidanimate"], seed=7 + index
            ),
            scheduler_factory=factory,
            duration_s=8.0,
            warmup_s=2.0,
        )
        for index, factory in enumerate(factories)
    ]


class TestRunShardsFailurePolicy:
    def test_salvage_ships_partial_outcomes_and_a_failure_report(self):
        items = _node_items([ARQScheduler, _Boom(), ARQScheduler])
        report = run_shards(items, jobs=1, on_error="salvage")
        assert isinstance(report, ShardReport)
        assert report.failed_nodes() == (1,)
        assert report.outcomes[1] is None
        assert sorted(report.completed()) == [0, 2]
        (failure,) = report.failures
        assert report.items[failure.index].node_index == 1
        assert failure.attempts == 1
        assert "boom" in failure.message and "boom" in failure.describe()

    def test_raise_mode_propagates_the_first_failure(self):
        items = _node_items([ARQScheduler, _Boom()])
        with pytest.raises(ParallelRunError, match="boom"):
            run_shards(items, jobs=1, on_error="raise")

    def test_empty_salvage_is_an_empty_report(self):
        report = run_shards([], jobs=1, on_error="salvage")
        assert isinstance(report, ShardReport)
        assert report.failures == () and report.completed() == {}

    def test_on_error_validated(self):
        with pytest.raises(ConfigurationError, match="on_error"):
            run_shards(_node_items([ARQScheduler]), jobs=1, on_error="ignore")

    def test_transient_failure_succeeds_on_retry(self):
        items = _node_items([_Flaky()])
        outcomes = run_shards(items, jobs=1, retries=1)
        assert len(outcomes) == 1 and outcomes[0].node_index == 0

    def test_without_retries_the_transient_failure_is_fatal(self):
        items = _node_items([_Flaky()])
        with pytest.raises(ParallelRunError, match="transient"):
            run_shards(items, jobs=1, retries=0)


class TestRetriesThreadedThroughDatacenter:
    def test_datacenter_run_retries_a_transient_node(self):
        datacenter = Datacenter(specs=(PAPER_NODE,))
        flaky = _Flaky()
        timeline = datacenter.run_epochs(
            MEMBERS[:2],
            BinPackingPlacement(),
            flaky,
            epochs=1,
            epoch_duration_s=8.0,
            seed=5,
            jobs=1,
            retries=1,
        )
        assert flaky.calls == 2
        assert [s.node_index for s in timeline.epochs[0].node_summaries] == [0]

    def test_datacenter_run_without_retries_fails(self):
        datacenter = Datacenter(specs=(PAPER_NODE,))
        with pytest.raises(ParallelRunError, match="transient"):
            datacenter.run_epochs(
                MEMBERS[:2],
                BinPackingPlacement(),
                _Flaky(),
                epochs=1,
                epoch_duration_s=8.0,
                seed=5,
                jobs=1,
            )


CRASH = ClusterFaultPlan(faults=(NodeCrash(node=0, epoch=1, duration_epochs=1),))


class TestDegradedLoop:
    def test_crash_quarantines_and_fails_over(self):
        timeline = run_chaos(CRASH)
        epoch = timeline.epochs[1]
        assert epoch.quarantined == (0,)
        assert epoch.failovers and all(m.source == 0 for m in epoch.failovers)
        assert epoch.parked == ()  # everyone was evacuated
        assert 0 not in {s.node_index for s in epoch.node_summaries}
        assert any(0 in e.recovered for e in timeline.epochs[2:])

    def test_static_plane_parks_the_tenants(self):
        timeline = run_chaos(CRASH, quarantine=Quarantine(failover=False))
        epoch = timeline.epochs[1]
        assert epoch.failovers == ()
        assert epoch.parked  # the dead node's tenants sat out the epoch

    def test_absorbed_straggler_changes_nothing(self):
        slow = ClusterFaultPlan(
            faults=(NodeStraggle(node=0, epoch=1, factor=1.5),)
        )
        timeline = run_chaos(slow, quarantine=Quarantine(straggle_threshold=3.0))
        assert all(e.quarantined == () for e in timeline.epochs)
        assert all(e.failed == () for e in timeline.epochs)

    def test_deadline_missing_straggler_is_quarantined(self):
        slow = ClusterFaultPlan(
            faults=(NodeStraggle(node=0, epoch=1, factor=6.0),)
        )
        timeline = run_chaos(slow, quarantine=Quarantine(straggle_threshold=3.0))
        assert 0 in timeline.epochs[1].failed
        assert 0 in timeline.epochs[2].quarantined

    def test_summary_loss_holds_the_stale_score(self):
        dark = ClusterFaultPlan(faults=(SummaryLoss(node=0, epoch=1),))
        timeline = run_chaos(dark)
        assert timeline.epochs[1].lost == (0,)
        # Score-keeping coasts on the last good summary.
        assert timeline.epochs[1].scores[0] == timeline.epochs[0].scores[0]

    def test_corrupt_summary_is_dropped_by_the_sanity_gate(self):
        poisoned = ClusterFaultPlan(
            faults=(SummaryCorruption(node=0, epoch=1, mode="nan"),)
        )
        timeline = run_chaos(poisoned)
        assert 0 in timeline.epochs[1].lost
        payload = canonical(timeline)
        assert "NaN" not in payload  # the poison never reaches the wire

    def test_recovery_events_are_emitted(self, tmp_path):
        tracer = CollectingTracer()
        run_chaos(
            CRASH,
            tracer=tracer,
            checkpoint_path=str(tmp_path / "ck.json"),
            checkpoint_every=2,
        )
        kinds = [event.kind for event in tracer.events]
        assert "node_quarantined" in kinds
        assert "node_recovered" in kinds
        assert kinds.count("checkpoint_written") == 2
        quarantined = next(
            e for e in tracer.events if e.kind == "node_quarantined"
        )
        assert quarantined.node == 0 and quarantined.reason == "crash"

    def test_why_slow_names_the_quarantine(self):
        tracer = WindowedTracer(config=WindowConfig(dt_s=6.0, keep=64))
        run_chaos(CRASH, tracer=tracer)
        report = why_slow(tracer.summary(), 6.0, 12.0)
        cluster = [c for c in report.causes if c.kind == "cluster"]
        assert cluster and "node 0" in cluster[0].label


class TestByteIdentityUnderChaos:
    def test_jobs_do_not_change_the_degraded_timeline(self):
        base = canonical(run_chaos(CRASH, jobs=1, migration=None))
        assert canonical(run_chaos(CRASH, jobs=2)) == base
        assert canonical(run_chaos(CRASH, jobs=4)) == base

    @pytest.mark.slow
    @settings(deadline=None, max_examples=5)
    @given(
        crashes=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=3),
                st.integers(min_value=0, max_value=2),
                st.integers(min_value=1, max_value=2),
            ),
            min_size=1,
            max_size=2,
            unique_by=lambda c: c[0],
        )
    )
    def test_arbitrary_crash_schedules_stay_jobs_invariant(self, crashes):
        plan = ClusterFaultPlan(
            faults=tuple(
                NodeCrash(node=node, epoch=epoch, duration_epochs=duration)
                for node, epoch, duration in crashes
            )
        )
        timelines = [
            run_chaos(plan, jobs=jobs, epochs=3, migration=None)
            for jobs in (1, 4)
        ]
        assert canonical(timelines[0]) == canonical(timelines[1])


class TestCheckpointResume:
    def _full(self, jobs=1):
        return run_chaos(
            CRASH, jobs=jobs, migration=EntropyGuidedMigration(budget=1)
        )

    def test_resume_is_byte_identical_to_the_uninterrupted_run(self, tmp_path):
        path = str(tmp_path / "ck.json")
        expected = canonical(self._full())
        run_chaos(
            CRASH,
            epochs=2,
            migration=EntropyGuidedMigration(budget=1),
            checkpoint_path=path,
            checkpoint_every=2,
        )
        resumed = run_chaos(
            CRASH,
            migration=EntropyGuidedMigration(budget=1),
            checkpoint_path=path,
            resume=True,
        )
        assert canonical(resumed) == expected

    @pytest.mark.slow
    def test_resume_is_jobs_invariant(self, tmp_path):
        path = str(tmp_path / "ck.json")
        expected = canonical(self._full(jobs=1))
        run_chaos(
            CRASH,
            jobs=4,
            epochs=2,
            migration=EntropyGuidedMigration(budget=1),
            checkpoint_path=path,
            checkpoint_every=2,
        )
        resumed = run_chaos(
            CRASH,
            jobs=4,
            migration=EntropyGuidedMigration(budget=1),
            checkpoint_path=path,
            resume=True,
        )
        assert canonical(resumed) == expected

    def test_resume_rejects_a_mismatched_config(self, tmp_path):
        path = str(tmp_path / "ck.json")
        run_chaos(CRASH, epochs=2, checkpoint_path=path, checkpoint_every=2)
        with pytest.raises(ConfigurationError, match="epoch target"):
            run_chaos(CRASH, seed=99, checkpoint_path=path, resume=True)

    def test_resume_rejects_a_shrunken_epoch_target(self, tmp_path):
        path = str(tmp_path / "ck.json")
        run_chaos(CRASH, epochs=4, checkpoint_path=path, checkpoint_every=4)
        with pytest.raises(ConfigurationError):
            run_chaos(CRASH, epochs=2, checkpoint_path=path, resume=True)

    def test_resume_without_a_checkpoint_path_is_rejected(self):
        with pytest.raises(ConfigurationError):
            run_chaos(CRASH, resume=True)

    def test_fresh_start_when_the_checkpoint_does_not_exist(self, tmp_path):
        path = str(tmp_path / "absent.json")
        timeline = run_chaos(CRASH, checkpoint_path=path, resume=True)
        assert canonical(timeline) == canonical(run_chaos(CRASH))
