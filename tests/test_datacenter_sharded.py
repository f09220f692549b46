"""Sharded datacenter engine: alignment, seeds, determinism, migration.

Regression coverage for the three bugfixes shipped with the sharded
engine (node-index alignment past empty nodes, empty-window pooling
policy, peak-load pressure scoring) plus the sharding contracts: JSON
byte-identity at any ``jobs``, per-node/per-epoch seed distinctness,
and deterministic migration proposals.
"""

from __future__ import annotations

import json
from dataclasses import replace

import pytest

from repro.cluster.collocation import BEMember, LCMember
from repro.datacenter import (
    Assignment,
    BinPackingPlacement,
    Datacenter,
    DatacenterTimeline,
    EntropyGuidedMigration,
    GlobalEpoch,
    NodeEpochSummary,
    Placement,
    migration_policy,
    node_pressure,
    peak_load,
)
from repro.datacenter.cluster import EPOCH_SEED_STRIDE
from repro.entropy.records import BEObservation, LCObservation
from repro.errors import ConfigurationError
from repro.schedulers import ARQScheduler, UnmanagedScheduler
from repro.server.spec import NodeSpec, PAPER_NODE
from repro.workloads.catalog import lc_profile
from repro.workloads.loadgen import DiurnalLoad, PiecewiseLoad, StepLoad


class FixedPlacement(Placement):
    """Test helper: return a pre-built assignment verbatim."""

    name = "fixed"

    def __init__(self, per_node):
        self.per_node = per_node

    def assign(self, members, specs):
        return Assignment(per_node=self.per_node)


def lc(name: str, load: float = 0.3) -> LCMember:
    return LCMember.of(name, load)


def summary_stub(node: int, measured: int = 0) -> NodeEpochSummary:
    """A minimal summary: empty when ``measured == 0``, else populated."""
    populated = measured > 0
    return NodeEpochSummary(
        node_index=node,
        scheduler_name="arq",
        seed=2023 + node,
        epochs=measured or 4,
        measured_epochs=measured,
        mean_e_s=0.1 if populated else None,
        mean_e_lc=0.1 if populated else None,
        mean_e_be=0.1 if populated else None,
        violations=0,
        lc=(
            (LCObservation("xapian", ideal_ms=1.0, measured_ms=2.0, threshold_ms=5.0),)
            if populated
            else ()
        ),
        be=(
            (BEObservation("stream", ipc_solo=1.0, ipc_real=0.5),)
            if populated
            else ()
        ),
    )


class TestEmptyNodeAlignment:
    """Bugfix: results must line up with node indices, not list positions."""

    PER_NODE = (
        (lc("xapian", 0.5), BEMember.of("fluidanimate")),
        (),  # node 1 runs nothing
        (lc("moses", 0.2),),
    )

    def run_fixed(self, seed: int = 2023) -> DatacenterTimeline:
        datacenter = Datacenter(specs=(PAPER_NODE,) * 3)
        return datacenter.run_epochs(
            [m for bucket in self.PER_NODE for m in bucket],
            FixedPlacement(self.PER_NODE),
            UnmanagedScheduler,
            epochs=1,
            epoch_duration_s=10.0,
            seed=seed,
        )

    def test_results_align_past_an_empty_node(self):
        (epoch,) = self.run_fixed().epochs
        assert [s.node_index for s in epoch.node_summaries] == [0, 2]
        # node 2's summary really is node 2's: the moses node, seeded 2023+2.
        node2 = epoch.node_summaries[1]
        assert [obs.name for obs in node2.lc] == ["moses"]
        assert node2.seed == 2023 + 2
        assert epoch.assignment.node_of("moses") == 2

    def test_empty_node_lookups_raise(self):
        (epoch,) = self.run_fixed().epochs
        # The empty node has no summary and no score; looking up an
        # application that no node hosts raises.
        assert 1 not in {s.node_index for s in epoch.node_summaries}
        assert set(epoch.scores) == {0, 2}
        with pytest.raises(ConfigurationError, match="ghost"):
            epoch.assignment.node_of("ghost")

    @pytest.mark.parametrize("base", [0, 7, 2023])
    def test_node_seeds_stay_distinct_past_empty_nodes(self, base):
        assignment = Assignment(
            per_node=((lc("xapian"),), (), (lc("moses"),))
        )
        indexed = assignment.indexed_collocations((PAPER_NODE,) * 3, seed=base)
        assert [(i, c.seed) for i, c in indexed] == [(0, base), (2, base + 2)]
        # The epoch loop seeds every node run ``seed + node_index`` too.
        (epoch,) = self.run_fixed(seed=base).epochs
        assert [(s.node_index, s.seed) for s in epoch.node_summaries] == [
            (0, base),
            (2, base + 2),
        ]


class TestEmptyWindowPooling:
    """Bugfix: pooling skips nodes with no measured epochs, and says so."""

    def timeline_with(self, *summaries) -> DatacenterTimeline:
        assignment = Assignment(per_node=((),) * len(summaries))
        return DatacenterTimeline(
            placement_name="fixed",
            scheduler_name="arq",
            migration_name="static",
            epoch_duration_s=10.0,
            epochs=(
                GlobalEpoch(
                    epoch=0,
                    start_s=0.0,
                    assignment=assignment,
                    node_summaries=tuple(summaries),
                    scores={},
                ),
            ),
            final_assignment=assignment,
        )

    def test_skip_mode_pools_the_populated_nodes_and_warns(self):
        timeline = self.timeline_with(summary_stub(0, measured=8), summary_stub(1))
        with pytest.warns(UserWarning, match=r"skipping node\(s\) \[1\]"):
            observation = timeline.pooled_observation()
        assert [obs.name for obs in observation.lc] == ["xapian"]
        assert [obs.name for obs in observation.be] == ["stream"]
        with pytest.warns(UserWarning, match=r"skipping node\(s\) \[1\]"):
            assert 0.0 <= timeline.breakdown().e_s <= 1.0

    def test_all_empty_raises_even_when_skipping(self):
        timeline = self.timeline_with(summary_stub(0), summary_stub(1))
        with pytest.raises(ConfigurationError, match="no node measured"):
            timeline.pooled_observation()

    def test_validation_rejects_empty_measurement_windows_up_front(self):
        datacenter = Datacenter(specs=(PAPER_NODE,))
        members = [lc("xapian", 0.5)]
        placement = FixedPlacement((tuple(members),))
        # Epoch granularity: a 0.4s global epoch is one 0.5s node epoch
        # starting before the 0.08s warm-up boundary, so nothing would be
        # measured — caught up front, clearly.
        with pytest.raises(ConfigurationError, match="warm-up boundary"):
            datacenter.run_epochs(
                members, placement, UnmanagedScheduler,
                epochs=1, epoch_duration_s=0.4,
            )


class TestPeakLoadPressure:
    """Bugfix: pressure scores peak-over-horizon load, not ``t=0`` load."""

    def test_peak_load_sees_past_an_idle_start(self):
        ramp = StepLoad(before=0.05, after=0.9, at_s=30.0)
        assert peak_load(ramp, horizon_s=600.0) == 0.9
        # A non-positive horizon degenerates to the instantaneous load.
        assert peak_load(ramp, horizon_s=0.0) == 0.05

    def test_peak_load_sees_a_spike_between_grid_points(self):
        spiky = PiecewiseLoad.of((0, 0.2), (3, 0.9), (8, 0.2))
        assert peak_load(spiky, 600) == 0.9

    def test_ramping_member_scores_like_its_peak(self):
        ramp = LCMember(
            profile=lc_profile("xapian"),
            load=StepLoad(before=0.05, after=0.9, at_s=30.0),
        )
        at_start = node_pressure([ramp], PAPER_NODE, horizon_s=0.0)
        at_peak = node_pressure([ramp], PAPER_NODE, horizon_s=600.0)
        assert at_peak > at_start
        assert at_peak == pytest.approx(
            node_pressure([lc("xapian", 0.9)], PAPER_NODE)
        )

    def test_diurnal_member_scores_like_its_peak(self):
        diurnal = LCMember(
            profile=lc_profile("xapian"),
            load=DiurnalLoad(low=0.05, high=0.9, period_s=240.0),
        )
        assert node_pressure([diurnal], PAPER_NODE) == pytest.approx(
            node_pressure([lc("xapian", 0.9)], PAPER_NODE), rel=1e-3
        )

    def test_equal_pressure_ties_break_deterministically(self):
        twin_a = LCMember(
            profile=replace(lc_profile("xapian"), name="xapian-a"),
            load=DiurnalLoad(low=0.05, high=0.9, period_s=240.0),
        )
        twin_b = LCMember(
            profile=replace(lc_profile("xapian"), name="xapian-b"),
            load=DiurnalLoad(low=0.05, high=0.9, period_s=240.0),
        )
        placement = BinPackingPlacement()
        first = placement.assign([twin_a, twin_b], (PAPER_NODE,) * 2)
        # Stable heaviest-first sort + lowest-index tie-break: the twins
        # keep input order and split across nodes, every time.
        assert first.node_of("xapian-a") == 0
        assert first.node_of("xapian-b") == 1
        assert placement.assign([twin_a, twin_b], (PAPER_NODE,) * 2) == first


class TestShardedByteIdentity:
    """The sharded engine's contract: identical JSON at any ``jobs``."""

    MEMBERS = (
        lc("xapian", 0.5),
        lc("moses", 0.2),
        lc("img-dnn", 0.3),
        lc("silo", 0.2),
        BEMember.of("fluidanimate"),
        BEMember.of("streamcluster"),
    )

    @staticmethod
    def canonical(payload) -> str:
        return json.dumps(payload, sort_keys=True)

    def test_run_epochs_identical_serial_vs_pooled_and_seeded(self):
        datacenter = Datacenter(specs=(PAPER_NODE,) * 2)
        timelines = [
            datacenter.run_epochs(
                self.MEMBERS,
                BinPackingPlacement(),
                ARQScheduler,
                epochs=2,
                epoch_duration_s=6.0,
                seed=11,
                jobs=jobs,
            )
            for jobs in (1, 2)
        ]
        assert self.canonical(timelines[0].to_dict()) == self.canonical(
            timelines[1].to_dict()
        )
        # Epoch e's node i runs seeded ``seed + i + e * stride``.
        for epoch in timelines[0].epochs:
            for summary in epoch.node_summaries:
                assert summary.seed == (
                    11 + summary.node_index + epoch.epoch * EPOCH_SEED_STRIDE
                )


class TestEpochLoop:
    """Admission, validation and scoring in ``run_epochs``."""

    def test_admission_lands_on_the_lowest_scoring_node(self):
        datacenter = Datacenter(specs=(PAPER_NODE,) * 2)
        arrival = BEMember.of("streamcluster")
        timeline = datacenter.run_epochs(
            [lc("xapian", 0.6), lc("moses", 0.2), BEMember.of("fluidanimate")],
            BinPackingPlacement(),
            ARQScheduler,
            epochs=2,
            epoch_duration_s=6.0,
            arrivals={1: [arrival]},
        )
        scores = timeline.epochs[0].scores
        expected = min(sorted(scores), key=lambda node: scores[node])
        assert timeline.epochs[1].admitted == (("streamcluster", expected),)
        assert timeline.final_assignment.node_of("streamcluster") == expected
        assert timeline.total_moves() == 0  # no migration policy armed

    def test_rejects_degenerate_epoch_grids(self):
        datacenter = Datacenter(specs=(PAPER_NODE,))
        members = [lc("xapian", 0.5)]
        with pytest.raises(ConfigurationError, match="at least one"):
            datacenter.run_epochs(
                members, BinPackingPlacement(), ARQScheduler, epochs=0
            )
        with pytest.raises(ConfigurationError, match="positive"):
            datacenter.run_epochs(
                members,
                BinPackingPlacement(),
                ARQScheduler,
                epochs=1,
                epoch_duration_s=0.0,
            )

    def test_windows_attach_a_report_to_every_node_summary(self):
        datacenter = Datacenter(specs=(PAPER_NODE,) * 2)
        members = [lc("xapian", 0.5), lc("moses", 0.2), BEMember.of("fluidanimate")]
        timelines = [
            datacenter.run_epochs(
                members,
                BinPackingPlacement(),
                ARQScheduler,
                epochs=1,
                epoch_duration_s=6.0,
                windows=windows,
            )
            for windows in (None, 1.0)
        ]
        plain, windowed = (t.epochs[0].node_summaries for t in timelines)
        assert all(s.window_report is None for s in plain)
        assert all(s.window_report is not None for s in windowed)
        # Window reports ride along; they change no scoring field.
        assert timelines[0].to_dict() == timelines[1].to_dict()


class TestMigrationPolicy:
    """Deterministic, budgeted, hysteretic, cooldown-gated proposals."""

    def three_nodes(self):
        assignment = Assignment(
            per_node=(
                (lc("xapian", 0.5), BEMember.of("fluidanimate")),
                (lc("moses", 0.1),),
                (lc("img-dnn", 0.1),),
            )
        )
        specs = (NodeSpec(),) * 3
        scores = {0: 0.5, 1: 0.01, 2: 0.2}
        return assignment, specs, scores

    def test_moves_the_hog_off_the_hot_node(self):
        assignment, specs, scores = self.three_nodes()
        policy = EntropyGuidedMigration(budget=1, hysteresis=0.02)
        moves = policy.propose(
            scores, assignment, specs, now_s=0.0, horizon_s=10.0
        )
        assert len(moves) == 1
        move = moves[0]
        assert move.member == "fluidanimate"
        assert move.source == 0
        assert move.target in (1, 2)
        assert move.score_gap == pytest.approx(0.5 - scores[move.target])
        assert "fluidanimate" in move.describe()

    def test_proposals_are_deterministic(self):
        assignment, specs, scores = self.three_nodes()
        rounds = [
            EntropyGuidedMigration(budget=2, hysteresis=0.02).propose(
                scores, assignment, specs, now_s=0.0, horizon_s=10.0
            )
            for _ in range(2)
        ]
        assert rounds[0] == rounds[1]

    def test_hysteresis_suppresses_noise_gaps(self):
        assignment, specs, _ = self.three_nodes()
        scores = {0: 0.10, 1: 0.095, 2: 0.09}
        policy = EntropyGuidedMigration(budget=4, hysteresis=0.02)
        assert (
            policy.propose(scores, assignment, specs, now_s=0.0, horizon_s=10.0)
            == []
        )

    def test_budget_spreads_across_donors(self):
        assignment = Assignment(
            per_node=(
                (lc("xapian", 0.5), BEMember.of("fluidanimate")),
                (lc("masstree", 0.5), BEMember.of("streamcluster")),
                (lc("moses", 0.1),),
                (lc("img-dnn", 0.1),),
            )
        )
        specs = (NodeSpec(),) * 4
        scores = {0: 0.5, 1: 0.4, 2: 0.01, 3: 0.01}
        policy = EntropyGuidedMigration(budget=3, hysteresis=0.02)
        moves = policy.propose(
            scores, assignment, specs, now_s=0.0, horizon_s=10.0
        )
        # A moved endpoint freezes for the rest of the round, so the
        # budget spends itself across distinct donor/recipient pairs.
        assert sorted(move.source for move in moves) == [0, 1]
        assert len({move.target for move in moves}) == len(moves) == 2

    def test_cooldown_sits_endpoints_out_then_releases(self):
        assignment, specs, scores = self.three_nodes()
        policy = EntropyGuidedMigration(
            budget=1, hysteresis=0.02, cooldown_epochs=1
        )
        kwargs = dict(now_s=0.0, horizon_s=10.0)
        first = policy.propose(scores, assignment, specs, **kwargs)
        assert len(first) == 1
        # Both endpoints cool down for exactly one proposal round. The
        # only eligible donor was frozen, so the next round is silent.
        assert policy.propose(scores, assignment, specs, **kwargs) == []
        assert policy.propose(scores, assignment, specs, **kwargs) == first

    def test_reset_clears_cooldowns(self):
        assignment, specs, scores = self.three_nodes()
        policy = EntropyGuidedMigration(
            budget=1, hysteresis=0.02, cooldown_epochs=3
        )
        first = policy.propose(
            scores, assignment, specs, now_s=0.0, horizon_s=10.0
        )
        policy.reset()
        assert (
            policy.propose(scores, assignment, specs, now_s=0.0, horizon_s=10.0)
            == first
        )

    def test_capacity_guard_never_overfills_a_node(self):
        # ``stream`` alone saturates a node (10 threads on 10 cores):
        # no recipient can take it, however large the score gap.
        assignment = Assignment(
            per_node=(
                (lc("xapian", 0.5), BEMember.of("stream")),
                (lc("moses", 0.1),),
            )
        )
        policy = EntropyGuidedMigration(budget=2, hysteresis=0.02)
        moves = policy.propose(
            {0: 0.9, 1: 0.01},
            assignment,
            (NodeSpec(),) * 2,
            now_s=0.0,
            horizon_s=10.0,
        )
        assert moves == []

    def test_static_policy_never_moves(self):
        # ``migration_policy("none")`` is the static plane: no policy, so
        # the epoch loop never moves anyone.
        assert migration_policy("none", budget=3, hysteresis=0.0) is None
        datacenter = Datacenter(specs=(PAPER_NODE,) * 2)
        timeline = datacenter.run_epochs(
            [lc("xapian", 0.5), BEMember.of("stream"), BEMember.of("fluidanimate")],
            BinPackingPlacement(),
            UnmanagedScheduler,
            epochs=2,
            epoch_duration_s=5.0,
        )
        assert timeline.migration_name == "static"
        assert timeline.total_moves() == 0
        assert timeline.final_assignment == timeline.epochs[0].assignment

    def test_factory_and_validation(self):
        assert migration_policy("none") is None
        built = migration_policy("entropy", budget=3, hysteresis=0.05)
        assert isinstance(built, EntropyGuidedMigration)
        assert (built.budget, built.hysteresis) == (3, 0.05)
        with pytest.raises(ConfigurationError, match="unknown migration"):
            migration_policy("teleport")
        with pytest.raises(ConfigurationError, match="budget"):
            EntropyGuidedMigration(budget=0)
        with pytest.raises(ConfigurationError, match="hysteresis"):
            EntropyGuidedMigration(hysteresis=-0.1)
        with pytest.raises(ConfigurationError, match="cooldown"):
            EntropyGuidedMigration(cooldown_epochs=-1)


class TestAssignmentSurgery:
    """``moved`` / ``with_admitted`` keep assignments well-formed."""

    def test_moved_and_admitted_validate(self):
        member = lc("xapian", 0.5)
        assignment = Assignment(per_node=((member,), ()))
        with pytest.raises(ConfigurationError, match="not placed"):
            assignment.moved("ghost", 0)
        with pytest.raises(ConfigurationError, match="out of range"):
            assignment.moved("xapian", 5)
        with pytest.raises(ConfigurationError, match="already placed"):
            assignment.with_admitted(member, 1)
        with pytest.raises(ConfigurationError, match="out of range"):
            assignment.with_admitted(lc("moses"), 9)
        assert assignment.moved("xapian", 0) is assignment
        moved = assignment.moved("xapian", 1)
        assert moved.node_of("xapian") == 1
        admitted = assignment.with_admitted(lc("moses"), 1)
        assert admitted.node_of("moses") == 1
