"""The multi-node datacenter layer: placement + pooled entropy."""

from __future__ import annotations

import pytest

from repro.cluster.collocation import BEMember, LCMember
from repro.datacenter import BinPackingPlacement, Datacenter
from repro.errors import ConfigurationError
from repro.schedulers import ARQScheduler, UnmanagedScheduler
from repro.server.spec import PAPER_NODE

MEMBERS = [
    LCMember.of("xapian", 0.5),
    LCMember.of("moses", 0.2),
    LCMember.of("img-dnn", 0.3),
    LCMember.of("silo", 0.2),
    BEMember.of("stream"),
    BEMember.of("fluidanimate"),
]
SPECS = [PAPER_NODE, PAPER_NODE]


def assert_complete(assignment, members):
    placed = [m.name for bucket in assignment.per_node for m in bucket]
    assert sorted(placed) == sorted(m.name for m in members)


class TestPlacements:
    def test_bin_packing_balances_pressure(self):
        assignment = BinPackingPlacement().assign(MEMBERS, SPECS)
        assert_complete(assignment, MEMBERS)
        # Stream (the heaviest pressure) and fluidanimate should not share
        # a node with each other when the other node is lighter... at
        # minimum: no node is left empty.
        assert all(len(bucket) > 0 for bucket in assignment.per_node)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            BinPackingPlacement().assign([], SPECS)
        with pytest.raises(ConfigurationError):
            BinPackingPlacement().assign(MEMBERS, [])

    def test_node_of_unplaced_raises(self):
        assignment = BinPackingPlacement().assign(MEMBERS, SPECS)
        with pytest.raises(ConfigurationError):
            assignment.node_of("ghost")


class TestDatacenter:
    def test_run_produces_pooled_summary(self):
        datacenter = Datacenter(specs=SPECS)
        timeline = datacenter.run_epochs(
            MEMBERS,
            BinPackingPlacement(),
            UnmanagedScheduler,
            epochs=2,
            epoch_duration_s=10.0,
        )
        summary = timeline.breakdown()
        assert 0.0 <= summary.e_s <= 1.0
        # Two epochs, each pooling every application once.
        observation = timeline.pooled_observation()
        assert len(observation.lc) == 2 * 4
        assert len(observation.be) == 2 * 2
        for epoch in timeline.epochs:
            assert set(epoch.scores) == {0, 1}

    def test_needs_nodes(self):
        with pytest.raises(ConfigurationError):
            Datacenter(specs=[])

    def test_pooled_entropy_dimensionless_and_yield_weighted(self):
        datacenter = Datacenter(specs=SPECS)
        timeline = datacenter.run_epochs(
            MEMBERS,
            BinPackingPlacement(),
            ARQScheduler,
            epochs=1,
            epoch_duration_s=20.0,
        )
        summary = timeline.breakdown()
        for value in (summary.e_lc, summary.e_be, summary.e_s):
            assert 0.0 <= value <= 1.0
        # The pooled yield equals the LC-count-weighted mean of the nodes'.
        total_lc = 0
        satisfied = 0
        for node in timeline.epochs[0].node_summaries:
            total_lc += len(node.lc)
            satisfied += sum(obs.measured_ms <= obs.threshold_ms for obs in node.lc)
        assert total_lc == 4
        assert timeline.pooled_observation().yield_fraction() == pytest.approx(
            satisfied / total_lc
        )
