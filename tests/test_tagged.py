"""The shared codec for kind-tagged records and fault-plan files."""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar, Tuple

import pytest

from repro.datacenter.chaos import (
    CLUSTER_FAULT_KINDS,
    ClusterFaultPlan,
    NodeCrash,
    NodeFaultSpec,
    cluster_fault_from_dict,
    cluster_fault_preset,
)
from repro.errors import ConfigurationError, FaultError
from repro.faults.plan import (
    FAULT_KINDS,
    FaultPlan,
    FaultSpec,
    LoadSpike,
    TelemetryDropout,
    fault_from_dict,
    fault_preset,
)
from repro.obs.events import EVENT_KINDS, FaultInjected, TraceEvent, event_from_dict
from repro.tagged import Tagged

#: (family root, its error type, a valid record of the family).
FAMILIES = [
    (TraceEvent, ConfigurationError, FaultInjected(time_s=1.0, targets=("a", "b"))),
    (FaultSpec, FaultError, TelemetryDropout(start_s=1.0, applications=("a", "b"))),
    (NodeFaultSpec, FaultError, NodeCrash(node=2, epoch=1, duration_epochs=3)),
]
FAMILY_IDS = [root.__name__ for root, _, _ in FAMILIES]

#: A payload per family that the record's constructor rejects with a
#: ``TypeError`` (a missing required field, or a string compared to 0).
MALFORMED = {
    "TraceEvent": {"kind": "fault_injected"},
    "FaultSpec": {"kind": "telemetry_dropout", "start_s": "soon"},
    "NodeFaultSpec": {"kind": "node_crash", "node": "n1"},
}

PLANS = [
    (FaultPlan, fault_preset("chaos")),
    (ClusterFaultPlan, cluster_fault_preset("chaos", 12)),
]
PLAN_IDS = [cls.__name__ for cls, _ in PLANS]


@pytest.mark.parametrize("root, error, record", FAMILIES, ids=FAMILY_IDS)
class TestTaggedFamilies:
    def test_round_trip_turns_lists_into_tuples(self, root, error, record):
        payload = record.to_dict()
        assert payload["kind"] == record.kind
        listed = {
            key: list(value) if isinstance(value, tuple) else value
            for key, value in payload.items()
        }
        assert root.from_dict(listed) == record

    @pytest.mark.parametrize("payload", [[1], 1, "kind", None])
    def test_non_mapping_payload_raises_family_error(
        self, root, error, record, payload
    ):
        with pytest.raises(error, match="must be a JSON object"):
            root.from_dict(payload)

    @pytest.mark.parametrize("kind", ["wormhole", None, ["list"], 7])
    def test_unknown_kind_lists_known_kinds(self, root, error, record, kind):
        with pytest.raises(error, match="known kinds") as caught:
            root.from_dict({"kind": kind})
        assert record.kind in str(caught.value)

    def test_root_kind_is_not_registered(self, root, error, record):
        assert root.kind not in root._kinds
        with pytest.raises(error, match="unknown"):
            root.from_dict({"kind": root.kind})

    def test_unexpected_fields_rejected(self, root, error, record):
        payload = dict(record.to_dict(), bogus=1)
        with pytest.raises(error, match=r"unexpected fields \['bogus'\]"):
            root.from_dict(payload)

    def test_constructor_type_error_is_malformed_payload(self, root, error, record):
        with pytest.raises(error, match="malformed payload"):
            root.from_dict(MALFORMED[root.__name__])


def test_public_registries_are_the_family_registries():
    assert EVENT_KINDS is TraceEvent._kinds
    assert FAULT_KINDS is FaultSpec._kinds
    assert CLUSTER_FAULT_KINDS is NodeFaultSpec._kinds
    assert event_from_dict.__func__ is Tagged.from_dict.__func__
    assert fault_from_dict({"kind": "load_spike", "application": "x"}) == LoadSpike(
        application="x"
    )
    assert cluster_fault_from_dict({"kind": "node_crash"}) == NodeCrash()


def test_families_do_not_share_kinds():
    assert not set(EVENT_KINDS) & set(FAULT_KINDS)
    assert not set(FAULT_KINDS) & set(CLUSTER_FAULT_KINDS)
    with pytest.raises(FaultError):
        FaultSpec.from_dict({"kind": "node_crash"})


def test_a_new_family_gets_its_own_registry():
    @dataclass(frozen=True)
    class Shape(Tagged, family="shape", error=ConfigurationError):
        kind: ClassVar[str] = "shape"

        sides: Tuple[int, ...] = ()

    @dataclass(frozen=True)
    class Square(Shape):
        kind: ClassVar[str] = "square"

    assert Shape._kinds == {"square": Square}
    assert Shape.from_dict({"kind": "square", "sides": [1, 1, 1, 1]}) == Square(
        sides=(1, 1, 1, 1)
    )
    with pytest.raises(ConfigurationError, match="unknown shape kind"):
        Shape.from_dict({"kind": "load_spike"})


@pytest.mark.parametrize("cls, plan", PLANS, ids=PLAN_IDS)
class TestPlans:
    def test_save_writes_trailing_newline_and_loads_back(self, cls, plan, tmp_path):
        path = str(tmp_path / "plan.json")
        assert plan.save(path) == path
        with open(path, encoding="utf-8") as handle:
            assert handle.read() == plan.to_json() + "\n"
        assert cls.load(path) == plan

    @pytest.mark.parametrize("payload", [[1], 1, {}, {"faults": 1}])
    def test_plan_shape_errors(self, cls, plan, payload):
        with pytest.raises(FaultError, match="needs a 'faults' list"):
            cls.from_dict(payload)

    def test_non_mapping_entry_raises_fault_error(self, cls, plan):
        with pytest.raises(FaultError, match="must be a JSON object"):
            cls.from_dict({"faults": [1]})

    def test_entries_must_be_the_family(self, cls, plan):
        with pytest.raises(FaultError, match="entries must be"):
            cls(faults=(FaultInjected(time_s=0.0),))

    def test_invalid_json(self, cls, plan):
        with pytest.raises(FaultError, match="plan JSON"):
            cls.from_json("{")

    def test_missing_file_names_the_path(self, cls, plan, tmp_path):
        path = str(tmp_path / "missing.json")
        with pytest.raises(FaultError, match="missing.json"):
            cls.load(path)
