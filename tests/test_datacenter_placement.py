"""Bin-packing placement: the tree worst-fit equals the brute-force scan.

``BinPackingPlacement.assign`` scores each member once per distinct node
spec and keeps one min-ordered tree of node loads per spec. The
reference below is the original per-(member, node) worst-fit loop; every
case asserts the two return equal assignments, including float-rounding
ties where a heavier, lower-index node must win.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.cluster.collocation import BEMember
from repro.datacenter import placement
from repro.datacenter.placement import (
    Assignment,
    BinPackingPlacement,
    DEFAULT_PRESSURE_HORIZON_S,
    _LoadTree,
    _member_pressure,
)
from repro.experiments.fig15_datacenter import build_population
from repro.server.spec import NodeSpec
from repro.workloads.catalog import be_profile

#: A spec where a BE member's pressure is exactly its bandwidth in GB/s:
#: one thread is a 0.001 core share, below every weight used here.
UNIT_BW_NODE = NodeSpec(cores=1000, membw_gbps=1.0)


def reference_assign(members, specs, horizon_s=DEFAULT_PRESSURE_HORIZON_S):
    """The brute-force worst-fit: scan every node for every member."""
    pressure = {}

    def weight(index, spec):
        key = (index, spec)
        if key not in pressure:
            pressure[key] = _member_pressure(members[index], spec, horizon_s)
        return pressure[key]

    buckets = [[] for _ in specs]
    loads = [0.0 for _ in specs]
    ordered = sorted(
        range(len(members)),
        key=lambda m: max(weight(m, spec) for spec in specs),
        reverse=True,
    )
    for m in ordered:
        target = min(
            range(len(specs)), key=lambda i: loads[i] + weight(m, specs[i])
        )
        buckets[target].append(members[m])
        loads[target] += weight(m, specs[target])
    return Assignment(per_node=tuple(tuple(b) for b in buckets))


def bandwidth_hogs(*gbps):
    """BE members whose pressure on :data:`UNIT_BW_NODE` is ``gbps``."""
    stream = be_profile("stream")
    return [
        BEMember(
            profile=replace(stream, name=f"hog-{i}", threads=1, membw_ref_gbps=bw)
        )
        for i, bw in enumerate(gbps)
    ]


@pytest.mark.parametrize("nodes", [7, 50, 200])
def test_matches_reference_on_the_fig15_population(nodes):
    members = build_population(nodes)
    specs = (NodeSpec(),) * nodes
    assert BinPackingPlacement().assign(members, specs) == reference_assign(
        members, specs
    )


def test_matches_reference_on_two_node_kinds():
    members = build_population(40)
    big = NodeSpec(cores=16, membw_gbps=90.0)
    specs = tuple(big if i % 3 == 0 else NodeSpec() for i in range(40))
    assignment = BinPackingPlacement().assign(members, specs)
    assert assignment == reference_assign(members, specs)
    assert {len(bucket) > 0 for bucket in assignment.per_node} == {True}


def test_matches_reference_on_exact_pressure_ties():
    # Equal weights tie on every node: the lowest index wins each time.
    members = bandwidth_hogs(*([0.25] * 9))
    specs = (UNIT_BW_NODE,) * 4
    assignment = BinPackingPlacement().assign(members, specs)
    assert assignment == reference_assign(members, specs)
    assert [len(b) for b in assignment.per_node] == [3, 2, 2, 2]


def test_rounding_tie_picks_the_heavier_lower_index_node():
    # Node 0 ends at 0.4 + 0.2 = 0.6000000000000001 and node 1 at
    # 0.3 + 0.3 = 0.6; adding the last 0.2 rounds both to one sum, so
    # the scan picks node 0 although the least-loaded node is node 1.
    members = bandwidth_hogs(0.2, 0.2, 0.3, 0.3, 0.4)
    specs = (UNIT_BW_NODE,) * 2
    assignment = BinPackingPlacement().assign(members, specs)
    assert assignment == reference_assign(members, specs)
    assert [m.name for m in assignment.per_node[0]] == ["hog-4", "hog-0", "hog-1"]


def test_rounding_tie_across_node_kinds():
    members = bandwidth_hogs(0.2, 0.2, 0.3, 0.3, 0.4, 0.1, 0.6)
    other = NodeSpec(cores=1000, membw_gbps=2.0)
    specs = (UNIT_BW_NODE, other, UNIT_BW_NODE, other)
    assert BinPackingPlacement().assign(members, specs) == reference_assign(
        members, specs
    )


def test_load_tree_finds_the_lowest_index_among_rounding_ties():
    heavier = 0.1 + 2 ** -56  # rounds onto 0.1 + 1.0
    tree = _LoadTree([3, 4, 8, 9, 11])
    for slot, load in enumerate([0.5, heavier, 0.1, heavier, 0.1]):
        tree.set(slot, load)
    assert tree.lightest(1.0) == (1.1, 4, 1)
    assert tree.lightest(0.0) == (0.1, 8, 2)


def test_one_peak_load_call_per_member_and_spec(monkeypatch):
    calls = []
    real = placement.peak_load

    def counting(trace, horizon_s):
        calls.append(trace)
        return real(trace, horizon_s)

    monkeypatch.setattr(placement, "peak_load", counting)
    members = build_population(1000)
    BinPackingPlacement().assign(members, (NodeSpec(),) * 1000)
    assert 0 < len(calls) <= len(members)
