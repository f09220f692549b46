"""Multi-node extension: placement and datacenter-level entropy.

The paper quantifies interference *within* a datacenter but evaluates on a
single node; this package scales the machinery out:

* :mod:`repro.datacenter.placement` — the initial assignment of
  applications to nodes (reservation-aware bin packing on horizon-aware
  peak-load pressure);
* :mod:`repro.datacenter.shard` — sharded node execution over the warm
  worker pool: :class:`NodeRun` items in, compact exact
  :class:`NodeEpochSummary` records out, byte-identical at any ``--jobs``;
* :mod:`repro.datacenter.migration` — interference-aware rebalancing
  between global epochs (:class:`EntropyGuidedMigration`: per-node
  ``E_S`` scores in, budgeted hysteretic BE moves out);
* :mod:`repro.datacenter.cluster` — :class:`Datacenter`: run every node's
  collocation under a scheduling strategy as a global epoch loop with
  admission and migration (:meth:`Datacenter.run_epochs` →
  :class:`DatacenterTimeline`) and aggregate the observations into
  datacenter-level ``E_LC``/``E_BE``/``E_S``;
* :mod:`repro.datacenter.chaos` — deterministic cluster-level fault
  plans (:class:`ClusterFaultPlan`: node crash, straggle, flap, summary
  loss/corruption on half-open epoch windows, JSON round-trip);
* :mod:`repro.datacenter.recovery` — the degraded-mode machinery:
  :class:`Quarantine` (with probation, strike backoff and stale-score
  holding), failover migration of a dead node's tenants, and
  :class:`DatacenterCheckpoint` for byte-identical checkpoint/resume.
"""

from repro.datacenter.chaos import (
    CLUSTER_FAULT_PRESETS,
    ClusterFaultPlan,
    NodeCrash,
    NodeFaultSpec,
    NodeFlap,
    NodeStraggle,
    SummaryCorruption,
    SummaryLoss,
    cluster_fault_from_dict,
    cluster_fault_preset,
)
from repro.datacenter.cluster import (
    Datacenter,
    DatacenterTimeline,
    GlobalEpoch,
)
from repro.datacenter.migration import (
    EntropyGuidedMigration,
    MigrationPolicy,
    Move,
    migration_policy,
)
from repro.datacenter.placement import (
    Assignment,
    BinPackingPlacement,
    Placement,
    node_pressure,
    peak_load,
)
from repro.datacenter.recovery import (
    DatacenterCheckpoint,
    Quarantine,
    failover_moves,
    summary_is_sane,
)
from repro.datacenter.shard import (
    NodeEpochSummary,
    NodeRun,
    ShardReport,
    run_shards,
    summarize_node,
)

__all__ = [
    "Assignment",
    "BinPackingPlacement",
    "CLUSTER_FAULT_PRESETS",
    "ClusterFaultPlan",
    "Datacenter",
    "DatacenterCheckpoint",
    "DatacenterTimeline",
    "EntropyGuidedMigration",
    "GlobalEpoch",
    "MigrationPolicy",
    "Move",
    "NodeCrash",
    "NodeEpochSummary",
    "NodeFaultSpec",
    "NodeFlap",
    "NodeRun",
    "NodeStraggle",
    "Placement",
    "Quarantine",
    "ShardReport",
    "SummaryCorruption",
    "SummaryLoss",
    "cluster_fault_from_dict",
    "cluster_fault_preset",
    "failover_moves",
    "migration_policy",
    "node_pressure",
    "peak_load",
    "run_shards",
    "summarize_node",
    "summary_is_sane",
]
