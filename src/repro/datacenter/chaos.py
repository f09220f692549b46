"""Typed, deterministic cluster-level fault plans for the epoch loop.

:mod:`repro.faults` injects adversity *inside* one node's run; this module
injects adversity *between* nodes — the failure modes a real cluster
manager treats as the steady state: nodes crashing, straggling past the
epoch deadline, flapping up and down, and losing or corrupting the
compact :class:`~repro.datacenter.shard.NodeEpochSummary` reports the
coordinator steers by.

Every spec is a frozen dataclass over a half-open **epoch window**
``[epoch, epoch + duration_epochs)`` on the global epoch counter — a
cluster fault's effect is a pure function of ``(node, epoch)``, so a
seeded :meth:`~repro.datacenter.cluster.Datacenter.run_epochs` with a
plan attached stays byte-identical across ``--jobs`` values, repeat runs
and checkpoint/resume boundaries. Plans round-trip through JSON exactly
like :class:`~repro.faults.plan.FaultPlan` (``to_json``/``from_json``/
``save``/``load``) for the CLI's ``--chaos plan.json`` flag, and
:func:`cluster_fault_preset` builds named schedules scaled to a cluster
size (the CI smoke and fig16 use these).

Two families, mirroring the single-node split:

* **availability faults** (:class:`NodeCrash`, :class:`NodeStraggle`,
  :class:`NodeFlap`) change which nodes actually serve an epoch;
* **telemetry faults** (:class:`SummaryLoss`, :class:`SummaryCorruption`)
  leave the node serving but starve or poison the coordinator's view —
  the degraded loop must keep score from held last-good summaries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from typing import ClassVar, Dict, List, Optional, Tuple

from repro.datacenter.shard import NodeEpochSummary
from repro.errors import FaultError
from repro.tagged import Plan, Tagged

#: Summary-corruption modes :class:`SummaryCorruption` understands. Both
#: are *detectably* insane (NaN or negative entropies), so the degraded
#: loop's sanity gate catches and discards them — the damage they do is
#: the telemetry gap, never a silently-poisoned score.
SUMMARY_CORRUPTION_MODES = ("nan", "negative")


@dataclass(frozen=True)
class NodeFaultSpec(Tagged, family="cluster fault", error=FaultError):
    """Base class of all cluster fault specs: a node plus an epoch window.

    ``kind`` is a class attribute (stable wire name); the fault is active
    over the half-open window ``[epoch, epoch + duration_epochs)`` of the
    global epoch counter. Subclasses add flat, JSON-safe fields.
    """

    kind: ClassVar[str] = "node_fault"

    node: int = 0
    epoch: int = 0
    duration_epochs: int = 1

    def __post_init__(self) -> None:
        if self.node < 0:
            raise FaultError(f"fault node must be >= 0, got {self.node}")
        if self.epoch < 0:
            raise FaultError(f"fault epoch must be >= 0, got {self.epoch}")
        if self.duration_epochs < 1:
            raise FaultError(
                f"fault duration must be >= 1 epoch, got {self.duration_epochs}"
            )

    @property
    def end_epoch(self) -> int:
        """The first epoch at which the fault is no longer active."""
        return self.epoch + self.duration_epochs

    def active_at(self, epoch: int) -> bool:
        """Whether the fault is active at global epoch ``epoch``."""
        return self.epoch <= epoch < self.end_epoch

    def down_at(self, epoch: int) -> bool:
        """Whether the fault takes the node out of service at ``epoch``."""
        return False

    def describe(self) -> str:
        """Human-readable one-liner (used in trace events and reports)."""
        extras = ", ".join(
            f"{f.name}={getattr(self, f.name)!r}"
            for f in fields(self)
            if f.name not in ("node", "epoch", "duration_epochs")
        )
        window = f"epochs [{self.epoch}, {self.end_epoch})"
        return f"{self.kind} node {self.node} {window}" + (
            f" {extras}" if extras else ""
        )


#: Registry of cluster fault kinds (shared with :class:`NodeFaultSpec`).
CLUSTER_FAULT_KINDS: Dict[str, type] = NodeFaultSpec._kinds

#: Rebuild a :class:`NodeFaultSpec` from its ``to_dict`` output.
cluster_fault_from_dict = NodeFaultSpec.from_dict


@dataclass(frozen=True)
class NodeCrash(NodeFaultSpec):
    """The node is hard-down for the whole window: it serves nothing."""

    kind: ClassVar[str] = "node_crash"

    def down_at(self, epoch: int) -> bool:
        """Down for every epoch of the window."""
        return self.active_at(epoch)


@dataclass(frozen=True)
class NodeStraggle(NodeFaultSpec):
    """The node runs ``factor``× slower than the epoch deadline assumes.

    A per-epoch latency multiplier on the node's report turnaround: the
    node still serves, but its summary arrives ``factor`` epochs-worth of
    time late. The degraded loop compares the factor against the
    quarantine's ``straggle_threshold`` — below it the (late) summary is
    accepted; at or above it the epoch deadline is missed, the summary is
    discarded and the node is quarantined exactly as if it had failed.
    """

    kind: ClassVar[str] = "node_straggle"

    factor: float = 4.0

    def __post_init__(self) -> None:
        super().__post_init__()
        if not self.factor >= 1.0:
            raise FaultError(
                f"straggle factor must be >= 1, got {self.factor}"
            )


@dataclass(frozen=True)
class NodeFlap(NodeFaultSpec):
    """The node alternates down/up phases inside the window.

    Starting at ``epoch``, the node is down for ``down_epochs``, up for
    ``up_epochs``, down again, ... until the window closes — the
    pathological fast-rejoin pattern that defeats naive re-admission and
    is exactly what the quarantine's probation backoff exists for.
    """

    kind: ClassVar[str] = "node_flap"

    down_epochs: int = 1
    up_epochs: int = 1

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.down_epochs < 1:
            raise FaultError(
                f"flap down_epochs must be >= 1, got {self.down_epochs}"
            )
        if self.up_epochs < 1:
            raise FaultError(
                f"flap up_epochs must be >= 1, got {self.up_epochs}"
            )

    def down_at(self, epoch: int) -> bool:
        """Down during the down phase of each flap period."""
        if not self.active_at(epoch):
            return False
        phase = (epoch - self.epoch) % (self.down_epochs + self.up_epochs)
        return phase < self.down_epochs


@dataclass(frozen=True)
class SummaryLoss(NodeFaultSpec):
    """The node serves the epoch but its summary report never arrives."""

    kind: ClassVar[str] = "summary_loss"


@dataclass(frozen=True)
class SummaryCorruption(NodeFaultSpec):
    """The node's summary arrives with poisoned entropy fields.

    ``mode="nan"`` replaces the mean entropies with NaN; ``"negative"``
    negates them (entropies are non-negative by construction, Eq. 7).
    Both are caught by the coordinator's sanity gate and treated as a
    summary loss — the point is exercising the *detection* path.
    """

    kind: ClassVar[str] = "summary_corruption"

    mode: str = "nan"

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.mode not in SUMMARY_CORRUPTION_MODES:
            raise FaultError(
                f"unknown summary corruption mode {self.mode!r}; "
                f"choose from {SUMMARY_CORRUPTION_MODES}"
            )

    def corrupt(self, summary: NodeEpochSummary) -> NodeEpochSummary:
        """The summary with its mean entropies poisoned per ``mode``."""
        def poison(value: Optional[float]) -> Optional[float]:
            if value is None:
                return None
            return math.nan if self.mode == "nan" else -abs(value) - 1.0

        return replace(
            summary,
            mean_e_s=poison(summary.mean_e_s),
            mean_e_lc=poison(summary.mean_e_lc),
            mean_e_be=poison(summary.mean_e_be),
        )


class ClusterFaultPlan(Plan):
    """An immutable, JSON-round-trippable schedule of cluster faults.

    The per-epoch queries below are all pure functions of the plan.
    """

    spec: ClassVar[type] = NodeFaultSpec

    def down_nodes(self, epoch: int) -> Tuple[int, ...]:
        """Sorted indices of nodes out of service at ``epoch``."""
        return tuple(
            sorted({f.node for f in self.faults if f.down_at(epoch)})
        )

    def straggle_factor(self, node: int, epoch: int) -> float:
        """The node's latency multiplier at ``epoch`` (1.0 when healthy)."""
        factor = 1.0
        for fault in self.faults:
            if (
                isinstance(fault, NodeStraggle)
                and fault.node == node
                and fault.active_at(epoch)
            ):
                factor = max(factor, fault.factor)
        return factor

    def lost_summaries(self, epoch: int) -> Tuple[int, ...]:
        """Sorted indices of nodes whose summary is dropped at ``epoch``."""
        return tuple(
            sorted(
                {
                    f.node
                    for f in self.faults
                    if isinstance(f, SummaryLoss) and f.active_at(epoch)
                }
            )
        )

    def corruption_for(
        self, node: int, epoch: int
    ) -> Optional[SummaryCorruption]:
        """The first active corruption spec for ``node`` (plan order)."""
        for fault in self.faults:
            if (
                isinstance(fault, SummaryCorruption)
                and fault.node == node
                and fault.active_at(epoch)
            ):
                return fault
        return None

    def crashes(self) -> Tuple[NodeCrash, ...]:
        """The plan's crash specs, in plan order (fig16's recovery axis)."""
        return tuple(f for f in self.faults if isinstance(f, NodeCrash))


def _spread(nodes: int, count: int) -> List[int]:
    """``count`` distinct node indices spread across ``nodes`` nodes."""
    count = min(count, nodes)
    return sorted({(i * nodes) // count for i in range(count)})


def _preset_crash(nodes: int) -> Tuple[NodeFaultSpec, ...]:
    """One mid-cluster crash early in the run, two epochs long."""
    return (NodeCrash(node=nodes // 3, epoch=1, duration_epochs=2),)


def _preset_rolling(nodes: int) -> Tuple[NodeFaultSpec, ...]:
    """Staggered crashes marching across the cluster."""
    targets = _spread(nodes, 3)
    return tuple(
        NodeCrash(node=node, epoch=1 + 2 * slot, duration_epochs=2)
        for slot, node in enumerate(targets)
    )


def _preset_stragglers(nodes: int) -> Tuple[NodeFaultSpec, ...]:
    """One deadline-missing straggler plus one absorbed slow node."""
    slow, late = _spread(nodes, 2) if nodes > 1 else [0, 0]
    return (
        NodeStraggle(node=late, epoch=1, duration_epochs=2, factor=6.0),
        NodeStraggle(node=slow, epoch=2, duration_epochs=2, factor=1.5),
    )


def _preset_telemetry(nodes: int) -> Tuple[NodeFaultSpec, ...]:
    """Summary loss and both corruption modes on spread-out nodes."""
    targets = _spread(nodes, 3)
    lost = targets[0]
    corrupt = targets[1 % len(targets)]
    negated = targets[2 % len(targets)]
    return (
        SummaryLoss(node=lost, epoch=1, duration_epochs=2),
        SummaryCorruption(node=corrupt, epoch=1, duration_epochs=1, mode="nan"),
        SummaryCorruption(
            node=negated, epoch=2, duration_epochs=1, mode="negative"
        ),
    )


def _preset_flap(nodes: int) -> Tuple[NodeFaultSpec, ...]:
    """One node flapping down/up from epoch 1 onward."""
    return (
        NodeFlap(
            node=(2 * nodes) // 3,
            epoch=1,
            duration_epochs=4,
            down_epochs=1,
            up_epochs=1,
        ),
    )


def _preset_chaos(nodes: int) -> Tuple[NodeFaultSpec, ...]:
    """Every failure mode at once, on distinct nodes where possible."""
    return (
        _preset_crash(nodes)
        + _preset_stragglers(nodes)
        + _preset_telemetry(nodes)
        + _preset_flap(nodes)
    )


#: Named preset builders, each taking the cluster's node count. The
#: schedules depend only on the node count — never on the epoch target —
#: so a plan built for a 2-epoch checkpointed prefix and the 8-epoch
#: resumed run are the same plan (the resume byte-identity contract).
CLUSTER_FAULT_PRESETS = {
    "crash": _preset_crash,
    "rolling": _preset_rolling,
    "stragglers": _preset_stragglers,
    "telemetry": _preset_telemetry,
    "flap": _preset_flap,
    "chaos": _preset_chaos,
}


def cluster_fault_preset(name: str, nodes: int) -> ClusterFaultPlan:
    """Build a named preset :class:`ClusterFaultPlan` for ``nodes`` nodes."""
    if name not in CLUSTER_FAULT_PRESETS:
        raise FaultError(
            f"unknown cluster fault preset {name!r}; "
            f"choose from {sorted(CLUSTER_FAULT_PRESETS)}"
        )
    if nodes < 1:
        raise FaultError(f"a cluster needs at least one node: {nodes}")
    return ClusterFaultPlan(faults=CLUSTER_FAULT_PRESETS[name](nodes))
