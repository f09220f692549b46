"""The datacenter: many nodes, one entropy figure.

:class:`Datacenter` runs each node's collocation under (a fresh instance
of) a scheduling strategy and aggregates every node's post-warm-up
observations into datacenter-level entropies — ``E_S`` was designed to be
"robust to various collocation scenarios" (§II), and pooling observations
across nodes is exactly the holistic use the paper motivates.

Two execution shapes:

* :meth:`Datacenter.run` — one shot: place, run every busy node (sharded
  across the warm worker pool when ``jobs > 1``; byte-identical to the
  serial path at any worker count), pool the observations.
* :meth:`Datacenter.run_epochs` — the cluster simulation: a **global
  epoch loop** in which every node runs one segment of the cluster-wide
  load trace per epoch, workers exchange only compact
  :class:`~repro.datacenter.shard.NodeEpochSummary` records, and between
  epochs an optional :class:`~repro.datacenter.migration.MigrationPolicy`
  uses each node's measured ``E_S`` as an interference score to admit
  arrivals and migrate BE hogs — a bounded, hysteretic rebalancing à la
  ARQ's own move budget, one level up.
"""

from __future__ import annotations

import os
import warnings
from dataclasses import dataclass, field, replace
from typing import (
    Callable,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

from repro.check.invariants import CheckConfig
from repro.cluster.collocation import Collocation
from repro.cluster.run import RunResult
from repro.datacenter.chaos import ClusterFaultPlan
from repro.datacenter.migration import MigrationPolicy, Move
from repro.datacenter.placement import Assignment, Member, Placement, _is_lc
from repro.datacenter.recovery import (
    DatacenterCheckpoint,
    Quarantine,
    failover_moves,
    summary_is_sane,
)
from repro.datacenter.shard import (
    NodeEpochSummary,
    NodeOutcome,
    NodeRun,
    ShardReport,
    run_shards,
    summarize_node,
)
from repro.entropy.records import (
    BEObservation,
    EntropyBreakdown,
    LCObservation,
    SystemObservation,
)
from repro.errors import ConfigurationError, FaultError
from repro.faults.plan import FaultPlan
from repro.obs.events import (
    CheckpointWritten,
    NodeQuarantined,
    NodeRecovered,
    Tracer,
)
from repro.obs.windows import (
    WindowConfig,
    WindowSummary,
    merge_window_summaries,
)
from repro.schedulers.base import Scheduler
from repro.server.spec import NodeSpec
from repro.workloads.loadgen import TimeShiftedLoad

#: Seed stride between global epochs: each epoch's node ``i`` run seeds
#: ``seed + i + epoch · stride``, so per-node distinctness (``seed + i``)
#: is preserved inside an epoch while epochs stay decorrelated. Larger
#: than any realistic node count so strides never collide with indices.
EPOCH_SEED_STRIDE = 1_000_003

#: How :meth:`DatacenterResult.pooled_observation` treats nodes whose
#: measurement window is empty.
ON_EMPTY_MODES = ("raise", "skip")


def _pool_observations(
    summaries: Sequence[NodeEpochSummary],
    on_empty: str,
    context: str,
) -> SystemObservation:
    """Concatenate per-node observations, handling empty nodes by policy."""
    if on_empty not in ON_EMPTY_MODES:
        raise ConfigurationError(
            f"on_empty must be one of {ON_EMPTY_MODES}, got {on_empty!r}"
        )
    empty = [s.node_index for s in summaries if not s.measured_epochs]
    if empty and on_empty == "raise":
        raise ConfigurationError(
            f"{context}: node(s) {empty} measured no post-warm-up epochs "
            f"(duration_s too short for the warm-up window?); rerun with a "
            f"longer duration or pool with on_empty='skip'"
        )
    populated = [s for s in summaries if s.measured_epochs]
    if not populated:
        raise ConfigurationError(
            f"{context}: no node measured any post-warm-up epochs"
        )
    if empty:
        warnings.warn(
            f"{context}: skipping node(s) {empty} with no measured epochs",
            stacklevel=3,
        )
    lc: List[LCObservation] = []
    be: List[BEObservation] = []
    for summary in populated:
        lc.extend(summary.lc)
        be.extend(summary.be)
    return SystemObservation(lc=tuple(lc), be=tuple(be))


@dataclass(frozen=True)
class DatacenterResult:
    """Per-node runs plus the pooled datacenter summary.

    ``node_indices[i]`` is the node that produced ``node_summaries[i]``
    (and ``node_results[i]``, when records were kept) — list position is
    **not** a node index, because empty nodes run nothing. Use
    :meth:`result_for`/:meth:`summary_for` or :meth:`node_result_of` to
    line results up with :attr:`assignment`.
    """

    placement_name: str
    scheduler_name: str
    node_results: Tuple[RunResult, ...]
    assignment: Assignment
    node_indices: Tuple[int, ...] = ()
    node_summaries: Tuple[NodeEpochSummary, ...] = ()
    #: Merged bounded window report (when the run was window-armed);
    #: excluded from equality so windowed and plain runs compare.
    window_report: Optional[WindowSummary] = field(
        default=None, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        # Back-fill the index/summary channel for results built the old
        # way (positional node_results only): positions then *are* node
        # indices, which is only correct when no node was skipped — the
        # historical behaviour this type now makes explicit.
        if not self.node_indices and self.node_results:
            object.__setattr__(
                self, "node_indices", tuple(range(len(self.node_results)))
            )
        if not self.node_summaries and self.node_results:
            object.__setattr__(
                self,
                "node_summaries",
                tuple(
                    summarize_node(index, result)
                    for index, result in zip(self.node_indices, self.node_results)
                ),
            )

    # -- alignment -------------------------------------------------------

    def summary_for(self, node_index: int) -> NodeEpochSummary:
        """The summary of node ``node_index`` (not a list position)."""
        for summary in self.node_summaries:
            if summary.node_index == node_index:
                return summary
        raise ConfigurationError(
            f"node {node_index} ran no collocation (empty or out of range)"
        )

    def result_for(self, node_index: int) -> RunResult:
        """The full run of node ``node_index`` (requires kept records)."""
        for index, result in zip(self.node_indices, self.node_results):
            if index == node_index:
                return result
        raise ConfigurationError(
            f"node {node_index} has no kept run result (empty node, or the "
            f"run exchanged only summaries)"
        )

    def node_result_of(self, name: str) -> RunResult:
        """The run of the node hosting application ``name``."""
        return self.result_for(self.assignment.node_of(name))

    # -- pooled summaries ------------------------------------------------

    def pooled_observation(self, on_empty: str = "raise") -> SystemObservation:
        """All nodes' mean post-warm-up observations, pooled.

        Nodes whose measurement window is empty (e.g. the warm-up left no
        epochs) make the pool ill-defined; ``on_empty="raise"`` (default)
        fails with a clear :class:`~repro.errors.ConfigurationError`,
        ``on_empty="skip"`` pools the populated nodes and warns.
        """
        return _pool_observations(
            self.node_summaries, on_empty, f"datacenter[{self.placement_name}]"
        )

    def breakdown(
        self, relative_importance: float = 0.8, on_empty: str = "raise"
    ) -> EntropyBreakdown:
        """Datacenter-level Table II-style summary."""
        return self.pooled_observation(on_empty).breakdown(relative_importance)

    def yield_fraction(self, on_empty: str = "raise") -> float:
        """Pooled ratio of LC applications meeting their QoS threshold."""
        return self.pooled_observation(on_empty).yield_fraction()

    def per_node_entropy(self) -> List[Optional[float]]:
        """Each run node's mean ``E_S`` (``None`` where nothing measured).

        Aligned with :attr:`node_indices`, not with raw node numbers.
        """
        return [summary.mean_e_s for summary in self.node_summaries]

    def interference_scores(self) -> Dict[int, float]:
        """Node index → measured mean ``E_S`` (the migration signal)."""
        return {
            summary.node_index: summary.mean_e_s
            for summary in self.node_summaries
            if summary.mean_e_s is not None
        }

    def to_dict(self, on_empty: str = "skip") -> Dict[str, object]:
        """A deterministic JSON-ready dict of the pooled summary."""
        breakdown = self.breakdown(on_empty=on_empty)
        return {
            "placement": self.placement_name,
            "scheduler": self.scheduler_name,
            "nodes_run": len(self.node_summaries),
            "pooled": {
                "e_s": breakdown.e_s,
                "e_lc": breakdown.e_lc,
                "e_be": breakdown.e_be,
                "yield": self.yield_fraction(on_empty=on_empty),
            },
            "node_summaries": [s.to_dict() for s in self.node_summaries],
        }


@dataclass(frozen=True)
class GlobalEpoch:
    """One global epoch of the cluster simulation.

    ``assignment`` is what the epoch *ran with*; ``moves`` were applied
    after its measurements (they shape the next epoch). ``admitted``
    lists applications admitted at this epoch's start, with the node each
    landed on.

    The degraded-mode fields record the epoch's failure story:
    ``quarantined`` are the nodes out of service this epoch,
    ``failed``/``lost`` the nodes whose run failed (or missed the
    deadline) / whose summary was dropped as lost or corrupt,
    ``recovered`` the nodes that re-entered service at epoch start,
    ``failovers`` the evacuation moves applied before the run, and
    ``parked`` the applications stranded on down nodes (they did not run
    this epoch). ``scores`` may contain **held** entries for dark nodes
    (their last good ``E_S``, up to the staleness cap).
    """

    epoch: int
    start_s: float
    assignment: Assignment
    node_summaries: Tuple[NodeEpochSummary, ...]
    scores: Mapping[int, float]
    moves: Tuple[Move, ...] = ()
    admitted: Tuple[Tuple[str, int], ...] = ()
    quarantined: Tuple[int, ...] = ()
    failed: Tuple[int, ...] = ()
    recovered: Tuple[int, ...] = ()
    lost: Tuple[int, ...] = ()
    failovers: Tuple[Move, ...] = ()
    parked: Tuple[str, ...] = ()

    def mean_score(self) -> Optional[float]:
        """Unweighted mean of this epoch's node interference scores."""
        if not self.scores:
            return None
        return sum(self.scores.values()) / len(self.scores)

    def to_dict(self) -> Dict[str, object]:
        """A deterministic JSON-ready dict."""
        return {
            "epoch": self.epoch,
            "start_s": self.start_s,
            "scores": {str(node): s for node, s in sorted(self.scores.items())},
            "moves": [move.to_dict() for move in self.moves],
            "admitted": [[name, node] for name, node in self.admitted],
            "node_summaries": [s.to_dict() for s in self.node_summaries],
            "quarantined": list(self.quarantined),
            "failed": list(self.failed),
            "recovered": list(self.recovered),
            "lost": list(self.lost),
            "failovers": [move.to_dict() for move in self.failovers],
            "parked": list(self.parked),
        }


@dataclass(frozen=True)
class DatacenterTimeline:
    """The full record of a :meth:`Datacenter.run_epochs` simulation."""

    placement_name: str
    scheduler_name: str
    migration_name: str
    epoch_duration_s: float
    epochs: Tuple[GlobalEpoch, ...]
    final_assignment: Assignment

    def pooled_observation(self, on_empty: str = "skip") -> SystemObservation:
        """Every epoch's every node observation, pooled."""
        summaries = [
            summary for epoch in self.epochs for summary in epoch.node_summaries
        ]
        return _pool_observations(
            summaries, on_empty, f"timeline[{self.migration_name}]"
        )

    def breakdown(
        self, relative_importance: float = 0.8, on_empty: str = "skip"
    ) -> EntropyBreakdown:
        """Timeline-level pooled entropy breakdown."""
        return self.pooled_observation(on_empty).breakdown(relative_importance)

    def mean_node_e_s(self) -> float:
        """Measured-epoch-weighted mean of per-node-epoch ``E_S``."""
        total = 0.0
        weight = 0
        for epoch in self.epochs:
            for summary in epoch.node_summaries:
                if summary.mean_e_s is not None:
                    total += summary.mean_e_s * summary.measured_epochs
                    weight += summary.measured_epochs
        if not weight:
            raise ConfigurationError("timeline measured no epochs at all")
        return total / weight

    def total_moves(self) -> int:
        """Migrations applied across the whole timeline."""
        return sum(len(epoch.moves) for epoch in self.epochs)

    def violations(self) -> int:
        """Total (epoch × node × application) QoS violations."""
        return sum(
            summary.violations
            for epoch in self.epochs
            for summary in epoch.node_summaries
        )

    def to_dict(self) -> Dict[str, object]:
        """A deterministic JSON-ready dict of the whole timeline."""
        breakdown = self.breakdown()
        return {
            "placement": self.placement_name,
            "scheduler": self.scheduler_name,
            "migration": self.migration_name,
            "epoch_duration_s": self.epoch_duration_s,
            "pooled": {
                "e_s": breakdown.e_s,
                "e_lc": breakdown.e_lc,
                "e_be": breakdown.e_be,
                "mean_node_e_s": self.mean_node_e_s(),
                "violations": self.violations(),
                "moves": self.total_moves(),
            },
            "epochs": [epoch.to_dict() for epoch in self.epochs],
        }


def _replay_epochs(
    payloads: Sequence[Mapping[str, object]],
    assignment: Assignment,
    arrivals: Optional[Mapping[int, Sequence[Member]]],
) -> Tuple[List[GlobalEpoch], Assignment]:
    """Reconstruct checkpointed epochs and the assignment they left behind.

    Replays each recorded epoch's assignment mutations in exactly the
    order the live loop applied them — failovers, then admissions, then
    (after capturing the epoch's run assignment) migration moves — so a
    resumed run continues from the same placement the uninterrupted run
    would hold. Admitted applications are looked up by name in
    ``arrivals``; the resumed call must pass the same mapping the
    checkpointed run used.
    """
    pool: Dict[str, Member] = {
        member.name: member
        for members in (arrivals or {}).values()
        for member in members
    }
    timeline: List[GlobalEpoch] = []
    for payload in payloads:
        failovers = tuple(
            Move(**dict(entry)) for entry in payload.get("failovers", ())
        )
        for move in failovers:
            assignment = assignment.moved(move.member, move.target)
        admitted: List[Tuple[str, int]] = []
        for name, node in payload.get("admitted", ()):
            member = pool.get(name)
            if member is None:
                raise ConfigurationError(
                    f"resume: admitted application {name!r} is not in the "
                    f"arrivals mapping — resume with the same arrivals the "
                    f"checkpointed run used"
                )
            assignment = assignment.with_admitted(member, node)
            admitted.append((name, node))
        moves = tuple(Move(**dict(entry)) for entry in payload.get("moves", ()))
        timeline.append(
            GlobalEpoch(
                epoch=payload["epoch"],
                start_s=payload["start_s"],
                assignment=assignment,
                node_summaries=tuple(
                    NodeEpochSummary.from_dict(entry)
                    for entry in payload.get("node_summaries", ())
                ),
                scores={
                    int(node): score
                    for node, score in payload.get("scores", {}).items()
                },
                moves=moves,
                admitted=tuple(admitted),
                quarantined=tuple(payload.get("quarantined", ())),
                failed=tuple(payload.get("failed", ())),
                recovered=tuple(payload.get("recovered", ())),
                lost=tuple(payload.get("lost", ())),
                failovers=failovers,
                parked=tuple(payload.get("parked", ())),
            )
        )
        for move in moves:
            assignment = assignment.moved(move.member, move.target)
    return timeline, assignment


def _shifted_members(
    members: Sequence[Member], offset_s: float
) -> Tuple[Member, ...]:
    """Members with LC load traces advanced by ``offset_s`` (0 → as-is)."""
    if not offset_s:
        return tuple(members)
    return tuple(
        replace(m, load=TimeShiftedLoad(trace=m.load, offset_s=offset_s))
        if _is_lc(m)
        else m
        for m in members
    )


def _validate_measured_window(
    duration_s: float, warmup_s: float, collocations: Sequence[Collocation]
) -> None:
    """Fail fast when the warm-up window would leave no measured epochs.

    ``run_collocation`` already rejects ``warmup_s >= duration_s``; this
    additionally catches the epoch-granularity gap (the last epoch
    starting *before* the warm-up boundary), which used to surface much
    later as an opaque ``MeasurementError`` from summary pooling.
    """
    if duration_s <= warmup_s:
        raise ConfigurationError(
            f"datacenter run: duration_s ({duration_s}s) must exceed "
            f"warmup_s ({warmup_s}s) — no measured epochs would remain"
        )
    for collocation in collocations:
        epochs = int(round(duration_s / collocation.epoch_s))
        if epochs < 1 or (epochs - 1) * collocation.epoch_s < warmup_s:
            raise ConfigurationError(
                f"datacenter run: {duration_s}s in {collocation.epoch_s}s "
                f"epochs leaves no epoch at or after the {warmup_s}s "
                f"warm-up boundary"
            )


@dataclass(frozen=True)
class Datacenter:
    """A set of nodes to place applications on and run strategies over."""

    specs: Sequence[NodeSpec]

    def __post_init__(self) -> None:
        if not self.specs:
            raise ConfigurationError("a datacenter needs at least one node")

    def _run_assignment(
        self,
        assignment: Assignment,
        scheduler_factory: Callable[[], Scheduler],
        duration_s: float,
        warmup_s: float,
        seed: int,
        *,
        jobs: Optional[int],
        tracer: Optional[Tracer],
        faults: Optional[FaultPlan],
        checks: Optional[Union[CheckConfig, str]],
        windows: Optional[Union[WindowConfig, int, float]],
        keep_records: bool,
        offset_s: float = 0.0,
        retries: int = 0,
        on_error: str = "raise",
    ) -> Tuple[Tuple[int, ...], Union[List[NodeOutcome], ShardReport]]:
        """Shard one assignment over the pool; outcomes in node order.

        ``on_error="salvage"`` returns a
        :class:`~repro.datacenter.shard.ShardReport` instead of a plain
        outcome list (the degraded epoch loop's mode).
        """
        check_config = None if checks is None else CheckConfig.of(checks)
        window_config = None if windows is None else WindowConfig.of(windows)
        run_assignment = assignment
        if offset_s:
            run_assignment = Assignment(
                per_node=tuple(
                    _shifted_members(bucket, offset_s)
                    for bucket in assignment.per_node
                )
            )
        indexed = run_assignment.indexed_collocations(self.specs, seed=seed)
        _validate_measured_window(
            duration_s, warmup_s, [c for _, c in indexed]
        )
        items = [
            NodeRun(
                node_index=index,
                collocation=collocation,
                scheduler_factory=scheduler_factory,
                duration_s=duration_s,
                warmup_s=warmup_s,
                faults=faults,
                checks=check_config,
                windows=window_config,
                keep_records=keep_records,
                collect_trace=tracer is not None,
            )
            for index, collocation in indexed
        ]
        outcomes = run_shards(
            items,
            jobs=jobs,
            retries=retries,
            on_error=on_error,
        )
        if tracer is not None:
            # Replay per-node events in node-index order: the sharded
            # trace is byte-identical to the serial one at any --jobs.
            flat = (
                outcomes.outcomes
                if isinstance(outcomes, ShardReport)
                else outcomes
            )
            for outcome in flat:
                if outcome is None:
                    continue
                for event in outcome.events:
                    tracer.emit(event)
        return tuple(index for index, _ in indexed), outcomes

    def run(
        self,
        members: Sequence[Member],
        placement: Placement,
        scheduler_factory: Callable[[], Scheduler],
        duration_s: float = 120.0,
        warmup_s: float = 60.0,
        seed: int = 2023,
        *,
        jobs: Optional[int] = None,
        tracer: Optional[Tracer] = None,
        faults: Optional[FaultPlan] = None,
        checks: Optional[Union[CheckConfig, str]] = None,
        windows: Optional[Union[WindowConfig, int, float]] = None,
        keep_records: bool = True,
        retries: int = 0,
    ) -> DatacenterResult:
        """Place ``members``, run every busy node (sharded), aggregate.

        Each node gets a *fresh* scheduler instance (schedulers carry
        internal state) and a distinct RNG seed (``seed + node_index``).
        ``jobs`` fans nodes across the warm worker pool — results are
        byte-identical at any worker count. ``faults``/``checks``/
        ``windows`` thread through to every node's
        :func:`~repro.cluster.run.run_collocation` (per-node window
        reports are merged onto
        :attr:`DatacenterResult.window_report`); ``tracer`` receives
        every node's events, replayed in node order.
        ``keep_records=False`` exchanges only compact per-node summaries
        with the workers (no epoch records cross the process boundary).
        ``retries`` re-attempts each failing node's run (see
        :func:`~repro.datacenter.shard.run_shards`).
        """
        assignment = placement.assign(members, self.specs)
        node_indices, outcomes = self._run_assignment(
            assignment,
            scheduler_factory,
            duration_s,
            warmup_s,
            seed,
            jobs=jobs,
            tracer=tracer,
            faults=faults,
            checks=checks,
            windows=windows,
            keep_records=keep_records,
            retries=retries,
        )
        summaries = tuple(outcome.summary for outcome in outcomes)
        results = tuple(
            outcome.result for outcome in outcomes if outcome.result is not None
        )
        report = None
        if windows is not None:
            report = merge_window_summaries(
                (summary.window_report for summary in summaries),
                config=WindowConfig.of(windows),
            )
        return DatacenterResult(
            placement_name=placement.name,
            scheduler_name=(
                summaries[0].scheduler_name if summaries else "n/a"
            ),
            node_results=results,
            assignment=assignment,
            node_indices=node_indices,
            node_summaries=summaries,
            window_report=report,
        )

    def compare_placements(
        self,
        members: Sequence[Member],
        placements: Sequence[Placement],
        scheduler_factory: Callable[[], Scheduler],
        duration_s: float = 120.0,
        warmup_s: float = 60.0,
        seed: int = 2023,
        *,
        jobs: Optional[int] = None,
    ) -> Dict[str, DatacenterResult]:
        """Run several placements on the same application set."""
        return {
            placement.name: self.run(
                members,
                placement,
                scheduler_factory,
                duration_s,
                warmup_s,
                seed,
                jobs=jobs,
            )
            for placement in placements
        }

    def run_epochs(
        self,
        members: Sequence[Member],
        placement: Placement,
        scheduler_factory: Callable[[], Scheduler],
        *,
        epochs: int,
        epoch_duration_s: float = 30.0,
        warmup_s: Optional[float] = None,
        seed: int = 2023,
        jobs: Optional[int] = None,
        migration: Optional[MigrationPolicy] = None,
        arrivals: Optional[Mapping[int, Sequence[Member]]] = None,
        faults: Optional[FaultPlan] = None,
        checks: Optional[Union[CheckConfig, str]] = None,
        windows: Optional[Union[WindowConfig, int, float]] = None,
        retries: int = 0,
        chaos: Optional[ClusterFaultPlan] = None,
        quarantine: Optional[Quarantine] = None,
        tracer: Optional[Tracer] = None,
        checkpoint_path: Optional[str] = None,
        checkpoint_every: int = 1,
        resume: bool = False,
    ) -> DatacenterTimeline:
        """The global epoch loop: run, score, admit, migrate, repeat.

        Epoch ``e`` runs every busy node for ``epoch_duration_s`` seconds
        over segment ``[e·Δ, (e+1)·Δ)`` of the cluster's load traces
        (via :class:`~repro.workloads.loadgen.TimeShiftedLoad`), with
        node ``i`` seeded ``seed + i + e·EPOCH_SEED_STRIDE``. Nodes
        exchange only compact
        :class:`~repro.datacenter.shard.NodeEpochSummary` records with
        the coordinator — never raw epoch streams — so the loop scales
        to thousands of nodes at bounded coordinator memory.

        After each epoch the per-node measured mean ``E_S`` becomes the
        cluster's interference score vector: ``arrivals[e]`` members are
        admitted at the start of epoch ``e`` onto the lowest-scoring node
        (fewest-members node before any scores exist), and ``migration``
        proposes bounded, hysteretic BE moves that reshape the next
        epoch's assignment. ``warmup_s`` (default 20% of the epoch)
        trims each node run's convergence transient.

        **Degraded mode** arms when ``chaos`` (a
        :class:`~repro.datacenter.chaos.ClusterFaultPlan`) or
        ``quarantine`` (a :class:`~repro.datacenter.recovery.Quarantine`
        guard) is given: node failures no longer abort the run. Down
        nodes are quarantined with probation on release, their tenants
        fail over onto the lowest-``E_S`` feasible survivors (unless the
        guard disables failover), their last good summary keeps scoring
        for them up to a staleness cap, and corrupt or missing summaries
        are detected and dropped. A ``chaos`` plan that names a node
        outside the cluster raises :class:`~repro.errors.FaultError`.
        Without a guard, any node failure
        still raises :class:`~repro.parallel.runner.ParallelRunError`
        (after ``retries`` re-attempts).

        **Checkpointing** arms when ``checkpoint_path`` is given: every
        ``checkpoint_every`` epochs the loop atomically writes a
        :class:`~repro.datacenter.recovery.DatacenterCheckpoint`;
        ``resume=True`` continues from that file (a missing file starts
        fresh), producing a timeline byte-identical to an uninterrupted
        run at any ``jobs`` — seeds are a function of the absolute epoch
        number, so skipped epochs stay aligned. ``tracer`` receives
        ``NodeQuarantined``/``NodeRecovered``/``CheckpointWritten``
        events as the loop degrades and recovers.
        """
        if epochs < 1:
            raise ConfigurationError(f"need at least one global epoch: {epochs}")
        if epoch_duration_s <= 0:
            raise ConfigurationError(
                f"epoch duration must be positive: {epoch_duration_s}"
            )
        if checkpoint_every < 1:
            raise ConfigurationError(
                f"checkpoint_every must be >= 1: {checkpoint_every}"
            )
        if resume and checkpoint_path is None:
            raise ConfigurationError("resume=True needs a checkpoint_path")
        if chaos is not None:
            outside = sorted(
                {f.node for f in chaos.faults if f.node >= len(self.specs)}
            )
            if outside:
                raise FaultError(
                    f"cluster fault plan names node(s) {outside} outside "
                    f"this {len(self.specs)}-node cluster"
                )
        epoch_warmup_s = (
            0.2 * epoch_duration_s if warmup_s is None else warmup_s
        )
        guard = quarantine
        if guard is None and chaos is not None:
            guard = Quarantine()
        config = {
            "seed": seed,
            "epoch_duration_s": epoch_duration_s,
            "warmup_s": epoch_warmup_s,
            "nodes": len(self.specs),
            "placement": placement.name,
            "migration": migration.name if migration is not None else "static",
            "members": sorted(m.name for m in members),
            "chaos": chaos.to_dict() if chaos is not None else None,
            "quarantine": guard.config_dict() if guard is not None else None,
        }
        assignment = placement.assign(members, self.specs)
        timeline: List[GlobalEpoch] = []
        scores: Dict[int, float] = {}
        start_epoch = 0
        if (
            resume
            and checkpoint_path is not None
            and os.path.exists(checkpoint_path)
        ):
            checkpoint = DatacenterCheckpoint.load(checkpoint_path)
            checkpoint.validate_config(config)
            if checkpoint.next_epoch > epochs:
                raise ConfigurationError(
                    f"checkpoint already covers {checkpoint.next_epoch} "
                    f"epochs; the requested target is only {epochs}"
                )
            timeline, assignment = _replay_epochs(
                checkpoint.epochs, assignment, arrivals
            )
            scores = dict(checkpoint.scores)
            start_epoch = checkpoint.next_epoch
            if migration is not None:
                migration.reset()
                migration.load_state(checkpoint.migration_state)
            if guard is not None:
                guard.load_state(checkpoint.quarantine_state)
        else:
            if migration is not None:
                migration.reset()
        for epoch in range(start_epoch, epochs):
            epoch_start_s = epoch * epoch_duration_s
            epoch_end_s = (epoch + 1) * epoch_duration_s
            recovered: List[int] = []
            down: Set[int] = set()
            failovers: Tuple[Move, ...] = ()
            parked: Tuple[str, ...] = ()
            if guard is not None:
                plan_down = (
                    set(chaos.down_nodes(epoch)) if chaos is not None else set()
                )
                for node in guard.begin_epoch():
                    if node in plan_down:
                        # Still down per the plan: keep it sitting, no
                        # recovery churn (defeats spurious flap strikes).
                        guard.refresh(node)
                    else:
                        recovered.append(node)
                        if tracer is not None:
                            tracer.emit(
                                NodeRecovered(
                                    time_s=epoch_start_s,
                                    node=node,
                                    epoch=epoch,
                                    probation_epochs=guard.probation_epochs,
                                )
                            )
                for node in sorted(plan_down):
                    if guard.is_quarantined(node):
                        guard.refresh(node)
                    else:
                        sentence = guard.report_failure(node)
                        if tracer is not None:
                            tracer.emit(
                                NodeQuarantined(
                                    time_s=epoch_start_s,
                                    node=node,
                                    epoch=epoch,
                                    until_epoch=epoch + sentence,
                                    reason="crash",
                                )
                            )
                down = plan_down | set(guard.active())
                if guard.failover and down:
                    proposals = failover_moves(
                        assignment,
                        sorted(down),
                        scores,
                        self.specs,
                        now_s=epoch_start_s,
                        horizon_s=epoch_duration_s,
                    )
                    for move in proposals:
                        assignment = assignment.moved(move.member, move.target)
                    failovers = tuple(proposals)
            admitted: List[Tuple[str, int]] = []
            for member in (arrivals or {}).get(epoch, ()):  # admission
                node = self._admission_node(scores, assignment, excluded=down)
                assignment = assignment.with_admitted(member, node)
                admitted.append((member.name, node))
            missed: Set[int] = set()
            if chaos is not None and guard is not None:
                missed = {
                    node
                    for node in assignment.busy_nodes()
                    if node not in down
                    and chaos.straggle_factor(node, epoch)
                    >= guard.straggle_threshold
                }
            if guard is not None:
                parked = tuple(
                    member.name
                    for node in sorted(down)
                    if node < len(assignment.per_node)
                    for member in assignment.per_node[node]
                )
            run_assignment = assignment
            if down or missed:
                run_assignment = assignment.cleared(sorted(down | missed))
            _, outcomes = self._run_assignment(
                run_assignment,
                scheduler_factory,
                epoch_duration_s,
                epoch_warmup_s,
                seed + epoch * EPOCH_SEED_STRIDE,
                jobs=jobs,
                tracer=None,
                faults=faults,
                checks=checks,
                windows=windows,
                keep_records=False,
                offset_s=epoch * epoch_duration_s,
                retries=retries,
                on_error="salvage" if guard is not None else "raise",
            )
            failed: Tuple[int, ...] = ()
            lost: Tuple[int, ...] = ()
            if guard is not None:
                assert isinstance(outcomes, ShardReport)
                for node in sorted(missed):
                    sentence = guard.report_failure(node)
                    if tracer is not None:
                        tracer.emit(
                            NodeQuarantined(
                                time_s=epoch_start_s,
                                node=node,
                                epoch=epoch,
                                until_epoch=epoch + sentence,
                                reason="straggler",
                                detail=(
                                    f"latency x"
                                    f"{chaos.straggle_factor(node, epoch):g} "
                                    f"missed the epoch deadline"
                                ),
                            )
                        )
                failed_run = set(outcomes.failed_nodes())
                details = {
                    outcomes.items[failure.index].node_index: failure.describe()
                    for failure in outcomes.failures
                }
                for node in sorted(failed_run):
                    sentence = guard.report_failure(node)
                    if tracer is not None:
                        tracer.emit(
                            NodeQuarantined(
                                time_s=epoch_end_s,
                                node=node,
                                epoch=epoch,
                                until_epoch=epoch + sentence,
                                reason="run_failed",
                                detail=details.get(node, ""),
                            )
                        )
                failed = tuple(sorted(failed_run | missed))
                completed = outcomes.completed()
                lost_plan = (
                    set(chaos.lost_summaries(epoch))
                    if chaos is not None
                    else set()
                )
                dropped: List[int] = []
                kept: List[NodeEpochSummary] = []
                for node in sorted(completed):
                    summary = completed[node].summary
                    if chaos is not None:
                        corruption = chaos.corruption_for(node, epoch)
                        if corruption is not None:
                            summary = corruption.corrupt(summary)
                    if node in lost_plan or not summary_is_sane(summary):
                        dropped.append(node)
                        continue
                    kept.append(summary)
                    guard.hold(node, summary)
                lost = tuple(dropped)
                summaries = tuple(kept)
                scores = {
                    summary.node_index: summary.mean_e_s
                    for summary in summaries
                    if summary.mean_e_s is not None
                }
                # Dark nodes keep scoring from their last good summary,
                # up to the guard's staleness cap.
                for node in sorted(down | set(lost) | set(failed)):
                    if node in scores:
                        continue
                    held = guard.held_score(node)
                    if held is not None:
                        scores[node] = held
            else:
                summaries = tuple(outcome.summary for outcome in outcomes)
                scores = {
                    summary.node_index: summary.mean_e_s
                    for summary in summaries
                    if summary.mean_e_s is not None
                }
            moves: Tuple[Move, ...] = ()
            if migration is not None and epoch + 1 < epochs:
                # Down and freshly-failed nodes are untouchable: their
                # held scores keep the books, not the migration plan.
                untouchable = down | set(failed)
                eligible = {
                    node: score
                    for node, score in scores.items()
                    if node not in untouchable
                }
                moves = tuple(
                    migration.propose(
                        eligible,
                        assignment,
                        self.specs,
                        now_s=epoch_end_s,
                        horizon_s=epoch_duration_s,
                    )
                )
            timeline.append(
                GlobalEpoch(
                    epoch=epoch,
                    start_s=epoch_start_s,
                    assignment=assignment,
                    node_summaries=summaries,
                    scores=scores,
                    moves=moves,
                    admitted=tuple(admitted),
                    quarantined=tuple(sorted(down)),
                    failed=failed,
                    recovered=tuple(recovered),
                    lost=lost,
                    failovers=failovers,
                    parked=parked,
                )
            )
            if guard is not None:
                guard.tick()
            for move in moves:
                assignment = assignment.moved(move.member, move.target)
            if (
                checkpoint_path is not None
                and (epoch + 1) % checkpoint_every == 0
            ):
                DatacenterCheckpoint(
                    next_epoch=epoch + 1,
                    config=config,
                    epochs=tuple(entry.to_dict() for entry in timeline),
                    scores=scores,
                    prior_down=tuple(sorted(down)),
                    migration_state=(
                        migration.state_dict() if migration is not None else {}
                    ),
                    quarantine_state=(
                        guard.state_dict() if guard is not None else {}
                    ),
                ).save(checkpoint_path)
                if tracer is not None:
                    tracer.emit(
                        CheckpointWritten(
                            time_s=epoch_end_s,
                            path=checkpoint_path,
                            next_epoch=epoch + 1,
                            epochs=len(timeline),
                        )
                    )
        scheduler_name = "n/a"
        for entry in timeline:
            if entry.node_summaries:
                scheduler_name = entry.node_summaries[0].scheduler_name
                break
        return DatacenterTimeline(
            placement_name=placement.name,
            scheduler_name=scheduler_name,
            migration_name=migration.name if migration is not None else "static",
            epoch_duration_s=epoch_duration_s,
            epochs=tuple(timeline),
            final_assignment=assignment,
        )

    @staticmethod
    def _admission_node(
        scores: Mapping[int, float],
        assignment: Assignment,
        excluded: Sequence[int] = (),
    ) -> int:
        """Interference-aware admission: the lowest-scoring node.

        Before any scores exist (epoch 0), fall back to the node with
        the fewest members. Ties break on the lower node index.
        ``excluded`` nodes (quarantined) are never admitted onto unless
        *every* node is excluded, in which case the exclusion is waived
        — an arrival must land somewhere.
        """
        exclude = set(excluded)
        candidates = [
            node
            for node in range(len(assignment.per_node))
            if node not in exclude
        ]
        if not candidates:
            candidates = list(range(len(assignment.per_node)))
        scored = sorted(node for node in candidates if node in scores)
        if scored:
            return min(scored, key=lambda node: scores[node])
        return min(
            candidates,
            key=lambda node: (len(assignment.per_node[node]), node),
        )
