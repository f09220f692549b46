"""Sharded node execution: fan a datacenter's nodes over worker processes.

One global epoch is hundreds-to-thousands of *independent* node
simulations — exactly the shape :mod:`repro.parallel` was built for. This
module turns per-node work into :class:`NodeRun` items, executes them on
the warm chunked pool via
:func:`repro.parallel.runner.run_with_recovery`, and ships back
:class:`NodeEpochSummary` values: compact, exact per-node aggregates
(per-application mean observations, mean entropies, violation counts, an
optional bounded :class:`~repro.obs.windows.WindowSummary`) instead of
raw epoch streams.

Determinism: a node's summary is a pure function of its collocation
(seeded ``seed + node_index``) and scheduler factory, summaries are
computed inside the worker with plain left-to-right arithmetic, and
results are re-assembled in node-index order — so a sharded run is
**byte-identical** at any ``--jobs`` setting, including the in-process
serial path.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    Callable,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.cluster.collocation import Collocation
from repro.cluster.run import RunResult, run_collocation
from repro.entropy.records import BEObservation, LCObservation
from repro.errors import ConfigurationError, MeasurementError
from repro.obs.windows import WindowConfig, WindowSummary
from repro.parallel.runner import (
    ParallelRunError,
    PointFailure,
    resolve_jobs,
    run_with_recovery,
)
from repro.schedulers.base import Scheduler


@dataclass(frozen=True)
class NodeEpochSummary:
    """Compact, exact summary of one node's run — the shard wire format.

    This is what worker processes exchange with the coordinator instead
    of raw epoch records: per-application mean observations (the same
    quantities :meth:`~repro.datacenter.cluster.DatacenterTimeline.pooled_observation`
    pools), mean entropies, QoS counts and an optional bounded window
    report. Everything is computed worker-side with plain left-to-right
    arithmetic over the measured records, so a summary is bit-identical
    wherever it is computed.

    ``measured_epochs == 0`` marks a node whose run produced no
    post-warm-up epochs (its means are ``None`` and its observation
    tuples empty); timeline pooling skips it with a warning (see
    ``DatacenterTimeline.pooled_observation``).
    """

    node_index: int
    scheduler_name: str
    seed: int
    epochs: int
    measured_epochs: int
    mean_e_s: Optional[float]
    mean_e_lc: Optional[float]
    mean_e_be: Optional[float]
    violations: int
    lc: Tuple[LCObservation, ...]
    be: Tuple[BEObservation, ...]
    check_violation_count: int = 0
    #: Bounded window summary (when the run was window-armed); excluded
    #: from equality so windowed and plain shard runs compare.
    window_report: Optional[WindowSummary] = field(
        default=None, repr=False, compare=False
    )

    def yield_fraction(self) -> float:
        """Ratio of this node's LC applications meeting their QoS."""
        if not self.lc:
            return 1.0
        satisfied = sum(
            1 for obs in self.lc if obs.measured_ms <= obs.threshold_ms
        )
        return satisfied / len(self.lc)

    @classmethod
    def from_dict(cls, payload: Mapping[str, object]) -> "NodeEpochSummary":
        """Rebuild a summary from :meth:`to_dict` output.

        The inverse of the wire dict up to the window report (which
        ``to_dict`` deliberately omits): every scoring field — means,
        violation counts, per-application observations — round-trips
        exactly, which is what checkpoint/resume byte-identity rests on.
        """
        return cls(
            node_index=payload["node_index"],
            scheduler_name=payload["scheduler"],
            seed=payload["seed"],
            epochs=payload["epochs"],
            measured_epochs=payload["measured_epochs"],
            mean_e_s=payload["mean_e_s"],
            mean_e_lc=payload["mean_e_lc"],
            mean_e_be=payload["mean_e_be"],
            violations=payload["violations"],
            check_violation_count=payload.get("check_violations", 0),
            lc=tuple(
                LCObservation(
                    name=obs["name"],
                    ideal_ms=obs["ideal_ms"],
                    measured_ms=obs["measured_ms"],
                    threshold_ms=obs["threshold_ms"],
                )
                for obs in payload.get("lc", ())
            ),
            be=tuple(
                BEObservation(
                    name=obs["name"],
                    ipc_solo=obs["ipc_solo"],
                    ipc_real=obs["ipc_real"],
                )
                for obs in payload.get("be", ())
            ),
        )

    def to_dict(self) -> Dict[str, object]:
        """A JSON-ready dict (window report omitted — export separately)."""
        return {
            "node_index": self.node_index,
            "scheduler": self.scheduler_name,
            "seed": self.seed,
            "epochs": self.epochs,
            "measured_epochs": self.measured_epochs,
            "mean_e_s": self.mean_e_s,
            "mean_e_lc": self.mean_e_lc,
            "mean_e_be": self.mean_e_be,
            "violations": self.violations,
            "check_violations": self.check_violation_count,
            "lc": [
                {
                    "name": obs.name,
                    "ideal_ms": obs.ideal_ms,
                    "measured_ms": obs.measured_ms,
                    "threshold_ms": obs.threshold_ms,
                }
                for obs in self.lc
            ],
            "be": [
                {
                    "name": obs.name,
                    "ipc_solo": obs.ipc_solo,
                    "ipc_real": obs.ipc_real,
                }
                for obs in self.be
            ],
        }


def summarize_node(node_index: int, result: RunResult) -> NodeEpochSummary:
    """Fold one node's :class:`~repro.cluster.run.RunResult` into a summary.

    The per-application means are exactly the ones the datacenter-level
    pooled observation is built from, computed in the profile-declaration
    order the run itself used. A run with no post-warm-up epochs yields
    an *empty* summary (``measured_epochs=0``, means ``None``) rather
    than raising — the coordinator owns that policy decision.
    """
    try:
        records = result.measured_records()
    except MeasurementError:
        records = []
    lc: List[LCObservation] = []
    be: List[BEObservation] = []
    if records:
        for name, profile in result.collocation.lc_profiles.items():
            samples = [r.lc[name] for r in records if name in r.lc]
            if not samples:
                continue
            lc.append(
                LCObservation(
                    name=name,
                    ideal_ms=sum(s.ideal_ms for s in samples) / len(samples),
                    measured_ms=sum(s.tail_ms for s in samples) / len(samples),
                    threshold_ms=profile.threshold_ms,
                )
            )
        for name, profile in result.collocation.be_profiles.items():
            samples = [r.be[name].ipc for r in records if name in r.be]
            if not samples:
                continue
            be.append(
                BEObservation(
                    name=name,
                    ipc_solo=profile.ipc_solo,
                    ipc_real=sum(samples) / len(samples),
                )
            )
    return NodeEpochSummary(
        node_index=node_index,
        scheduler_name=result.scheduler_name,
        seed=result.collocation.seed,
        epochs=len(result.records),
        measured_epochs=len(records),
        mean_e_s=result.mean_e_s() if records else None,
        mean_e_lc=result.mean_e_lc() if records else None,
        mean_e_be=result.mean_e_be() if records else None,
        violations=sum(r.violations() for r in records),
        lc=tuple(lc),
        be=tuple(be),
        check_violation_count=len(result.check_violations),
        window_report=result.window_report,
    )


@dataclass(frozen=True)
class NodeRun:
    """One node's unit of sharded work: a collocation plus run settings.

    ``scheduler_factory`` must be picklable for the pooled path (the
    strategy classes themselves — ``ARQScheduler``, ... — are; lambdas
    are not, but still work on the ``jobs=1`` serial path). Only the
    node's :class:`NodeEpochSummary` comes back from the worker.
    """

    node_index: int
    collocation: Collocation
    scheduler_factory: Callable[[], Scheduler]
    duration_s: float
    warmup_s: float
    windows: Optional[WindowConfig] = None

    def describe(self) -> str:
        """Human-readable parameter summary (used in error messages)."""
        lc = ",".join(m.name for m in self.collocation.lc)
        be = ",".join(m.name for m in self.collocation.be)
        return (
            f"node={self.node_index} lc=[{lc}] be=[{be}] "
            f"duration={self.duration_s}s warmup={self.warmup_s}s "
            f"seed={self.collocation.seed}"
        )


def _run_node(item: NodeRun) -> NodeEpochSummary:
    """Worker entry point (module-level so it pickles for the pool)."""
    result = run_collocation(
        item.collocation,
        item.scheduler_factory(),
        item.duration_s,
        item.warmup_s,
        windows=item.windows,
    )
    return summarize_node(item.node_index, result)


#: Failure policies :func:`run_shards` accepts.
ON_ERROR_MODES = ("raise", "salvage")


@dataclass(frozen=True)
class ShardReport:
    """Partial node summaries plus a structured per-node failure report.

    Returned by :func:`run_shards` in ``on_error="salvage"`` mode.
    ``outcomes`` aligns with submission order (``None`` where the node's
    run ultimately failed); ``failures`` holds one
    :class:`~repro.parallel.runner.PointFailure` per failed node;
    :meth:`completed` re-keys survivors by their **node index** — the
    currency of the datacenter layer — and ``failed_nodes`` names the
    casualties the degraded epoch loop feeds into quarantine.
    """

    items: Tuple[NodeRun, ...]
    outcomes: Tuple[Optional[NodeEpochSummary], ...]
    failures: Tuple[PointFailure, ...] = ()

    def completed(self) -> Dict[int, NodeEpochSummary]:
        """Map node index → summary for every node that succeeded."""
        return {
            item.node_index: outcome
            for item, outcome in zip(self.items, self.outcomes)
            if outcome is not None
        }

    def failed_nodes(self) -> Tuple[int, ...]:
        """Sorted node indices whose runs exhausted every attempt."""
        return tuple(
            sorted(self.items[failure.index].node_index for failure in self.failures)
        )


def run_shards(
    items: Sequence[NodeRun],
    jobs: Optional[int] = None,
    *,
    retries: int = 0,
    on_error: str = "raise",
) -> Union[List[NodeEpochSummary], ShardReport]:
    """Execute every node run, returning summaries in submission order.

    ``jobs=1`` runs serially in-process through the *same* worker
    function the pool uses, so the two paths are byte-identical.
    ``retries`` re-runs a failing node up to that many extra times (see
    :func:`repro.parallel.runner.run_with_recovery`).

    ``on_error="raise"`` (default) raises
    :class:`~repro.parallel.runner.ParallelRunError` at the first
    exhausted failure, carrying the failing node's parameters and every
    summary completed before it, and returns a plain summary list when
    everything succeeds. ``on_error="salvage"`` never raises for node
    failures: every item runs to completion and a :class:`ShardReport`
    ships the partial summaries plus a structured per-node failure
    report — the mode the degraded-mode epoch loop runs in.
    """
    if on_error not in ON_ERROR_MODES:
        raise ConfigurationError(
            f"on_error must be one of {ON_ERROR_MODES}, got {on_error!r}"
        )
    if not items:
        return ShardReport(items=(), outcomes=()) if on_error == "salvage" else []
    workers = min(resolve_jobs(jobs), len(items))
    outcomes, failures = run_with_recovery(
        _run_node,
        items,
        jobs=workers,
        retries=retries,
        stop_on_failure=on_error == "raise",
    )
    if on_error == "salvage":
        return ShardReport(
            items=tuple(items),
            outcomes=tuple(outcomes),
            failures=tuple(failures),
        )
    if failures:
        first = failures[0]
        completed = {
            index: outcome
            for index, outcome in enumerate(outcomes)
            if outcome is not None
        }
        raise ParallelRunError(
            first.index, items[first.index], first.error, completed=completed
        ) from first.error
    return list(outcomes)
