"""Scheduler interface and the region-plan data model.

A *region plan* is the complete actuation state of one node (§IV-B):
per-application **isolated regions** (resources only the owner may use) and
one **shared region** whose members compete for its resources under a core
policy. Strict-partitioning strategies (PARTIES, CLITE) use an empty shared
region; the sharing baselines (Unmanaged, LC-first) put everything in the
shared region; ARQ mixes both.

Memory-bandwidth semantics: a non-zero ``membw_gbps`` component in an
isolated region acts as an MBA-style *cap* for the owner; applications in
the shared region contend for the remaining channel bandwidth unthrottled.
"""

from __future__ import annotations

import abc
import math
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Dict, FrozenSet, Mapping, Optional, Tuple

from repro.entropy.records import BEObservation, LCObservation, SystemObservation
from repro.errors import (
    AllocationError,
    MeasurementError,
    ModelError,
    ReproError,
    SchedulingError,
)
from repro.obs.events import (
    DecisionSkipped,
    TelemetryGap,
    TelemetryRepaired,
    TraceEvent,
    Tracer,
)
from repro.server.cores import CorePolicy
from repro.server.node import ServerNode
from repro.server.resources import ResourceVector, total_of
from repro.sim.rng import RngStreams
from repro.types import ResourceKind
from repro.workloads.be_app import BEProfile
from repro.workloads.lc_app import LCProfile

#: Region key denoting the shared region in move operations.
SHARED = "__shared__"

#: The zero vector, shared: ``isolated_of`` misses (and hits — the default
#: argument is evaluated unconditionally) would otherwise construct and
#: validate a fresh frozen instance on every lookup.
_ZERO_VECTOR = ResourceVector()


@dataclass(frozen=True)
class RegionPlan:
    """One node's complete resource actuation state."""

    isolated: Mapping[str, ResourceVector] = field(default_factory=dict)
    shared: ResourceVector = ResourceVector()
    shared_members: FrozenSet[str] = frozenset()
    shared_policy: CorePolicy = CorePolicy.LC_PRIORITY

    def isolated_of(self, name: str) -> ResourceVector:
        return self.isolated.get(name, _ZERO_VECTOR)

    def total_allocated(self) -> ResourceVector:
        return total_of(self.isolated.values()).plus(self.shared)

    def validate(self, node: ServerNode) -> None:
        node.validate_partition(self.isolated, self.shared)

    def region_amount(self, region: str, kind: ResourceKind) -> float:
        """Resource amount of ``kind`` held by a region (app name or SHARED)."""
        if region == SHARED:
            return self.shared.get(kind)
        return self.isolated_of(region).get(kind)

    def move(
        self, kind: ResourceKind, source: str, destination: str, amount: float = 1.0
    ) -> "RegionPlan":
        """A new plan with ``amount`` of ``kind`` moved between regions.

        Raises :class:`SchedulingError` when the source region does not
        hold enough of the resource.
        """
        if amount <= 0:
            raise SchedulingError(f"move amount must be positive, got {amount}")
        if source == destination:
            raise SchedulingError("source and destination regions are identical")
        if self.region_amount(source, kind) < amount - 1e-9:
            raise SchedulingError(
                f"region {source!r} holds only "
                f"{self.region_amount(source, kind):g} of {kind.value}, cannot "
                f"move {amount:g}"
            )
        delta = ResourceVector.of(kind, amount)
        isolated = dict(self.isolated)
        shared = self.shared
        if source == SHARED:
            shared = shared.minus(delta)
        else:
            isolated[source] = self.isolated_of(source).minus(delta)
        if destination == SHARED:
            shared = shared.plus(delta)
        else:
            isolated[destination] = self.isolated_of(destination).plus(delta)
        return replace(self, isolated=isolated, shared=shared)

    def with_isolated(self, name: str, vector: ResourceVector) -> "RegionPlan":
        isolated = dict(self.isolated)
        isolated[name] = vector
        return replace(self, isolated=isolated)

    def describe(self) -> str:
        parts = [
            f"{name}: [{vector}]"
            for name, vector in sorted(self.isolated.items())
            if not vector.is_zero
        ]
        parts.append(f"shared: [{self.shared}] members={sorted(self.shared_members)}")
        return "; ".join(parts)


@dataclass(frozen=True)
class SchedulerContext:
    """Everything a scheduler may consult when deciding.

    Attributes
    ----------
    node:
        The machine being scheduled.
    lc_profiles / be_profiles:
        Application profiles by name (static knowledge: thread counts,
        QoS targets — the same facts PARTIES/CLITE assume).
    epoch_s:
        Monitoring interval (0.5 s in the paper).
    relative_importance:
        The ``RI`` used when strategies evaluate ``E_S`` internally.
    rng:
        Named random streams (CLITE's optimiser draws from these).
    """

    node: ServerNode
    lc_profiles: Mapping[str, LCProfile]
    be_profiles: Mapping[str, BEProfile]
    epoch_s: float = 0.5
    relative_importance: float = 0.8
    rng: Optional[RngStreams] = None

    @cached_property
    def app_names(self) -> Tuple[str, ...]:
        """LC then BE application names; fixed per context, built once."""
        return tuple(list(self.lc_profiles) + list(self.be_profiles))

    def threads_of(self, name: str) -> int:
        if name in self.lc_profiles:
            return self.lc_profiles[name].threads
        if name in self.be_profiles:
            return self.be_profiles[name].threads
        raise SchedulingError(f"unknown application {name!r}")


#: Measured tail latencies above this are rejected as telemetry outliers.
#: Far above the queueing model's overload sentinel (1e6 ms), so genuinely
#: saturated systems are never mistaken for corrupt counters.
OUTLIER_CAP_MS = 1e8


@dataclass(frozen=True)
class SanitizedTelemetry:
    """The outcome of one :meth:`TelemetrySanitizer.sanitize` pass.

    ``fresh`` counts samples passed through untouched, ``held`` counts
    samples served from the last good value (dropout or rejected
    corruption), ``dropped`` counts samples discarded with no replacement
    available.
    """

    observation: Optional[SystemObservation]
    fresh: int = 0
    held: int = 0
    dropped: int = 0

    @property
    def usable(self) -> bool:
        """Whether the interval carries at least one fresh, finite sample."""
        return self.observation is not None and self.fresh > 0

    @property
    def repaired(self) -> bool:
        """Whether any sample had to be held or dropped."""
        return self.held > 0 or self.dropped > 0


class TelemetrySanitizer:
    """Hold-last-good telemetry guard shared by every scheduler.

    Replaces non-finite, non-positive or absurdly large samples with the
    application's last good observation; serves applications missing from
    an epoch (dropout) from memory too. An epoch with *zero* fresh samples
    is reported unusable — the scheduler should skip the interval rather
    than act on pure memory.

    Clean telemetry passes through by identity: when every sample is
    acceptable, :meth:`sanitize` returns the original observation object,
    so instrumented clean runs stay byte-identical to unsanitised ones.
    """

    def __init__(self, outlier_cap_ms: float = OUTLIER_CAP_MS) -> None:
        self._outlier_cap_ms = outlier_cap_ms
        self._last_lc: Dict[str, LCObservation] = {}
        self._last_be: Dict[str, BEObservation] = {}

    def reset(self) -> None:
        """Forget all last-good state (between runs)."""
        self._last_lc.clear()
        self._last_be.clear()

    def _lc_ok(self, sample: LCObservation) -> bool:
        """Whether an LC sample is finite, positive and plausibly scaled."""
        # Chained comparisons, no tuple/generator: this runs per sample
        # per epoch for every scheduler, so allocation here is measurable.
        ideal = sample.ideal_ms
        measured = sample.measured_ms
        threshold = sample.threshold_ms
        return (
            math.isfinite(ideal)
            and math.isfinite(measured)
            and math.isfinite(threshold)
            and ideal > 0
            and threshold > 0
            and 0 < measured <= self._outlier_cap_ms
            and ideal <= threshold
        )

    @staticmethod
    def _be_ok(sample: BEObservation) -> bool:
        """Whether a BE sample carries finite, positive IPC values."""
        solo = sample.ipc_solo
        real = sample.ipc_real
        return (
            math.isfinite(solo) and math.isfinite(real) and solo > 0 and real > 0
        )

    def sanitize(
        self, observation: Optional[SystemObservation]
    ) -> SanitizedTelemetry:
        """Sanitise one epoch's telemetry (``None`` = full blackout)."""
        lc_in = observation.lc if observation is not None else ()
        be_in = observation.be if observation is not None else ()
        fresh = held = dropped = 0
        lc_out = []
        seen_lc = set()
        for sample in lc_in:
            seen_lc.add(sample.name)
            if self._lc_ok(sample):
                lc_out.append(sample)
                self._last_lc[sample.name] = sample
                fresh += 1
            elif sample.name in self._last_lc:
                lc_out.append(self._last_lc[sample.name])
                held += 1
            else:
                dropped += 1
        be_out = []
        seen_be = set()
        for sample in be_in:
            seen_be.add(sample.name)
            if self._be_ok(sample):
                be_out.append(sample)
                self._last_be[sample.name] = sample
                fresh += 1
            elif sample.name in self._last_be:
                be_out.append(self._last_be[sample.name])
                held += 1
            else:
                dropped += 1
        # Applications observed in earlier epochs but absent from this one
        # (telemetry dropout) are served from memory so the observation
        # keeps its shape. Insertion order of the memory dicts follows
        # first observation, so the result is deterministic.
        for name, last in self._last_lc.items():
            if name not in seen_lc:
                lc_out.append(last)
                held += 1
        for name, last in self._last_be.items():
            if name not in seen_be:
                be_out.append(last)
                held += 1

        if observation is not None and held == 0 and dropped == 0:
            return SanitizedTelemetry(observation=observation, fresh=fresh)
        if not lc_out and not be_out:
            return SanitizedTelemetry(
                observation=None, fresh=fresh, held=held, dropped=dropped
            )
        return SanitizedTelemetry(
            observation=SystemObservation(lc=tuple(lc_out), be=tuple(be_out)),
            fresh=fresh,
            held=held,
            dropped=dropped,
        )


class Scheduler(abc.ABC):
    """A resource scheduling strategy.

    The cluster simulator calls :meth:`initial_plan` once, then after every
    monitoring epoch calls :meth:`decide` with the (noisy) observation
    measured under the current plan. ``decide`` returns the plan for the
    next epoch — returning the current plan unchanged is the no-op.

    Constructor uniformity
    ----------------------
    Every scheduler takes **keyword-only** constructor arguments; all of
    them accept the common tail ``Scheduler(name=..., tracer=...)``
    provided here. ``name`` overrides the strategy's display name;
    ``tracer`` receives structured events (``ResourceMove``, ``Rollback``,
    ``CooldownStart``/``End``, ...) as the strategy acts —
    :func:`repro.cluster.run.run_collocation` attaches the run's tracer
    automatically, so passing one at construction time is only needed for
    driving a scheduler by hand.
    """

    #: Human-readable strategy name (used in reports).
    name: str = "scheduler"

    def __init__(
        self, *, name: Optional[str] = None, tracer: Optional[Tracer] = None
    ) -> None:
        if name is not None:
            self.name = name
        self._tracer: Optional[Tracer] = tracer
        self._sanitizer = TelemetrySanitizer()

    # -- observability -----------------------------------------------------

    @property
    def tracing(self) -> bool:
        """Whether a tracer is attached (guard event construction on this)."""
        return self._tracer is not None

    @property
    def tracer(self) -> Optional[Tracer]:
        """The currently attached tracer (``None`` when detached)."""
        return self._tracer

    def attach_tracer(self, tracer: Optional[Tracer]) -> None:
        """Attach (or detach, with ``None``) the tracer receiving events."""
        self._tracer = tracer

    def emit(self, event: TraceEvent) -> None:
        """Emit one event to the attached tracer (no-op when detached)."""
        if self._tracer is not None:
            self._tracer.emit(event)

    # -- strategy interface ------------------------------------------------

    @abc.abstractmethod
    def initial_plan(self, context: SchedulerContext) -> RegionPlan:
        """The plan to apply before the first measurement."""

    @abc.abstractmethod
    def decide(
        self,
        context: SchedulerContext,
        observation: SystemObservation,
        current_plan: RegionPlan,
        time_s: float,
    ) -> RegionPlan:
        """The plan for the next epoch given this epoch's measurements."""

    def reset(self) -> None:
        """Clear cross-run state (subclasses must call ``super().reset()``)."""
        self._sanitizer.reset()

    # -- graceful degradation ----------------------------------------------

    def robust_decide(
        self,
        context: SchedulerContext,
        observation: Optional[SystemObservation],
        current_plan: RegionPlan,
        time_s: float,
    ) -> RegionPlan:
        """Guarded :meth:`decide`: sanitise telemetry, survive failures.

        The production-grade wrapper the run loop calls. Telemetry is
        passed through :class:`TelemetrySanitizer` (``observation=None``
        represents a full blackout); an unusable interval is *skipped* —
        the current plan stands and :meth:`on_telemetry_gap` fires so
        stateful strategies (ARQ's watchdog) can react. A :meth:`decide`
        call that raises a library error keeps the current plan, and a
        decided plan that fails node validation is replaced by
        :func:`safe_fallback_plan`. Clean telemetry takes exactly the
        plain ``decide`` path with the original observation object.
        """
        report = self._sanitizer.sanitize(observation)
        if not report.usable:
            if self.tracing:
                self.emit(
                    TelemetryGap(
                        time_s=time_s,
                        scheduler=self.name,
                        held=report.held,
                        dropped=report.dropped,
                    )
                )
            self.on_telemetry_gap(context, current_plan, time_s)
            return current_plan
        self.on_telemetry_ok(time_s)
        if report.repaired and self.tracing:
            self.emit(
                TelemetryRepaired(
                    time_s=time_s,
                    scheduler=self.name,
                    fresh=report.fresh,
                    held=report.held,
                    dropped=report.dropped,
                )
            )
        try:
            next_plan = self.decide(context, report.observation, current_plan, time_s)
        except (AllocationError, MeasurementError, ModelError, SchedulingError) as exc:
            if self.tracing:
                self.emit(
                    DecisionSkipped(
                        time_s=time_s,
                        scheduler=self.name,
                        reason="decide_failed",
                        detail=f"{type(exc).__name__}: {exc}",
                    )
                )
            return current_plan
        if next_plan is not current_plan:
            try:
                next_plan.validate(context.node)
            except ReproError as exc:
                if self.tracing:
                    self.emit(
                        DecisionSkipped(
                            time_s=time_s,
                            scheduler=self.name,
                            reason="invalid_plan",
                            detail=f"{type(exc).__name__}: {exc}",
                        )
                    )
                return safe_fallback_plan(context, current_plan)
        return next_plan

    def on_telemetry_gap(
        self, context: SchedulerContext, current_plan: RegionPlan, time_s: float
    ) -> None:
        """Hook: an interval was skipped for unusable telemetry (no-op)."""

    def on_telemetry_ok(self, time_s: float) -> None:
        """Hook: an interval delivered usable telemetry (no-op)."""

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name!r}>"


def everything_shared_plan(
    context: SchedulerContext, policy: CorePolicy
) -> RegionPlan:
    """A plan placing the entire node in the shared region."""
    return RegionPlan(
        isolated={},
        shared=context.node.capacity,
        shared_members=frozenset(context.app_names),
        shared_policy=policy,
    )


def even_partition_plan(context: SchedulerContext) -> RegionPlan:
    """A strict partition giving every application an even share.

    Cores and ways are split as evenly as integer units allow (remainders
    go to the earliest applications in catalog order); bandwidth is left
    uncapped. Used as the starting point of PARTIES-style searches.
    """
    names = list(context.app_names)
    if not names:
        raise SchedulingError("cannot partition a node with no applications")
    capacity = context.node.capacity
    cores_each, cores_extra = divmod(int(capacity.cores), len(names))
    ways_each, ways_extra = divmod(int(capacity.llc_ways), len(names))
    isolated: Dict[str, ResourceVector] = {}
    for index, name in enumerate(names):
        cores = cores_each + (1 if index < cores_extra else 0)
        ways = ways_each + (1 if index < ways_extra else 0)
        isolated[name] = ResourceVector(cores=float(cores), llc_ways=float(ways))
    plan = RegionPlan(
        isolated=isolated,
        shared=ResourceVector(),
        shared_members=frozenset(),
        shared_policy=CorePolicy.LC_PRIORITY,
    )
    plan.validate(context.node)
    return plan


def safe_fallback_plan(
    context: SchedulerContext, current_plan: Optional[RegionPlan] = None
) -> RegionPlan:
    """A guaranteed-valid plan to fall back to when a decision is invalid.

    Keeps ``current_plan`` when it still validates (the usual case — the
    bad *new* plan is simply discarded). Otherwise reverts to
    isolated-region minimums: one core and one LLC way per LC application
    (as far as capacity allows), everything else — including all memory
    bandwidth — in a shared region open to every application.
    """
    if current_plan is not None:
        try:
            current_plan.validate(context.node)
            return current_plan
        except ReproError:
            pass
    capacity = context.node.capacity
    lc_names = list(context.lc_profiles)
    isolated: Dict[str, ResourceVector] = {}
    cores_left = capacity.cores
    ways_left = capacity.llc_ways
    for name in lc_names:
        # Reserve a minimum only while the shared region keeps at least
        # one unit of each kind for everybody else.
        cores = 1.0 if cores_left > 1.0 else 0.0
        ways = 1.0 if ways_left > 1.0 else 0.0
        isolated[name] = ResourceVector(cores=cores, llc_ways=ways)
        cores_left -= cores
        ways_left -= ways
    shared = capacity.minus(total_of(isolated.values()))
    plan = RegionPlan(
        isolated=isolated,
        shared=shared,
        shared_members=frozenset(context.app_names),
        shared_policy=CorePolicy.LC_PRIORITY,
    )
    plan.validate(context.node)
    return plan
