"""Typed, timestamped structured trace events and the ``Tracer`` protocol.

The paper's contribution is making interference *observable*: per-epoch
``ReT``, ``Q_i`` and ``E_S`` feed ARQ's move/rollback/cooldown loop. This
module gives every step of that loop a typed event so a run can be watched
as it unfolds — from the CLI (``--trace``/``--verbose``), from tests, or
from any :class:`Tracer` a caller attaches.

Design rules:

* **Simulation time only.** Events carry the simulated clock (``time_s``),
  never wall-clock timestamps, so traces are bit-identical across repeated
  runs and across ``--jobs`` settings.
* **Zero overhead when disabled.** Emitting sites hold an
  ``Optional[Tracer]`` and guard event *construction* behind a ``None``
  check; a run without a tracer executes exactly the pre-observability
  code path.
* **Round-trippable.** Every event serialises to a flat JSON-safe dict via
  :meth:`TraceEvent.to_dict` and back via :func:`event_from_dict`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, ClassVar, Dict, List, Mapping, Optional, Tuple

from repro.errors import ConfigurationError, MeasurementError
from repro.tagged import Tagged

try:  # Python 3.8+: typing.Protocol
    from typing import Protocol, runtime_checkable
except ImportError:  # pragma: no cover - ancient interpreters only
    Protocol = object  # type: ignore[assignment]

    def runtime_checkable(cls):  # type: ignore[no-redef]
        """Fallback decorator when ``typing.Protocol`` is unavailable."""
        return cls


@runtime_checkable
class Tracer(Protocol):
    """Anything that accepts trace events.

    The contract is one method: :meth:`emit` receives each
    :class:`TraceEvent` in emission order. Implementations must not reorder
    or drop events if they want the determinism guarantees to hold
    downstream (the JSONL writer, the narrator and the collecting tracer
    all preserve order).
    """

    def emit(self, event: "TraceEvent") -> None:
        """Receive one trace event."""
        ...


@dataclass(frozen=True)
class TraceEvent(Tagged, family="trace event", error=ConfigurationError):
    """Base class of all trace events: a kind tag plus a simulation time.

    ``kind`` is a class attribute (stable wire name); ``time_s`` is the
    simulated clock at emission. Subclasses add flat, JSON-safe fields
    (numbers, strings, bools, and dicts/tuples of those).
    """

    kind: ClassVar[str] = "event"

    time_s: float


#: Registry of event kinds (shared with :class:`TraceEvent`).
EVENT_KINDS: Dict[str, type] = TraceEvent._kinds

#: Rebuild a :class:`TraceEvent` from its ``to_dict`` output; raises
#: :class:`~repro.errors.ConfigurationError` for payloads that do not match.
event_from_dict = TraceEvent.from_dict


# -- run lifecycle -----------------------------------------------------------


@dataclass(frozen=True)
class RunStarted(TraceEvent):
    """Emitted once before the first epoch of a collocation run."""

    kind: ClassVar[str] = "run_started"

    scheduler: str = ""
    lc_apps: Tuple[str, ...] = ()
    be_apps: Tuple[str, ...] = ()
    duration_s: float = 0.0
    warmup_s: float = 0.0
    epoch_s: float = 0.0
    seed: int = 0


@dataclass(frozen=True)
class RunFinished(TraceEvent):
    """Emitted once after the last epoch, with the run's headline summary."""

    kind: ClassVar[str] = "run_finished"

    scheduler: str = ""
    epochs: int = 0
    mean_e_s: float = 0.0
    mean_e_lc: float = 0.0
    mean_e_be: float = 0.0
    violations: int = 0


# -- per-epoch measurements --------------------------------------------------


@dataclass(frozen=True)
class EpochMeasured(TraceEvent):
    """One monitoring epoch's full measurement: entropies, tails, IPCs."""

    kind: ClassVar[str] = "epoch_measured"

    epoch: int = 0
    e_s: float = 0.0
    e_lc: float = 0.0
    e_be: float = 0.0
    loads: Mapping[str, float] = None  # type: ignore[assignment]
    tails_ms: Mapping[str, float] = None  # type: ignore[assignment]
    ipcs: Mapping[str, float] = None  # type: ignore[assignment]
    violations: int = 0


@dataclass(frozen=True)
class QoSViolation(TraceEvent):
    """An LC application exceeded its tail-latency threshold this epoch."""

    kind: ClassVar[str] = "qos_violation"

    epoch: int = 0
    application: str = ""
    tail_ms: float = 0.0
    threshold_ms: float = 0.0


# -- scheduler decisions -----------------------------------------------------


@dataclass(frozen=True)
class SchedulerDecision(TraceEvent):
    """The scheduler's verdict for the next epoch (changed plan or no-op)."""

    kind: ClassVar[str] = "scheduler_decision"

    epoch: int = 0
    scheduler: str = ""
    plan_changed: bool = False
    plan: str = ""


@dataclass(frozen=True)
class ResourceMove(TraceEvent):
    """One resource adjustment between regions (ARQ/PARTIES)."""

    kind: ClassVar[str] = "resource_move"

    scheduler: str = ""
    resource: str = ""
    source: str = ""
    destination: str = ""
    amount: float = 0.0
    reason: str = ""


@dataclass(frozen=True)
class Rollback(TraceEvent):
    """A previous adjustment was cancelled (entropy/slack feedback)."""

    kind: ClassVar[str] = "rollback"

    scheduler: str = ""
    resource: str = ""
    source: str = ""
    destination: str = ""
    amount: float = 0.0
    reason: str = ""


@dataclass(frozen=True)
class CooldownStart(TraceEvent):
    """A region becomes protected from penalisation until ``until_s``."""

    kind: ClassVar[str] = "cooldown_start"

    scheduler: str = ""
    region: str = ""
    until_s: float = 0.0


@dataclass(frozen=True)
class CooldownEnd(TraceEvent):
    """A region's penalty protection lapsed."""

    kind: ClassVar[str] = "cooldown_end"

    scheduler: str = ""
    region: str = ""


@dataclass(frozen=True)
class FSMTransition(TraceEvent):
    """A resource-type FSM advanced to a new state (§IV-B / PARTIES §4)."""

    kind: ClassVar[str] = "fsm_transition"

    owner: str = ""
    from_resource: str = ""
    to_resource: str = ""


@dataclass(frozen=True)
class SearchProgress(TraceEvent):
    """A search-based scheduler's phase update (CLITE's GP loop)."""

    kind: ClassVar[str] = "search_progress"

    scheduler: str = ""
    phase: str = ""  # "sampling" | "searching" | "pinned" | "restarted"
    evaluations: int = 0
    best_score: float = 0.0


# -- fault injection ---------------------------------------------------------


@dataclass(frozen=True)
class FaultInjected(TraceEvent):
    """A fault from the active :class:`~repro.faults.plan.FaultPlan` began."""

    kind: ClassVar[str] = "fault_injected"

    fault: str = ""
    targets: Tuple[str, ...] = ()
    until_s: float = 0.0
    detail: str = ""


@dataclass(frozen=True)
class FaultCleared(TraceEvent):
    """A previously injected fault's window ended."""

    kind: ClassVar[str] = "fault_cleared"

    fault: str = ""
    targets: Tuple[str, ...] = ()
    detail: str = ""


@dataclass(frozen=True)
class TelemetryGap(TraceEvent):
    """An epoch had no usable telemetry; the scheduler skipped the interval."""

    kind: ClassVar[str] = "telemetry_gap"

    scheduler: str = ""
    held: int = 0
    dropped: int = 0


@dataclass(frozen=True)
class TelemetryRepaired(TraceEvent):
    """Corrupt/missing samples were repaired from last-good values."""

    kind: ClassVar[str] = "telemetry_repaired"

    scheduler: str = ""
    fresh: int = 0
    held: int = 0
    dropped: int = 0


@dataclass(frozen=True)
class DecisionSkipped(TraceEvent):
    """A scheduler decision was discarded (failure or invalid plan)."""

    kind: ClassVar[str] = "decision_skipped"

    scheduler: str = ""
    reason: str = ""  # "decide_failed" | "invalid_plan"
    detail: str = ""


# -- datacenter / cluster recovery -------------------------------------------


@dataclass(frozen=True)
class NodeQuarantined(TraceEvent):
    """The coordinator quarantined a node after a failure or deadline miss.

    ``node`` is the global node index, ``reason`` a stable cause tag
    (``"crash"``, ``"straggler"``, ``"run_failed"``, ...), ``until_epoch``
    the first global epoch the node may serve again (its probation
    start) and ``epoch`` the global epoch the decision was made at.
    """

    kind: ClassVar[str] = "node_quarantined"

    node: int = 0
    epoch: int = 0
    until_epoch: int = 0
    reason: str = ""
    detail: str = ""


@dataclass(frozen=True)
class NodeRecovered(TraceEvent):
    """A quarantined node served its sentence and re-entered service.

    Emitted at the start of the global epoch the node rejoins at; the
    node runs on probation for ``probation_epochs`` further epochs.
    """

    kind: ClassVar[str] = "node_recovered"

    node: int = 0
    epoch: int = 0
    probation_epochs: int = 0


@dataclass(frozen=True)
class CheckpointWritten(TraceEvent):
    """The epoch loop persisted a resumable checkpoint snapshot.

    ``next_epoch`` is where a resumed run would continue; ``epochs`` the
    number of completed epoch records the snapshot carries.
    """

    kind: ClassVar[str] = "checkpoint_written"

    path: str = ""
    next_epoch: int = 0
    epochs: int = 0


# -- verification ------------------------------------------------------------


@dataclass(frozen=True)
class InvariantViolation(TraceEvent):
    """A runtime invariant failed (emitted by ``repro.check``'s tracer).

    ``invariant`` is a stable identifier (``resource_conservation``,
    ``entropy_eq7``, ``arq_move_budget``, ...), ``scheduler`` names the
    strategy under check, ``epoch`` the monitoring interval (-1 when the
    violation is not tied to one) and ``detail`` the human-readable
    evidence.
    """

    kind: ClassVar[str] = "invariant_violation"

    invariant: str = ""
    scheduler: str = ""
    epoch: int = -1
    detail: str = ""


# -- discrete-event engine ---------------------------------------------------


@dataclass(frozen=True)
class SimCallbackExecuted(TraceEvent):
    """One discrete-event callback executed by :class:`repro.sim.engine.Engine`."""

    kind: ClassVar[str] = "sim_callback_executed"

    label: str = ""
    sequence: int = 0


# -- tracer implementations --------------------------------------------------


class NullTracer:
    """A tracer that discards everything (explicit-object alternative to
    passing ``tracer=None``)."""

    def emit(self, event: TraceEvent) -> None:
        """Discard the event."""


class CollectingTracer:
    """A tracer that appends every event to an in-memory list.

    Memory grows with the event count — O(events), unbounded by default —
    which cannot survive million-event traces; long runs belong in the
    bounded :class:`~repro.obs.windows.WindowedTracer` or the streaming
    helpers in :mod:`repro.obs.stream`. ``max_events`` puts a hard cap on
    the collection: events past it raise
    :class:`~repro.errors.MeasurementError` instead of silently eating
    the heap.

    Keep using it for short runs and tests (the parallel runner still
    collects per-point events worker-side, where a point's stream is
    small); switch to windows for anything long.
    """

    def __init__(self, *, max_events: Optional[int] = None) -> None:
        if max_events is not None and max_events < 1:
            raise ConfigurationError(
                f"max_events must be positive: {max_events}"
            )
        self.events: List[TraceEvent] = []
        self.max_events = max_events

    def emit(self, event: TraceEvent) -> None:
        """Append the event to :attr:`events` (bounded by ``max_events``)."""
        if self.max_events is not None and len(self.events) >= self.max_events:
            raise MeasurementError(
                f"CollectingTracer exceeded max_events={self.max_events}; "
                "use repro.obs.windows.WindowedTracer for bounded-memory "
                "aggregation of long runs"
            )
        self.events.append(event)

    def __len__(self) -> int:
        return len(self.events)

    def of_kind(self, kind: str) -> List[TraceEvent]:
        """The collected events of one kind, in emission order."""
        return [e for e in self.events if e.kind == kind]


class CompositeTracer:
    """Fan one event stream out to several tracers, in order."""

    def __init__(self, *tracers: Tracer) -> None:
        self.tracers: Tuple[Tracer, ...] = tuple(t for t in tracers if t is not None)

    def emit(self, event: TraceEvent) -> None:
        """Forward the event to every member tracer."""
        for tracer in self.tracers:
            tracer.emit(event)


class CallbackTracer:
    """Adapt a plain callable into a :class:`Tracer`."""

    def __init__(self, callback: Callable[[TraceEvent], None]) -> None:
        self._callback = callback

    def emit(self, event: TraceEvent) -> None:
        """Invoke the wrapped callable with the event."""
        self._callback(event)


def compose_tracers(*tracers: Optional[Tracer]) -> Optional[Tracer]:
    """Combine tracers, eliding ``None``s; returns ``None`` when all are.

    The single-tracer case returns the tracer itself (no wrapper object),
    keeping the common path allocation-free.
    """
    present = [t for t in tracers if t is not None]
    if not present:
        return None
    if len(present) == 1:
        return present[0]
    return CompositeTracer(*present)
