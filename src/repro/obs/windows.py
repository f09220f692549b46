"""Bounded-memory streaming time windows over the trace stream.

The collect-everything :class:`~repro.obs.events.CollectingTracer` keeps
one Python object per event, which cannot survive the million-event
diurnal traces the datacenter milestone needs. This module folds the
event stream *as it happens* into a ring buffer of fixed-``Δ`` time
windows on the simulated clock — the PrintQueue idea of attributing
queue build-up to specific flows at line rate, ported to the paper's
per-epoch ``ReT``/``Q_i``/``E_S`` signals:

* :class:`WindowConfig` — keyword-only window geometry: ``dt_s`` (window
  width) and ``keep`` (ring size ``K``; memory is O(K), not O(events));
* :class:`WindowedTracer` — a :class:`~repro.obs.events.Tracer` that
  maintains the ring while a run executes;
* :class:`WindowSummary` / :class:`Window` — the mergeable result:
  per-window event counts by kind, entropy/tail/load/IPC statistics with
  fixed-bin histograms (p50/p95/p99), QoS-violation counts, and
  fault/plan-change annotations;
* :func:`why_slow` — the provenance query: rank the faults, scheduler
  actions and co-runners overlapping a tail-latency spike window.

Merge laws
----------
Every aggregate is an exact commutative monoid: event and bin counts are
integers (addition), extrema are ``min``/``max``, annotation and fault
sets are deduplicated-sorted-then-capped (cap keeps the *smallest* items
by sort key, and window eviction keeps the *largest* ``keep`` indices,
both of which commute with union). No mergeable field stores a floating
sum, so :meth:`WindowSummary.merge` is associative **and** commutative to
the byte: folding a stream in one pass, or folding split sub-streams and
merging the pieces in any grouping, produces identical
:meth:`WindowSummary.to_json` output. Derived statistics (means,
percentiles) are computed from the bin counts at read time.
"""

from __future__ import annotations

import json
import math
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import (
    Any,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Tuple,
    Union,
)

from repro.errors import ConfigurationError, MeasurementError
from repro.obs.events import (
    EpochMeasured,
    FaultInjected,
    QoSViolation,
    SchedulerDecision,
    TraceEvent,
)

#: Event kinds recorded as per-window annotations (rare, diagnosis-worthy).
ANNOTATED_KINDS = (
    "fault_injected",
    "fault_cleared",
    "resource_move",
    "rollback",
    "cooldown_start",
    "invariant_violation",
    "decision_skipped",
    "telemetry_gap",
    "node_quarantined",
    "node_recovered",
    "checkpoint_written",
)

#: Fault kinds that change ground truth (vs. telemetry-view corruption);
#: ground-truth faults rank higher as spike explanations.
GROUND_TRUTH_FAULTS = ("load_spike", "qps_ramp", "capacity_degradation", "be_burst")


def _geometric_edges(lo: float, hi: float, per_decade: int) -> Tuple[float, ...]:
    """Geometric bin edges from ``lo`` to at least ``hi``."""
    decades = math.log10(hi / lo)
    count = int(math.ceil(decades * per_decade))
    return tuple(lo * 10.0 ** (i / per_decade) for i in range(count + 1))


def _linear_edges(lo: float, hi: float, count: int) -> Tuple[float, ...]:
    """``count`` equal-width bin edges over ``[lo, hi]``."""
    width = (hi - lo) / count
    return tuple(lo + i * width for i in range(count + 1))


#: Fixed latency bin edges: 0.01 ms – 100 s, 20 bins per decade. Shared by
#: every histogram so merged windows never need edge reconciliation.
LATENCY_EDGES_MS: Tuple[float, ...] = _geometric_edges(1e-2, 1e5, 20)

#: Fixed bin edges for entropy-like signals (E_S and friends live in
#: [0, 1]; headroom to 2 covers pathological plans).
ENTROPY_EDGES: Tuple[float, ...] = _linear_edges(0.0, 2.0, 400)

#: Fixed bin edges for load fractions and IPC values.
RATE_EDGES: Tuple[float, ...] = _linear_edges(0.0, 4.0, 400)


@dataclass(frozen=True)
class WindowConfig:
    """Keyword-only geometry of the window ring.

    ``dt_s`` is the window width on the **simulated** clock; ``keep`` is
    the ring size ``K`` — only the ``K`` most recent windows are retained,
    so tracer memory is O(``keep``) regardless of run length.
    ``annotation_cap`` bounds the per-window annotation list (older
    annotations win; the overflow is still counted).
    """

    dt_s: float = 1.0
    keep: int = 256
    annotation_cap: int = 64

    # Keyword-only enforcement that also keeps dataclass conveniences:
    # the generated __init__ is wrapped below via __init_subclass__-free
    # __post_init__ validation plus a marker in __init__'s signature.
    def __post_init__(self) -> None:
        if not self.dt_s > 0:
            raise ConfigurationError(f"window dt_s must be positive: {self.dt_s}")
        if not isinstance(self.keep, int) or isinstance(self.keep, bool) or self.keep < 1:
            raise ConfigurationError(f"window keep must be a positive int: {self.keep!r}")
        if self.annotation_cap < 1:
            raise ConfigurationError(
                f"annotation_cap must be positive: {self.annotation_cap}"
            )

    @classmethod
    def of(
        cls, value: Union["WindowConfig", int, float, Mapping[str, Any]]
    ) -> "WindowConfig":
        """Normalise a config, ``dt_s`` shorthand, or mapping."""
        if isinstance(value, cls):
            return value
        if isinstance(value, bool):
            raise ConfigurationError(f"cannot build a WindowConfig from {value!r}")
        if isinstance(value, (int, float)):
            return cls(dt_s=float(value))
        if isinstance(value, Mapping):
            return cls(**value)
        raise ConfigurationError(f"cannot build a WindowConfig from {value!r}")

    def index_of(self, time_s: float) -> int:
        """The window index covering simulated time ``time_s``."""
        return int(math.floor(time_s / self.dt_s))

    def bounds(self, index: int) -> Tuple[float, float]:
        """The half-open ``[start_s, end_s)`` bounds of window ``index``."""
        return index * self.dt_s, (index + 1) * self.dt_s

    def to_dict(self) -> Dict[str, Any]:
        """A JSON-ready dict."""
        return {
            "dt_s": self.dt_s,
            "keep": self.keep,
            "annotation_cap": self.annotation_cap,
        }


# WindowConfig is declared keyword-only by contract (the API-redesign
# satellite pins it); enforce at runtime without losing dataclass niceties.
_window_config_init = WindowConfig.__init__


def _kwonly_window_config_init(self, *args: Any, **kwargs: Any) -> None:
    """Reject positional construction (`WindowConfig(dt_s=..., keep=...)`)."""
    if args:
        raise TypeError(
            "WindowConfig takes keyword arguments only: "
            "WindowConfig(dt_s=..., keep=...)"
        )
    _window_config_init(self, **kwargs)


WindowConfig.__init__ = _kwonly_window_config_init  # type: ignore[method-assign]


@dataclass
class BinStats:
    """Exact-mergeable sample statistics over fixed bins.

    Stores integer bin counts plus ``min``/``max`` — nothing whose merge
    would depend on grouping — and derives mean/percentiles from the bins
    at read time (error is bounded by the bin width).
    """

    edges: Tuple[float, ...]
    counts: List[int] = field(default_factory=list)
    n: int = 0
    lo: float = math.inf
    hi: float = -math.inf

    def __post_init__(self) -> None:
        if not self.counts:
            # +1 for the overflow bin past the last edge; values below
            # edges[0] land in bin 0.
            self.counts = [0] * len(self.edges)

    def observe(self, value: float) -> None:
        """Record one sample (NaN is counted but excluded from extrema)."""
        counts = self.counts
        if value != value:  # NaN: counted (overflow bin), not an extremum
            counts[-1] += 1
            self.n += 1
            return
        bin_index = bisect_right(self.edges, value) - 1
        if bin_index < 0:
            bin_index = 0
        else:
            last = len(counts) - 1
            if bin_index > last:
                bin_index = last
        counts[bin_index] += 1
        self.n += 1
        if value < self.lo:
            self.lo = value
        if value > self.hi:
            self.hi = value

    def merge(self, other: "BinStats") -> None:
        """Fold ``other`` in (exact: int adds and min/max only)."""
        if other.edges != self.edges:
            raise MeasurementError("cannot merge BinStats with different bins")
        for i, count in enumerate(other.counts):
            self.counts[i] += count
        self.n += other.n
        self.lo = min(self.lo, other.lo)
        self.hi = max(self.hi, other.hi)

    def mean(self) -> float:
        """Bin-midpoint estimate of the mean (exact to the bin width)."""
        if not self.n:
            raise MeasurementError("no samples")
        total = 0.0
        for i, count in enumerate(self.counts):
            if count:
                total += self._mid(i) * count
        return total / self.n

    def percentile(self, q: float) -> float:
        """Bin-interpolated ``q``-th percentile (0–100), clamped to extrema."""
        if not 0.0 <= q <= 100.0:
            raise MeasurementError(f"percentile must be in [0, 100], got {q}")
        if not self.n:
            raise MeasurementError("no samples")
        rank = q / 100.0 * self.n
        cumulative = 0
        for i, count in enumerate(self.counts):
            if not count:
                continue
            if cumulative + count >= rank:
                lo_edge, hi_edge = self._bounds(i)
                inside = (rank - cumulative) / count
                value = lo_edge + (hi_edge - lo_edge) * inside
                return min(max(value, self.lo), self.hi)
            cumulative += count
        return self.hi

    def _bounds(self, i: int) -> Tuple[float, float]:
        if i + 1 < len(self.edges):
            return self.edges[i], self.edges[i + 1]
        # Overflow bin: degenerate at the last edge (clamped by extrema).
        return self.edges[-1], self.edges[-1]

    def _mid(self, i: int) -> float:
        lo_edge, hi_edge = self._bounds(i)
        return (lo_edge + hi_edge) / 2.0

    def summary(self) -> Dict[str, float]:
        """count/min/max/mean/p50/p95/p99 as a JSON-ready dict."""
        if not self.n:
            return {"count": 0}
        return {
            "count": self.n,
            "min": self.lo,
            "max": self.hi,
            "mean": self.mean(),
            "p50": self.percentile(50.0),
            "p95": self.percentile(95.0),
            "p99": self.percentile(99.0),
        }

    def to_dict(self) -> Dict[str, Any]:
        """Full mergeable state (sparse counts) plus the summary."""
        return {
            "n": self.n,
            "min": None if math.isinf(self.lo) else self.lo,
            "max": None if math.isinf(self.hi) else self.hi,
            "bins": {str(i): c for i, c in enumerate(self.counts) if c},
        }


def _latency_stats() -> BinStats:
    return BinStats(edges=LATENCY_EDGES_MS)


def _entropy_stats() -> BinStats:
    return BinStats(edges=ENTROPY_EDGES)


def _rate_stats() -> BinStats:
    return BinStats(edges=RATE_EDGES)


@dataclass(frozen=True, order=True)
class Annotation:
    """One rare, diagnosis-worthy occurrence pinned inside a window."""

    time_s: float
    kind: str
    label: str
    detail: str = ""

    def to_dict(self) -> Dict[str, Any]:
        """A JSON-ready dict."""
        return {
            "time_s": self.time_s,
            "kind": self.kind,
            "label": self.label,
            "detail": self.detail,
        }


@dataclass(frozen=True, order=True)
class FaultInterval:
    """One injected fault's declared activity window (for provenance)."""

    start_s: float
    end_s: float
    fault: str
    targets: Tuple[str, ...] = ()
    detail: str = ""

    @property
    def ground_truth(self) -> bool:
        """Whether the fault changes reality (vs. the telemetry view)."""
        return self.fault in GROUND_TRUTH_FAULTS

    def overlap(self, t0: float, t1: float) -> float:
        """Seconds of overlap with ``[t0, t1)``."""
        return max(0.0, min(self.end_s, t1) - max(self.start_s, t0))

    def to_dict(self) -> Dict[str, Any]:
        """A JSON-ready dict."""
        return {
            "start_s": self.start_s,
            "end_s": self.end_s,
            "fault": self.fault,
            "targets": list(self.targets),
            "detail": self.detail,
        }


@dataclass
class Window:
    """One ``[start_s, end_s)`` window's mergeable aggregates."""

    index: int
    start_s: float
    end_s: float
    #: Event counts by kind (every event kind, including unannotated ones).
    counts: Dict[str, int] = field(default_factory=dict)
    #: System entropy statistics: ``e_s``/``e_lc``/``e_be``.
    entropy: Dict[str, BinStats] = field(default_factory=dict)
    #: Per-LC-app tail latency (``ReT``) statistics, ms.
    tails: Dict[str, BinStats] = field(default_factory=dict)
    #: Per-LC-app offered load (``Q_i``) statistics.
    loads: Dict[str, BinStats] = field(default_factory=dict)
    #: Per-BE-app IPC statistics.
    ipcs: Dict[str, BinStats] = field(default_factory=dict)
    #: Per-app QoS-violation slowdown (tail/threshold when violating).
    slowdowns: Dict[str, BinStats] = field(default_factory=dict)
    #: QoS violations per application.
    violations: Dict[str, int] = field(default_factory=dict)
    #: Epochs whose scheduler decision changed the plan.
    plan_changes: int = 0
    #: Bounded annotation list (see :data:`ANNOTATED_KINDS`).
    annotations: List[Annotation] = field(default_factory=list)
    #: Annotations beyond the cap (counted, not stored).
    annotations_dropped: int = 0

    def observe(self, event: TraceEvent, cap: int) -> None:
        """Fold one event into this window's aggregates."""
        self.counts[event.kind] = self.counts.get(event.kind, 0) + 1
        if isinstance(event, EpochMeasured):
            for name, stats_map, value in (
                ("e_s", self.entropy, event.e_s),
                ("e_lc", self.entropy, event.e_lc),
                ("e_be", self.entropy, event.e_be),
            ):
                if name not in stats_map:
                    stats_map[name] = _entropy_stats()
                stats_map[name].observe(value)
            for app, tail in (event.tails_ms or {}).items():
                if app not in self.tails:
                    self.tails[app] = _latency_stats()
                self.tails[app].observe(tail)
            for app, load in (event.loads or {}).items():
                if app in (event.tails_ms or {}):
                    if app not in self.loads:
                        self.loads[app] = _rate_stats()
                    self.loads[app].observe(load)
            for app, ipc in (event.ipcs or {}).items():
                if app not in self.ipcs:
                    self.ipcs[app] = _rate_stats()
                self.ipcs[app].observe(ipc)
        elif isinstance(event, QoSViolation):
            app = event.application
            self.violations[app] = self.violations.get(app, 0) + 1
            if event.threshold_ms > 0:
                if app not in self.slowdowns:
                    self.slowdowns[app] = _rate_stats()
                self.slowdowns[app].observe(event.tail_ms / event.threshold_ms)
        elif isinstance(event, SchedulerDecision):
            if event.plan_changed:
                self.plan_changes += 1
        if event.kind in ANNOTATED_KINDS:
            # Cluster events label by node index — checked with ``is not
            # None`` because node 0 is falsy but perfectly real.
            node = getattr(event, "node", None)
            if node is not None:
                label = f"node {node}"
            else:
                label = (
                    getattr(event, "fault", None)
                    or getattr(event, "scheduler", None)
                    or getattr(event, "invariant", None)
                    or ""
                )
            detail = getattr(event, "detail", "") or getattr(event, "reason", "")
            self._annotate(
                Annotation(
                    time_s=event.time_s,
                    kind=event.kind,
                    label=str(label),
                    detail=str(detail),
                ),
                cap,
            )

    def _annotate(self, annotation: Annotation, cap: int) -> None:
        """Insert keeping the list sorted, deduplicated and capped.

        The cap keeps the *smallest* ``cap`` annotations by sort order —
        a truncation that commutes with set union, preserving merge
        associativity.
        """
        if annotation in self.annotations:
            return
        self.annotations.append(annotation)
        self.annotations.sort()
        if len(self.annotations) > cap:
            del self.annotations[cap:]
            self.annotations_dropped += 1

    def merge(self, other: "Window", cap: int) -> None:
        """Fold another window with the same index into this one."""
        if other.index != self.index:
            raise MeasurementError(
                f"cannot merge window {other.index} into window {self.index}"
            )
        for kind, count in other.counts.items():
            self.counts[kind] = self.counts.get(kind, 0) + count
        for attr in ("entropy", "tails", "loads", "ipcs", "slowdowns"):
            mine: Dict[str, BinStats] = getattr(self, attr)
            theirs: Dict[str, BinStats] = getattr(other, attr)
            for key, stats in theirs.items():
                if key in mine:
                    mine[key].merge(stats)
                else:
                    fresh = BinStats(edges=stats.edges)
                    fresh.merge(stats)
                    mine[key] = fresh
        for app, count in other.violations.items():
            self.violations[app] = self.violations.get(app, 0) + count
        self.plan_changes += other.plan_changes
        self.annotations_dropped += other.annotations_dropped
        for annotation in other.annotations:
            self._annotate(annotation, cap)

    def violation_total(self) -> int:
        """Total QoS violations in the window."""
        return sum(self.violations.values())

    def event_total(self) -> int:
        """Total events folded into the window."""
        return sum(self.counts.values())

    def to_dict(self) -> Dict[str, Any]:
        """A JSON-ready dict (stable key order via sorted serialisation)."""
        return {
            "index": self.index,
            "start_s": self.start_s,
            "end_s": self.end_s,
            "counts": dict(sorted(self.counts.items())),
            "entropy": {k: v.to_dict() for k, v in sorted(self.entropy.items())},
            "tails_ms": {k: v.to_dict() for k, v in sorted(self.tails.items())},
            "loads": {k: v.to_dict() for k, v in sorted(self.loads.items())},
            "ipcs": {k: v.to_dict() for k, v in sorted(self.ipcs.items())},
            "slowdowns": {k: v.to_dict() for k, v in sorted(self.slowdowns.items())},
            "violations": dict(sorted(self.violations.items())),
            "plan_changes": self.plan_changes,
            "annotations": [a.to_dict() for a in self.annotations],
            "annotations_dropped": self.annotations_dropped,
        }


#: Cap on the fault-interval set a summary retains (earliest win).
FAULT_INTERVAL_CAP = 256


@dataclass
class WindowSummary:
    """The mergeable outcome of folding an event stream into windows.

    Holds at most ``config.keep`` windows (the largest indices seen),
    the union of declared fault intervals, and bookkeeping: total events
    folded, the highest evicted window index (``evicted_through``;
    ``None`` when nothing was evicted), and the events whose window is
    at or behind it (``late_events``: folded into a window that was
    later evicted, or arriving after it was). Every folded event is in a
    kept window or in ``late_events``, and the kept windows are the
    largest ``keep`` indices, so both counts are independent of arrival
    order and merge exactly.
    """

    config: WindowConfig
    windows: Dict[int, Window] = field(default_factory=dict)
    faults: List[FaultInterval] = field(default_factory=list)
    events: int = 0
    late_events: int = 0
    evicted_through: Optional[int] = None

    # -- folding -----------------------------------------------------------

    def observe(self, event: TraceEvent) -> None:
        """Fold one event into the ring."""
        self.events += 1
        if isinstance(event, FaultInjected):
            # Recorded even for a dropped window: the interval set is the
            # union over every event, whatever order they arrive in.
            self._record_fault(
                FaultInterval(
                    start_s=event.time_s,
                    end_s=event.until_s,
                    fault=event.fault,
                    targets=tuple(event.targets),
                    detail=event.detail,
                )
            )
        index = self.config.index_of(event.time_s)
        if self.evicted_through is not None and index <= self.evicted_through:
            self.late_events += 1
            return
        window = self.windows.get(index)
        if window is None:
            start_s, end_s = self.config.bounds(index)
            window = Window(index=index, start_s=start_s, end_s=end_s)
            self.windows[index] = window
            self._evict()
            if index not in self.windows:  # evicted on arrival (late index)
                self.late_events += 1
                return
        window.observe(event, self.config.annotation_cap)

    def _record_fault(self, interval: FaultInterval) -> None:
        if interval in self.faults:
            return
        self.faults.append(interval)
        self.faults.sort()
        del self.faults[FAULT_INTERVAL_CAP:]

    def _drop(self, index: int) -> None:
        """Delete a kept window, counting its events as late."""
        self.late_events += sum(self.windows.pop(index).counts.values())

    def _evict(self) -> None:
        keep = self.config.keep
        while len(self.windows) > keep:
            oldest = min(self.windows)
            self._drop(oldest)
            if self.evicted_through is None or oldest > self.evicted_through:
                self.evicted_through = oldest

    # -- merging -----------------------------------------------------------

    def merge(self, other: "WindowSummary") -> "WindowSummary":
        """Fold another summary in (in place; returns self).

        Exact and associative/commutative: integer adds, min/max, and
        capped sorted unions only (see the module docstring's merge laws).
        """
        if other.config != self.config:
            raise MeasurementError(
                "cannot merge window summaries with different configs: "
                f"{self.config} vs {other.config}"
            )
        for index, window in other.windows.items():
            if self.evicted_through is not None and index <= self.evicted_through:
                self.late_events += sum(window.counts.values())
                continue
            mine = self.windows.get(index)
            if mine is None:
                start_s, end_s = self.config.bounds(index)
                mine = Window(index=index, start_s=start_s, end_s=end_s)
                self.windows[index] = mine
            mine.merge(window, self.config.annotation_cap)
        if other.evicted_through is not None and (
            self.evicted_through is None
            or other.evicted_through > self.evicted_through
        ):
            self.evicted_through = other.evicted_through
            for index in [i for i in self.windows if i <= self.evicted_through]:
                self._drop(index)
        self._evict()
        for interval in other.faults:
            self._record_fault(interval)
        self.events += other.events
        self.late_events += other.late_events
        return self

    # -- queries -----------------------------------------------------------

    def ordered(self) -> List[Window]:
        """The kept windows in time order."""
        return [self.windows[i] for i in sorted(self.windows)]

    def span(self) -> Tuple[float, float]:
        """The ``[start, end)`` simulated-time range the ring covers."""
        if not self.windows:
            raise MeasurementError("no windows recorded")
        indices = sorted(self.windows)
        return (
            self.config.bounds(indices[0])[0],
            self.config.bounds(indices[-1])[1],
        )

    def between(self, t0: float, t1: float) -> List[Window]:
        """Kept windows overlapping ``[t0, t1)``, in time order."""
        if not t1 > t0:
            raise MeasurementError(f"empty window query range [{t0}, {t1})")
        lo = self.config.index_of(t0)
        hi = self.config.index_of(t1 - 1e-12)
        return [self.windows[i] for i in sorted(self.windows) if lo <= i <= hi]

    def apps(self) -> List[str]:
        """Every LC application with tail samples, sorted."""
        names = set()
        for window in self.windows.values():
            names.update(window.tails)
        return sorted(names)

    def tail_percentile(self, app: str, q: float, windows: Optional[Iterable[Window]] = None) -> float:
        """``app``'s ``q``-th tail percentile over the given (or all) windows."""
        merged = _latency_stats()
        for window in windows if windows is not None else self.windows.values():
            stats = window.tails.get(app)
            if stats is not None:
                merged.merge(stats)
        if not merged.n:
            raise MeasurementError(f"no tail samples for {app!r}")
        return merged.percentile(q)

    def spike_windows(self, factor: float = 2.0) -> List[Window]:
        """Windows whose worst-app p99 tail exceeds ``factor`` × the median.

        The median is taken over every kept window's worst-app p99; a run
        with fewer than three windows never reports spikes.
        """
        ordered = self.ordered()
        scores: List[Tuple[Window, float]] = []
        for window in ordered:
            worst = 0.0
            for stats in window.tails.values():
                if stats.n:
                    worst = max(worst, stats.percentile(99.0))
            scores.append((window, worst))
        values = sorted(score for _, score in scores if score > 0)
        if len(values) < 3:
            return []
        median = values[len(values) // 2]
        if median <= 0:
            return []
        return [w for w, score in scores if score > factor * median]

    # -- serialisation -----------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        """A JSON-ready dict of the full mergeable state."""
        return {
            "config": self.config.to_dict(),
            "events": self.events,
            "late_events": self.late_events,
            "evicted_through": self.evicted_through,
            "faults": [f.to_dict() for f in self.faults],
            "windows": [w.to_dict() for w in self.ordered()],
        }

    def to_json(self) -> str:
        """Canonical JSON (sorted keys, compact): byte-comparable."""
        return json.dumps(
            self.to_dict(), sort_keys=True, separators=(",", ":"), allow_nan=False
        )

    def describe(self, limit: int = 8) -> str:
        """A short human-readable digest of the most recent windows."""
        lines = [
            f"windows: {len(self.windows)} kept (dt={self.config.dt_s:g}s, "
            f"keep={self.config.keep}), {self.events} events folded"
        ]
        for window in self.ordered()[-limit:]:
            worst = ""
            tails = [
                (app, stats.percentile(99.0))
                for app, stats in sorted(window.tails.items())
                if stats.n
            ]
            if tails:
                app, p99 = max(tails, key=lambda pair: pair[1])
                worst = f" worst p99 {p99:.2f}ms ({app})"
            flags = []
            if window.violation_total():
                flags.append(f"{window.violation_total()} QoS")
            if window.counts.get("fault_injected"):
                flags.append(f"{window.counts['fault_injected']} fault(s)")
            if window.plan_changes:
                flags.append(f"{window.plan_changes} plan change(s)")
            suffix = f" [{', '.join(flags)}]" if flags else ""
            lines.append(
                f"  [{window.start_s:8.1f}s, {window.end_s:8.1f}s) "
                f"{window.event_total():6d} events{worst}{suffix}"
            )
        return "\n".join(lines)


def merge_window_summaries(
    summaries: Iterable[Optional["WindowSummary"]],
    config: Optional[WindowConfig] = None,
) -> WindowSummary:
    """Merge summaries (skipping ``None``) in iteration order.

    The merge is exact and grouping-independent, so parallel workers'
    summaries combined in submission order equal the serial fold.
    """
    merged: Optional[WindowSummary] = None
    for summary in summaries:
        if summary is None:
            continue
        if merged is None:
            merged = WindowSummary(config=summary.config)
        merged.merge(summary)
    if merged is None:
        if config is None:
            raise MeasurementError("no window summaries to merge")
        merged = WindowSummary(config=config)
    return merged


class WindowedTracer:
    """A :class:`~repro.obs.events.Tracer` folding events into windows.

    The replacement for collect-everything tracing on long runs: memory
    is O(``config.keep``) windows however many events arrive. Attach it
    anywhere a tracer goes (``run_collocation(tracer=...)``,
    ``compose_tracers``) or pass a :class:`WindowConfig` through the
    ``windows=`` keyword the run entry points take.
    """

    def __init__(self, *, config: Optional[WindowConfig] = None) -> None:
        self.summary_state = WindowSummary(
            config=config if config is not None else WindowConfig()
        )

    @property
    def config(self) -> WindowConfig:
        """The window geometry in use."""
        return self.summary_state.config

    def emit(self, event: TraceEvent) -> None:
        """Fold one event into the ring."""
        self.summary_state.observe(event)

    def summary(self) -> WindowSummary:
        """The current :class:`WindowSummary` (live, not a copy)."""
        return self.summary_state

    def __len__(self) -> int:
        return len(self.summary_state.windows)


# -- provenance: why was this window slow? -----------------------------------


@dataclass(frozen=True)
class Cause:
    """One ranked explanation for a tail-latency spike."""

    kind: str  # "fault" | "scheduler" | "cluster" | "co_runner" | "load"
    label: str
    score: float
    evidence: str

    def to_dict(self) -> Dict[str, Any]:
        """A JSON-ready dict."""
        return {
            "kind": self.kind,
            "label": self.label,
            "score": self.score,
            "evidence": self.evidence,
        }


@dataclass(frozen=True)
class WhySlowReport:
    """The outcome of a :func:`why_slow` provenance query."""

    t0: float
    t1: float
    #: Per-app p99 tail inside the range (ms).
    spike_p99_ms: Dict[str, float]
    #: Per-app p99 tail over the rest of the ring (ms; baseline).
    baseline_p99_ms: Dict[str, float]
    #: QoS violations inside the range, per app.
    violations: Dict[str, int]
    #: Ranked causes, best explanation first.
    causes: Tuple[Cause, ...]

    def top(self) -> Optional[Cause]:
        """The best-ranked cause (``None`` when nothing overlaps)."""
        return self.causes[0] if self.causes else None

    def to_dict(self) -> Dict[str, Any]:
        """A JSON-ready dict."""
        return {
            "t0": self.t0,
            "t1": self.t1,
            "spike_p99_ms": dict(sorted(self.spike_p99_ms.items())),
            "baseline_p99_ms": dict(sorted(self.baseline_p99_ms.items())),
            "violations": dict(sorted(self.violations.items())),
            "causes": [cause.to_dict() for cause in self.causes],
        }

    def describe(self) -> str:
        """A human-readable report."""
        lines = [f"why slow in [{self.t0:g}s, {self.t1:g}s)?"]
        for app in sorted(self.spike_p99_ms):
            spike = self.spike_p99_ms[app]
            base = self.baseline_p99_ms.get(app)
            ratio = f" ({spike / base:.2f}x baseline)" if base else ""
            count = self.violations.get(app, 0)
            qos = f", {count} QoS violation(s)" if count else ""
            lines.append(f"  {app}: p99 {spike:.2f}ms{ratio}{qos}")
        if not self.causes:
            lines.append("  no candidate causes overlap the range")
        for rank, cause in enumerate(self.causes, start=1):
            lines.append(
                f"  #{rank} [{cause.score:.2f}] {cause.kind}: {cause.label} — "
                f"{cause.evidence}"
            )
        return "\n".join(lines)


def why_slow(
    summary: WindowSummary,
    t0: float,
    t1: float,
    *,
    app: Optional[str] = None,
) -> WhySlowReport:
    """Rank the likely causes of slowness inside ``[t0, t1)``.

    Candidates, scored deterministically from the kept windows:

    * **faults** — declared fault intervals overlapping the range, scored
      by overlap fraction (ground-truth faults outrank telemetry-view
      faults, which can only hurt via bad decisions);
    * **scheduler** — resource moves/rollbacks/plan changes inside the
      range, scored by their density relative to the baseline windows;
    * **cluster** — node quarantines inside the range (the datacenter
      loop ran degraded: tenants failed over or sat parked);
    * **co-runners** — BE apps whose IPC inside the range dropped below
      their baseline (they were fighting for the shared resources), and
    * **load** — LC apps whose offered load rose above baseline.

    ``app`` restricts the spike statistics to one LC application (causes
    are still ranked against the whole window contents).
    """
    spike = summary.between(t0, t1)
    if not spike:
        raise MeasurementError(
            f"no kept windows overlap [{t0}, {t1}) — ring covers "
            f"{summary.span() if summary.windows else 'nothing'}"
        )
    spike_set = {w.index for w in spike}
    baseline = [w for w in summary.ordered() if w.index not in spike_set]

    def merged_stats(windows: List[Window], attr: str) -> Dict[str, BinStats]:
        folded: Dict[str, BinStats] = {}
        for window in windows:
            for name, stats in getattr(window, attr).items():
                if app is not None and attr == "tails" and name != app:
                    continue
                if name not in folded:
                    folded[name] = BinStats(edges=stats.edges)
                folded[name].merge(stats)
        return folded

    spike_tails = merged_stats(spike, "tails")
    base_tails = merged_stats(baseline, "tails")
    spike_p99 = {
        name: stats.percentile(99.0) for name, stats in spike_tails.items() if stats.n
    }
    base_p99 = {
        name: stats.percentile(99.0) for name, stats in base_tails.items() if stats.n
    }
    violations: Dict[str, int] = {}
    for window in spike:
        for name, count in window.violations.items():
            violations[name] = violations.get(name, 0) + count

    causes: List[Cause] = []

    # Faults: overlap fraction of the queried range, ground truth first.
    range_len = t1 - t0
    for interval in summary.faults:
        overlap = interval.overlap(t0, t1)
        if overlap <= 0:
            continue
        weight = 1.0 if interval.ground_truth else 0.7
        score = weight * min(1.0, overlap / range_len)
        scope = ", ".join(interval.targets) if interval.targets else "all apps"
        causes.append(
            Cause(
                kind="fault",
                label=interval.fault,
                score=score,
                evidence=(
                    f"active [{interval.start_s:g}s, {interval.end_s:g}s) on "
                    f"{scope}, overlaps {overlap:g}s of the range"
                    + ("" if interval.ground_truth else " (telemetry view only)")
                ),
            )
        )

    # Scheduler churn: move/rollback/plan-change density vs baseline.
    def churn(windows: List[Window]) -> int:
        total = 0
        for window in windows:
            total += window.counts.get("resource_move", 0)
            total += window.counts.get("rollback", 0)
            total += window.plan_changes
        return total

    spike_churn = churn(spike)
    if spike_churn:
        base_churn = churn(baseline)
        spike_rate = spike_churn / len(spike)
        base_rate = base_churn / len(baseline) if baseline else 0.0
        schedulers = sorted(
            {
                a.label
                for w in spike
                for a in w.annotations
                if a.kind in ("resource_move", "rollback") and a.label
            }
        )
        excess = spike_rate / (base_rate + 1.0)
        causes.append(
            Cause(
                kind="scheduler",
                label=", ".join(schedulers) if schedulers else "scheduler",
                score=min(0.9, 0.3 * excess),
                evidence=(
                    f"{spike_churn} moves/rollbacks/plan changes in the range "
                    f"({spike_rate:.2f}/window vs {base_rate:.2f} baseline)"
                ),
            )
        )

    # Cluster degradation: node quarantines in the range mean the epoch
    # loop ran degraded — failover churn and parked tenants both move
    # tail latency for everyone sharing the survivors.
    quarantined = sum(w.counts.get("node_quarantined", 0) for w in spike)
    if quarantined:
        nodes = sorted(
            {
                a.label
                for w in spike
                for a in w.annotations
                if a.kind == "node_quarantined" and a.label
            }
        )
        causes.append(
            Cause(
                kind="cluster",
                label=", ".join(nodes) if nodes else "quarantine",
                score=min(0.85, 0.4 + 0.15 * quarantined),
                evidence=(
                    f"{quarantined} node quarantine(s) in the range — "
                    "tenants failed over or sat parked while the cluster "
                    "ran degraded"
                ),
            )
        )

    # Co-runners: BE apps whose IPC sank below baseline in the range.
    spike_ipcs = merged_stats(spike, "ipcs")
    base_ipcs = merged_stats(baseline, "ipcs")
    for name in sorted(spike_ipcs):
        stats = spike_ipcs[name]
        base = base_ipcs.get(name)
        if not stats.n or base is None or not base.n:
            continue
        drop = (base.mean() - stats.mean()) / base.mean() if base.mean() > 0 else 0.0
        if drop > 0.02:
            causes.append(
                Cause(
                    kind="co_runner",
                    label=name,
                    score=min(0.8, drop * 2.0),
                    evidence=(
                        f"BE co-runner IPC fell {drop:.0%} below baseline "
                        f"({stats.mean():.2f} vs {base.mean():.2f}) — "
                        "contention on shared resources"
                    ),
                )
            )

    # Load: LC apps whose offered load rose above baseline in the range.
    spike_loads = merged_stats(spike, "loads")
    base_loads = merged_stats(baseline, "loads")
    for name in sorted(spike_loads):
        stats = spike_loads[name]
        base = base_loads.get(name)
        if not stats.n or base is None or not base.n:
            continue
        rise = stats.mean() - base.mean()
        if rise > 0.02:
            causes.append(
                Cause(
                    kind="load",
                    label=name,
                    score=min(0.9, rise),
                    evidence=(
                        f"offered load rose to {stats.mean():.2f} "
                        f"(baseline {base.mean():.2f})"
                    ),
                )
            )

    causes.sort(key=lambda c: (-c.score, c.kind, c.label))
    return WhySlowReport(
        t0=t0,
        t1=t1,
        spike_p99_ms=spike_p99 if app is None else {
            k: v for k, v in spike_p99.items() if k == app
        },
        baseline_p99_ms=base_p99,
        violations=violations,
        causes=tuple(causes),
    )
