"""Exporters and the live narrator: JSONL traces, metric files, run dumps.

Three families live here:

* **Trace I/O** — :class:`JsonlTraceWriter` streams events to a JSON-lines
  file (one sorted-key object per line, so traces diff cleanly and are
  byte-identical across ``--jobs`` settings); :func:`read_trace` loads a
  file back into typed events; :func:`write_trace` dumps a collected list.
* **Metric exporters** — :func:`write_metrics_prometheus` (Prometheus text
  exposition format) and :func:`write_metrics_csv` for a
  :class:`~repro.obs.metrics.MetricsRegistry`.
* **Window exporters** — :func:`write_windows_csv` /
  :func:`write_windows_jsonl` / :func:`write_windows_prometheus` dump a
  :class:`~repro.obs.windows.WindowSummary`'s bounded per-window
  aggregates; all share the keyword-only ``path``/``append`` tail.
* **The console and narrator** — :class:`Console` is the single stdout
  gate for the whole package (``--quiet`` silences it);
  :class:`NarratorTracer` renders the event stream as human-readable
  lines, replacing the scattered ``print()`` calls the experiments used
  to make.

The per-epoch run exporters (:func:`epochs_to_rows`, :func:`write_csv`,
:func:`write_json`, :func:`summary_dict`) live here too.
"""

from __future__ import annotations

import csv
import json
import pathlib
import sys
from typing import TYPE_CHECKING, Dict, IO, Iterable, List, Optional, Union

from repro.errors import ConfigurationError
from repro.obs.events import (
    CooldownEnd,
    CooldownStart,
    DecisionSkipped,
    EpochMeasured,
    FaultCleared,
    FaultInjected,
    FSMTransition,
    InvariantViolation,
    QoSViolation,
    ResourceMove,
    Rollback,
    RunFinished,
    RunStarted,
    SchedulerDecision,
    SearchProgress,
    TelemetryGap,
    TelemetryRepaired,
    TraceEvent,
    event_from_dict,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.windows import WindowSummary

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (run.py emits events)
    from repro.cluster.run import RunResult

PathLike = Union[str, pathlib.Path]


# -- trace I/O ---------------------------------------------------------------


def event_to_json(event: TraceEvent) -> str:
    """One event as a canonical (sorted-key, compact) JSON line."""
    return json.dumps(
        event.to_dict(), sort_keys=True, separators=(",", ":"), allow_nan=False
    )


class JsonlTraceWriter:
    """A tracer that appends one canonical JSON line per event to a file.

    Usable as a context manager; :meth:`close` is idempotent. Lines are
    written in emission order with sorted keys, so two traces of the same
    run are byte-identical.

    Arguments are keyword-only (``path=...``, ``append=...``) — the
    common exporter tail. ``append=True`` opens the file in append mode
    so several runs can share one trace file.
    """

    def __init__(self, *, path: PathLike, append: bool = False) -> None:
        self.path = pathlib.Path(path)
        self.append = bool(append)
        self._handle: Optional[IO[str]] = self.path.open(
            "a" if self.append else "w"
        )
        self.events_written = 0

    def emit(self, event: TraceEvent) -> None:
        """Write one event as a JSON line."""
        if self._handle is None:
            raise ConfigurationError(
                f"trace writer for {self.path} is already closed"
            )
        self._handle.write(event_to_json(event) + "\n")
        self.events_written += 1

    def close(self) -> None:
        """Flush and close the underlying file (idempotent)."""
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def __enter__(self) -> "JsonlTraceWriter":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


def write_trace(events: Iterable[TraceEvent], path: PathLike) -> pathlib.Path:
    """Write an event sequence as a JSONL trace; returns the path."""
    path = pathlib.Path(path)
    with path.open("w") as handle:
        for event in events:
            handle.write(event_to_json(event) + "\n")
    return path


def read_trace(path: PathLike) -> List[TraceEvent]:
    """Load a JSONL trace back into typed events, in file order."""
    path = pathlib.Path(path)
    events: List[TraceEvent] = []
    with path.open() as handle:
        for line_number, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                payload = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ConfigurationError(
                    f"{path}:{line_number}: not valid JSON: {exc}"
                ) from exc
            events.append(event_from_dict(payload))
    return events


# -- metric exporters --------------------------------------------------------


def _prometheus_name(name: str) -> str:
    """Sanitise a registry name into a Prometheus metric name."""
    cleaned = []
    for ch in name:
        cleaned.append(ch if ch.isalnum() or ch == "_" else "_")
    text = "".join(cleaned)
    if text and text[0].isdigit():
        text = "_" + text
    return "repro_" + text


def metrics_to_prometheus(registry: MetricsRegistry) -> str:
    """Render a registry in the Prometheus text exposition format.

    Counters and gauges become single samples; histograms become
    summary-style ``_count``/``_sum`` samples plus quantile series.
    """
    lines: List[str] = []
    for name, counter in sorted(registry.counters.items()):
        metric = _prometheus_name(name)
        if counter.help:
            lines.append(f"# HELP {metric} {counter.help}")
        lines.append(f"# TYPE {metric} counter")
        lines.append(f"{metric} {counter.value:g}")
    for name, gauge in sorted(registry.gauges.items()):
        if not gauge.is_set:
            continue
        metric = _prometheus_name(name)
        if gauge.help:
            lines.append(f"# HELP {metric} {gauge.help}")
        lines.append(f"# TYPE {metric} gauge")
        lines.append(f"{metric} {gauge.value:.17g}")
    for name, histogram in sorted(registry.histograms.items()):
        metric = _prometheus_name(name)
        if histogram.help:
            lines.append(f"# HELP {metric} {histogram.help}")
        lines.append(f"# TYPE {metric} summary")
        for q in (0.5, 0.9, 0.95, 0.99):
            value = histogram.percentile(q * 100.0) if histogram.count else 0.0
            lines.append(f'{metric}{{quantile="{q:g}"}} {value:.17g}')
        lines.append(f"{metric}_sum {histogram.total:.17g}")
        lines.append(f"{metric}_count {histogram.count}")
    return "\n".join(lines) + "\n"


def write_metrics_prometheus(
    registry: MetricsRegistry, path: PathLike
) -> pathlib.Path:
    """Write the registry as Prometheus text; returns the path."""
    path = pathlib.Path(path)
    path.write_text(metrics_to_prometheus(registry))
    return path


def write_metrics_csv(registry: MetricsRegistry, path: PathLike) -> pathlib.Path:
    """Write the registry as ``metric,type,field,value`` CSV rows."""
    path = pathlib.Path(path)
    with path.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["metric", "type", "field", "value"])
        for name, counter in sorted(registry.counters.items()):
            writer.writerow([name, "counter", "value", repr(counter.value)])
        for name, gauge in sorted(registry.gauges.items()):
            if gauge.is_set:
                writer.writerow([name, "gauge", "value", repr(gauge.value)])
        for name, histogram in sorted(registry.histograms.items()):
            for key, value in histogram.summary().items():
                writer.writerow([name, "histogram", key, repr(value)])
    return path


def write_metrics(registry: MetricsRegistry, path: PathLike) -> pathlib.Path:
    """Write metrics, picking the format from the extension.

    ``.csv`` selects CSV; anything else (``.prom``, ``.txt``, …) selects
    the Prometheus text format.
    """
    path = pathlib.Path(path)
    if path.suffix.lower() == ".csv":
        return write_metrics_csv(registry, path)
    return write_metrics_prometheus(registry, path)


# -- the console -------------------------------------------------------------


class Console:
    """The single gate through which user-facing text reaches a stream.

    Experiments and the CLI route everything through :func:`say` so that
    one flag (``--quiet``) silences the whole package. The default stream
    is resolved at call time (so pytest's ``capsys`` and shell
    redirections behave normally). Arguments are keyword-only
    (``stream=...``, ``quiet=...``).
    """

    def __init__(
        self, *, stream: Optional[IO[str]] = None, quiet: bool = False
    ) -> None:
        self.quiet = bool(quiet)
        self._stream = stream

    @property
    def stream(self) -> IO[str]:
        """The output stream (defaults to the *current* ``sys.stdout``)."""
        return self._stream if self._stream is not None else sys.stdout

    def say(self, text: str = "") -> None:
        """Write one line (suppressed entirely when quiet)."""
        if self.quiet:
            return
        self.stream.write(text + "\n")


#: The process-wide console used by experiments and the CLI.
_CONSOLE = Console()


def console() -> Console:
    """The process-wide console."""
    return _CONSOLE


def set_quiet(quiet: bool) -> None:
    """Globally silence (or re-enable) the process-wide console."""
    _CONSOLE.quiet = bool(quiet)


def is_quiet() -> bool:
    """Whether the process-wide console is silenced."""
    return _CONSOLE.quiet


def say(text: str = "") -> None:
    """Write one line through the process-wide console."""
    _CONSOLE.say(text)


# -- the narrator ------------------------------------------------------------


class NarratorTracer:
    """Render the event stream as human-readable lines, live.

    Attach it (alone or composed with a :class:`JsonlTraceWriter`) to
    watch ARQ's move/rollback/cooldown decisions, PARTIES' FSM cycling or
    per-epoch entropy as the run unfolds — the CLI's ``--verbose`` flag
    does exactly this.

    The narrator renders each event as it arrives and keeps **nothing**
    in memory — it narrates million-event runs at O(1) space (unlike
    :class:`~repro.obs.events.CollectingTracer`). Arguments are
    keyword-only (``sink=...``, ``every_epoch=...``).
    """

    def __init__(
        self, *, sink: Optional[Console] = None, every_epoch: bool = False
    ) -> None:
        self._sink = sink or _CONSOLE
        self._every_epoch = bool(every_epoch)

    def emit(self, event: TraceEvent) -> None:
        """Render one event (quiet epochs are elided unless asked for)."""
        line = self.render(event)
        if line is not None:
            self._sink.say(line)

    def render(self, event: TraceEvent) -> Optional[str]:
        """The narrated line for ``event`` (``None`` = stay silent)."""
        t = f"[{event.time_s:8.1f}s]"
        if isinstance(event, RunStarted):
            apps = ", ".join(event.lc_apps + event.be_apps)
            return (
                f"{t} run started: {event.scheduler} on {apps} "
                f"for {event.duration_s:g}s (epoch {event.epoch_s:g}s, "
                f"seed {event.seed})"
            )
        if isinstance(event, RunFinished):
            return (
                f"{t} run finished: {event.epochs} epochs, "
                f"E_S={event.mean_e_s:.3f} E_LC={event.mean_e_lc:.3f} "
                f"E_BE={event.mean_e_be:.3f}, {event.violations} violations"
            )
        if isinstance(event, EpochMeasured):
            if not self._every_epoch and event.violations == 0:
                return None
            return (
                f"{t} epoch {event.epoch}: E_S={event.e_s:.3f} "
                f"E_LC={event.e_lc:.3f} E_BE={event.e_be:.3f} "
                f"violations={event.violations}"
            )
        if isinstance(event, QoSViolation):
            return (
                f"{t} QoS violation: {event.application} at "
                f"{event.tail_ms:.2f}ms (threshold {event.threshold_ms:.2f}ms)"
            )
        if isinstance(event, ResourceMove):
            reason = f" ({event.reason})" if event.reason else ""
            return (
                f"{t} {event.scheduler}: move {event.amount:g} "
                f"{event.resource} {event.source} -> {event.destination}{reason}"
            )
        if isinstance(event, Rollback):
            return (
                f"{t} {event.scheduler}: rollback {event.amount:g} "
                f"{event.resource} {event.source} -> {event.destination}"
            )
        if isinstance(event, CooldownStart):
            return (
                f"{t} {event.scheduler}: cooldown on {event.region} "
                f"until {event.until_s:g}s"
            )
        if isinstance(event, CooldownEnd):
            return f"{t} {event.scheduler}: cooldown on {event.region} ended"
        if isinstance(event, FSMTransition):
            return (
                f"{t} fsm[{event.owner}]: {event.from_resource} -> "
                f"{event.to_resource}"
            )
        if isinstance(event, SearchProgress):
            return (
                f"{t} {event.scheduler}: search {event.phase} "
                f"({event.evaluations} evaluations, best {event.best_score:.3f})"
            )
        if isinstance(event, SchedulerDecision):
            if not event.plan_changed:
                return None
            return f"{t} {event.scheduler}: new plan — {event.plan}"
        if isinstance(event, FaultInjected):
            scope = ", ".join(event.targets) if event.targets else "all"
            detail = f" ({event.detail})" if event.detail else ""
            return (
                f"{t} fault injected: {event.fault} on {scope} "
                f"until {event.until_s:g}s{detail}"
            )
        if isinstance(event, FaultCleared):
            scope = ", ".join(event.targets) if event.targets else "all"
            return f"{t} fault cleared: {event.fault} on {scope}"
        if isinstance(event, TelemetryGap):
            return (
                f"{t} {event.scheduler}: telemetry unusable "
                f"(held {event.held}, dropped {event.dropped}) — holding plan"
            )
        if isinstance(event, TelemetryRepaired):
            return (
                f"{t} {event.scheduler}: telemetry repaired "
                f"({event.fresh} fresh, {event.held} held, "
                f"{event.dropped} dropped)"
            )
        if isinstance(event, DecisionSkipped):
            detail = f": {event.detail}" if event.detail else ""
            return f"{t} {event.scheduler}: decision skipped ({event.reason}){detail}"
        if isinstance(event, InvariantViolation):
            return (
                f"{t} INVARIANT {event.invariant} [{event.scheduler}] "
                f"epoch {event.epoch}: {event.detail}"
            )
        return None


# -- per-epoch run exporters -------------------------------------------------

#: Column order of the per-epoch CSV.
EPOCH_COLUMNS = [
    "epoch",
    "time_s",
    "application",
    "kind",
    "load_fraction",
    "tail_ms",
    "ideal_ms",
    "threshold_ms",
    "ipc",
    "ipc_solo",
    "satisfied",
    "effective_cores",
    "effective_ways",
    "bandwidth_multiplier",
    "e_lc",
    "e_be",
    "e_s",
    "plan_shared_cores",
    "plan_shared_ways",
]


def epochs_to_rows(result: RunResult) -> List[Dict[str, object]]:
    """One flat dict per (epoch × application) sample."""
    rows: List[Dict[str, object]] = []
    for record in result.records:
        base = {
            "epoch": record.index,
            "time_s": record.time_s,
            "e_lc": record.e_lc,
            "e_be": record.e_be,
            "e_s": record.e_s,
            "plan_shared_cores": record.plan.shared.cores,
            "plan_shared_ways": record.plan.shared.llc_ways,
        }
        for name, measurement in record.lc.items():
            resources = record.resources[name]
            rows.append(
                {
                    **base,
                    "application": name,
                    "kind": "lc",
                    "load_fraction": measurement.load_fraction,
                    "tail_ms": measurement.tail_ms,
                    "ideal_ms": measurement.ideal_ms,
                    "threshold_ms": measurement.threshold_ms,
                    "ipc": None,
                    "ipc_solo": None,
                    "satisfied": measurement.satisfied,
                    "effective_cores": resources.cores,
                    "effective_ways": resources.ways,
                    "bandwidth_multiplier": resources.bandwidth_multiplier,
                }
            )
        for name, measurement in record.be.items():
            resources = record.resources[name]
            rows.append(
                {
                    **base,
                    "application": name,
                    "kind": "be",
                    "load_fraction": None,
                    "tail_ms": None,
                    "ideal_ms": None,
                    "threshold_ms": None,
                    "ipc": measurement.ipc,
                    "ipc_solo": measurement.ipc_solo,
                    "satisfied": None,
                    "effective_cores": resources.cores,
                    "effective_ways": resources.ways,
                    "bandwidth_multiplier": resources.bandwidth_multiplier,
                }
            )
    return rows


def write_csv(result: RunResult, path: PathLike) -> pathlib.Path:
    """Write the per-epoch samples as CSV; returns the path written."""
    path = pathlib.Path(path)
    rows = epochs_to_rows(result)
    if not rows:
        raise ConfigurationError("cannot export an empty run")
    with path.open("w", newline="") as handle:
        writer = csv.DictWriter(handle, fieldnames=EPOCH_COLUMNS)
        writer.writeheader()
        for row in rows:
            writer.writerow({key: row.get(key) for key in EPOCH_COLUMNS})
    return path


def summary_dict(result: RunResult) -> Dict[str, object]:
    """The run's headline summary as a JSON-ready dict."""
    return {
        "scheduler": result.scheduler_name,
        "seed": result.collocation.seed,
        "epoch_s": result.collocation.epoch_s,
        "warmup_s": result.warmup_s,
        "epochs": len(result.records),
        "mean_e_lc": result.mean_e_lc(),
        "mean_e_be": result.mean_e_be(),
        "mean_e_s": result.mean_e_s(),
        "yield": result.yield_fraction(),
        "violations": result.violation_count(),
        "mean_tail_ms": result.mean_tail_latencies_ms(),
        "mean_ipc": result.mean_ipcs(),
    }


def write_json(result: RunResult, path: PathLike) -> pathlib.Path:
    """Write summary + per-epoch samples as JSON; returns the path."""
    path = pathlib.Path(path)
    payload = {
        "summary": summary_dict(result),
        "epochs": epochs_to_rows(result),
    }
    path.write_text(json.dumps(payload, indent=2, default=str))
    return path


# -- window exporters --------------------------------------------------------

#: Column order of the per-window CSV.
WINDOW_COLUMNS = [
    "window",
    "start_s",
    "end_s",
    "signal",
    "application",
    "count",
    "min",
    "max",
    "mean",
    "p50",
    "p95",
    "p99",
]


def window_rows(summary: WindowSummary) -> List[Dict[str, object]]:
    """One flat dict per (window × signal × application) aggregate.

    Signals: ``events`` (total folded), ``violations`` and
    ``plan_changes`` (counts), the entropy series (``e_s``/``e_lc``/
    ``e_be``), and the per-app distributions ``tail_ms``/``load``/
    ``ipc``/``slowdown`` with their count/min/max/mean/p50/p95/p99.
    """
    rows: List[Dict[str, object]] = []
    for window in summary.ordered():
        base = {
            "window": window.index,
            "start_s": window.start_s,
            "end_s": window.end_s,
        }
        rows.append(
            {**base, "signal": "events", "application": "",
             "count": window.event_total()}
        )
        if window.plan_changes:
            rows.append(
                {**base, "signal": "plan_changes", "application": "",
                 "count": window.plan_changes}
            )
        for app, count in sorted(window.violations.items()):
            rows.append(
                {**base, "signal": "violations", "application": app,
                 "count": count}
            )
        for name, stats in sorted(window.entropy.items()):
            rows.append(
                {**base, "signal": name, "application": "", **stats.summary()}
            )
        for signal, mapping in (
            ("tail_ms", window.tails),
            ("load", window.loads),
            ("ipc", window.ipcs),
            ("slowdown", window.slowdowns),
        ):
            for app, stats in sorted(mapping.items()):
                rows.append(
                    {**base, "signal": signal, "application": app,
                     **stats.summary()}
                )
    return rows


def write_windows_csv(
    summary: WindowSummary, *, path: PathLike, append: bool = False
) -> pathlib.Path:
    """Write the window aggregates as CSV; returns the path.

    Keyword-only ``path``/``append`` tail like every exporter here;
    ``append=True`` skips the header when the file already has content.
    """
    path = pathlib.Path(path)
    mode = "a" if append else "w"
    fresh = not (append and path.exists() and path.stat().st_size > 0)
    with path.open(mode, newline="") as handle:
        writer = csv.DictWriter(handle, fieldnames=WINDOW_COLUMNS)
        if fresh:
            writer.writeheader()
        for row in window_rows(summary):
            writer.writerow({key: row.get(key) for key in WINDOW_COLUMNS})
    return path


def write_windows_jsonl(
    summary: WindowSummary, *, path: PathLike, append: bool = False
) -> pathlib.Path:
    """Write one canonical JSON line per window; returns the path.

    Lines are sorted-key compact JSON of each window's full mergeable
    state, so window dumps are byte-identical across ``--jobs`` settings
    and diff cleanly — the same property the event traces have.
    """
    path = pathlib.Path(path)
    with path.open("a" if append else "w") as handle:
        for window in summary.ordered():
            handle.write(
                json.dumps(
                    window.to_dict(),
                    sort_keys=True,
                    separators=(",", ":"),
                    allow_nan=False,
                )
                + "\n"
            )
    return path


def windows_to_prometheus(summary: WindowSummary) -> str:
    """Render the window aggregates in Prometheus text exposition format.

    Each window is a labelled sample set (``window="<index>"``): event
    totals, per-app violation counts, and per-app tail-latency quantiles.
    """
    lines: List[str] = [
        "# HELP repro_window_events trace events folded into the window",
        "# TYPE repro_window_events gauge",
    ]
    ordered = summary.ordered()
    for window in ordered:
        lines.append(f'repro_window_events{{window="{window.index}"}} '
                     f"{window.event_total()}")
    lines.append("# HELP repro_window_violations QoS violations in the window")
    lines.append("# TYPE repro_window_violations gauge")
    for window in ordered:
        for app, count in sorted(window.violations.items()):
            lines.append(
                f'repro_window_violations{{app="{app}",window="{window.index}"}} '
                f"{count}"
            )
    lines.append("# HELP repro_window_tail_ms per-app tail latency quantiles")
    lines.append("# TYPE repro_window_tail_ms summary")
    for window in ordered:
        for app, stats in sorted(window.tails.items()):
            if not stats.n:
                continue
            for q in (0.5, 0.95, 0.99):
                value = stats.percentile(q * 100.0)
                lines.append(
                    f'repro_window_tail_ms{{app="{app}",quantile="{q:g}",'
                    f'window="{window.index}"}} {value:.17g}'
                )
    return "\n".join(lines) + "\n"


def write_windows_prometheus(
    summary: WindowSummary, *, path: PathLike, append: bool = False
) -> pathlib.Path:
    """Write the window aggregates as Prometheus text; returns the path."""
    path = pathlib.Path(path)
    text = windows_to_prometheus(summary)
    if append:
        with path.open("a") as handle:
            handle.write(text)
    else:
        path.write_text(text)
    return path


def write_windows(
    summary: WindowSummary, *, path: PathLike, append: bool = False
) -> pathlib.Path:
    """Write windows, picking the format from the extension.

    ``.csv`` selects CSV, ``.jsonl`` the per-window JSON-lines dump;
    anything else (``.prom``, ``.txt``, …) the Prometheus text format.
    """
    path = pathlib.Path(path)
    suffix = path.suffix.lower()
    if suffix == ".csv":
        return write_windows_csv(summary, path=path, append=append)
    if suffix == ".jsonl":
        return write_windows_jsonl(summary, path=path, append=append)
    return write_windows_prometheus(summary, path=path, append=append)
