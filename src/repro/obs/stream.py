"""Lazy trace streaming: iterate, replay and fold without buffering.

The counterpart to :mod:`repro.obs.windows` for traces that already
live on disk: JSONL trace files written by
:class:`~repro.obs.export.JsonlTraceWriter` can be re-read one event at
a time (:func:`iter_trace`), pushed through any set of tracers
(:func:`replay`) or folded straight into a bounded
:class:`~repro.obs.windows.WindowSummary` (:func:`fold_trace`) — none of
which ever holds more than one event in memory at once.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Iterable, Iterator, Optional, Union

from repro.errors import MeasurementError
from repro.obs.events import TraceEvent, Tracer, event_from_dict
from repro.obs.windows import WindowConfig, WindowedTracer, WindowSummary

#: Anything :func:`iter_trace` accepts: a path or an event iterable.
TraceSource = Union[str, Path, Iterable[TraceEvent]]


def iter_trace(path: Union[str, Path]) -> Iterator[TraceEvent]:
    """Yield events from a JSONL trace file one at a time.

    Unlike :func:`repro.obs.export.read_trace`, which materialises the
    whole trace as a list, this generator keeps a single event in memory
    — suitable for the million-event traces windows are built for.
    """
    trace_path = Path(path)
    try:
        handle = trace_path.open("r", encoding="utf-8")
    except OSError as exc:
        raise MeasurementError(
            f"{trace_path}: cannot read trace: {exc.strerror}"
        ) from exc
    with handle:
        for line_number, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                payload = json.loads(line)
            except json.JSONDecodeError as exc:
                raise MeasurementError(
                    f"{trace_path}:{line_number}: invalid trace JSON: {exc}"
                ) from exc
            yield event_from_dict(payload)


def events_of(source: TraceSource) -> Iterable[TraceEvent]:
    """Normalise a path or event iterable into an event iterable."""
    if isinstance(source, (str, Path)):
        return iter_trace(source)
    return source


def replay(source: TraceSource, *tracers: Tracer) -> int:
    """Push every event from ``source`` through ``tracers``, in order.

    Returns the number of events replayed. Events stream one at a time,
    so replaying a multi-gigabyte trace through a
    :class:`~repro.obs.windows.WindowedTracer` or a
    :class:`~repro.check.invariants.CheckingTracer` stays at O(1)
    event memory.
    """
    count = 0
    for event in events_of(source):
        for tracer in tracers:
            tracer.emit(event)
        count += 1
    return count


def fold_trace(
    source: TraceSource,
    config: Optional[WindowConfig] = None,
) -> WindowSummary:
    """Fold a trace (file or iterable) into a bounded window summary.

    The one-call path from a recorded trace to ``why_slow``-ready
    windows: ``why_slow(fold_trace("run.jsonl", cfg), t0, t1)``.
    """
    tracer = WindowedTracer(config=config)
    replay(source, tracer)
    return tracer.summary()
