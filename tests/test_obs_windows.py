"""Streaming windows: merge laws, provenance, and bounded memory.

The windowed tracer's contract is threefold and each leg gets tested
here:

* **Exact merge** — folding a stream serially, folding split sub-streams
  and merging in any grouping, and folding across ``--jobs`` workers all
  produce byte-identical :meth:`WindowSummary.to_json` output (property
  tested with hypothesis when available);
* **Provenance** — :func:`why_slow` on a fault-injection run names the
  injected ground-truth fault as the top cause of the spike window;
* **Bounded memory** — tracer peak memory is O(``keep`` windows),
  independent of how many events flow through it (``tracemalloc``).

The deprecation shims that ride along in this PR (positional exporter
constructors, the :class:`CollectingTracer` growth warning) are pinned
at the end.
"""

from __future__ import annotations

import io
import json
import tracemalloc

import pytest

from repro.errors import ConfigurationError, MeasurementError
from repro.obs.events import (
    CollectingTracer,
    EpochMeasured,
    FaultInjected,
    QoSViolation,
    SchedulerDecision,
)
from repro.obs.export import (
    Console,
    JsonlTraceWriter,
    NarratorTracer,
    window_rows,
    windows_to_prometheus,
    write_windows,
    write_windows_csv,
    write_windows_jsonl,
)
from repro.obs.stream import fold_trace, iter_trace, replay
from repro.obs.windows import (
    BinStats,
    LATENCY_EDGES_MS,
    Window,
    WindowConfig,
    WindowSummary,
    WindowedTracer,
    merge_window_summaries,
    why_slow,
)


# -- synthetic event streams -------------------------------------------------


def epoch_event(
    time_s: float,
    tail_ms: float = 5.0,
    load: float = 0.5,
    ipc: float = 1.2,
    e_s: float = 0.3,
) -> EpochMeasured:
    """One synthetic measurement epoch for a two-app collocation."""
    return EpochMeasured(
        time_s=time_s,
        epoch=int(time_s),
        e_s=e_s,
        e_lc=e_s / 2,
        e_be=e_s / 2,
        loads={"xapian": load, "masstree": load / 2},
        tails_ms={"xapian": tail_ms, "masstree": tail_ms * 2},
        ipcs={"xapian": ipc, "masstree": ipc * 0.8},
        violations=0,
    )


def clean_stream(duration_s: float = 30.0, dt: float = 0.25):
    """A steady, fault-free stream of epochs with occasional decisions."""
    events = []
    steps = int(duration_s / dt)
    for i in range(steps):
        t = i * dt
        events.append(epoch_event(t, tail_ms=5.0 + (i % 7) * 0.3))
        if i % 10 == 0:
            events.append(
                SchedulerDecision(
                    time_s=t, epoch=i, scheduler="arq", plan_changed=(i % 20 == 0)
                )
            )
    return events


def spiky_stream(duration_s: float = 40.0):
    """A stream with an injected load spike and matching tail blow-up.

    The fault is declared active over [10, 18); inside it xapian's tail
    jumps 10x and a violation fires each epoch — the shape
    :func:`why_slow` must recover.
    """
    events = []
    dt = 0.25
    for i in range(int(duration_s / dt)):
        t = i * dt
        in_spike = 10.0 <= t < 18.0
        tail = 60.0 if in_spike else 5.0
        load = 0.95 if in_spike else 0.4
        events.append(epoch_event(t, tail_ms=tail, load=load))
        if in_spike:
            events.append(
                QoSViolation(
                    time_s=t,
                    epoch=i,
                    application="xapian",
                    tail_ms=tail,
                    threshold_ms=8.0,
                )
            )
    events.insert(
        0,
        FaultInjected(
            time_s=10.0,
            fault="load_spike",
            targets=("xapian",),
            until_s=18.0,
            detail="level=0.95",
        ),
    )
    events.sort(key=lambda e: e.time_s)
    return events


def fold(events, config) -> WindowSummary:
    """Fold an event list through a fresh tracer."""
    tracer = WindowedTracer(config=config)
    for event in events:
        tracer.emit(event)
    return tracer.summary()


# -- window geometry ---------------------------------------------------------


def test_window_config_is_keyword_only():
    with pytest.raises(TypeError, match="keyword"):
        WindowConfig(2.0)  # noqa — the point under test
    config = WindowConfig(dt_s=2.0, keep=8)
    assert config.index_of(3.9) == 1
    assert config.bounds(1) == (2.0, 4.0)


def test_window_config_of_normalises_scalars_and_mappings():
    assert WindowConfig.of(2.5).dt_s == 2.5
    assert WindowConfig.of({"dt_s": 0.5, "keep": 16}).keep == 16
    config = WindowConfig(dt_s=3.0)
    assert WindowConfig.of(config) is config
    with pytest.raises(ConfigurationError):
        WindowConfig.of(True)
    with pytest.raises(ConfigurationError):
        WindowConfig.of(None)
    with pytest.raises(ConfigurationError):
        WindowConfig(dt_s=0.0)
    with pytest.raises(ConfigurationError):
        WindowConfig(dt_s=1.0, keep=0)


def test_bin_stats_percentiles_and_merge():
    stats = BinStats(edges=LATENCY_EDGES_MS)
    for value in (1.0, 2.0, 3.0, 4.0, 100.0):
        stats.observe(value)
    summary = stats.summary()
    assert summary["count"] == 5
    assert summary["min"] == 1.0
    assert summary["max"] == 100.0
    assert 1.0 <= summary["p50"] <= 4.0
    assert summary["p99"] <= 100.0

    other = BinStats(edges=LATENCY_EDGES_MS)
    other.observe(0.5)
    stats.merge(other)
    assert stats.n == 6
    assert stats.lo == 0.5

    mismatched = BinStats(edges=(0.0, 1.0, 2.0))
    with pytest.raises(MeasurementError, match="different bins"):
        stats.merge(mismatched)


def test_ring_evicts_oldest_windows_and_counts_late_events():
    config = WindowConfig(dt_s=1.0, keep=4)
    tracer = WindowedTracer(config=config)
    for i in range(20):
        tracer.emit(epoch_event(float(i)))
    summary = tracer.summary()
    assert [w.index for w in summary.ordered()] == [16, 17, 18, 19]
    assert summary.evicted_through == 15
    assert len(tracer) == 4
    # The events of the 16 evicted windows count as late.
    assert summary.late_events == 16
    # An event for an already-evicted window is dropped, not resurrected.
    tracer.emit(epoch_event(2.0))
    summary = tracer.summary()
    assert summary.late_events == 17
    assert [w.index for w in summary.ordered()] == [16, 17, 18, 19]


def test_annotation_cap_keeps_earliest_and_counts_overflow():
    config = WindowConfig(dt_s=10.0, keep=4, annotation_cap=3)
    tracer = WindowedTracer(config=config)
    for i in range(8):
        tracer.emit(
            FaultInjected(
                time_s=float(i), fault=f"f{i}", targets=("x",), until_s=9.0
            )
        )
    (window,) = tracer.summary().ordered()
    assert len(window.annotations) == 3
    assert window.annotations_dropped == 5
    assert [a.time_s for a in window.annotations] == [0.0, 1.0, 2.0]


# -- exact merge laws --------------------------------------------------------


def test_split_fold_matches_serial_fold_bytewise():
    events = spiky_stream()
    config = WindowConfig(dt_s=1.0, keep=64)
    serial = fold(events, config).to_json()
    for cut in (1, 7, len(events) // 2, len(events) - 3):
        left = fold(events[:cut], config)
        right = fold(events[cut:], config)
        assert left.merge(right).to_json() == serial


def test_merge_handles_eviction_disagreement():
    """Merging a piece the other side has already evicted past is exact."""
    config = WindowConfig(dt_s=1.0, keep=4)
    events = [epoch_event(float(i)) for i in range(20)]
    serial = fold(events, config).to_json()
    early = fold(events[:8], config)  # windows 0..7 -> keeps 4..7
    late = fold(events[8:], config)  # windows 8..19 -> keeps 16..19
    assert early.merge(late).to_json() == serial


def test_merge_rejects_mismatched_geometry():
    a = fold(clean_stream(5.0), WindowConfig(dt_s=1.0))
    b = fold(clean_stream(5.0), WindowConfig(dt_s=2.0))
    with pytest.raises(MeasurementError, match="different configs"):
        a.merge(b)


def test_merge_window_summaries_empty_and_many():
    config = WindowConfig(dt_s=1.0, keep=64)
    empty = merge_window_summaries([], config=config)
    assert empty.ordered() == []
    events = clean_stream(12.0)
    thirds = [
        fold(events[i::3], config) for i in range(3)
    ]  # interleaved, not contiguous: order must not matter
    merged = merge_window_summaries(thirds)
    assert merged.to_json() == fold(events, config).to_json()


def test_hypothesis_merge_is_associative_and_split_invariant():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    times = st.floats(min_value=0.0, max_value=50.0, allow_nan=False)
    tails = st.floats(min_value=0.01, max_value=1e4, allow_nan=False)

    @st.composite
    def event(draw):
        t = draw(times)
        which = draw(st.integers(min_value=0, max_value=3))
        if which == 0:
            return epoch_event(t, tail_ms=draw(tails))
        if which == 1:
            return QoSViolation(
                time_s=t, application="xapian", tail_ms=draw(tails), threshold_ms=8.0
            )
        if which == 2:
            return SchedulerDecision(time_s=t, scheduler="arq", plan_changed=True)
        return FaultInjected(
            time_s=t, fault="be_burst", targets=("masstree",), until_s=t + 5.0
        )

    @hypothesis.settings(max_examples=50, deadline=None)
    @hypothesis.given(
        events=st.lists(event(), min_size=0, max_size=60),
        cuts=st.tuples(
            st.integers(min_value=0, max_value=60),
            st.integers(min_value=0, max_value=60),
        ),
    )
    def check(events, cuts):
        config = WindowConfig(dt_s=1.0, keep=16)
        serial = fold(events, config).to_json()
        i, j = sorted(min(c, len(events)) for c in cuts)
        a = fold(events[:i], config)
        b = fold(events[i:j], config)
        c = fold(events[j:], config)
        # Associativity: (a+b)+c == a+(b+c) == serial, bytewise.
        left = fold(events[:i], config).merge(b).merge(c).to_json()
        bc = fold(events[i:j], config).merge(c)
        right = a.merge(bc).to_json()
        assert left == serial
        assert right == serial

    check()


def test_parallel_jobs_window_reports_are_byte_identical():
    """Worker-folded window reports match the serial path exactly."""
    from repro.experiments.common import canonical_mix
    from repro.parallel import RunPoint, run_many

    collocation = canonical_mix(0.5, seed=7)
    config = WindowConfig(dt_s=1.0, keep=64)
    points = [
        RunPoint(
            collocation=collocation,
            strategy=strategy,
            duration_s=8.0,
            warmup_s=0.0,
        )
        for strategy in ("unmanaged", "arq", "lc-first", "parties")
    ]
    serial = run_many(points, jobs=1, windows=config)
    pooled = run_many(points, jobs=4, force_pool=True, windows=config)
    for s, p in zip(serial, pooled):
        assert s.window_report is not None and p.window_report is not None
        assert s.window_report.to_json() == p.window_report.to_json()


# -- provenance --------------------------------------------------------------


def test_why_slow_names_the_injected_fault():
    summary = fold(spiky_stream(), WindowConfig(dt_s=1.0, keep=64))
    report = why_slow(summary, 10.0, 18.0)
    assert report.causes, "expected at least one ranked cause"
    top = report.top()
    assert top.kind == "fault"
    assert top.label == "load_spike"
    assert top.score == pytest.approx(1.0)
    assert report.spike_p99_ms["xapian"] > report.baseline_p99_ms["xapian"]
    assert report.violations.get("xapian", 0) > 0
    assert "load_spike" in report.describe()


def test_why_slow_ranks_ground_truth_above_telemetry_faults():
    events = spiky_stream()
    events.append(
        FaultInjected(
            time_s=11.0, fault="telemetry_dropout", targets=("arq",), until_s=14.0
        )
    )
    events.sort(key=lambda e: e.time_s)
    summary = fold(events, WindowConfig(dt_s=1.0, keep=64))
    report = why_slow(summary, 10.0, 18.0)
    labels = [c.label for c in report.causes if c.kind == "fault"]
    assert labels.index("load_spike") < labels.index("telemetry_dropout")


def test_why_slow_spike_detection_on_real_fault_run():
    """End to end: a faulted fig14-style run attributes its own spike."""
    from repro.experiments.fig14_resilience import spike_attribution

    summary, report = spike_attribution(duration_s=30.0)
    assert summary.ordered(), "windowed run produced no windows"
    top = report.top()
    assert top.kind == "fault"
    assert top.label in ("load_spike", "capacity_degradation", "be_burst")


def test_spike_windows_flags_the_blowup():
    summary = fold(spiky_stream(), WindowConfig(dt_s=1.0, keep=64))
    spikes = summary.spike_windows()
    assert spikes, "expected the 10x tail blow-up to be flagged"
    assert all(10.0 <= w.start_s < 18.0 for w in spikes)


def test_window_summary_queries():
    summary = fold(spiky_stream(), WindowConfig(dt_s=1.0, keep=64))
    assert summary.apps() == ["masstree", "xapian"]
    inside = summary.between(10.0, 18.0)
    assert [w.index for w in inside] == list(range(10, 18))
    assert summary.span()[0] == 0.0
    payload = json.loads(summary.to_json())
    assert payload["config"]["dt_s"] == 1.0
    assert "windows" in payload
    assert summary.describe()  # human rendering is non-empty


# -- bounded memory ----------------------------------------------------------


def _peak_tracer_bytes(event_count: int, keep: int) -> int:
    """Peak allocation attributable to folding ``event_count`` events."""
    config = WindowConfig(dt_s=0.5, keep=keep)
    tracer = WindowedTracer(config=config)
    template = [
        epoch_event(0.0),
        QoSViolation(time_s=0.0, application="xapian", tail_ms=9.0),
    ]
    tracemalloc.start()
    try:
        for i in range(event_count):
            base = template[i % 2]
            tracer.emit(
                base.__class__(**{**base.__dict__, "time_s": i * 0.05})
            )
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


def test_tracer_memory_is_bounded_by_keep_not_event_count():
    small = _peak_tracer_bytes(20_000, keep=64)
    large = _peak_tracer_bytes(200_000, keep=64)
    # 10x the events must not approach 10x the memory: the ring keeps
    # peak allocation flat (generous 2x slack for allocator noise).
    assert large < small * 2 + 1_000_000, (
        f"peak grew with event count: {small} -> {large} bytes"
    )


# -- streaming helpers -------------------------------------------------------


def test_fold_trace_round_trips_through_jsonl(tmp_path):
    events = spiky_stream(20.0)
    path = tmp_path / "trace.jsonl"
    with JsonlTraceWriter(path=path) as writer:
        for event in events:
            writer.emit(event)
    config = WindowConfig(dt_s=1.0, keep=64)
    from_disk = fold_trace(path, config=config)
    direct = fold(events, config)
    assert from_disk.to_json() == direct.to_json()


def test_iter_trace_is_lazy_and_reports_bad_lines(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"kind": "qos_violation", "time_s": 1.0}\nnot json\n')
    stream = iter_trace(path)
    first = next(stream)
    assert first.kind == "qos_violation"
    with pytest.raises(MeasurementError, match="invalid trace JSON"):
        next(stream)


def test_iter_trace_names_a_missing_file(tmp_path):
    path = tmp_path / "absent.jsonl"
    with pytest.raises(MeasurementError, match="absent.jsonl: cannot read trace"):
        next(iter_trace(path))


def test_replay_fans_out_to_multiple_tracers(tmp_path):
    events = clean_stream(6.0)
    path = tmp_path / "trace.jsonl"
    with JsonlTraceWriter(path=path) as writer:
        for event in events:
            writer.emit(event)
    collector = CollectingTracer()
    windower = WindowedTracer(config=WindowConfig(dt_s=1.0))
    count = replay(path, collector, windower)
    assert count == len(events) == len(collector)
    assert windower.summary().ordered()


# -- window exporters --------------------------------------------------------


def test_window_csv_and_jsonl_exports(tmp_path):
    summary = fold(spiky_stream(20.0), WindowConfig(dt_s=1.0, keep=64))
    csv_path = tmp_path / "windows.csv"
    write_windows_csv(summary, path=csv_path)
    lines = csv_path.read_text().splitlines()
    assert lines[0].startswith("window,start_s,end_s,signal")
    assert len(lines) > len(summary.ordered())  # several signals per window

    jsonl_path = tmp_path / "windows.jsonl"
    write_windows_jsonl(summary, path=jsonl_path)
    rows = [json.loads(line) for line in jsonl_path.read_text().splitlines()]
    assert len(rows) == len(summary.ordered())
    assert rows[0]["index"] == summary.ordered()[0].index


def test_window_prometheus_export():
    summary = fold(spiky_stream(20.0), WindowConfig(dt_s=1.0, keep=64))
    text = windows_to_prometheus(summary)
    assert "# TYPE repro_window_events gauge" in text
    assert "repro_window_tail_ms" in text
    assert 'quantile="0.99"' in text


def test_write_windows_dispatches_on_extension(tmp_path):
    summary = fold(clean_stream(6.0), WindowConfig(dt_s=1.0))
    for name in ("w.csv", "w.jsonl", "w.prom"):
        write_windows(summary, path=tmp_path / name)
        assert (tmp_path / name).read_text()


def test_window_rows_cover_every_signal():
    summary = fold(spiky_stream(20.0), WindowConfig(dt_s=1.0, keep=64))
    rows = window_rows(summary)
    signals = {row["signal"] for row in rows}
    assert {"events", "violations", "e_s", "tail_ms", "load", "ipc"} <= signals
    tail_apps = {row["application"] for row in rows if row["signal"] == "tail_ms"}
    assert {"xapian", "masstree"} <= tail_apps


# -- exporter constructors and the collecting tracer --------------------------


def test_keyword_exporter_constructors_are_silent(tmp_path, recwarn):
    with JsonlTraceWriter(path=tmp_path / "t.jsonl") as writer:
        writer.emit(QoSViolation(time_s=1.0, application="xapian"))
    Console(stream=io.StringIO(), quiet=True)
    NarratorTracer(sink=Console(stream=io.StringIO()), every_epoch=True)
    assert not [w for w in recwarn.list if w.category is DeprecationWarning]


def test_exporter_constructors_are_keyword_only(tmp_path):
    with pytest.raises(TypeError):
        JsonlTraceWriter(str(tmp_path / "t.jsonl"))
    with pytest.raises(TypeError):
        Console(io.StringIO())
    with pytest.raises(TypeError):
        NarratorTracer(Console(stream=io.StringIO()))


def test_collecting_tracer_hard_cap_raises():
    tracer = CollectingTracer(max_events=3)
    for i in range(3):
        tracer.emit(QoSViolation(time_s=float(i), application="xapian"))
    with pytest.raises(MeasurementError, match="max_events"):
        tracer.emit(QoSViolation(time_s=3.0, application="xapian"))
    with pytest.raises(ConfigurationError):
        CollectingTracer(max_events=0)


# -- facade ------------------------------------------------------------------


def test_run_facade_exposes_windows():
    import repro

    summary = repro.run(
        repro.RunConfig(
            lc_loads={"xapian": 0.4},
            strategy="unmanaged",
            duration_s=6.0,
            warmup_s=0.0,
            windows=1.0,
        )
    )
    windows = summary.windows()
    assert isinstance(windows, WindowSummary)
    assert windows.ordered()


def test_run_facade_windows_off_by_default_raises_with_guidance():
    import repro

    summary = repro.run(
        repro.RunConfig(
            lc_loads={"xapian": 0.4},
            strategy="unmanaged",
            duration_s=4.0,
            warmup_s=0.0,
        )
    )
    with pytest.raises(ConfigurationError, match="windows"):
        summary.windows()
