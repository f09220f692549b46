"""Per-layer instrumentation: where to wrap the program, and what to report.

:func:`install` wraps the public calls at each layer boundary (see
``DESIGN.md`` for the table of layers and the end-to-end metric each
should move). :func:`node_metrics`, :func:`coordinator_metrics` and the
small helpers below turn the recorded spans and counters of a traced
pass into ``name → (value, unit, samples)`` entries.
"""

from __future__ import annotations

import math
import pickle
import time
from typing import Any, Dict, List, Optional, Tuple

from spans import Patcher, SpanRecorder, Tracing
from timing import percentile

#: Strategy names, in the paper's presentation order.
STRATEGIES = ("unmanaged", "lc-first", "parties", "clite", "arq")

#: A reported metric: value, unit and the number of samples behind it.
Metric = Tuple[float, str, int]

#: The per-layer metrics the traced run puts in its JSON result: the times
#: every workload measures, and the counts and ratios, which may truly read
#: 0. A time spent in a layer the workload bypasses would read a constant
#: 0, so those (decide() for strategies a workload never runs, the record
#: wire, windows, the pool, the A/B layers and the datacenter timings) are
#: printed with their sample counts but left out of the JSON.
REPORTED = (
    "import.repro_s",
    "import.scipy_stats_loaded",
    "cluster.run.us_per_epoch",
    "cluster.run.self_us_per_epoch",
    "cluster.contention.calls",
    "cluster.contention.us_p50",
    "cluster.contention.share",
    "cluster.monitor.us_per_epoch",
    "perfmodel.backlog_step_us_p50",
    "perfmodel.sojourn_cache_hit_ratio",
    "perfmodel.quantile_cache_hit_ratio",
    "entropy.breakdown_us_p50",
    "entropy.share",
    "schedulers.decide_us_p50.arq",
    "schedulers.decide_us_p99.arq",
    "bayesopt.gp_calls",
    "cluster.epoch.wire_bytes_per_epoch",
    "obs.events_per_epoch",
    "parallel.efficiency",
    "parallel.result_kb_per_run",
    "datacenter.placement.peak_load_calls",
    "datacenter.placement.scaling_exp",
    "datacenter.migration.moves",
    "datacenter.shard.failed_nodes",
    "datacenter.recovery.failover_moves",
    "datacenter.recovery.parked_tenant_epochs",
    "datacenter.recovery.checkpoint_kb",
)


class Capture:
    """Batches that went through the parallel runner during a pass."""

    def __init__(self) -> None:
        self.items: List[Any] = []
        self.outcomes: List[Any] = []
        self.enabled = False

    def on_batch(self, args: tuple, kwargs: dict, result: Any) -> None:
        if self.enabled:
            self.items.extend(args[1] if len(args) > 1 else kwargs["items"])
            self.outcomes.extend(o for o in result[0] if o is not None)


def install(tracing: Tracing, patcher: Patcher, capture: Capture) -> None:
    """Wrap every layer boundary the per-layer metrics are taken at."""
    from repro.bayesopt.gp import GaussianProcess
    from repro.check import invariants
    from repro.cluster import contention, epoch, run
    from repro.cluster.monitor import NoisyMonitor
    from repro.datacenter import cluster, migration, placement, recovery, shard
    from repro.entropy.records import SystemObservation
    from repro.experiment import estimators, metrics
    from repro.obs.windows import WindowedTracer
    from repro.parallel import runner
    from repro.perfmodel.queueing import OverloadState
    from repro.schedulers.base import Scheduler

    def counter(name: str, amount):
        def hook(args, kwargs, result):
            tracing.recorder.counters[name] += amount(result)

        return hook

    def span(name: str, **options):
        return lambda fn: tracing.span(fn, name, **options)

    patcher.function(
        run.__name__,
        "run_collocation",
        span("cluster.run", on_result=counter("node_epochs", lambda r: len(r.records))),
    )
    patcher.function(contention.__name__, "resolve_contention", span("cluster.contention"))
    patcher.method(NoisyMonitor, "latency_batch", span("cluster.monitor"))
    patcher.method(NoisyMonitor, "ipc_batch", span("cluster.monitor"))
    patcher.method(OverloadState, "step", span("perfmodel.backlog_step"))
    patcher.method(SystemObservation, "breakdown", span("entropy.breakdown"))
    patcher.method(
        Scheduler,
        "robust_decide",
        span("schedulers.decide", label=lambda a, k: "schedulers.decide." + a[0].name),
    )
    patcher.method(GaussianProcess, "update", span("bayesopt.gp_update"))
    patcher.method(GaussianProcess, "fit", span("bayesopt.gp_fit"))
    patcher.function(
        epoch.__name__,
        "pack_records",
        span(
            "cluster.epoch.pack",
            on_result=counter("wire_bytes", lambda r: len(pickle.dumps(r))),
        ),
    )
    patcher.function(epoch.__name__, "unpack_records", span("cluster.epoch.unpack"))
    patcher.method(
        WindowedTracer, "emit", lambda fn: tracing.count(fn, "obs.events")
    )
    patcher.function(
        runner.__name__,
        "run_with_recovery",
        span("parallel.batch", on_result=capture.on_batch),
    )
    patcher.function(metrics.__name__, "fold_trial_metrics", span("experiment.fold"))
    for name in ("difference_in_means", "paired_difference", "dq_difference"):
        patcher.function(estimators.__name__, name, span("experiment.estimators"))
    patcher.function(invariants.__name__, "littles_law_report", span("sim.littles_law"))
    patcher.method(
        placement.BinPackingPlacement, "assign", span("datacenter.placement.assign")
    )
    patcher.function(
        placement.__name__,
        "peak_load",
        lambda fn: tracing.count(fn, "datacenter.placement.peak_load"),
    )
    patcher.method(
        migration.EntropyGuidedMigration,
        "propose",
        span(
            "datacenter.migration.propose",
            on_result=counter("migration_moves", len),
        ),
    )
    patcher.function(
        shard.__name__,
        "run_shards",
        span(
            "datacenter.shard.run_shards",
            on_result=counter(
                "failed_nodes",
                lambda r: len(r.failed_nodes()) if hasattr(r, "failed_nodes") else 0,
            ),
        ),
    )
    patcher.function(
        recovery.__name__,
        "failover_moves",
        span("datacenter.recovery.failover", on_result=counter("failover_moves", len)),
    )
    patcher.method(
        recovery.DatacenterCheckpoint, "save", span("datacenter.recovery.checkpoint_save")
    )
    patcher.method(
        cluster.Datacenter, "run_epochs", span("datacenter.cluster.run_epochs")
    )


def cache_counts() -> Dict[str, Tuple[int, int]]:
    """(hits, misses) of the queueing model's memo caches, by name."""
    from repro.perfmodel import queueing

    out = {}
    for name, attr in (("sojourn", "_cached_sojourn_ms"), ("quantile", "_unit_gamma_quantile")):
        cached = getattr(queueing, attr, None)
        info = cached.cache_info() if hasattr(cached, "cache_info") else None
        out[name] = (info.hits, info.misses) if info else (0, 0)
    return out


def _us(seconds: float) -> float:
    return seconds * 1e6


def _p(values: List[float], p: float) -> float:
    return percentile(values, p) if values else 0.0


def node_metrics(
    rec: SpanRecorder,
    caches_before: Dict[str, Tuple[int, int]],
    caches_after: Dict[str, Tuple[int, int]],
) -> Dict[str, Metric]:
    """Node-side layers, from a pass that ran every node in-process."""
    epochs = rec.counters["node_epochs"]
    per_epoch = (lambda s: _us(s) / epochs) if epochs else (lambda s: 0.0)
    run_total = rec.total("cluster.run")
    runs = len(rec.durations("cluster.run"))
    out: Dict[str, Metric] = {
        "cluster.run.us_per_epoch": (per_epoch(run_total), "us", epochs),
        "cluster.run.self_us_per_epoch": (
            per_epoch(rec.self_total("cluster.run")), "us", epochs
        ),
    }
    contention = rec.durations("cluster.contention")
    out["cluster.contention.calls"] = (float(len(contention)), "count", len(contention))
    out["cluster.contention.us_p50"] = (_us(_p(contention, 50)), "us", len(contention))
    out["cluster.contention.share"] = (
        rec.total_within("cluster.contention", "cluster.run") / run_total
        if run_total else 0.0,
        "ratio",
        runs,
    )
    out["cluster.monitor.us_per_epoch"] = (
        per_epoch(rec.total("cluster.monitor")), "us", len(rec.durations("cluster.monitor"))
    )
    steps = rec.durations("perfmodel.backlog_step")
    out["perfmodel.backlog_step_us_p50"] = (_us(_p(steps, 50)), "us", len(steps))
    for name in ("sojourn", "quantile"):
        hits = caches_after[name][0] - caches_before[name][0]
        misses = caches_after[name][1] - caches_before[name][1]
        lookups = hits + misses
        out[f"perfmodel.{name}_cache_hit_ratio"] = (
            hits / lookups if lookups else 0.0, "ratio", lookups
        )
    breakdowns = rec.durations("entropy.breakdown")
    out["entropy.breakdown_us_p50"] = (_us(_p(breakdowns, 50)), "us", len(breakdowns))
    out["entropy.share"] = (
        rec.total_within("entropy.breakdown", "cluster.run") / run_total
        if run_total else 0.0,
        "ratio",
        runs,
    )
    for strategy in STRATEGIES:
        decides = rec.durations("schedulers.decide." + strategy)
        for p in (50, 99):
            out[f"schedulers.decide_us_p{p}.{strategy}"] = (
                _us(_p(decides, p)), "us", len(decides)
            )
    updates = rec.durations("bayesopt.gp_update")
    fits = rec.durations("bayesopt.gp_fit")
    out["bayesopt.gp_update_us_p50"] = (_us(_p(updates, 50)), "us", len(updates))
    out["bayesopt.gp_calls"] = (float(len(updates) + len(fits)), "count", len(updates) + len(fits))
    out["obs.events_per_epoch"] = (
        rec.counters["obs.events"] / epochs if epochs else 0.0, "count", epochs
    )
    return out


def wire_metrics(capture: Capture, tracing: Tracing, node_epochs: int) -> Dict[str, Metric]:
    """Cost of sending a pass's batch results across the process boundary.

    Pickles every outcome the parallel runner produced, as a pool worker
    does, and unpickles it, reading ``records`` as a consumer would.
    Workloads that never pool report zeros.
    """
    rec = SpanRecorder()
    tracing.recorder = rec
    total_bytes = 0
    for outcome in capture.outcomes:
        blob = pickle.dumps(outcome)
        total_bytes += len(blob)
        restored = pickle.loads(blob)
        if hasattr(type(restored), "measured_records"):
            restored.records  # noqa: B018  (decodes the columnar wire)
    tracing.recorder = None
    per_epoch = (lambda x: x / node_epochs) if node_epochs else (lambda x: 0.0)
    runs = len(capture.outcomes)
    packs = rec.durations("cluster.epoch.pack")
    unpacks = rec.durations("cluster.epoch.unpack")
    return {
        "cluster.epoch.pack_us_per_epoch": (per_epoch(_us(sum(packs))), "us", len(packs)),
        "cluster.epoch.unpack_us_per_epoch": (
            per_epoch(_us(sum(unpacks))), "us", len(unpacks)
        ),
        "cluster.epoch.wire_bytes_per_epoch": (
            per_epoch(float(rec.counters["wire_bytes"])), "B", len(packs)
        ),
        "parallel.result_kb_per_run": (
            total_bytes / runs / 1024 if runs else 0.0, "KB", runs
        ),
    }


def windows_cost(capture: Capture, points: int = 8) -> Metric:
    """Host µs per epoch that window folding adds, windowed minus plain.

    Re-runs the first ``points`` window-armed batch points both ways, in
    alternating order; workloads that arm no windows report zero.
    """
    from repro.cluster.run import run_collocation
    from repro.experiments.common import strategy_factory

    armed = [
        item for item in capture.items if getattr(item, "windows", None) is not None
    ][:points]
    windowed = plain = 0.0
    epochs = 0
    for i, point in enumerate(armed):
        timings = {}
        for windows in ((point.windows, None) if i % 2 == 0 else (None, point.windows)):
            started = time.perf_counter()
            result = run_collocation(
                point.collocation,
                strategy_factory(point.strategy)(),
                point.duration_s,
                point.warmup_s,
                faults=point.faults,
                checks=point.checks,
                windows=windows,
            )
            timings[windows is None] = time.perf_counter() - started
        windowed += timings[False]
        plain += timings[True]
        epochs += len(result.records)
    value = _us(windowed - plain) / epochs if epochs else 0.0
    return (value, "us", len(armed))


def coordinator_metrics(
    pooled: SpanRecorder,
    in_process: Optional[SpanRecorder],
    jobs: int,
) -> Dict[str, Metric]:
    """Parent-side layers, from the pass at the workload's own settings.

    ``in_process`` is the same batch run at one job, for the parallel
    runner's efficiency; ``None`` when the workload never pools.
    """
    batch = pooled.outermost_total("parallel.batch")
    batches = len(pooled.durations("parallel.batch"))
    serial = in_process.outermost_total("parallel.batch") if in_process else 0.0
    out: Dict[str, Metric] = {
        "parallel.run_many_s": (batch, "s", batches),
        "parallel.efficiency": (
            serial / (jobs * batch) if batch and in_process else 0.0, "ratio", batches
        ),
    }
    folds = pooled.durations("experiment.fold")
    out["experiment.fold_ms_per_trial"] = (
        sum(folds) * 1e3 / len(folds) if folds else 0.0, "ms", len(folds)
    )
    estimators = pooled.durations("experiment.estimators")
    out["experiment.estimators_ms"] = (sum(estimators) * 1e3, "ms", len(estimators))
    law = pooled.durations("sim.littles_law")
    out["sim.littles_law_s"] = (sum(law), "s", len(law))
    assign = pooled.durations("datacenter.placement.assign")
    out["datacenter.placement.assign_s"] = (sum(assign), "s", len(assign))
    out["datacenter.placement.peak_load_calls"] = (
        float(pooled.counters["datacenter.placement.peak_load"]),
        "count",
        len(assign),
    )
    propose = pooled.durations("datacenter.migration.propose")
    out["datacenter.migration.propose_s"] = (sum(propose), "s", len(propose))
    out["datacenter.migration.moves"] = (
        float(pooled.counters["migration_moves"]), "count", len(propose)
    )
    shards = pooled.durations("datacenter.shard.run_shards")
    out["datacenter.shard.run_shards_s"] = (sum(shards), "s", len(shards))
    out["datacenter.shard.failed_nodes"] = (
        float(pooled.counters["failed_nodes"]), "count", len(shards)
    )
    failover = pooled.durations("datacenter.recovery.failover")
    out["datacenter.recovery.failover_s"] = (sum(failover), "s", len(failover))
    out["datacenter.recovery.failover_moves"] = (
        float(pooled.counters["failover_moves"]), "count", len(failover)
    )
    saves = pooled.durations("datacenter.recovery.checkpoint_save")
    out["datacenter.recovery.checkpoint_save_ms"] = (
        sum(saves) * 1e3 / len(saves) if saves else 0.0, "ms", len(saves)
    )
    loops = pooled.durations("datacenter.cluster.run_epochs")
    out["datacenter.cluster.coordinator_self_s"] = (
        pooled.self_total("datacenter.cluster.run_epochs"), "s", len(loops)
    )
    return out


def placement_scaling(small: int = 100, large: int = 200) -> Metric:
    """log2 of bin-packing ``assign`` time at ``large`` over ``small`` nodes."""
    from repro.datacenter.placement import BinPackingPlacement
    from repro.experiments.fig15_datacenter import build_population
    from repro.server.spec import NodeSpec

    seconds = []
    for nodes in (small, large):
        members = build_population(nodes)
        specs = (NodeSpec(),) * nodes
        started = time.perf_counter()
        BinPackingPlacement().assign(members, specs)
        seconds.append(time.perf_counter() - started)
    return (math.log2(seconds[1] / seconds[0]) / math.log2(large / small), "1", 2)
