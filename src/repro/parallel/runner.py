"""Parallel experiment execution: fan independent runs across processes.

Every paper artefact reduces to a batch of independent
``run_strategy(collocation, strategy, duration, warmup)`` calls — a load
sweep is ``len(loads) × len(strategies)`` of them, the Fig. 10 heatmap is
``loads² × strategies``. This module turns such a batch into
:class:`RunPoint` values and executes them with :func:`run_many`:

* ``jobs > 1`` fans the points across a ``ProcessPoolExecutor``;
* ``jobs = 1`` runs them serially in-process (the deterministic
  fallback — no pool, no pickling);
* results always come back **in submission order**, so callers assemble
  figures exactly as the old nested loops did.

Determinism guarantee
---------------------
A point's outcome is a pure function of its parameters: every random
stream is derived from ``collocation.seed``, every fault effect from the
simulated clock, and the per-process memo caches (gamma quantiles,
sojourn times, reserve cores) only ever store pure-function results.
Worker processes therefore produce bit-identical
:class:`~repro.cluster.run.RunResult` summaries to the serial path, and
``--jobs 4`` output is byte-identical to ``--jobs 1``.

Failure handling
----------------
A point fails the same way on every attempt, so :func:`run_many` aborts
the batch on the first failing point with a :class:`ParallelRunError`
carrying the point's parameters and the results completed before it
(``error.completed``). The engine underneath, :func:`run_with_recovery`,
returns ``(results, failures)``; the datacenter layer builds its
per-node salvage report on it.

Dispatch architecture
---------------------
The pool path is built for sweeps of many small points:

* **Warm workers** — one ``ProcessPoolExecutor`` is created lazily and
  *reused* across every ``run_many``/``run_with_recovery`` call with the
  same worker count, with an initializer that pre-imports the strategy
  factories and workload calibration so the pool spin-up and module
  loading are paid once per process, not once per batch.
* **Chunked batches** — points are submitted as contiguous chunks (a few
  per worker) instead of one future each, so ``fn`` and the dispatch
  round-trip are pickled per *chunk*. Results are re-assembled by index,
  preserving submission-ordered, byte-identical trace replay.
* **Cheap-batch heuristic** — :func:`run_many` estimates a batch's
  simulation work from its points' epoch counts and stays on the serial
  in-process path when the whole batch is cheaper than the dispatch
  overhead; serial and pooled paths are bit-identical, so this is purely
  a scheduling decision.
"""

from __future__ import annotations

import atexit
import functools
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from typing import (
    Any,
    Callable,
    Dict,
    Hashable,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.check.invariants import CheckConfig
from repro.cluster.collocation import Collocation
from repro.cluster.run import RunResult, run_collocation
from repro.errors import ConfigurationError, ReproError
from repro.faults.plan import FaultPlan
from repro.obs.events import CollectingTracer, TraceEvent, Tracer
from repro.obs.metrics import MetricsRegistry
from repro.obs.windows import WindowConfig

#: Environment variable consulted when no explicit worker count is given.
JOBS_ENV_VAR = "REPRO_JOBS"

#: Process-wide default set by the CLI's ``--jobs`` flag (``None`` defers
#: to the environment variable, then to ``os.cpu_count()``).
_default_jobs: Optional[int] = None

#: Chunks submitted per worker: small enough to amortise dispatch, large
#: enough that a straggler chunk cannot idle the rest of the pool.
CHUNKS_PER_WORKER = 4

#: Rough wall-clock cost of one simulated epoch (seconds), the order of
#: perfbench's ``cluster.run.us_per_epoch`` layer metric (see
#: ``perfbench/DESIGN.md``). Only used to *rank* batches against the
#: dispatch overhead, so an order-of-magnitude estimate is plenty.
EPOCH_COST_ESTIMATE_S = 3e-4

#: Batches whose estimated total work falls below this stay serial: the
#: pool round-trip (pickling, queue hops, result marshalling) costs more
#: than it saves. Serial and pooled execution are bit-identical, so this
#: is purely a scheduling decision.
MIN_PARALLEL_WORK_S = 0.25


def _warm_worker() -> None:
    """Pool initializer: preload shared read-only state in each worker.

    Importing the strategy factories pulls in the workload catalog and
    calibration tables, so the first chunk a worker receives does not pay
    module-import latency, and none of that state rides along in every
    pickled point.
    """
    from repro.experiments import common  # noqa: F401


class _WarmPoolManager:
    """A process pool created once and reused across batches.

    ``acquire`` hands out the live pool (rebuilding it when the worker
    count changes or the pool broke); ``shutdown`` tears it down.
    """

    def __init__(self) -> None:
        self._pool: Optional[ProcessPoolExecutor] = None
        self._workers = 0

    def acquire(self, workers: int) -> ProcessPoolExecutor:
        pool = self._pool
        if (
            pool is not None
            and self._workers == workers
            and not getattr(pool, "_broken", False)
        ):
            return pool
        self.shutdown(wait=False)
        self._pool = ProcessPoolExecutor(
            max_workers=workers, initializer=_warm_worker
        )
        self._workers = workers
        return self._pool

    def shutdown(self, wait: bool = True, terminate: bool = False) -> None:
        pool = self._pool
        self._pool = None
        self._workers = 0
        if pool is None:
            return
        if terminate:
            # A busy worker never drains its queue, so it is terminated
            # rather than waited for — and then *joined* (with a SIGKILL
            # escalation for workers that catch SIGTERM): tearing the old
            # executor down concurrently with building its replacement is
            # racy, so the abandoned processes must be confirmed dead
            # before this returns. Once they are, waiting on the executor
            # itself is safe and settles its management thread too.
            processes = list(getattr(pool, "_processes", {}).values())
            for process in processes:
                try:
                    process.terminate()
                except Exception:
                    pass
            for process in processes:
                try:
                    process.join(timeout=5.0)
                    if process.is_alive():
                        process.kill()
                        process.join(timeout=5.0)
                except Exception:
                    pass
            wait = not any(process.is_alive() for process in processes)
        pool.shutdown(wait=wait, cancel_futures=True)


_pools = _WarmPoolManager()


def shutdown_pool() -> None:
    """Shut down the warm worker pool (it is rebuilt lazily on next use).

    Call after changing process-wide toggles that workers snapshot at
    creation time (cache switches, default jobs): warm workers inherit
    the parent state of the moment the pool was built.
    """
    _pools.shutdown(wait=False, terminate=True)


atexit.register(shutdown_pool)


def _validate_jobs(jobs: int, origin: str) -> int:
    if not isinstance(jobs, int) or isinstance(jobs, bool) or jobs < 1:
        raise ConfigurationError(
            f"worker count from {origin} must be a positive integer, got {jobs!r}"
        )
    return jobs


def set_default_jobs(jobs: Optional[int]) -> None:
    """Set the process-wide default worker count (``None`` clears it)."""
    global _default_jobs
    _default_jobs = None if jobs is None else _validate_jobs(jobs, "set_default_jobs")


def default_jobs() -> Optional[int]:
    """The process-wide default worker count, if one has been set."""
    return _default_jobs


def resolve_jobs(jobs: Optional[int] = None) -> int:
    """Resolve a worker count: explicit → default → $REPRO_JOBS → cpu_count."""
    if jobs is not None:
        return _validate_jobs(jobs, "argument")
    if _default_jobs is not None:
        return _default_jobs
    env = os.environ.get(JOBS_ENV_VAR)
    if env:
        try:
            parsed = int(env)
        except ValueError:
            raise ConfigurationError(
                f"{JOBS_ENV_VAR} must be a positive integer, got {env!r}"
            ) from None
        return _validate_jobs(parsed, JOBS_ENV_VAR)
    return max(1, os.cpu_count() or 1)


@dataclass(frozen=True)
class RunPoint:
    """One independent experiment point: a mix, a strategy, a duration.

    ``warmup_s=None`` defers to :func:`repro.cluster.run.run_collocation`'s
    default (20% of the duration). ``tag`` is an opaque correlation key the
    caller can use to map results back to grid coordinates. ``faults``
    optionally attaches a deterministic
    :class:`~repro.faults.plan.FaultPlan` to the run; ``checks`` arms the
    invariant checker inside the worker (violations travel back on
    :attr:`~repro.cluster.run.RunResult.check_violations`); ``windows``
    arms bounded streaming window aggregation inside the worker (the
    summary travels back on
    :attr:`~repro.cluster.run.RunResult.window_report`, O(keep) sized
    however long the run is).
    """

    collocation: Collocation
    strategy: str
    duration_s: float = 120.0
    warmup_s: Optional[float] = None
    tag: Optional[Hashable] = None
    faults: Optional[FaultPlan] = None
    checks: Optional[CheckConfig] = None
    windows: Optional[WindowConfig] = None

    def describe(self) -> str:
        """Human-readable parameter summary (used in error messages)."""
        lc = ",".join(m.name for m in self.collocation.lc)
        be = ",".join(m.name for m in self.collocation.be)
        warmup = "default" if self.warmup_s is None else f"{self.warmup_s}s"
        tag = "" if self.tag is None else f" tag={self.tag!r}"
        faults = "" if self.faults is None else f" faults={len(self.faults)}"
        checks = "" if self.checks is None else (
            " checks=strict" if self.checks.strict else " checks=warn"
        )
        windows = "" if self.windows is None else (
            f" windows=dt{self.windows.dt_s:g}s×{self.windows.keep}"
        )
        return (
            f"strategy={self.strategy} lc=[{lc}] be=[{be}] "
            f"duration={self.duration_s}s warmup={warmup} "
            f"seed={self.collocation.seed}{tag}{faults}{checks}{windows}"
        )


class ParallelRunError(ReproError):
    """A run point failed; carries the point so callers can identify it.

    ``completed`` maps batch index → :class:`RunResult` for every point
    that finished before the batch aborted, so a long sweep's surviving
    work can be salvaged.
    """

    def __init__(
        self,
        index: int,
        point: RunPoint,
        cause: BaseException,
        completed: Optional[Dict[int, RunResult]] = None,
    ) -> None:
        super().__init__(
            f"run point #{index} ({point.describe()}) failed: "
            f"{type(cause).__name__}: {cause}"
        )
        self.index = index
        self.point = point
        self.completed: Dict[int, RunResult] = dict(completed or {})


@dataclass(frozen=True)
class PointFailure:
    """Structured record of one item's final failure in a batch.

    ``attempts`` counts executions including retries.
    """

    index: int
    point: Any
    error_type: str
    message: str
    attempts: int = 1
    #: The final exception object (excluded from equality/repr).
    error: Optional[BaseException] = field(default=None, repr=False, compare=False)

    def describe(self) -> str:
        """Human-readable one-liner for reports."""
        return (
            f"point #{self.index} failed after {self.attempts} attempt(s): "
            f"{self.error_type}: {self.message}"
        )


def _failure(
    index: int, item: Any, error: BaseException, attempts: int
) -> PointFailure:
    """Build the :class:`PointFailure` record for one exhausted item."""
    return PointFailure(
        index=index,
        point=item,
        error_type=type(error).__name__,
        message=str(error),
        attempts=attempts,
        error=error,
    )


def run_with_recovery(
    fn: Callable[[Any], Any],
    items: Sequence[Any],
    *,
    jobs: Optional[int] = None,
    retries: int = 0,
    stop_on_failure: bool = False,
    force_pool: bool = False,
) -> Tuple[List[Optional[Any]], List[PointFailure]]:
    """Execute ``fn(item)`` for every item with bounded retry.

    The generic engine underneath :func:`run_many`, usable with any
    picklable ``fn``. Returns ``(results, failures)``: ``results`` aligns
    with ``items`` (``None`` where the item ultimately failed), and
    ``failures`` lists one :class:`PointFailure` per exhausted item in
    submission order.

    ``retries`` re-executes a failing item up to that many extra times.
    ``stop_on_failure`` aborts the batch at the first exhausted item
    (items after the failure stay ``None``). ``force_pool`` routes even a
    one-worker batch through the warm process pool — the two paths are
    bit-identical, so this exists purely so benchmarks and determinism
    tests can measure/exercise the pool machinery directly.

    The pool path submits **chunks** of consecutive items (a few per
    worker) to the warm pool and re-assembles results by index; failing
    items are then retried individually in batched retry passes.
    """
    if retries < 0:
        raise ConfigurationError(f"retries cannot be negative: {retries}")
    batch = list(items)
    results: List[Optional[Any]] = [None] * len(batch)
    failures: List[PointFailure] = []
    if not batch:
        return results, failures

    workers = min(resolve_jobs(jobs), len(batch))
    if workers == 1 and not force_pool:
        for index, item in enumerate(batch):
            last: Optional[BaseException] = None
            for _ in range(retries + 1):
                try:
                    results[index] = fn(item)
                    last = None
                    break
                except Exception as exc:
                    last = exc
            if last is not None:
                failures.append(_failure(index, item, last, retries + 1))
                if stop_on_failure:
                    break
        return results, failures

    _run_pooled_chunked(
        fn, batch, workers, retries, stop_on_failure, results, failures
    )
    return results, failures


def chunk_spans(count: int, workers: int) -> List[Tuple[int, int]]:
    """Contiguous ``[start, stop)`` spans covering ``count`` items.

    Chunk size targets :data:`CHUNKS_PER_WORKER` chunks per worker — big
    enough to amortise pickling ``fn`` and the dispatch round-trip, small
    enough that one slow chunk cannot idle the rest of the pool. A single
    worker has no pool-mates to balance against, so it gets exactly one
    chunk: every extra boundary is a worker idle gap while the executor
    wakes, feeds the next chunk through the call queue and round-trips
    results — measurably several ms each on a busy one-core host.
    """
    if workers <= 1:
        return [(0, count)]
    size = max(1, math.ceil(count / (workers * CHUNKS_PER_WORKER)))
    return [(start, min(start + size, count)) for start in range(0, count, size)]


def _run_chunk(
    fn: Callable[[Any], Any], items: Sequence[Any]
) -> List[Tuple[bool, Any]]:
    """Worker-side chunk executor: one ``(ok, payload)`` pair per item.

    Items run in submission order and failures are captured per item, so
    one bad point never discards its chunk-mates' finished work.
    """
    outcomes: List[Tuple[bool, Any]] = []
    for item in items:
        try:
            outcomes.append((True, fn(item)))
        except Exception as exc:
            outcomes.append((False, exc))
    return outcomes


def _run_pooled_chunked(
    fn: Callable[[Any], Any],
    batch: List[Any],
    workers: int,
    retries: int,
    stop_on_failure: bool,
    results: List[Optional[Any]],
    failures: List[PointFailure],
) -> None:
    """Chunked execution on the warm pool."""
    count = len(batch)
    pool = _pools.acquire(workers)
    chunk_futures = [
        (start, stop, pool.submit(_run_chunk, fn, batch[start:stop]))
        for start, stop in chunk_spans(count, workers)
    ]
    errors: Dict[int, BaseException] = {}
    for start, stop, future in chunk_futures:
        try:
            outcomes = future.result()
        except Exception as exc:
            # The chunk died wholesale (broken pool, unpicklable result):
            # every item in it failed with the same cause.
            outcomes = [(False, exc)] * (stop - start)
        for offset, (ok, payload) in enumerate(outcomes):
            if ok:
                results[start + offset] = payload
            else:
                errors[start + offset] = payload

    attempts = {index: 1 for index in errors}
    for _ in range(retries):
        if not errors:
            break
        pool = _pools.acquire(workers)  # rebuilt automatically if broken
        retry_futures = [
            (index, pool.submit(fn, batch[index])) for index in sorted(errors)
        ]
        errors = {}
        for index, future in retry_futures:
            attempts[index] += 1
            try:
                results[index] = future.result()
            except Exception as exc:
                errors[index] = exc

    for index in sorted(errors):
        failures.append(_failure(index, batch[index], errors[index], attempts[index]))
    if stop_on_failure and failures:
        # Match the serial path's contract: nothing after the first
        # exhausted failure is reported, even if its chunk already ran.
        del failures[1:]
        for index in range(failures[0].index + 1, count):
            results[index] = None


def _execute_point(point: RunPoint) -> RunResult:
    """Worker entry point (module-level so it pickles for the pool)."""
    # Imported lazily: experiments.common builds its run helpers on top of
    # this module, so a top-level import would be circular.
    from repro.experiments.common import strategy_factory

    scheduler = strategy_factory(point.strategy)()
    return run_collocation(
        point.collocation,
        scheduler,
        point.duration_s,
        point.warmup_s,
        faults=point.faults,
        checks=point.checks,
        windows=point.windows,
    )


def _execute_point_instrumented(
    point: RunPoint, want_trace: bool, want_metrics: bool
) -> Tuple[RunResult, List[TraceEvent], Optional[MetricsRegistry]]:
    """Worker entry point with per-point observability.

    The worker collects its own events and metrics locally; the parent
    replays/merges them in submission order, which is what makes a
    ``--jobs 4`` trace byte-identical to the serial one.
    """
    from repro.experiments.common import strategy_factory

    scheduler = strategy_factory(point.strategy)()
    collector = CollectingTracer() if want_trace else None
    registry = MetricsRegistry() if want_metrics else None
    result = run_collocation(
        point.collocation,
        scheduler,
        point.duration_s,
        point.warmup_s,
        tracer=collector,
        metrics=registry,
        faults=point.faults,
        checks=point.checks,
        windows=point.windows,
    )
    events = collector.events if collector is not None else []
    return result, events, registry


def estimate_point_cost_s(point: RunPoint) -> float:
    """Estimated wall-clock cost of one point (seconds, order of magnitude).

    A run's work is proportional to its epoch count; the constant is
    :data:`EPOCH_COST_ESTIMATE_S`. Used only to decide whether a batch
    is worth dispatching to worker processes at all.
    """
    epochs = point.duration_s / point.collocation.epoch_s
    return max(0.0, epochs) * EPOCH_COST_ESTIMATE_S


def metrics_prefix(index: int, point: RunPoint, batch_size: int) -> str:
    """The metric-name prefix for point ``index`` of a ``run_many`` batch.

    A single-point batch keeps bare names (so ``run_many`` over one point
    matches a direct :func:`~repro.cluster.run.run_collocation` call); a
    multi-point batch namespaces each point as ``run<index>.<strategy>/``.
    """
    if batch_size == 1:
        return ""
    return f"run{index:03d}.{point.strategy}/"


def _known_strategies() -> Callable[[str], bool]:
    from repro.experiments.common import known_strategy

    return known_strategy


def run_many(
    points: Iterable[RunPoint],
    jobs: Optional[int] = None,
    *,
    tracer: Optional[Tracer] = None,
    metrics: Optional[MetricsRegistry] = None,
    force_pool: bool = False,
    windows: Optional[WindowConfig] = None,
) -> List[RunResult]:
    """Execute every point, returning results in submission order.

    ``jobs=1`` (or a single point) runs serially in-process; anything
    larger uses a ``ProcessPoolExecutor`` with ``min(jobs, len(points))``
    workers.

    The batch aborts at the first failing point with a
    :class:`ParallelRunError` carrying the already-completed results in
    its ``completed`` attribute. A point is a pure function of its
    parameters, so it is not retried.

    When ``tracer`` or ``metrics`` is given, every point runs with its own
    collecting tracer and registry (inside the worker process, when
    pooled); the parent then replays each point's events to ``tracer`` and
    merges its registry into ``metrics`` **in submission order**, so the
    observed stream is identical for every ``jobs`` setting. Multi-point
    batches namespace merged metrics with :func:`metrics_prefix`; failed
    points contribute no events or metrics.

    ``windows`` applies a batch-wide
    :class:`~repro.obs.windows.WindowConfig` to every point that does not
    carry its own: each worker folds its run's events into a bounded
    window summary locally (never shipping the raw event stream), and the
    summary returns on each result's
    :attr:`~repro.cluster.run.RunResult.window_report`. Window folding is
    an exact merge of per-event integer counts, so a point's summary is
    byte-identical at any ``jobs`` setting; merge summaries across points
    with :func:`~repro.obs.windows.merge_window_summaries` (submission
    order — though the merge is grouping-independent by construction).

    Batches whose estimated work (:func:`estimate_point_cost_s`) falls
    below :data:`MIN_PARALLEL_WORK_S` stay on the serial in-process path
    regardless of ``jobs`` — dispatch overhead would dominate, and the
    two paths produce bit-identical results anyway. ``force_pool``
    overrides both that heuristic and the ``jobs=1`` serial shortcut so
    the pool path itself can be benchmarked and tested.
    """
    batch = list(points)
    known = _known_strategies()
    for index, point in enumerate(batch):
        if not isinstance(point, RunPoint):
            raise ConfigurationError(
                f"run_many expects RunPoint values, got {type(point).__name__} "
                f"at index {index}"
            )
        if not known(point.strategy):
            raise ConfigurationError(
                f"unknown strategy {point.strategy!r} at index {index}; "
                "known strategies: base names from STRATEGY_FACTORIES or "
                "composite 'switchback:<a>:<b>:<epochs>' names"
            )
    if not batch:
        return []
    if windows is not None:
        config = WindowConfig.of(windows)
        batch = [
            point if point.windows is not None else replace(point, windows=config)
            for point in batch
        ]

    instrumented = tracer is not None or metrics is not None
    want_trace = tracer is not None
    want_metrics = metrics is not None
    if instrumented:
        fn = functools.partial(
            _execute_point_instrumented,
            want_trace=want_trace,
            want_metrics=want_metrics,
        )
    else:
        fn = _execute_point

    effective_jobs = jobs
    if not force_pool and resolve_jobs(jobs) > 1:
        estimated_work_s = sum(estimate_point_cost_s(point) for point in batch)
        if estimated_work_s < MIN_PARALLEL_WORK_S:
            effective_jobs = 1

    outcomes, failures = run_with_recovery(
        fn,
        batch,
        jobs=effective_jobs,
        stop_on_failure=True,
        force_pool=force_pool,
    )

    results: List[RunResult] = []
    for index, (point, outcome) in enumerate(zip(batch, outcomes)):
        if outcome is None:
            break  # the tail after the first failure never ran
        if instrumented:
            result, events, registry = outcome
            if tracer is not None:
                for event in events:
                    tracer.emit(event)
            if metrics is not None and registry is not None:
                metrics.merge(
                    registry, prefix=metrics_prefix(index, point, len(batch))
                )
        else:
            result = outcome
        results.append(result)

    if failures:
        first = failures[0]
        raise ParallelRunError(
            first.index,
            batch[first.index],
            first.error,
            completed=dict(enumerate(results)),
        ) from first.error
    return results


@dataclass
class RunGrid:
    """Builder for a batch of run points executed together.

    Accumulate points with :meth:`add` (each returns its index), then call
    :meth:`run` for results in insertion order, or :meth:`run_tagged` for
    ``(tag, result)`` pairs — the natural shape for heatmap grids.
    """

    jobs: Optional[int] = None
    points: List[RunPoint] = field(default_factory=list)

    def add(
        self,
        collocation: Collocation,
        strategy: str,
        duration_s: float = 120.0,
        warmup_s: Optional[float] = None,
        tag: Optional[Hashable] = None,
        faults: Optional[FaultPlan] = None,
        checks: Optional[CheckConfig] = None,
        windows: Optional[WindowConfig] = None,
    ) -> int:
        """Append one point; returns its batch index."""
        self.points.append(
            RunPoint(
                collocation=collocation,
                strategy=strategy,
                duration_s=duration_s,
                warmup_s=warmup_s,
                tag=tag,
                faults=faults,
                checks=checks,
                windows=windows,
            )
        )
        return len(self.points) - 1

    def __len__(self) -> int:
        return len(self.points)

    def run(self) -> List[RunResult]:
        """Execute the batch with :func:`run_many`; results in insertion order."""
        return run_many(self.points, jobs=self.jobs)

    def run_tagged(self) -> List[Tuple[Optional[Hashable], RunResult]]:
        """``(tag, result)`` pairs in insertion order."""
        return [(point.tag, result) for point, result in zip(self.points, self.run())]
