"""Parallel experiment-execution layer (see :mod:`repro.parallel.runner`)."""

from repro.parallel.runner import (
    JOBS_ENV_VAR,
    ParallelRunError,
    PointFailure,
    RunGrid,
    RunPoint,
    chunk_spans,
    default_jobs,
    estimate_point_cost_s,
    resolve_jobs,
    run_many,
    run_with_recovery,
    set_default_jobs,
    shutdown_pool,
)

__all__ = [
    "JOBS_ENV_VAR",
    "ParallelRunError",
    "PointFailure",
    "RunGrid",
    "RunPoint",
    "chunk_spans",
    "default_jobs",
    "estimate_point_cost_s",
    "resolve_jobs",
    "run_many",
    "run_with_recovery",
    "set_default_jobs",
    "shutdown_pool",
]
