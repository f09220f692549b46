"""Retry and failure semantics of the parallel runner."""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.errors import ConfigurationError
from repro.experiments.common import canonical_mix
from repro.parallel import (
    ParallelRunError,
    PointFailure,
    RunPoint,
    run_many,
    run_with_recovery,
)

DURATION_S = 20.0


def _double(x):
    return 2 * x


def _crash_on_odd(x):
    if x % 2:
        raise ValueError(f"odd: {x}")
    return x


def _always_crash(x):
    raise RuntimeError("boom")


def _fail_until_marker(path_str):
    """Fails once, then succeeds: the marker file survives across attempts."""
    marker = Path(path_str)
    if marker.exists():
        return "recovered"
    marker.write_text("attempted")
    raise RuntimeError("first attempt fails")


class TestRunWithRecovery:
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_happy_path(self, jobs):
        results, failures = run_with_recovery(_double, [1, 2, 3], jobs=jobs)
        assert results == [2, 4, 6]
        assert failures == []

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_failures_leave_aligned_holes(self, jobs):
        results, failures = run_with_recovery(
            _crash_on_odd, [0, 1, 2, 3], jobs=jobs
        )
        assert results == [0, None, 2, None]
        assert [f.index for f in failures] == [1, 3]
        assert all(f.error_type == "ValueError" for f in failures)
        assert failures[0].message == "odd: 1"
        assert failures[0].attempts == 1

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_retries_count_attempts(self, jobs):
        results, failures = run_with_recovery(
            _always_crash, ["x"], jobs=jobs, retries=2
        )
        assert results == [None]
        assert failures[0].attempts == 3

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_retry_recovers_transient_failure(self, jobs, tmp_path):
        marker = str(tmp_path / f"marker-{jobs}")
        results, failures = run_with_recovery(
            _fail_until_marker, [marker], jobs=jobs, retries=1
        )
        assert results == ["recovered"]
        assert failures == []

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_stop_on_failure_abandons_the_tail(self, jobs):
        results, failures = run_with_recovery(
            _crash_on_odd, [0, 1, 2, 4], jobs=jobs, stop_on_failure=True
        )
        assert results[0] == 0
        assert results[1] is None
        assert [f.index for f in failures] == [1]

    def test_empty_batch(self):
        assert run_with_recovery(_double, []) == ([], [])

    def test_parameter_validation(self):
        with pytest.raises(ConfigurationError, match="retries"):
            run_with_recovery(_double, [1], retries=-1)

    def test_point_failure_describe(self):
        failure = PointFailure(
            index=3,
            point="p",
            error_type="ValueError",
            message="bad",
            attempts=2,
        )
        assert failure.describe() == (
            "point #3 failed after 2 attempt(s): ValueError: bad"
        )


class TestRunManyRecovery:
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_raise_mode_attaches_completed_results(self, jobs):
        mix = canonical_mix(0.5, seed=3)
        bad = RunPoint(mix, "arq", duration_s=-5.0)
        points = [RunPoint(mix, "unmanaged", DURATION_S, 0.0), bad]
        with pytest.raises(ParallelRunError) as excinfo:
            run_many(points, jobs=jobs, force_pool=True)
        assert excinfo.value.index == 1
        assert excinfo.value.point is bad
        assert set(excinfo.value.completed) == {0}
        assert excinfo.value.completed[0].records
