"""The memoised gamma service quantile matches scipy's direct evaluation.

``service_quantile_ms`` caches the unit-scale gamma quantile and rescales
it (the gamma distribution is a scale family). scipy computes the scaled
ppf the same way internally, so the cached path must agree with a direct
``stats.gamma.ppf`` call to (far better than) 1e-9 everywhere. The
uncached path (``set_caches_enabled(False)``) evaluates
``special.gammaincinv`` itself and must equal ``stats.gamma.ppf`` bit for
bit; the library never imports ``scipy.stats``, so this module is its
only user.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats

from repro.perfmodel import queueing
from repro.perfmodel.queueing import (
    clear_caches,
    percentile_sojourn_ms,
    service_quantile_ms,
    set_caches_enabled,
)


def _direct_ppf(service_time_ms: float, percentile: float, service_cv: float) -> float:
    shape = 1.0 / (service_cv * service_cv)
    scale = service_time_ms / shape
    return float(stats.gamma.ppf(percentile / 100.0, a=shape, scale=scale))


def _assert_close(cached: float, direct: float) -> None:
    assert abs(cached - direct) <= 1e-9 * max(1.0, abs(direct))


CV_GRID = [0.05, 0.1, 0.25, 0.5, 0.75, 1.0, 1.5, 2.5]
PERCENTILE_GRID = [50.0, 90.0, 95.0, 99.0, 99.9]
SERVICE_GRID = [0.01, 1.0, 12.5, 800.0]


@pytest.mark.parametrize("service_cv", CV_GRID)
@pytest.mark.parametrize("percentile", PERCENTILE_GRID)
def test_cached_quantile_matches_scipy_on_grid(service_cv, percentile):
    clear_caches()
    for service_ms in SERVICE_GRID:
        cached = service_quantile_ms(service_ms, percentile, service_cv)
        _assert_close(cached, _direct_ppf(service_ms, percentile, service_cv))


@settings(max_examples=200, deadline=None)
@given(
    service_ms=st.floats(min_value=1e-3, max_value=1e4),
    percentile=st.floats(min_value=0.1, max_value=99.9),
    service_cv=st.floats(min_value=1e-2, max_value=4.0),
)
def test_cached_quantile_matches_scipy_property(service_ms, percentile, service_cv):
    cached = service_quantile_ms(service_ms, percentile, service_cv)
    _assert_close(cached, _direct_ppf(service_ms, percentile, service_cv))


def test_cache_hit_returns_identical_value():
    clear_caches()
    first = service_quantile_ms(3.7, 95.0, 0.25)
    second = service_quantile_ms(3.7, 95.0, 0.25)
    assert first == second
    info = queueing._unit_gamma_quantile.cache_info()
    assert info.hits >= 1


def test_disabled_cache_uses_scipy_directly():
    set_caches_enabled(True)
    try:
        cached = service_quantile_ms(2.2, 99.0, 0.5)
        set_caches_enabled(False)
        uncached = service_quantile_ms(2.2, 99.0, 0.5)
    finally:
        set_caches_enabled(True)
    assert cached == uncached


@pytest.mark.parametrize("service_cv", CV_GRID)
@pytest.mark.parametrize("percentile", PERCENTILE_GRID)
def test_uncached_quantile_is_scipy_ppf_bit_for_bit(service_cv, percentile):
    set_caches_enabled(False)
    try:
        for service_ms in SERVICE_GRID:
            uncached = service_quantile_ms(service_ms, percentile, service_cv)
            assert uncached == _direct_ppf(service_ms, percentile, service_cv)
    finally:
        set_caches_enabled(True)


def test_sojourn_cache_matches_uncached_path():
    clear_caches()
    args = (80.0, 200.0, 4.0, 10.0, 95.0, 0.25)
    cached = percentile_sojourn_ms(*args)
    set_caches_enabled(False)
    try:
        uncached = percentile_sojourn_ms(*args)
    finally:
        set_caches_enabled(True)
    assert cached == uncached
    # Repeat call is served from the memo and stays identical.
    assert percentile_sojourn_ms(*args) == cached
