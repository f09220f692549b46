"""The early-exit calibration equals the full fixed-iteration loop, bit for bit.

``calibrate_lc_profile`` stops each bisection once a step leaves its
bracket unchanged, and the outer iteration once a pass leaves
``(service_ms, wall)`` unchanged. Each loop body is a pure function of
that state, so the remaining iterations could only reproduce it. The
oracle below is the loop as it ran before the early exit — 10 outer
passes of 80 + 100 bisection steps — and every comparison is exact
``==`` on the calibrated floats.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ConfigurationError
from repro.perfmodel.queueing import QueueModel, service_quantile_ms
from repro.server.llc import MissRatioCurve
from repro.workloads import catalog
from repro.workloads.lc_app import calibrate_lc_profile

#: Table II/IV anchors of the six catalog applications:
#: name → (threshold_ms, max_load_qps, ideal_at_20pct_ms).
CATALOG_ANCHORS = {
    "xapian": (4.22, 3400.0, 2.77),
    "moses": (10.53, 1800.0, 2.80),
    "img-dnn": (3.98, 5300.0, 1.41),
    "masstree": (1.05, 4420.0, 0.55),
    "sphinx": (2682.0, 4.8, 1510.0),
    "silo": (1.27, 220.0, 0.60),
}

#: Upper bound on ``QueueModel.percentile_ms`` calls to build the catalog.
#: The count is deterministic (≈ 1,424); the full loop made 10,860.
CATALOG_PERCENTILE_CALLS = 1500


def full_iteration(
    threshold_ms: float,
    max_load_qps: float,
    ideal_at_20pct_ms: float,
    threads: int = 4,
    percentile: float = 95.0,
    service_cv: float = 0.25,
    name: str = "oracle",
):
    """The calibration loop without early exit: ``(service_ms, wall)``."""
    if ideal_at_20pct_ms >= threshold_ms:
        raise ConfigurationError(
            f"{name}: ideal latency {ideal_at_20pct_ms} must be below the "
            f"threshold {threshold_ms}"
        )

    quantile_factor = service_quantile_ms(1.0, percentile, service_cv)
    low_load_rps = 0.2 * max_load_qps

    def latency_at(arrival_rps: float, service_ms: float, wall_rps: float) -> float:
        return QueueModel(
            arrival_rps=arrival_rps,
            capacity_rps=wall_rps,
            servers=float(threads),
            service_time_ms=service_ms,
            service_cv=service_cv,
        ).percentile_ms(percentile)

    service_ms = ideal_at_20pct_ms / quantile_factor
    wall = max_load_qps * 2.0

    for _ in range(10):
        # Latency anchor: p-th percentile at 20% load equals TL_i0.
        # Monotone increasing in the service time → bisection.
        svc_low, svc_high = 1e-9, ideal_at_20pct_ms
        for _ in range(80):
            svc_mid = 0.5 * (svc_low + svc_high)
            if latency_at(low_load_rps, svc_mid, wall) < ideal_at_20pct_ms:
                svc_low = svc_mid
            else:
                svc_high = svc_mid
        service_ms = 0.5 * (svc_low + svc_high)

        # Knee anchor: percentile at max load equals M_i.
        # Monotone decreasing in the wall → bisection.
        wall_low = max_load_qps * 1.0001
        wall_high = max_load_qps * 1000.0
        if latency_at(max_load_qps, service_ms, wall_high) > threshold_ms:
            raise ConfigurationError(
                f"{name}: anchors unsatisfiable — even an enormous wall "
                "leaves the knee above the threshold"
            )
        for _ in range(100):
            wall_mid = 0.5 * (wall_low + wall_high)
            if latency_at(max_load_qps, service_ms, wall_mid) > threshold_ms:
                wall_low = wall_mid
            else:
                wall_high = wall_mid
        wall = 0.5 * (wall_low + wall_high)

    return service_ms, wall


def early_exit(threshold_ms, max_load_qps, ideal_at_20pct_ms, service_cv=0.25):
    profile = calibrate_lc_profile(
        name="oracle",
        threshold_ms=threshold_ms,
        max_load_qps=max_load_qps,
        ideal_at_20pct_ms=ideal_at_20pct_ms,
        curve=MissRatioCurve.insensitive(),
        memory_fraction=0.1,
        membw_ref_gbps=1.0,
        service_cv=service_cv,
    )
    return profile.service_time_ms, profile.wall_rps


def outcome(calibrate, *anchors):
    """The calibrated pair, or the ``ConfigurationError`` message."""
    try:
        return calibrate(*anchors)
    except ConfigurationError as error:
        return f"ConfigurationError: {error}"


@pytest.mark.parametrize("name", sorted(CATALOG_ANCHORS))
def test_catalog_profiles_equal_the_full_iteration(name):
    profile = catalog.lc_profile(name)
    service_ms, wall = full_iteration(*CATALOG_ANCHORS[name], name=name)
    assert profile.service_time_ms == service_ms
    assert profile.wall_rps == wall


@settings(max_examples=60, deadline=None)
@given(
    threshold_ms=st.floats(min_value=0.05, max_value=5000.0),
    knee_concurrency=st.one_of(st.just(0.0), st.floats(min_value=0.01, max_value=50.0)),
    ideal_fraction=st.floats(min_value=0.05, max_value=1.05),
    service_cv=st.floats(min_value=0.05, max_value=1.5),
)
def test_early_exit_equals_full_iteration(
    threshold_ms, knee_concurrency, ideal_fraction, service_cv
):
    # The max load is drawn as requests in flight at the threshold latency
    # (the catalog spans ≈ 1–15), which keeps every draw cheap to solve. A
    # zero load is unsatisfiable and an ideal fraction ≥ 1 is rejected
    # outright: both versions must raise the same ConfigurationError.
    anchors = (
        threshold_ms,
        knee_concurrency * 1000.0 / threshold_ms,
        threshold_ms * ideal_fraction,
    )
    expected = outcome(lambda *a: full_iteration(*a, service_cv=service_cv), *anchors)
    actual = outcome(lambda *a: early_exit(*a, service_cv=service_cv), *anchors)
    assert actual == expected


@pytest.mark.parametrize(
    "anchors, message",
    [
        ((2.0, 1000.0, 2.0), "must be below the threshold"),
        ((2.0, 0.0, 1.0), "anchors unsatisfiable"),
    ],
)
def test_both_versions_reject_the_same_anchors(anchors, message):
    expected = outcome(full_iteration, *anchors)
    assert message in expected
    assert outcome(early_exit, *anchors) == expected


def test_catalog_build_stays_under_the_call_budget(monkeypatch):
    calls = {"n": 0}
    percentile_ms = QueueModel.percentile_ms

    def counting(self, percentile):
        calls["n"] += 1
        return percentile_ms(self, percentile)

    monkeypatch.setattr(QueueModel, "percentile_ms", counting)
    catalog._build_lc_catalog()
    assert calls["n"] <= CATALOG_PERCENTILE_CALLS
