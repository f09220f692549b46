"""LC application profiles and Table IV calibration."""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.errors import ConfigurationError, ModelError
from repro.perfmodel.missratio import curve_from_sensitivity
from repro.workloads.catalog import LC_APPLICATIONS, lc_profile
from repro.workloads.lc_app import _RESERVE_CACHE, calibrate_lc_profile

#: Table IV of the paper: thresholds (ms) and max loads (QPS).
TABLE_IV = {
    "xapian": (4.22, 3400.0),
    "moses": (10.53, 1800.0),
    "img-dnn": (3.98, 5300.0),
    "masstree": (1.05, 4420.0),
    "sphinx": (2682.0, 4.8),
    "silo": (1.27, 220.0),
}

#: Table II's ideal tail latencies at 20% load.
TABLE_II_IDEALS = {"xapian": 2.77, "moses": 2.80, "img-dnn": 1.41}


@pytest.mark.parametrize("name", sorted(TABLE_IV))
def test_table_iv_parameters(name):
    profile = lc_profile(name)
    threshold, max_load = TABLE_IV[name]
    assert profile.threshold_ms == threshold
    assert profile.max_load_qps == max_load


@pytest.mark.parametrize("name", sorted(TABLE_IV))
def test_calibration_knee_anchor(name):
    """The threshold is the latency at max load (Table IV's definition)."""
    profile = lc_profile(name)
    knee = profile.tail_latency_ms(
        1.0, cores=float(profile.threads), effective_ways=profile.reference_ways
    )
    assert knee == pytest.approx(profile.threshold_ms, rel=0.01)


@pytest.mark.parametrize("name,ideal", sorted(TABLE_II_IDEALS.items()))
def test_calibration_ideal_anchor(name, ideal):
    profile = lc_profile(name)
    assert profile.ideal_latency_ms(0.2) == pytest.approx(ideal, rel=0.01)


@pytest.mark.parametrize("name", sorted(TABLE_IV))
def test_latency_monotone_in_load(name):
    profile = lc_profile(name)
    tails = [
        profile.tail_latency_ms(load, profile.threads, profile.reference_ways)
        for load in (0.1, 0.3, 0.5, 0.7, 0.9, 0.99)
    ]
    assert tails == sorted(tails)


@pytest.mark.parametrize("name", sorted(TABLE_IV))
def test_latency_decreases_with_cores(name):
    profile = lc_profile(name)
    few = profile.tail_latency_ms(0.2, 1, profile.reference_ways)
    many = profile.tail_latency_ms(0.2, profile.threads, profile.reference_ways)
    assert many <= few


def test_cache_squeeze_increases_latency(xapian):
    full = xapian.tail_latency_ms(0.2, 4, 20.0)
    squeezed = xapian.tail_latency_ms(0.2, 4, 2.0)
    assert squeezed > full


def test_bandwidth_contention_increases_latency(xapian):
    calm = xapian.tail_latency_ms(0.2, 4, 20.0)
    contended = xapian.tail_latency_ms(0.2, 4, 20.0, bandwidth_stretch=2.0)
    assert contended > calm


def test_capacity_scales_with_cores(xapian):
    one = xapian.capacity_rps(1, 20.0)
    four = xapian.capacity_rps(4, 20.0)
    assert four == pytest.approx(4 * one)
    # Cores beyond the thread count add nothing.
    assert xapian.capacity_rps(8, 20.0) == pytest.approx(four)


def test_parallelism_override_extends_scaling(xapian):
    eight = xapian.capacity_rps(8, 20.0, parallelism=8)
    assert eight == pytest.approx(2 * xapian.capacity_rps(4, 20.0))


def test_demand_cores_shapes(xapian):
    assert xapian.demand_cores(0.0) == pytest.approx(0.05)  # tiny floor
    assert xapian.demand_cores(1.0) <= xapian.threads
    low = xapian.demand_cores(0.2)
    high = xapian.demand_cores(0.8)
    assert low < high


def test_arrival_rate(xapian):
    assert xapian.arrival_rps(0.5) == pytest.approx(0.5 * xapian.max_load_qps)
    with pytest.raises(ModelError):
        xapian.arrival_rps(-0.1)


def test_qos_target_view(moses):
    assert moses.qos.tail_latency_ms == 10.53
    assert moses.qos.percentile == 95.0


def test_catalog_lookup_case_insensitive():
    assert lc_profile("XaPiAn").name == "xapian"


def test_catalog_unknown_name():
    from repro.errors import UnknownApplicationError

    with pytest.raises(UnknownApplicationError):
        lc_profile("memcached")


def test_all_catalog_profiles_sane():
    for profile in LC_APPLICATIONS.values():
        assert profile.wall_rps > profile.max_load_qps
        assert profile.service_time_ms > 0
        assert 0 <= profile.memory_fraction < 1
        assert profile.threads == 4


class TestCalibrationFunction:
    def test_rejects_ideal_above_threshold(self):
        with pytest.raises(ConfigurationError):
            calibrate_lc_profile(
                name="bad",
                threshold_ms=2.0,
                max_load_qps=100.0,
                ideal_at_20pct_ms=3.0,
                curve=curve_from_sensitivity(0.1, 0.3, 20.0),
                memory_fraction=0.2,
                membw_ref_gbps=1.0,
            )

    def test_custom_profile_hits_anchors(self):
        profile = calibrate_lc_profile(
            name="custom",
            threshold_ms=6.0,
            max_load_qps=1000.0,
            ideal_at_20pct_ms=2.0,
            curve=curve_from_sensitivity(0.1, 0.3, 20.0),
            memory_fraction=0.2,
            membw_ref_gbps=3.0,
            threads=2,
        )
        assert profile.ideal_latency_ms(0.2) == pytest.approx(2.0, rel=0.01)
        assert profile.tail_latency_ms(1.0, 2, 20.0) == pytest.approx(6.0, rel=0.01)


class TestReserveCoresMemo:
    """The reservation memo is keyed on the model, not the display name."""

    def test_changed_threshold_is_not_served_the_original(self):
        xapian = lc_profile("xapian")
        tight = replace(xapian, threshold_ms=xapian.threshold_ms / 2)
        original = xapian.reserve_cores(0.3)
        assert tight.reserve_cores(0.3) > original
        assert xapian.reserve_cores(0.3) == original

    def test_renamed_replica_shares_the_entry(self):
        xapian = lc_profile("xapian")
        original = xapian.reserve_cores(0.45)
        entries = len(_RESERVE_CACHE)
        replica = replace(xapian, name="xapian-0007")
        assert replica.reserve_cores(0.45) == original
        assert len(_RESERVE_CACHE) == entries
