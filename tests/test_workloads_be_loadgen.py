"""BE application profiles, load traces and the Zipf sampler."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.errors import ConfigurationError, ModelError
from repro.workloads.catalog import BE_APPLICATIONS, be_profile
from repro.workloads.loadgen import (
    ConstantLoad,
    DiurnalLoad,
    FluctuatingLoad,
    PiecewiseLoad,
    StepLoad,
    TimeShiftedLoad,
)
from repro.workloads.zipf import ZipfSampler, service_time_multipliers


class TestBEProfiles:
    def test_ipc_solo_at_reference(self, fluidanimate):
        ipc = fluidanimate.ipc(
            cores=float(fluidanimate.threads),
            effective_ways=fluidanimate.reference_ways,
        )
        assert ipc == pytest.approx(fluidanimate.ipc_solo)

    def test_ipc_scales_with_cores(self, fluidanimate):
        half = fluidanimate.ipc(2.0, 20.0)
        full = fluidanimate.ipc(4.0, 20.0)
        assert half == pytest.approx(full / 2, rel=0.01)

    def test_extra_cores_do_not_help(self, fluidanimate):
        assert fluidanimate.ipc(8.0, 20.0) == pytest.approx(
            fluidanimate.ipc(4.0, 20.0)
        )

    def test_cache_squeeze_hurts(self, fluidanimate):
        assert fluidanimate.ipc(4.0, 2.0) < fluidanimate.ipc(4.0, 20.0)

    def test_bandwidth_contention_hurts_stream_badly(self, stream):
        calm = stream.ipc(10.0, 20.0)
        contended = stream.ipc(10.0, 20.0, bandwidth_stretch=2.0)
        # 90% memory-bound: a 2x bandwidth stretch nearly halves IPC.
        assert contended < 0.6 * calm

    def test_starved_ipc_has_tiny_floor(self, stream):
        assert stream.ipc(0.0, 0.01) > 0.0

    def test_stream_has_ten_threads(self, stream):
        assert stream.threads == 10

    def test_catalog_profiles_sane(self):
        for profile in BE_APPLICATIONS.values():
            assert profile.base_ipc > 0
            assert profile.membw_ref_gbps > 0

    def test_membw_demand_concave_in_activity(self, stream):
        # Memory-bound applications saturate the channels well before all
        # threads run: half of STREAM's activity pulls far more than half
        # its peak bandwidth.
        low = stream.membw_demand_gbps(0.5, 20.0)
        high = stream.membw_demand_gbps(1.0, 20.0)
        assert low > 0.6 * high
        assert low < high + 1e-9
        assert stream.membw_demand_gbps(0.0, 20.0) == 0.0

    def test_membw_demand_grows_when_cache_shrinks(self, fluidanimate):
        assert fluidanimate.membw_demand_gbps(1.0, 2.0) > fluidanimate.membw_demand_gbps(
            1.0, 20.0
        )

    def test_cache_pressure_sublinear(self, stream, fluidanimate):
        heavy = stream.cache_pressure(1.0, 20.0)
        light = fluidanimate.cache_pressure(1.0, 20.0)
        demand_ratio = stream.membw_demand_gbps(1.0, 20.0) / (
            fluidanimate.membw_demand_gbps(1.0, 20.0)
        )
        assert heavy / light == pytest.approx(demand_ratio**0.5, rel=1e-6)

    def test_case_insensitive_lookup(self):
        assert be_profile("Stream").name == "stream"


class TestLoadTraces:
    def test_constant(self):
        trace = ConstantLoad(0.4)
        assert trace(0.0) == 0.4
        assert trace(1000.0) == 0.4

    def test_constant_rejects_out_of_range(self):
        with pytest.raises(ConfigurationError):
            ConstantLoad(1.5)

    def test_step(self):
        trace = StepLoad(before=0.2, after=0.8, at_s=10.0)
        assert trace(9.99) == 0.2
        assert trace(10.0) == 0.8

    def test_piecewise(self):
        trace = PiecewiseLoad.of((0.0, 0.1), (10.0, 0.5), (20.0, 0.9))
        assert trace(5.0) == 0.1
        assert trace(10.0) == 0.5
        assert trace(25.0) == 0.9

    def test_piecewise_must_start_at_zero(self):
        with pytest.raises(ConfigurationError):
            PiecewiseLoad.of((1.0, 0.1))

    def test_piecewise_strictly_increasing(self):
        with pytest.raises(ConfigurationError):
            PiecewiseLoad.of((0.0, 0.1), (0.0, 0.2))

    def test_fluctuating_matches_paper_shape(self):
        trace = FluctuatingLoad()
        assert trace.duration_s == 250.0
        assert trace(0.0) == 0.1
        assert trace(110.0) == 0.9  # fifth plateau: 100-125 s
        assert trace(249.0) == 0.3

    def test_fluctuating_wraps(self):
        trace = FluctuatingLoad()
        assert trace(260.0) == trace(10.0)

    def test_diurnal_bounds(self):
        trace = DiurnalLoad(low=0.1, high=0.9, period_s=100.0)
        values = [trace(t) for t in np.linspace(0, 200, 201)]
        assert min(values) >= 0.1 - 1e-9
        assert max(values) <= 0.9 + 1e-9

    @given(st.floats(min_value=0.0, max_value=1e4))
    def test_fluctuating_always_valid(self, time_s):
        trace = FluctuatingLoad()
        assert 0.0 <= trace(time_s) <= 1.0


def grid_max(trace, t0, t1, points=2001):
    """Largest sampled load on an even grid over ``[t0, t1]``."""
    return max(trace(t) for t in np.linspace(t0, t1, points))


class TestExactPeak:
    """``LoadTrace.peak`` is exact over a closed interval, spikes included."""

    def test_constant(self):
        assert ConstantLoad(0.4).peak(0.0, 600.0) == 0.4

    def test_step_counts_the_closed_right_end(self):
        trace = StepLoad(before=0.2, after=0.8, at_s=10.0)
        assert trace.peak(0.0, 9.99) == 0.2
        assert trace.peak(0.0, 10.0) == 0.8
        assert trace.peak(10.0, 20.0) == 0.8
        assert StepLoad(before=0.8, after=0.2, at_s=10.0).peak(10.0, 20.0) == 0.2

    def test_piecewise_sees_a_spike_between_grid_points(self):
        spiky = PiecewiseLoad.of((0, 0.2), (3, 0.9), (8, 0.2))
        assert spiky.peak(0.0, 600.0) == 0.9
        assert spiky.peak(8.0, 600.0) == 0.2
        assert spiky.peak(5.0, 6.0) == 0.9

    def test_fluctuating_plateaus(self):
        trace = FluctuatingLoad()
        assert trace.peak(0.0, 99.0) == 0.7
        assert trace.peak(0.0, 100.0) == 0.9
        assert trace.peak(130.0, 240.0) == 0.7
        assert trace.peak(240.0, 260.0) == 0.3  # wraps to the first plateau
        assert trace.peak(-5.0, 1.0) == 0.1
        assert trace.peak(0.0, 1e4) == 0.9

    def test_diurnal_crest_inside_or_an_end(self):
        trace = DiurnalLoad(low=0.1, high=0.9, period_s=100.0)
        assert trace.peak(0.0, 25.0) == 0.9  # crest at 25 s
        assert trace.peak(30.0, 60.0) == trace(30.0)  # falling
        assert trace.peak(60.0, 95.0) == trace(95.0)  # rising
        assert trace.peak(40.0, 110.0) == max(trace(40.0), trace(110.0))
        assert trace.peak(126.0, 224.0) == max(trace(126.0), trace(224.0))
        assert trace.peak(124.0, 126.0) == 0.9

    def test_time_shift_delegates(self):
        spiky = PiecewiseLoad.of((0, 0.2), (3, 0.9), (8, 0.2))
        assert TimeShiftedLoad(trace=spiky, offset_s=5.0).peak(0.0, 1.0) == 0.9
        assert TimeShiftedLoad(trace=spiky, offset_s=8.0).peak(0.0, 100.0) == 0.2

    @given(
        st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=6),
        st.floats(min_value=0.0, max_value=50.0),
        st.floats(min_value=0.0, max_value=50.0),
    )
    def test_piecewise_peak_bounds_every_sample(self, levels, t0, width):
        trace = PiecewiseLoad.of(*((7.0 * i, level) for i, level in enumerate(levels)))
        peak = trace.peak(t0, t0 + width)
        assert peak >= grid_max(trace, t0, t0 + width, points=101)
        assert peak in levels

    @given(
        st.floats(min_value=0.0, max_value=0.5),
        st.floats(min_value=0.5, max_value=1.0),
        st.floats(min_value=-500.0, max_value=500.0),
        st.floats(min_value=0.0, max_value=300.0),
    )
    def test_diurnal_peak_bounds_every_sample(self, low, high, t0, width):
        trace = DiurnalLoad(low=low, high=high, period_s=240.0)
        peak = trace.peak(t0, t0 + width)
        assert grid_max(trace, t0, t0 + width) <= peak + 1e-12
        assert peak <= high
        if width >= 240.0:
            assert peak == high


class TestZipf:
    def test_probabilities_sum_to_one(self):
        sampler = ZipfSampler(100, 1.0)
        assert sum(sampler.probabilities) == pytest.approx(1.0)

    def test_rank_one_most_popular(self):
        sampler = ZipfSampler(100, 1.0)
        probabilities = sampler.probabilities
        assert probabilities[0] == max(probabilities)
        assert probabilities == sorted(probabilities, reverse=True)

    def test_head_mass_monotone(self):
        sampler = ZipfSampler(100, 1.0)
        assert sampler.head_mass(10) < sampler.head_mass(50) <= 1.0

    def test_sampling_respects_popularity(self):
        sampler = ZipfSampler(50, 1.2)
        rng = np.random.default_rng(3)
        ranks = sampler.sample(rng, 20000)
        top_frequency = sum(1 for r in ranks if r <= 5) / len(ranks)
        assert top_frequency == pytest.approx(sampler.head_mass(5), abs=0.02)

    def test_multipliers_shape(self):
        multipliers = service_time_multipliers(100, slow_tail_factor=4.0)
        assert multipliers[0] == pytest.approx(1.0)
        assert multipliers[-1] == pytest.approx(4.0)
        assert list(multipliers) == sorted(multipliers)

    def test_single_item(self):
        assert list(service_time_multipliers(1)) == [1.0]

    def test_rejects_bad_parameters(self):
        with pytest.raises(ConfigurationError):
            ZipfSampler(0)
        with pytest.raises(ConfigurationError):
            service_time_multipliers(10, slow_tail_factor=0.5)
