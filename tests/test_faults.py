"""Fault plans, the injector, and end-to-end resilience determinism."""

from __future__ import annotations

import math

import pytest

from repro.entropy.records import BEObservation, LCObservation, SystemObservation
from repro.errors import FaultError, TelemetryCorruptionError
from repro.experiments.common import canonical_mix, run_strategy
from repro.faults import (
    BEBurst,
    CapacityDegradation,
    FAULT_PRESETS,
    FaultInjector,
    FaultPlan,
    LoadSpike,
    QpsRamp,
    TelemetryCorruption,
    TelemetryDropout,
    fault_from_dict,
    fault_preset,
)
from repro.obs.events import (
    CollectingTracer,
    CooldownStart,
    FaultCleared,
    FaultInjected,
    TelemetryGap,
)
from repro.parallel import RunPoint, run_many
from repro.schedulers.arq import WATCHDOG_REGION
from repro.sim.engine import Engine

DURATION_S = 40.0


def _observation() -> SystemObservation:
    return SystemObservation(
        lc=(
            LCObservation("xapian", ideal_ms=2.0, measured_ms=4.0, threshold_ms=8.0),
            LCObservation("moses", ideal_ms=10.0, measured_ms=12.0, threshold_ms=50.0),
        ),
        be=(BEObservation("fluidanimate", ipc_solo=2.0, ipc_real=1.0),),
    )


class TestPlan:
    def test_round_trip_every_kind(self):
        plan = FaultPlan(
            faults=(
                LoadSpike(start_s=1, duration_s=2, application="xapian", level=0.9),
                QpsRamp(start_s=3, duration_s=4, application="moses"),
                TelemetryDropout(start_s=5, duration_s=1, applications=("xapian",)),
                TelemetryCorruption(start_s=6, duration_s=1, mode="outlier", factor=8),
                CapacityDegradation(start_s=7, duration_s=1, cores_factor=0.5),
                BEBurst(start_s=8, duration_s=1, intensity=3.0),
            )
        )
        restored = FaultPlan.from_json(plan.to_json())
        assert restored == plan
        assert restored.to_json() == plan.to_json()

    def test_save_load(self, tmp_path):
        plan = fault_preset("chaos")
        path = plan.save(str(tmp_path / "plan.json"))
        assert FaultPlan.load(path) == plan

    def test_unknown_kind_rejected(self):
        with pytest.raises(FaultError, match="unknown fault kind"):
            fault_from_dict({"kind": "meteor_strike"})

    def test_unknown_field_rejected(self):
        with pytest.raises(FaultError, match="unexpected fields"):
            fault_from_dict({"kind": "load_spike", "application": "xapian", "oops": 1})

    def test_window_is_half_open(self):
        spike = LoadSpike(start_s=10.0, duration_s=5.0, application="xapian")
        assert not spike.active_at(9.999)
        assert spike.active_at(10.0)
        assert spike.active_at(14.999)
        assert not spike.active_at(15.0)

    def test_validation(self):
        with pytest.raises(FaultError):
            LoadSpike(start_s=-1.0, application="xapian")
        with pytest.raises(FaultError):
            TelemetryDropout(duration_s=0.0)
        with pytest.raises(FaultError):
            LoadSpike(application="")
        with pytest.raises(FaultError):
            CapacityDegradation(cores_factor=0.0)
        with pytest.raises(FaultError):
            BEBurst(intensity=0.5)
        with pytest.raises(TelemetryCorruptionError):
            TelemetryCorruption(mode="garbage")
        with pytest.raises(FaultError, match="FaultSpec"):
            FaultPlan(faults=("not-a-fault",))

    def test_qps_ramp_interpolates(self):
        ramp = QpsRamp(
            start_s=0.0, duration_s=10.0, application="x", from_level=0.0, to_level=1.0
        )
        assert ramp.level_at(0.0) == 0.0
        assert ramp.level_at(5.0) == pytest.approx(0.5)
        assert ramp.level_at(10.0) == 1.0

    def test_presets(self):
        for name in FAULT_PRESETS:
            plan = fault_preset(name, 1.0)
            assert len(plan) > 0
            assert fault_preset(name, 0.0) == FaultPlan()
        with pytest.raises(FaultError, match="unknown fault preset"):
            fault_preset("nope")
        with pytest.raises(FaultError, match="negative"):
            fault_preset("chaos", -1.0)

    def test_be_burst_stretch_is_at_least_one(self):
        assert BEBurst(intensity=1.0).bandwidth_factor() == 1.0
        assert BEBurst(intensity=3.0).bandwidth_factor() == pytest.approx(2.0)


class TestInjector:
    def test_loads_identity_when_inactive(self):
        injector = FaultInjector(fault_preset("load-spike"))
        loads = {"xapian": 0.5}
        assert injector.loads(1000.0, loads) is loads

    def test_load_spike_overrides(self):
        plan = FaultPlan(
            faults=(LoadSpike(start_s=0, duration_s=10, application="xapian", level=0.9),)
        )
        injector = FaultInjector(plan)
        patched = injector.loads(5.0, {"xapian": 0.2, "moses": 0.3})
        assert patched == {"xapian": 0.9, "moses": 0.3}

    def test_corrupt_identity_when_clean(self):
        injector = FaultInjector(fault_preset("telemetry-dropout"))
        obs = _observation()
        assert injector.corrupt(1000.0, obs) is obs

    def test_full_dropout_returns_none(self):
        plan = FaultPlan(faults=(TelemetryDropout(start_s=0, duration_s=10),))
        injector = FaultInjector(plan)
        assert injector.corrupt(5.0, _observation()) is None

    def test_targeted_dropout_removes_only_target(self):
        plan = FaultPlan(
            faults=(
                TelemetryDropout(start_s=0, duration_s=10, applications=("xapian",)),
            )
        )
        view = FaultInjector(plan).corrupt(5.0, _observation())
        assert [s.name for s in view.lc] == ["moses"]
        assert [s.name for s in view.be] == ["fluidanimate"]

    def test_nan_corruption(self):
        plan = FaultPlan(
            faults=(TelemetryCorruption(start_s=0, duration_s=10, mode="nan"),)
        )
        view = FaultInjector(plan).corrupt(5.0, _observation())
        assert all(math.isnan(s.measured_ms) for s in view.lc)
        assert all(math.isnan(s.ipc_real) for s in view.be)

    def test_outlier_corruption(self):
        plan = FaultPlan(
            faults=(
                TelemetryCorruption(start_s=0, duration_s=10, mode="outlier", factor=10),
            )
        )
        obs = _observation()
        view = FaultInjector(plan).corrupt(5.0, obs)
        assert view.lc[0].measured_ms == pytest.approx(obs.lc[0].measured_ms * 10)
        assert view.be[0].ipc_real == pytest.approx(obs.be[0].ipc_real / 10)

    def test_stale_corruption_replays_pre_fault_values(self):
        plan = FaultPlan(
            faults=(TelemetryCorruption(start_s=10, duration_s=10, mode="stale"),)
        )
        injector = FaultInjector(plan)
        before = _observation()
        injector.corrupt(5.0, before)  # remembered as last good
        later = SystemObservation(
            lc=tuple(
                LCObservation(s.name, s.ideal_ms, s.measured_ms * 7, s.threshold_ms)
                for s in before.lc
            ),
            be=before.be,
        )
        view = injector.corrupt(15.0, later)
        assert view.lc[0].measured_ms == before.lc[0].measured_ms

    def test_degrade_scales_effective_resources(self):
        from repro.cluster.contention import EffectiveResources

        plan = FaultPlan(
            faults=(
                CapacityDegradation(start_s=0, duration_s=10, cores_factor=0.5),
                BEBurst(start_s=0, duration_s=10, intensity=3.0),
            )
        )
        injector = FaultInjector(plan)
        def eff(name, cores, ways):
            return EffectiveResources(
                name=name,
                cores=cores,
                ways=ways,
                bandwidth_multiplier=1.0,
                transient_penalty=1.0,
                activity=1.0,
            )

        resources = {
            "xapian": eff("xapian", 8.0, 10.0),
            "fluidanimate": eff("fluidanimate", 4.0, 5.0),
        }
        degraded = injector.degrade(5.0, resources, ("xapian",))
        assert degraded["xapian"].cores == pytest.approx(4.0)
        assert degraded["fluidanimate"].cores == pytest.approx(2.0)
        # Only LC applications feel the burst's bandwidth squeeze.
        assert degraded["xapian"].bandwidth_multiplier == pytest.approx(2.0)
        assert degraded["fluidanimate"].bandwidth_multiplier == pytest.approx(1.0)
        assert injector.degrade(1000.0, resources, ("xapian",)) is resources

    def test_edge_events_are_emitted_once(self):
        tracer = CollectingTracer()
        plan = FaultPlan(faults=(TelemetryDropout(start_s=1.0, duration_s=2.0),))
        injector = FaultInjector(plan, tracer=tracer)
        for step in range(10):
            injector.begin_epoch(step * 0.5)
        injected = [e for e in tracer.events if isinstance(e, FaultInjected)]
        cleared = [e for e in tracer.events if isinstance(e, FaultCleared)]
        assert len(injected) == 1 and injected[0].time_s == 1.0
        assert len(cleared) == 1 and cleared[0].time_s == 3.0

    def test_schedule_on_engine(self):
        tracer = CollectingTracer()
        plan = fault_preset("telemetry-dropout")
        injector = FaultInjector(plan, tracer=tracer)
        engine = Engine()
        count = injector.schedule_on(engine)
        assert count == 2 * len(plan)
        engine.run_all()
        kinds = [type(e) for e in tracer.events]
        assert kinds.count(FaultInjected) == len(plan)
        assert kinds.count(FaultCleared) == len(plan)


class TestRunsUnderFaults:
    def test_ground_truth_faults_change_records(self):
        mix = canonical_mix(0.5, seed=7)
        clean = run_strategy(mix, "unmanaged", DURATION_S, 0.0)
        faulted = run_strategy(
            mix, "unmanaged", DURATION_S, 0.0, faults=fault_preset("load-spike")
        )
        assert clean.records != faulted.records

    def test_telemetry_faults_leave_ground_truth_untouched(self):
        """Unmanaged ignores telemetry, so corrupting its view changes nothing."""
        mix = canonical_mix(0.5, seed=7)
        clean = run_strategy(mix, "unmanaged", DURATION_S, 0.0)
        faulted = run_strategy(
            mix,
            "unmanaged",
            DURATION_S,
            0.0,
            faults=fault_preset("telemetry-dropout"),
        )
        assert clean.records == faulted.records

    @pytest.mark.parametrize(
        "strategy", ["unmanaged", "lc-first", "parties", "clite", "arq"]
    )
    def test_no_scheduler_crashes_and_plans_stay_valid(self, strategy):
        mix = canonical_mix(0.5, seed=7)
        result = run_strategy(
            mix, strategy, DURATION_S, 0.0, faults=fault_preset("chaos")
        )
        node = mix.node
        for record in result.records:
            record.plan.validate(node)

    def test_arq_watchdog_freezes_on_dropout(self):
        tracer = CollectingTracer()
        mix = canonical_mix(0.5, seed=7)
        run_strategy(
            mix,
            "arq",
            DURATION_S,
            0.0,
            tracer=tracer,
            faults=fault_preset("telemetry-dropout"),
        )
        gaps = [e for e in tracer.events if isinstance(e, TelemetryGap)]
        assert gaps, "dropout windows must surface as telemetry gaps"
        watchdog = [
            e
            for e in tracer.events
            if isinstance(e, CooldownStart) and e.region == WATCHDOG_REGION
        ]
        assert watchdog, "ARQ must enter its telemetry-watchdog cooldown"

    @pytest.mark.parametrize("preset", sorted(FAULT_PRESETS))
    def test_seeded_fault_runs_are_deterministic_across_jobs(self, preset):
        mix = canonical_mix(0.5, seed=11)
        plan = fault_preset(preset)
        points = [
            RunPoint(mix, name, DURATION_S, 0.0, faults=plan)
            for name in ("unmanaged", "arq")
        ]
        tracer_serial = CollectingTracer()
        tracer_pooled = CollectingTracer()
        serial = run_many(points, jobs=1, tracer=tracer_serial)
        pooled = run_many(points, jobs=2, tracer=tracer_pooled)
        assert [r.records for r in serial] == [r.records for r in pooled]
        assert tracer_serial.events == tracer_pooled.events

    def test_full_load_spike_is_survivable(self):
        """A spike clamped to 100% load must not break the entropy layer.

        Calibration pins TL_i0 == M_i at max load; float round-off used to
        land one ulp above and raise "QoS target unsatisfiable" mid-run.
        """
        from repro import lc_profile

        for name in ("xapian", "moses", "img-dnn"):
            profile = lc_profile(name)
            assert profile.ideal_latency_ms(1.0) <= profile.threshold_ms
        mix = canonical_mix(1.0, seed=7)
        result = run_strategy(mix, "unmanaged", 10.0, 0.0)
        assert result.records

    def test_api_accepts_faults(self):
        import repro

        summary = repro.run(
            repro.RunConfig(
                strategy="arq",
                duration_s=DURATION_S,
                warmup_s=0.0,
                faults=fault_preset("telemetry-dropout"),
            )
        )
        assert summary.epochs > 0
        assert 0.0 <= summary.mean_e_s <= 1.0

    def test_api_rejects_a_plan_targeting_an_app_outside_the_mix(self):
        import repro

        config = repro.RunConfig(
            strategy="arq",
            duration_s=DURATION_S,
            faults=FaultPlan(
                faults=(
                    LoadSpike(application="nosuchapp", start_s=1.0, duration_s=3.0),
                )
            ),
        )
        with pytest.raises(FaultError, match="nosuchapp"):
            repro.run(config)
        with pytest.raises(FaultError, match="nosuchapp"):
            repro.compare(config, strategies=("arq",), jobs=1)
