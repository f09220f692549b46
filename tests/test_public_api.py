"""The top-level public API surface.

A downstream user should be able to do everything through ``repro``'s
top-level names; this pins the surface — exactly, not as a subset — so
refactors don't silently break or bloat imports. It also pins the
constructor convention: every scheduler takes keyword-only arguments
ending in the common ``name``/``tracer`` tail.
"""

from __future__ import annotations

import inspect

import pytest

import repro


#: The frozen public surface. Additions and removals are API changes and
#: must be made here deliberately, in the same commit.
EXPECTED_PUBLIC_NAMES = {
    # facade
    "run",
    "compare",
    "RunConfig",
    "RunSummary",
    "ab",
    "ABConfig",
    # A/B experimentation
    "ABResult",
    "Estimate",
    "TrialMetrics",
    "PairedDesign",
    "SwitchbackDesign",
    "InterleavedDesign",
    "SwitchbackScheduler",
    "ab_compare",
    "design_of",
    "difference_in_means",
    "paired_difference",
    "dq_difference",
    # collocation description + running
    "Collocation",
    "LCMember",
    "BEMember",
    "RunResult",
    "run_collocation",
    # parallel fan-out
    "ParallelRunError",
    "RunGrid",
    "RunPoint",
    "run_many",
    "PointFailure",
    # datacenter scale
    "Assignment",
    "BinPackingPlacement",
    "Datacenter",
    "DatacenterTimeline",
    "EntropyGuidedMigration",
    "MigrationPolicy",
    "Move",
    "Placement",
    "ShardReport",
    "migration_policy",
    # datacenter chaos + recovery
    "ClusterFaultPlan",
    "NodeFaultSpec",
    "NodeCrash",
    "NodeStraggle",
    "NodeFlap",
    "SummaryLoss",
    "SummaryCorruption",
    "cluster_fault_preset",
    "Quarantine",
    "DatacenterCheckpoint",
    "NodeQuarantined",
    "NodeRecovered",
    "CheckpointWritten",
    # errors
    "ReproError",
    "ConfigurationError",
    "AllocationError",
    "SchedulingError",
    "SimulationError",
    "MeasurementError",
    "ModelError",
    "UnknownApplicationError",
    "FaultError",
    "TelemetryCorruptionError",
    # fault injection
    "FaultPlan",
    "FaultSpec",
    "FaultInjector",
    "fault_preset",
    "LoadSpike",
    "QpsRamp",
    "TelemetryDropout",
    "TelemetryCorruption",
    "CapacityDegradation",
    "BEBurst",
    # theory
    "LCObservation",
    "BEObservation",
    "SystemObservation",
    "lc_entropy",
    "be_entropy",
    "system_entropy",
    "resource_equivalence",
    # strategies
    "Scheduler",
    "RegionPlan",
    "ARQScheduler",
    "CLITEScheduler",
    "LCFirstScheduler",
    "PartiesScheduler",
    "StaticScheduler",
    "UnmanagedScheduler",
    # observability
    "Tracer",
    "TraceEvent",
    "NullTracer",
    "CollectingTracer",
    "compose_tracers",
    "MetricsRegistry",
    # streaming windows + provenance
    "WindowConfig",
    "WindowSummary",
    "WindowedTracer",
    "WhySlowReport",
    "merge_window_summaries",
    "why_slow",
    # verification
    "CheckConfig",
    "CheckError",
    "CheckingTracer",
    "InvariantViolation",
    "LittlesLawReport",
    "check_trace",
    "differential_check",
    "littles_law_report",
    # platform + workloads
    "NodeSpec",
    "PAPER_NODE",
    "ResourceVector",
    "ServerNode",
    "LC_APPLICATIONS",
    "BE_APPLICATIONS",
    "lc_profile",
    "be_profile",
    "ConstantLoad",
    "FluctuatingLoad",
    "DiurnalLoad",
    "TimeShiftedLoad",
}

SCHEDULER_CLASSES = [
    repro.ARQScheduler,
    repro.CLITEScheduler,
    repro.LCFirstScheduler,
    repro.PartiesScheduler,
    repro.StaticScheduler,
    repro.SwitchbackScheduler,
    repro.UnmanagedScheduler,
]


def test_all_is_exactly_the_frozen_surface():
    assert set(repro.__all__) == EXPECTED_PUBLIC_NAMES


def test_all_is_sorted_and_unique():
    assert repro.__all__ == sorted(set(repro.__all__))


def test_all_names_importable():
    for name in repro.__all__:
        assert getattr(repro, name) is not None


def test_version():
    assert repro.__version__


@pytest.mark.parametrize("cls", SCHEDULER_CLASSES, ids=lambda c: c.__name__)
def test_scheduler_constructors_keyword_only(cls):
    """No scheduler accepts positional configuration."""
    signature = inspect.signature(cls.__init__)
    positional = [
        parameter
        for parameter in signature.parameters.values()
        if parameter.kind
        in (inspect.Parameter.POSITIONAL_ONLY, inspect.Parameter.POSITIONAL_OR_KEYWORD)
        and parameter.name != "self"
    ]
    assert not positional, f"{cls.__name__} takes positional args: {positional}"


@pytest.mark.parametrize("cls", SCHEDULER_CLASSES, ids=lambda c: c.__name__)
def test_scheduler_constructors_share_the_common_tail(cls):
    """Every scheduler constructor ends with ``name=None, tracer=None``."""
    names = list(inspect.signature(cls.__init__).parameters)
    assert names[-2:] == ["name", "tracer"], f"{cls.__name__}: {names}"
    parameters = inspect.signature(cls.__init__).parameters
    assert parameters["name"].default is None
    assert parameters["tracer"].default is None


def test_docstrings_everywhere():
    """Every public module, class and function carries a docstring."""
    import importlib
    import pkgutil

    missing = []
    for module_info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        module = importlib.import_module(module_info.name)
        if not module.__doc__:
            missing.append(module_info.name)
        for name, obj in vars(module).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != (
                module_info.name
            ):
                continue
            if inspect.isclass(obj) or inspect.isfunction(obj):
                if not inspect.getdoc(obj):
                    missing.append(f"{module_info.name}.{name}")
    assert not missing, f"missing docstrings: {missing}"
