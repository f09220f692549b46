"""Ah-Q: system entropy and the ARQ scheduler — an HPCA 2023 reproduction.

The public API in one import::

    from repro import (
        run, compare, RunConfig, RunSummary,   # the high-level facade
        Collocation, LCMember, BEMember,       # describe a collocation
        ARQScheduler, PartiesScheduler, ...,   # pick a strategy
        run_collocation,                        # run it
        system_entropy, lc_entropy, be_entropy  # the theory
    )

Datacenter scale lives in :mod:`repro.datacenter`: placements pack a
population of members onto nodes, :class:`Datacenter` shards the node
runs over the warm worker pool (byte-identical at any ``jobs``), and
:class:`EntropyGuidedMigration` rebalances between global epochs using
measured per-node ``E_S`` as the interference score — the headline names
are re-exported here.

Observability lives in :mod:`repro.obs`: structured trace events
(``repro.obs.events``), a metrics registry (``repro.obs.metrics``),
bounded streaming time windows with the ``why_slow`` provenance query
(``repro.obs.windows``/``repro.obs.stream``) and exporters
(``repro.obs.export``); the most-used entry points are re-exported here.

See ``DESIGN.md`` for the module inventory and ``EXPERIMENTS.md`` for the
paper-vs-measured record of every table and figure.
"""

from repro.api import ABConfig, RunConfig, RunSummary, ab, compare, run
from repro.check import (
    CheckConfig,
    CheckingTracer,
    LittlesLawReport,
    check_trace,
    littles_law_report,
)
from repro.check.differential import differential_check
from repro.cluster import (
    BEMember,
    Collocation,
    LCMember,
    RunResult,
    run_collocation,
)
from repro.datacenter import (
    Assignment,
    BinPackingPlacement,
    ClusterFaultPlan,
    Datacenter,
    DatacenterCheckpoint,
    DatacenterTimeline,
    EntropyGuidedMigration,
    MigrationPolicy,
    Move,
    NodeCrash,
    NodeFaultSpec,
    NodeFlap,
    NodeStraggle,
    Placement,
    Quarantine,
    ShardReport,
    SummaryCorruption,
    SummaryLoss,
    cluster_fault_preset,
    migration_policy,
)
from repro.experiment import (
    ABResult,
    Estimate,
    InterleavedDesign,
    PairedDesign,
    SwitchbackDesign,
    SwitchbackScheduler,
    TrialMetrics,
    ab_compare,
    design_of,
    difference_in_means,
    dq_difference,
    paired_difference,
)
from repro.errors import (
    AllocationError,
    CheckError,
    ConfigurationError,
    FaultError,
    MeasurementError,
    ModelError,
    ReproError,
    SchedulingError,
    SimulationError,
    TelemetryCorruptionError,
    UnknownApplicationError,
)
from repro.faults import (
    BEBurst,
    CapacityDegradation,
    FaultInjector,
    FaultPlan,
    FaultSpec,
    LoadSpike,
    QpsRamp,
    TelemetryCorruption,
    TelemetryDropout,
    fault_preset,
)
from repro.parallel import (
    ParallelRunError,
    PointFailure,
    RunGrid,
    RunPoint,
    run_many,
)
from repro.entropy import (
    BEObservation,
    LCObservation,
    SystemObservation,
    be_entropy,
    lc_entropy,
    resource_equivalence,
    system_entropy,
)
from repro.schedulers import (
    ARQScheduler,
    CLITEScheduler,
    LCFirstScheduler,
    PartiesScheduler,
    RegionPlan,
    Scheduler,
    StaticScheduler,
    UnmanagedScheduler,
)
from repro.obs.events import (
    CheckpointWritten,
    CollectingTracer,
    InvariantViolation,
    NodeQuarantined,
    NodeRecovered,
    NullTracer,
    TraceEvent,
    Tracer,
    compose_tracers,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.windows import (
    WhySlowReport,
    WindowConfig,
    WindowSummary,
    WindowedTracer,
    merge_window_summaries,
    why_slow,
)
from repro.server import NodeSpec, PAPER_NODE, ResourceVector, ServerNode
from repro.workloads import (
    BE_APPLICATIONS,
    LC_APPLICATIONS,
    ConstantLoad,
    DiurnalLoad,
    FluctuatingLoad,
    TimeShiftedLoad,
    be_profile,
    lc_profile,
)

__version__ = "1.0.0"

__all__ = [
    "ABConfig",
    "ABResult",
    "ARQScheduler",
    "AllocationError",
    "Assignment",
    "BEBurst",
    "BEMember",
    "BEObservation",
    "BE_APPLICATIONS",
    "BinPackingPlacement",
    "CLITEScheduler",
    "CapacityDegradation",
    "CheckConfig",
    "CheckError",
    "CheckingTracer",
    "CheckpointWritten",
    "ClusterFaultPlan",
    "CollectingTracer",
    "Collocation",
    "ConfigurationError",
    "ConstantLoad",
    "Datacenter",
    "DatacenterCheckpoint",
    "DatacenterTimeline",
    "DiurnalLoad",
    "EntropyGuidedMigration",
    "Estimate",
    "FaultError",
    "FaultInjector",
    "FaultPlan",
    "FaultSpec",
    "FluctuatingLoad",
    "InterleavedDesign",
    "InvariantViolation",
    "LCFirstScheduler",
    "LCMember",
    "LCObservation",
    "LC_APPLICATIONS",
    "LittlesLawReport",
    "LoadSpike",
    "MeasurementError",
    "MetricsRegistry",
    "MigrationPolicy",
    "ModelError",
    "Move",
    "NodeCrash",
    "NodeFaultSpec",
    "NodeFlap",
    "NodeQuarantined",
    "NodeRecovered",
    "NodeSpec",
    "NodeStraggle",
    "NullTracer",
    "PAPER_NODE",
    "PairedDesign",
    "ParallelRunError",
    "PartiesScheduler",
    "Placement",
    "PointFailure",
    "QpsRamp",
    "Quarantine",
    "RegionPlan",
    "ReproError",
    "ResourceVector",
    "RunConfig",
    "RunGrid",
    "RunPoint",
    "RunResult",
    "RunSummary",
    "Scheduler",
    "SchedulingError",
    "ServerNode",
    "ShardReport",
    "SimulationError",
    "StaticScheduler",
    "SummaryCorruption",
    "SummaryLoss",
    "SwitchbackDesign",
    "SwitchbackScheduler",
    "SystemObservation",
    "TelemetryCorruption",
    "TelemetryCorruptionError",
    "TelemetryDropout",
    "TimeShiftedLoad",
    "TraceEvent",
    "Tracer",
    "TrialMetrics",
    "UnknownApplicationError",
    "UnmanagedScheduler",
    "WhySlowReport",
    "WindowConfig",
    "WindowSummary",
    "WindowedTracer",
    "ab",
    "ab_compare",
    "be_entropy",
    "be_profile",
    "check_trace",
    "cluster_fault_preset",
    "compare",
    "compose_tracers",
    "design_of",
    "difference_in_means",
    "differential_check",
    "dq_difference",
    "fault_preset",
    "lc_entropy",
    "lc_profile",
    "littles_law_report",
    "merge_window_summaries",
    "migration_policy",
    "paired_difference",
    "resource_equivalence",
    "run",
    "run_collocation",
    "run_many",
    "system_entropy",
    "why_slow",
]
