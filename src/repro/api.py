"""The high-level facade: configure, run, compare — one import.

For scripts and notebooks that do not need the full object model::

    import repro

    summary = repro.run(repro.RunConfig(strategy="arq", duration_s=60))
    print(summary.mean_e_s)
    print(summary.to_json())

    by_strategy = repro.compare(repro.RunConfig(duration_s=60))
    best = min(by_strategy.values(), key=lambda s: s.mean_e_s)

:class:`RunConfig` is a declarative run description (strategy, mix, length,
seed); :func:`run` executes it and returns a :class:`RunSummary` — the same
headline numbers :func:`repro.obs.export.summary_dict` reports, as typed
attributes, with the full :class:`~repro.cluster.run.RunResult` attached
for drill-down. Observability plugs in through the same keyword-only
``tracer``/``metrics`` arguments the low-level entry points take.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, replace
from typing import Dict, Mapping, Optional, Sequence, Tuple, Union

from repro.check.invariants import CheckConfig
from repro.cluster.collocation import Collocation
from repro.cluster.run import RunResult

# Datacenter-scale entry points, re-exported so facade users can scale
# from one collocation to a sharded cluster without a second import home.
from repro.datacenter import (  # noqa: F401
    BinPackingPlacement,
    ClusterFaultPlan,
    Datacenter,
    DatacenterCheckpoint,
    DatacenterTimeline,
    EntropyGuidedMigration,
    Quarantine,
    cluster_fault_preset,
    migration_policy,
)
from repro.errors import ConfigurationError
from repro.experiment.design import DESIGN_NAMES
from repro.experiment.harness import ABResult
from repro.experiments.common import (
    DEFAULT_DURATION_S,
    MIX_PRESETS,
    STRATEGY_FACTORIES,
    STRATEGY_ORDER,
    make_collocation,
    run_strategies,
    run_strategy,
)
from repro.faults.plan import FaultPlan, check_targets
from repro.obs.events import Tracer
from repro.obs.metrics import MetricsRegistry
from repro.obs.windows import WindowConfig, WindowSummary

#: The canonical three-LC mix at mid load (the paper's workhorse).
DEFAULT_LC_LOADS: Mapping[str, float] = {
    "xapian": 0.5,
    "moses": 0.2,
    "img-dnn": 0.2,
}
#: The canonical best-effort companion.
DEFAULT_BE_APPS: Tuple[str, ...] = ("fluidanimate",)


@dataclass(frozen=True)
class RunConfig:
    """A declarative description of one collocation run.

    Attributes
    ----------
    strategy:
        One of :data:`repro.experiments.common.STRATEGY_ORDER`.
    lc_loads:
        Latency-critical applications (catalog names) mapped to their load
        fraction of maximum throughput.
    be_apps:
        Best-effort applications (catalog names).
    duration_s / warmup_s:
        Run length and the window excluded from summaries (``None`` →
        :func:`repro.cluster.run.run_collocation`'s 20% default).
    seed:
        Master seed; every random stream derives from it, so equal configs
        produce bit-identical results.
    faults:
        Optional deterministic :class:`~repro.faults.plan.FaultPlan`
        applied on the simulated clock (see :mod:`repro.faults`); fault
        effects are pure functions of time, so faulted runs stay
        bit-reproducible too. :func:`run` and :func:`compare` raise
        :class:`~repro.errors.FaultError` for a plan that targets an
        application outside the mix.
    checks:
        Optional runtime verification (see :mod:`repro.check`): ``"warn"``
        (or a :class:`~repro.check.invariants.CheckConfig`) collects
        invariant violations on the result, ``"strict"`` raises
        :class:`~repro.errors.CheckError` at the first one.
    windows:
        Optional bounded streaming aggregation (see
        :mod:`repro.obs.windows`): a
        :class:`~repro.obs.windows.WindowConfig` (or a bare ``dt_s``
        number) folds the run's event stream into a ring of fixed-``Δ``
        time windows at O(``keep``) memory, returned via
        :meth:`RunSummary.windows` and queryable with
        :func:`~repro.obs.windows.why_slow`.
    """

    strategy: str = "arq"
    lc_loads: Mapping[str, float] = field(
        default_factory=lambda: dict(DEFAULT_LC_LOADS)
    )
    be_apps: Tuple[str, ...] = DEFAULT_BE_APPS
    duration_s: float = DEFAULT_DURATION_S
    warmup_s: Optional[float] = None
    seed: int = 2023
    faults: Optional[FaultPlan] = None
    checks: Optional[Union[CheckConfig, str]] = None
    windows: Optional[Union[WindowConfig, int, float]] = None

    def __post_init__(self) -> None:
        if self.strategy not in STRATEGY_FACTORIES:
            raise ConfigurationError(
                f"unknown strategy {self.strategy!r}; choose from "
                f"{sorted(STRATEGY_FACTORIES)}"
            )
        if not self.lc_loads:
            raise ConfigurationError("a run needs at least one LC application")
        if self.checks is not None:
            # Normalise the "warn"/"strict" shorthands once, at the edge.
            object.__setattr__(self, "checks", CheckConfig.of(self.checks))
        if self.windows is not None:
            # Same edge normalisation for the window shorthand.
            object.__setattr__(self, "windows", WindowConfig.of(self.windows))

    def collocation(self) -> Collocation:
        """The :class:`~repro.cluster.collocation.Collocation` described."""
        return make_collocation(
            dict(self.lc_loads), list(self.be_apps), seed=self.seed
        )

    def with_strategy(self, strategy: str) -> "RunConfig":
        """This config with a different strategy (validated)."""
        return replace(self, strategy=strategy)


@dataclass(frozen=True)
class RunSummary:
    """A run's headline numbers as a typed, serialisable record."""

    scheduler: str
    seed: int
    epoch_s: float
    warmup_s: float
    epochs: int
    mean_e_lc: float
    mean_e_be: float
    mean_e_s: float
    yield_fraction: float
    violations: int
    mean_tail_ms: Dict[str, float]
    mean_ipc: Dict[str, float]
    #: The full result, for drill-down; excluded from equality/serialisation.
    result: Optional[RunResult] = field(default=None, repr=False, compare=False)

    @classmethod
    def from_result(cls, result: RunResult) -> "RunSummary":
        """Summarise a :class:`~repro.cluster.run.RunResult`."""
        return cls(
            scheduler=result.scheduler_name,
            seed=result.collocation.seed,
            epoch_s=result.collocation.epoch_s,
            warmup_s=result.warmup_s,
            epochs=len(result.records),
            mean_e_lc=result.mean_e_lc(),
            mean_e_be=result.mean_e_be(),
            mean_e_s=result.mean_e_s(),
            yield_fraction=result.yield_fraction(),
            violations=result.violation_count(),
            mean_tail_ms=result.mean_tail_latencies_ms(),
            mean_ipc=result.mean_ipcs(),
            result=result,
        )

    def windows(self) -> WindowSummary:
        """The run's bounded window summary (requires ``windows=`` config).

        Raises :class:`~repro.errors.ConfigurationError` when the run was
        not started with window aggregation — pass
        ``RunConfig(windows=WindowConfig(dt_s=..., keep=...))`` (or a bare
        ``dt_s`` number) to arm it.
        """
        report = self.result.window_report if self.result is not None else None
        if report is None:
            raise ConfigurationError(
                "this run was not window-aggregated; set RunConfig.windows "
                "(e.g. windows=WindowConfig(dt_s=1.0, keep=256))"
            )
        return report

    def to_dict(self) -> Dict[str, object]:
        """A JSON-ready dict (the ``result`` drill-down is omitted)."""
        payload = asdict(self)
        payload.pop("result", None)
        return payload

    def to_json(self, indent: Optional[int] = 2) -> str:
        """The summary serialised as JSON."""
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)


def run(
    config: Optional[RunConfig] = None,
    *,
    tracer: Optional[Tracer] = None,
    metrics: Optional[MetricsRegistry] = None,
    **overrides: object,
) -> RunSummary:
    """Execute one run described by ``config`` (or keyword overrides).

    ``run()`` with no arguments runs ARQ on the canonical mix;
    ``run(strategy="parties", duration_s=60)`` tweaks fields without
    building a :class:`RunConfig` by hand. ``tracer``/``metrics`` attach
    observability exactly as in
    :func:`repro.cluster.run.run_collocation`.
    """
    if config is None:
        config = RunConfig(**overrides)  # type: ignore[arg-type]
    elif overrides:
        config = replace(config, **overrides)  # type: ignore[arg-type]
    result = run_strategy(
        _checked_collocation(config),
        config.strategy,
        config.duration_s,
        _warmup_of(config),
        tracer=tracer,
        metrics=metrics,
        faults=config.faults,
        checks=config.checks,
        windows=config.windows,
    )
    return RunSummary.from_result(result)


def compare(
    config: Optional[RunConfig] = None,
    strategies: Sequence[str] = STRATEGY_ORDER,
    jobs: Optional[int] = None,
    *,
    tracer: Optional[Tracer] = None,
    metrics: Optional[MetricsRegistry] = None,
    **overrides: object,
) -> Dict[str, RunSummary]:
    """Run several strategies on the same mix, keyed in ``strategies`` order.

    The config's own ``strategy`` field is ignored — every name in
    ``strategies`` runs on the identical collocation, fanned across
    ``jobs`` worker processes with deterministic result, trace and metric
    aggregation.
    """
    if config is None:
        config = RunConfig(**overrides)  # type: ignore[arg-type]
    elif overrides:
        config = replace(config, **overrides)  # type: ignore[arg-type]
    results = run_strategies(
        _checked_collocation(config),
        strategies,
        config.duration_s,
        _warmup_of(config),
        jobs=jobs,
        tracer=tracer,
        metrics=metrics,
        faults=config.faults,
        checks=config.checks,
        windows=config.windows,
    )
    return {
        name: RunSummary.from_result(result) for name, result in results.items()
    }


def _checked_collocation(config: RunConfig) -> Collocation:
    """The config's collocation, after checking its fault plan's targets.

    A user plan that names an application outside the mix raises
    :class:`~repro.errors.FaultError` instead of injecting nothing.
    """
    collocation = config.collocation()
    if config.faults is not None:
        check_targets(
            config.faults, [m.name for m in (*collocation.lc, *collocation.be)]
        )
    return collocation


def _warmup_of(config: RunConfig) -> float:
    """The effective warm-up window (the run loop's 20% default)."""
    return (
        config.warmup_s if config.warmup_s is not None else 0.2 * config.duration_s
    )


@dataclass(frozen=True)
class ABConfig:
    """A declarative description of one policy A/B comparison.

    ``policy_a``/``policy_b`` are base strategy names; ``mix`` is a
    :data:`repro.experiments.common.MIX_PRESETS` key; ``design`` names a
    trial design from :data:`repro.experiment.design.DESIGN_NAMES`
    (``"paired"`` shares one seed and load draw per trial across both
    arms, ``"switchback"`` alternates both policies inside single runs,
    ``"interleaved"`` assigns arms to independent runs alternately).
    ``duration_s``/``warmup_s`` of ``None`` defer to the design's own
    timing. Equal configs produce byte-identical
    :class:`~repro.experiment.harness.ABResult` values at any job count.
    """

    policy_a: str = "arq"
    policy_b: str = "unmanaged"
    mix: str = "canonical"
    design: str = "paired"
    trials: int = 20
    duration_s: Optional[float] = None
    warmup_s: Optional[float] = None
    seed: int = 2023

    def __post_init__(self) -> None:
        for label, policy in (("policy_a", self.policy_a), ("policy_b", self.policy_b)):
            if policy not in STRATEGY_FACTORIES:
                raise ConfigurationError(
                    f"{label}={policy!r} is not a strategy; choose from "
                    f"{sorted(STRATEGY_FACTORIES)}"
                )
        if self.mix not in MIX_PRESETS:
            raise ConfigurationError(
                f"unknown mix {self.mix!r}; known mixes: {sorted(MIX_PRESETS)}"
            )
        if self.design not in DESIGN_NAMES:
            raise ConfigurationError(
                f"unknown design {self.design!r}; choose from {DESIGN_NAMES}"
            )
        if self.trials < 2:
            raise ConfigurationError(
                f"an A/B comparison needs >= 2 trials, got {self.trials}"
            )


def ab(
    config: Optional[ABConfig] = None,
    *,
    jobs: Optional[int] = None,
    **overrides: object,
) -> "ABResult":
    """Run the policy A/B comparison described by ``config``.

    ``ab()`` with no arguments compares ARQ against Unmanaged on the
    canonical mix with the paired design;
    ``ab(policy_b="clite", design="switchback")`` tweaks fields without
    building an :class:`ABConfig` by hand. Returns the
    :class:`~repro.experiment.harness.ABResult` with per-metric naive /
    paired / Differences-in-Q estimates and 95% confidence intervals.
    """
    from repro.experiment.harness import ab_compare

    if config is None:
        config = ABConfig(**overrides)  # type: ignore[arg-type]
    elif overrides:
        config = replace(config, **overrides)  # type: ignore[arg-type]
    return ab_compare(
        config.policy_a,
        config.policy_b,
        mix=config.mix,
        design=config.design,
        trials=config.trials,
        duration_s=config.duration_s,
        warmup_s=config.warmup_s,
        seed=config.seed,
        jobs=jobs,
    )
