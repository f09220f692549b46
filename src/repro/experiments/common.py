"""Shared experiment setup: canonical mixes, strategies and run helpers."""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.check.invariants import CheckConfig
from repro.cluster.collocation import BEMember, Collocation, LCMember
from repro.errors import ConfigurationError
from repro.cluster.run import RunResult, run_collocation
from repro.faults.plan import FaultPlan
from repro.obs.events import Tracer
from repro.obs.metrics import MetricsRegistry
from repro.obs.windows import WindowConfig, WindowedTracer
from repro.parallel import RunPoint, run_many
from repro.schedulers.arq import ARQScheduler
from repro.schedulers.base import Scheduler
from repro.schedulers.clite import CLITEScheduler
from repro.schedulers.lc_first import LCFirstScheduler
from repro.schedulers.parties import PartiesScheduler
from repro.schedulers.unmanaged import UnmanagedScheduler
from repro.server.spec import NodeSpec, PAPER_NODE
from repro.workloads.loadgen import LoadTrace

#: Default measurement length for one steady-state point. Long enough for
#: PARTIES to converge and CLITE to finish its search budget.
DEFAULT_DURATION_S = 120.0
#: Portion of the run excluded from summaries (controller convergence).
DEFAULT_WARMUP_S = 60.0

#: Factories for the paper's five evaluated strategies (fresh instance per
#: run — schedulers carry internal state).
STRATEGY_FACTORIES: Dict[str, Callable[[], Scheduler]] = {
    "unmanaged": UnmanagedScheduler,
    "lc-first": LCFirstScheduler,
    "parties": PartiesScheduler,
    "clite": CLITEScheduler,
    "arq": ARQScheduler,
}

#: Presentation order used throughout the paper's figures.
STRATEGY_ORDER = ("unmanaged", "lc-first", "parties", "clite", "arq")


def strategy_factory(name: str) -> Callable[[], Scheduler]:
    """Resolve a strategy name — base or composite — to a factory.

    Base names come from :data:`STRATEGY_FACTORIES`; composite
    ``switchback:<a>:<b>:<epochs>[:<phase>]`` names (the A/B harness's
    in-run policy alternation) are parsed into a
    :class:`~repro.experiment.switchback.SwitchbackScheduler` factory.
    Raises :class:`~repro.errors.ConfigurationError` for anything else —
    this is the single resolver the parallel runner's workers use to
    rebuild schedulers from a point's strategy *string*.
    """
    factory = STRATEGY_FACTORIES.get(name)
    if factory is not None:
        return factory
    from repro.experiment.switchback import is_switchback, switchback_factory

    if is_switchback(name):
        return switchback_factory(name)
    raise ConfigurationError(
        f"unknown strategy {name!r}; known strategies: "
        f"{sorted(STRATEGY_FACTORIES)} (or 'switchback:<a>:<b>:<epochs>')"
    )


def known_strategy(name: str) -> bool:
    """Whether :func:`strategy_factory` can resolve ``name``."""
    try:
        strategy_factory(name)
    except ConfigurationError:
        return False
    return True

#: Named mix presets: name → (LC loads, BE applications). ``fig8``/``fig9``
#: are the paper's canonical three-LC mixes at mid load; ``fig12`` is the
#: 6-LC + 2-BE stress collocation. Shared by the CLI's ``--mix`` flag and
#: the verification harness (:mod:`repro.check`).
MIX_PRESETS: Dict[str, Tuple[Dict[str, float], List[str]]] = {
    "canonical": (
        {"xapian": 0.5, "moses": 0.2, "img-dnn": 0.2},
        ["fluidanimate"],
    ),
    "fig8": (
        {"xapian": 0.5, "moses": 0.2, "img-dnn": 0.2},
        ["fluidanimate"],
    ),
    "fig9": (
        {"xapian": 0.5, "moses": 0.2, "img-dnn": 0.2},
        ["stream"],
    ),
    "fig12": (
        {
            name: 0.2
            for name in ("moses", "xapian", "img-dnn", "sphinx", "masstree", "silo")
        },
        ["fluidanimate", "streamcluster"],
    ),
}


def mix_collocation(name: str, seed: int = 2023) -> Collocation:
    """Build the named :data:`MIX_PRESETS` mix as a collocation."""
    if name not in MIX_PRESETS:
        from repro.errors import ConfigurationError

        raise ConfigurationError(
            f"unknown mix {name!r}; known mixes: {sorted(MIX_PRESETS)}"
        )
    lc_loads, be_names = MIX_PRESETS[name]
    return make_collocation(dict(lc_loads), list(be_names), seed=seed)

#: Process-wide quick-mode switch, set by the CLI's ``--quick`` flag.
#: Experiment modules consult :func:`quick_mode` to shrink their sweeps
#: (shorter runs, fewer grid points) for smoke tests and CI.
_quick_mode = False


def set_quick(enabled: bool) -> None:
    """Turn experiment quick mode on or off (see :func:`quick_mode`)."""
    global _quick_mode
    _quick_mode = bool(enabled)


def quick_mode() -> bool:
    """Whether experiments should run their reduced smoke-test sweeps."""
    return _quick_mode


def make_collocation(
    lc_loads: Dict[str, Union[float, LoadTrace]],
    be_names: Sequence[str],
    spec: NodeSpec = PAPER_NODE,
    seed: int = 2023,
) -> Collocation:
    """Build a collocation from catalog names and load levels."""
    return Collocation(
        lc=tuple(LCMember.of(name, load) for name, load in lc_loads.items()),
        be=tuple(BEMember.of(name) for name in be_names),
        spec=spec,
        seed=seed,
    )


def canonical_mix(
    xapian_load: Union[float, LoadTrace],
    moses_load: Union[float, LoadTrace] = 0.2,
    imgdnn_load: Union[float, LoadTrace] = 0.2,
    be_name: str = "fluidanimate",
    spec: NodeSpec = PAPER_NODE,
    seed: int = 2023,
) -> Collocation:
    """The paper's canonical mix: Xapian + Moses + Img-dnn + one BE app."""
    return make_collocation(
        {"xapian": xapian_load, "moses": moses_load, "img-dnn": imgdnn_load},
        [be_name],
        spec=spec,
        seed=seed,
    )


def run_strategy(
    collocation: Collocation,
    strategy: str,
    duration_s: float = DEFAULT_DURATION_S,
    warmup_s: float = DEFAULT_WARMUP_S,
    *,
    tracer: Optional[Tracer] = None,
    metrics: Optional[MetricsRegistry] = None,
    faults: Optional[FaultPlan] = None,
    checks: Optional[Union[CheckConfig, str]] = None,
    windows: Optional[Union[WindowConfig, WindowedTracer, int, float]] = None,
) -> RunResult:
    """Run one named strategy on a collocation."""
    scheduler = STRATEGY_FACTORIES[strategy]()
    return run_collocation(
        collocation,
        scheduler,
        duration_s,
        warmup_s,
        tracer=tracer,
        metrics=metrics,
        faults=faults,
        checks=checks,
        windows=windows,
    )


def run_strategies(
    collocation: Collocation,
    strategies: Sequence[str] = STRATEGY_ORDER,
    duration_s: float = DEFAULT_DURATION_S,
    warmup_s: float = DEFAULT_WARMUP_S,
    jobs: Optional[int] = None,
    *,
    tracer: Optional[Tracer] = None,
    metrics: Optional[MetricsRegistry] = None,
    faults: Optional[FaultPlan] = None,
    checks: Optional[Union[CheckConfig, str]] = None,
    windows: Optional[Union[WindowConfig, int, float]] = None,
) -> Dict[str, RunResult]:
    """Run several strategies on the same collocation.

    Independent strategies fan out across ``jobs`` worker processes
    (``None`` → CLI ``--jobs`` / ``$REPRO_JOBS`` / CPU count); results are
    identical to the serial path and keyed in ``strategies`` order.
    ``tracer``/``metrics`` follow :func:`repro.parallel.run_many`'s
    deterministic aggregation rules. ``faults`` applies the same
    deterministic fault plan to every strategy's run; ``checks`` arms the
    invariant checker in every run (see
    :func:`repro.cluster.run.run_collocation`); ``windows`` arms bounded
    streaming window aggregation in every run (each result carries its
    own :attr:`~repro.cluster.run.RunResult.window_report`).
    """
    check_config = None if checks is None else CheckConfig.of(checks)
    window_config = None if windows is None else WindowConfig.of(windows)
    points = [
        RunPoint(
            collocation, name, duration_s, warmup_s, faults=faults,
            checks=check_config, windows=window_config,
        )
        for name in strategies
    ]
    return dict(
        zip(strategies, run_many(points, jobs=jobs, tracer=tracer, metrics=metrics))
    )
