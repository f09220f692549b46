"""Command-line interface: ``python -m repro <command>``.

Six commands:

* ``run`` — run one strategy on a named mix and print the summary
  (optionally exporting per-epoch samples, traces and metrics);
* ``compare`` — run several strategies on the same mix side by side;
* ``experiment`` — regenerate one of the paper's tables/figures by name;
* ``check`` — the verification harness: golden-trace regression,
  differential cross-checks and Little's-law consistency
  (``--regen`` rewrites the fixtures, ``--strict`` demands
  byte-identical traces);
* ``windows`` — streaming window analytics over a recorded trace:
  ``windows why-slow`` ranks the causes of a tail-latency spike,
  ``windows dump`` exports bounded per-window aggregates;
* ``datacenter`` — the sharded global epoch loop: a diurnal population
  on ``--nodes`` machines, optional ``--migration entropy``
  rebalancing, results byte-identical at any ``--jobs``
  (``--json PATH`` dumps the canonical timeline for diffing).
  ``--chaos SPEC`` (a preset name or a fault-plan JSON file) runs the
  degraded-mode loop — crashed nodes are quarantined and their tenants
  failed over; ``--retries N`` retries transient node failures;
  ``--checkpoint PATH``/``--checkpoint-every K``/``--resume`` snapshot
  the loop every K epochs and resume byte-identically after a kill.

Examples::

    python -m repro run --strategy arq --xapian 0.7 --be stream
    python -m repro run --mix fig8 --trace t.jsonl --metrics m.prom
    python -m repro compare --xapian 0.9 --duration 120
    python -m repro experiment table2
    python -m repro experiment fig10 --jobs 4
    python -m repro experiment fig15 --quick
    python -m repro check --strict --jobs 2
    python -m repro check --regen --mix canonical
    python -m repro run --mix fig8 --window 1.0 --windows-out w.csv
    python -m repro windows why-slow trace.jsonl --t0 30 --t1 40
    python -m repro windows dump trace.jsonl --out windows.jsonl
    python -m repro datacenter --nodes 200 --epochs 4 --jobs 4
    python -m repro datacenter --nodes 200 --migration entropy --json dc.json
    python -m repro datacenter --nodes 48 --chaos rolling --retries 1
    python -m repro datacenter --checkpoint ck.json --checkpoint-every 2
    python -m repro datacenter --epochs 8 --checkpoint ck.json --resume

``--jobs N`` (or ``REPRO_JOBS=N``) fans independent runs across N worker
processes; results are bit-identical for any worker count. The default is
the machine's CPU count.

Observability flags (``run``/``compare``): ``--trace PATH`` writes the
structured event stream as JSONL, ``--metrics PATH`` writes the run's
metric registry (``.csv`` or Prometheus text by extension), ``--verbose``
narrates scheduler activity live, and ``--quiet`` suppresses all stdout
reporting (exports still happen). ``--window DT`` folds the event stream
into bounded time windows as the run executes (``--window-keep K`` sets
the ring size) and ``--windows-out PATH`` dumps the per-window aggregates
(``.csv``/``.jsonl``/Prometheus by extension).

Fault injection (``run``/``compare``): ``--faults plan.json`` loads a
:class:`~repro.faults.plan.FaultPlan` from disk, while
``--fault-preset NAME`` (with optional ``--fault-intensity X``) uses one
of the built-in campaigns (``telemetry-dropout``, ``chaos``, ...). Fault
effects are pure functions of the simulated clock, so faulted runs stay
bit-reproducible. ``experiment ... --quick`` runs an experiment's reduced
smoke-test sweep.

Errors: any :class:`~repro.errors.ReproError` (bad configuration, unknown
preset, ...) prints one ``error: <message>`` line to stderr and exits
with status 2.
"""

from __future__ import annotations

import argparse
import sys
from typing import Callable, Dict, List, Optional, Tuple

from repro.check.differential import differential_check
from repro.check.golden import (
    DEFAULT_GOLDEN_DIR,
    GOLDEN_MIXES,
    compare_cases,
    default_cases,
    record_cases,
)
from repro.check.invariants import littles_law_report
from repro.errors import FaultError, ReproError
from repro.experiment.design import DESIGN_NAMES
from repro.experiments.common import (
    MIX_PRESETS,
    STRATEGY_FACTORIES,
    STRATEGY_ORDER,
    canonical_mix,
    make_collocation,
    run_strategies,
    set_quick,
)
from repro.datacenter.chaos import CLUSTER_FAULT_PRESETS
from repro.datacenter.migration import MIGRATION_POLICIES
from repro.faults.plan import (
    FAULT_PRESETS,
    FaultPlan,
    check_targets,
    fault_preset,
)
from repro.experiments.reporting import ascii_table
from repro.cluster.collocation import Collocation
from repro.cluster.run import run_collocation
from repro.obs.events import Tracer, compose_tracers
from repro.obs.export import (
    JsonlTraceWriter,
    NarratorTracer,
    say,
    set_quiet,
    summary_dict,
    write_csv,
    write_json,
    write_metrics,
    write_windows,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.stream import fold_trace
from repro.obs.windows import (
    WindowConfig,
    merge_window_summaries,
    why_slow,
)
from repro.parallel import set_default_jobs

#: Experiment name → zero-argument callable printing the artefact.
_EXPERIMENTS: Dict[str, str] = {
    "fig1": "repro.experiments.fig1_example",
    "table2": "repro.experiments.table2_resource_sensitivity",
    "fig2": "repro.experiments.fig2_resource_surface",
    "fig3": "repro.experiments.fig3_equivalence",
    "fig4": "repro.experiments.fig4_spacetime",
    "fig5_fig6": "repro.experiments.fig5_fig6_snapshots",
    "fig7": "repro.experiments.fig7_load_curves",
    "fig8": "repro.experiments.fig8_fluidanimate",
    "fig9": "repro.experiments.fig9_stream",
    "fig10": "repro.experiments.fig10_heatmap",
    "fig11": "repro.experiments.fig11_sphinx_mix",
    "fig12": "repro.experiments.fig12_eight_apps",
    "fig13": "repro.experiments.fig13_fluctuating",
    "fig14": "repro.experiments.fig14_resilience",
    "fig15": "repro.experiments.fig15_datacenter",
    "fig16": "repro.experiments.fig16_chaos",
    "fig17": "repro.experiments.fig17_ab",
}

#: ``--mix`` presets — canonically defined in
#: :data:`repro.experiments.common.MIX_PRESETS`; this alias preserves the
#: CLI's historical name.
_MIXES: Dict[str, Tuple[Dict[str, float], List[str]]] = MIX_PRESETS


def _mix_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--mix",
        choices=sorted(_MIXES),
        default=None,
        help="named mix preset (overrides the per-application load flags)",
    )
    parser.add_argument("--xapian", type=float, default=0.5, help="Xapian load")
    parser.add_argument("--moses", type=float, default=0.2, help="Moses load")
    parser.add_argument("--img-dnn", type=float, default=0.2, help="Img-dnn load")
    parser.add_argument(
        "--be",
        default="fluidanimate",
        help="best-effort application (fluidanimate/stream/streamcluster)",
    )
    parser.add_argument("--duration", type=float, default=120.0)
    parser.add_argument("--warmup", type=float, default=None)
    parser.add_argument("--seed", type=int, default=2023)
    _jobs_argument(parser)
    _observability_arguments(parser)
    _fault_arguments(parser)


def _jobs_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--jobs",
        type=int,
        default=None,
        metavar="N",
        help="worker processes for independent runs "
        "(default: $REPRO_JOBS or the CPU count; 1 = serial)",
    )


def _observability_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--trace",
        metavar="PATH",
        default=None,
        help="write the structured event stream as JSONL",
    )
    parser.add_argument(
        "--metrics",
        metavar="PATH",
        default=None,
        help="write run metrics (.csv, else Prometheus text format)",
    )
    parser.add_argument(
        "--verbose",
        action="store_true",
        help="narrate scheduler decisions and violations live",
    )
    parser.add_argument(
        "--quiet",
        action="store_true",
        help="suppress all stdout reporting (file exports still happen)",
    )
    parser.add_argument(
        "--window",
        type=float,
        default=None,
        metavar="DT",
        help="fold the event stream into DT-second windows (bounded memory)",
    )
    parser.add_argument(
        "--window-keep",
        type=int,
        default=256,
        metavar="K",
        help="ring size: keep only the last K windows (default 256)",
    )
    parser.add_argument(
        "--windows-out",
        metavar="PATH",
        default=None,
        help="write per-window aggregates (.csv/.jsonl, else Prometheus); "
        "implies --window 1.0 when --window is not given",
    )


def _window_config(args: argparse.Namespace) -> Optional[WindowConfig]:
    """Resolve the ``--window``/``--window-keep`` flags to a config."""
    if args.window is None and args.windows_out is None:
        return None
    dt_s = args.window if args.window is not None else 1.0
    return WindowConfig(dt_s=dt_s, keep=args.window_keep)


def _fault_arguments(parser: argparse.ArgumentParser) -> None:
    group = parser.add_mutually_exclusive_group()
    group.add_argument(
        "--faults",
        metavar="PATH",
        default=None,
        help="load a deterministic fault plan from a JSON file",
    )
    group.add_argument(
        "--fault-preset",
        choices=sorted(FAULT_PRESETS),
        default=None,
        help="use a built-in fault campaign",
    )
    parser.add_argument(
        "--fault-intensity",
        type=float,
        default=1.0,
        metavar="X",
        help="scale factor for --fault-preset (0 disables, 2 doubles "
        "fault windows; default 1)",
    )


def _fault_plan(
    args: argparse.Namespace, collocation: Collocation
) -> Optional[FaultPlan]:
    """Resolve the ``--faults``/``--fault-preset`` flags to a plan.

    A ``--faults`` file must target only applications in the mix; a
    preset skips any target the mix lacks (see
    :func:`~repro.faults.plan.fault_preset`).
    """
    if args.faults is not None:
        plan = FaultPlan.load(args.faults)
        check_targets(
            plan,
            [m.name for m in (*collocation.lc, *collocation.be)],
            label=f"fault plan {args.faults!r}",
        )
        return plan
    if args.fault_preset is not None:
        plan = fault_preset(args.fault_preset, args.fault_intensity)
        return plan if len(plan) else None
    if args.fault_intensity != 1.0:
        raise FaultError("--fault-intensity requires --fault-preset")
    return None


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Ah-Q reproduction: system entropy + the ARQ scheduler",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    run_parser = commands.add_parser("run", help="run one strategy on a mix")
    run_parser.add_argument(
        "--strategy", choices=sorted(STRATEGY_FACTORIES), default="arq"
    )
    _mix_arguments(run_parser)
    run_parser.add_argument("--csv", help="export per-epoch samples to CSV")
    run_parser.add_argument("--json", help="export summary+samples to JSON")

    compare_parser = commands.add_parser(
        "compare", help="run every strategy on the same mix"
    )
    _mix_arguments(compare_parser)

    experiment_parser = commands.add_parser(
        "experiment", help="regenerate a paper table/figure"
    )
    experiment_parser.add_argument(
        "name",
        choices=sorted(_EXPERIMENTS) + ["ab"],
        help="a committed figure/table, or 'ab' for a policy A/B comparison",
    )
    _jobs_argument(experiment_parser)
    experiment_parser.add_argument(
        "--quiet", action="store_true", help="suppress stdout reporting"
    )
    experiment_parser.add_argument(
        "--quick",
        action="store_true",
        help="run the experiment's reduced smoke-test sweep",
    )
    experiment_parser.add_argument(
        "--a", dest="policy_a", choices=sorted(STRATEGY_FACTORIES),
        default="arq", help="[ab] arm A policy",
    )
    experiment_parser.add_argument(
        "--b", dest="policy_b", choices=sorted(STRATEGY_FACTORIES),
        default="unmanaged", help="[ab] arm B policy",
    )
    experiment_parser.add_argument(
        "--mix", choices=sorted(_MIXES), default="canonical",
        help="[ab] named mix preset",
    )
    experiment_parser.add_argument(
        "--design", choices=sorted(DESIGN_NAMES), default="paired",
        help="[ab] trial design",
    )
    experiment_parser.add_argument(
        "--trials", type=int, default=20, help="[ab] number of design trials"
    )
    experiment_parser.add_argument(
        "--seed", type=int, default=2023, help="[ab] base seed"
    )
    experiment_parser.add_argument(
        "--duration", type=float, default=None,
        help="[ab] per-run duration (defaults to the design's timing)",
    )
    experiment_parser.add_argument(
        "--warmup", type=float, default=None,
        help="[ab] per-run warm-up (defaults to the design's timing)",
    )
    experiment_parser.add_argument(
        "--json", action="store_true",
        help="[ab] print canonical JSON instead of tables",
    )

    check_parser = commands.add_parser(
        "check",
        help="verify golden traces, invariants and strategy ordering",
    )
    check_parser.add_argument(
        "--regen",
        action="store_true",
        help="rewrite the golden fixtures instead of comparing against them",
    )
    check_parser.add_argument(
        "--strict",
        action="store_true",
        help="require byte-identical golden traces (default: float tolerance)",
    )
    check_parser.add_argument(
        "--mix",
        action="append",
        choices=sorted(GOLDEN_MIXES),
        default=None,
        help="restrict to one mix (repeatable; default: all golden mixes)",
    )
    check_parser.add_argument(
        "--golden-dir",
        metavar="DIR",
        default=None,
        help="fixture directory (default: tests/golden in the repository)",
    )
    _jobs_argument(check_parser)
    check_parser.add_argument(
        "--quiet", action="store_true", help="suppress stdout reporting"
    )

    datacenter_parser = commands.add_parser(
        "datacenter",
        help="run the sharded diurnal datacenter simulation",
    )
    datacenter_parser.add_argument(
        "--nodes", type=int, default=200, help="cluster size (default 200)"
    )
    datacenter_parser.add_argument(
        "--epochs", type=int, default=4, help="global epochs (default 4)"
    )
    datacenter_parser.add_argument(
        "--epoch-duration", type=float, default=30.0, metavar="S",
        help="simulated seconds per global epoch (default 30)",
    )
    datacenter_parser.add_argument(
        "--strategy", choices=sorted(STRATEGY_FACTORIES), default="arq",
        help="per-node scheduling strategy (default arq)",
    )
    datacenter_parser.add_argument(
        "--migration", choices=sorted(MIGRATION_POLICIES), default="none",
        help="between-epoch rebalancing policy (default none)",
    )
    datacenter_parser.add_argument(
        "--budget", type=int, default=None, metavar="N",
        help="migration moves per epoch (default: one per eight nodes)",
    )
    datacenter_parser.add_argument(
        "--hysteresis", type=float, default=0.02, metavar="GAP",
        help="minimum donor-recipient E_S gap to justify a move",
    )
    datacenter_parser.add_argument("--seed", type=int, default=2023)
    datacenter_parser.add_argument(
        "--retries", type=int, default=0, metavar="N",
        help="per-node retry attempts on transient failure (default 0)",
    )
    datacenter_parser.add_argument(
        "--chaos", metavar="SPEC", default=None,
        help="cluster fault plan: a JSON file path, or a preset name "
        f"({', '.join(sorted(CLUSTER_FAULT_PRESETS))}); enables the "
        "degraded-mode loop (quarantine + failover)",
    )
    datacenter_parser.add_argument(
        "--checkpoint", metavar="PATH", default=None,
        help="write a canonical-JSON epoch checkpoint to PATH",
    )
    datacenter_parser.add_argument(
        "--checkpoint-every", type=int, default=1, metavar="K",
        help="checkpoint every K global epochs (default 1)",
    )
    datacenter_parser.add_argument(
        "--resume", action="store_true",
        help="resume from --checkpoint if it exists (byte-identical to "
        "an uninterrupted run at any --jobs)",
    )
    datacenter_parser.add_argument(
        "--json", metavar="PATH", default=None,
        help="write the canonical timeline JSON (sorted keys — "
        "byte-identical at any --jobs; '-' for stdout)",
    )
    _jobs_argument(datacenter_parser)
    datacenter_parser.add_argument(
        "--quiet", action="store_true", help="suppress stdout reporting"
    )

    windows_parser = commands.add_parser(
        "windows",
        help="streaming window analytics over a recorded JSONL trace",
    )
    window_commands = windows_parser.add_subparsers(
        dest="windows_command", required=True
    )

    why_parser = window_commands.add_parser(
        "why-slow",
        help="rank the causes of a tail-latency spike in a trace",
    )
    why_parser.add_argument("trace", help="JSONL trace file to fold")
    why_parser.add_argument(
        "--t0", type=float, default=None, metavar="S",
        help="spike range start (simulated seconds); omit to auto-detect",
    )
    why_parser.add_argument(
        "--t1", type=float, default=None, metavar="S",
        help="spike range end (simulated seconds); omit to auto-detect",
    )
    why_parser.add_argument(
        "--app", default=None, metavar="NAME",
        help="restrict spike statistics to one LC application",
    )
    _windowing_arguments(why_parser)

    dump_parser = window_commands.add_parser(
        "dump", help="fold a trace and export its per-window aggregates"
    )
    dump_parser.add_argument("trace", help="JSONL trace file to fold")
    dump_parser.add_argument(
        "--out", required=True, metavar="PATH",
        help="output path (.csv/.jsonl, else Prometheus text)",
    )
    dump_parser.add_argument(
        "--append", action="store_true",
        help="append to the output file instead of overwriting",
    )
    _windowing_arguments(dump_parser)

    return parser


def _windowing_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--window", type=float, default=1.0, metavar="DT",
        help="window width in simulated seconds (default 1.0)",
    )
    parser.add_argument(
        "--window-keep", type=int, default=4096, metavar="K",
        help="ring size: keep only the last K windows (default 4096)",
    )


def _collocation(args: argparse.Namespace):
    if args.mix is not None:
        lc_loads, be_names = _MIXES[args.mix]
        return make_collocation(dict(lc_loads), list(be_names), seed=args.seed)
    return canonical_mix(
        args.xapian,
        args.moses,
        getattr(args, "img_dnn"),
        be_name=args.be,
        seed=args.seed,
    )


def _observability(
    args: argparse.Namespace,
) -> Tuple[Optional[Tracer], Optional[MetricsRegistry], Optional[JsonlTraceWriter]]:
    """Build the tracer/metrics pair requested by the CLI flags.

    Returns ``(tracer, metrics, writer)``; the caller must close ``writer``
    (when not ``None``) after the run so the JSONL file is flushed.
    """
    set_quiet(bool(args.quiet))
    writer = JsonlTraceWriter(path=args.trace) if args.trace else None
    narrator = NarratorTracer() if args.verbose and not args.quiet else None
    tracer = compose_tracers(writer, narrator)
    metrics = MetricsRegistry() if args.metrics else None
    return tracer, metrics, writer


def _describe_mix(args: argparse.Namespace) -> str:
    if args.mix is not None:
        lc_loads, be_names = _MIXES[args.mix]
        lc = ", ".join(f"{name} {load:.0%}" for name, load in lc_loads.items())
        return f"{lc} + {'+'.join(be_names)}"
    return (
        f"xapian {args.xapian:.0%}, moses {args.moses:.0%}, "
        f"img-dnn {getattr(args, 'img_dnn'):.0%} + {args.be}"
    )


def _command_run(args: argparse.Namespace) -> int:
    collocation = _collocation(args)
    scheduler = STRATEGY_FACTORIES[args.strategy]()
    warmup = args.warmup if args.warmup is not None else args.duration * 0.5
    faults = _fault_plan(args, collocation)
    tracer, metrics, writer = _observability(args)
    window_config = _window_config(args)
    try:
        result = run_collocation(
            collocation,
            scheduler,
            args.duration,
            warmup,
            tracer=tracer,
            metrics=metrics,
            faults=faults,
            windows=window_config,
        )
    finally:
        if writer is not None:
            writer.close()
    summary = summary_dict(result)
    rows = [[key, value] for key, value in summary.items() if not isinstance(value, dict)]
    say(ascii_table(["metric", "value"], rows, title=f"run — {args.strategy}"))
    say("")
    tail_rows = [[app, f"{value:.2f}"] for app, value in summary["mean_tail_ms"].items()]
    ipc_rows = [[app, f"{value:.2f}"] for app, value in summary["mean_ipc"].items()]
    if tail_rows:
        say(ascii_table(["application", "mean tail (ms)"], tail_rows))
    if ipc_rows:
        say(ascii_table(["application", "mean IPC"], ipc_rows))
    if args.csv:
        say(f"wrote {write_csv(result, args.csv)}")
    if args.json:
        say(f"wrote {write_json(result, args.json)}")
    if args.trace:
        say(f"wrote {args.trace}")
    if metrics is not None:
        say(f"wrote {write_metrics(metrics, args.metrics)}")
    if result.window_report is not None:
        say("")
        say(result.window_report.describe())
        if args.windows_out:
            say(f"wrote {write_windows(result.window_report, path=args.windows_out)}")
    return 0


def _command_compare(args: argparse.Namespace) -> int:
    collocation = _collocation(args)
    warmup = args.warmup if args.warmup is not None else args.duration * 0.5
    faults = _fault_plan(args, collocation)
    tracer, metrics, writer = _observability(args)
    window_config = _window_config(args)
    try:
        results = run_strategies(
            collocation,
            STRATEGY_ORDER,
            args.duration,
            warmup,
            jobs=args.jobs,
            tracer=tracer,
            metrics=metrics,
            faults=faults,
            windows=window_config,
        )
    finally:
        if writer is not None:
            writer.close()
    rows = []
    for name, result in results.items():
        rows.append(
            [
                name,
                result.mean_e_lc(),
                result.mean_e_be(),
                result.mean_e_s(),
                f"{result.yield_fraction():.0%}",
            ]
        )
    rows.sort(key=lambda row: row[3])
    say(
        ascii_table(
            ["strategy", "E_LC", "E_BE", "E_S", "yield"],
            rows,
            title=f"compare — {_describe_mix(args)}",
        )
    )
    if args.trace:
        say(f"wrote {args.trace}")
    if metrics is not None:
        say(f"wrote {write_metrics(metrics, args.metrics)}")
    if window_config is not None and args.windows_out:
        merged = merge_window_summaries(
            (result.window_report for result in results.values()),
            config=window_config,
        )
        say(f"wrote {write_windows(merged, path=args.windows_out)}")
    return 0


def _command_check(args: argparse.Namespace) -> int:
    import pathlib

    set_quiet(bool(args.quiet))
    mixes = tuple(args.mix) if args.mix else GOLDEN_MIXES
    root = (
        pathlib.Path(args.golden_dir)
        if args.golden_dir is not None
        else DEFAULT_GOLDEN_DIR
    )
    cases = default_cases(mixes)
    if args.regen:
        written = record_cases(cases, root, jobs=args.jobs)
        say(f"wrote {len(written)} golden fixture file(s) under {root}")
        return 0

    ok = True
    report = compare_cases(
        cases, root, mode="exact" if args.strict else "tolerance", jobs=args.jobs
    )
    say(report.describe())
    ok = ok and report.ok
    for mix in mixes:
        differential = differential_check(mix, jobs=args.jobs)
        say(differential.describe())
        ok = ok and differential.ok
    law = littles_law_report()
    if law.ok:
        say(
            f"littles-law: ok (sim {law.sim_mean_ms:.2f}ms vs model "
            f"{law.model_mean_ms:.2f}ms, L={law.l_sim:.2f})"
        )
    else:
        say("littles-law: FAILED")
        for violation in law.violations:
            say(f"  {violation.invariant}: {violation.detail}")
    ok = ok and law.ok
    say("check: PASS" if ok else "check: FAIL")
    return 0 if ok else 1


def _command_experiment(args: argparse.Namespace) -> int:
    import importlib

    set_quiet(bool(args.quiet))
    if args.name == "ab":
        return _command_experiment_ab(args)
    set_quick(bool(args.quick))
    try:
        module = importlib.import_module(_EXPERIMENTS[args.name])
        module.main()
    finally:
        set_quick(False)
    return 0


def _command_experiment_ab(args: argparse.Namespace) -> int:
    """``repro experiment ab``: policy A/B comparison with error bars."""
    from repro.experiment import ab_compare

    trials = args.trials
    duration = args.duration
    warmup = args.warmup
    if args.quick and duration is None:
        trials = min(trials, 4)
        if args.design != "switchback":
            duration, warmup = 16.0, 8.0
    result = ab_compare(
        args.policy_a,
        args.policy_b,
        mix=args.mix,
        design=args.design,
        trials=trials,
        duration_s=duration,
        warmup_s=warmup,
        seed=args.seed,
    )
    if args.json:
        print(result.to_json())
    else:
        say(result.describe())
    return 0


def _chaos_plan(args: argparse.Namespace):
    """Resolve the ``--chaos`` flag to a :class:`ClusterFaultPlan`."""
    import os

    from repro.datacenter.chaos import ClusterFaultPlan, cluster_fault_preset

    if args.chaos is None:
        return None
    if args.chaos in CLUSTER_FAULT_PRESETS:
        return cluster_fault_preset(args.chaos, args.nodes)
    if os.path.exists(args.chaos):
        return ClusterFaultPlan.load(args.chaos)
    raise FaultError(
        f"--chaos {args.chaos!r}: not a preset "
        f"({', '.join(sorted(CLUSTER_FAULT_PRESETS))}) or an existing file"
    )


def _command_datacenter(args: argparse.Namespace) -> int:
    import json as json_module

    from repro.datacenter import (
        BinPackingPlacement,
        Datacenter,
        migration_policy,
    )
    from repro.experiments.fig15_datacenter import build_population
    from repro.server.spec import NodeSpec

    set_quiet(bool(args.quiet))
    budget = args.budget if args.budget is not None else max(2, args.nodes // 8)
    policy = migration_policy(
        args.migration, budget=budget, hysteresis=args.hysteresis
    )
    chaos = _chaos_plan(args)
    datacenter = Datacenter(specs=(NodeSpec(),) * args.nodes)
    timeline = datacenter.run_epochs(
        build_population(args.nodes),
        BinPackingPlacement(),
        STRATEGY_FACTORIES[args.strategy],
        epochs=args.epochs,
        epoch_duration_s=args.epoch_duration,
        seed=args.seed,
        jobs=args.jobs,
        migration=policy,
        retries=args.retries,
        chaos=chaos,
        checkpoint_path=args.checkpoint,
        checkpoint_every=args.checkpoint_every,
        resume=args.resume,
    )
    breakdown = timeline.breakdown()
    rows = [
        ["nodes", args.nodes],
        ["epochs", f"{args.epochs} x {args.epoch_duration:g}s"],
        ["strategy", args.strategy],
        ["migration", timeline.migration_name],
        ["pooled E_S", breakdown.e_s],
        ["pooled E_LC", breakdown.e_lc],
        ["pooled E_BE", breakdown.e_be],
        ["mean node E_S", timeline.mean_node_e_s()],
        ["QoS violations", timeline.violations()],
        ["moves", timeline.total_moves()],
    ]
    if chaos is not None:
        quarantined = sum(len(e.quarantined) for e in timeline.epochs)
        failovers = sum(len(e.failovers) for e in timeline.epochs)
        parked = sum(len(e.parked) for e in timeline.epochs)
        rows.extend(
            [
                ["quarantines", quarantined],
                ["failovers", failovers],
                ["parked tenant-epochs", parked],
            ]
        )
    if args.checkpoint:
        rows.append(["checkpoint", args.checkpoint])
    say(ascii_table(["metric", "value"], rows, precision=4, title="datacenter"))
    if args.json:
        payload = json_module.dumps(
            timeline.to_dict(), sort_keys=True, separators=(",", ":")
        )
        if args.json == "-":
            print(payload)
        else:
            with open(args.json, "w", encoding="utf-8") as handle:
                handle.write(payload + "\n")
            say(f"wrote {args.json}")
    return 0


def _command_windows(args: argparse.Namespace) -> int:
    config = WindowConfig(dt_s=args.window, keep=args.window_keep)
    summary = fold_trace(args.trace, config)
    if args.windows_command == "dump":
        path = write_windows(summary, path=args.out, append=bool(args.append))
        say(summary.describe())
        say(f"wrote {path}")
        return 0

    # why-slow: explicit range, or auto-detect the worst spike window.
    t0, t1 = args.t0, args.t1
    if (t0 is None) != (t1 is None):
        say("why-slow: give both --t0 and --t1, or neither (auto-detect)")
        return 2
    if t0 is None:
        spikes = summary.spike_windows()
        if not spikes:
            say(summary.describe())
            say("why-slow: no tail-latency spike detected "
                "(p99 stays near the run median); pass --t0/--t1 explicitly")
            return 1
        worst = max(
            spikes,
            key=lambda w: max(
                (s.percentile(99.0) for s in w.tails.values() if s.n),
                default=0.0,
            ),
        )
        t0, t1 = worst.start_s, worst.end_s
        say(f"auto-detected spike window [{t0:g}s, {t1:g}s)")
    report = why_slow(summary, t0, t1, app=args.app)
    say(report.describe())
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point (``python -m repro``)."""
    args = _build_parser().parse_args(argv)
    handlers: Dict[str, Callable[[argparse.Namespace], int]] = {
        "run": _command_run,
        "compare": _command_compare,
        "experiment": _command_experiment,
        "check": _command_check,
        "windows": _command_windows,
        "datacenter": _command_datacenter,
    }
    try:
        if getattr(args, "jobs", None) is not None:
            # Make --jobs the process-wide default so experiment modules
            # (whose main() takes no arguments) resolve it through
            # repro.parallel.
            set_default_jobs(args.jobs)
        return handlers[args.command](args)
    except ReproError as error:
        # Bad input or a failed model check: one line, not a traceback.
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
