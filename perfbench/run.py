"""Benchmark entry point: run one workload and print its metrics.

    python3 perfbench/run.py --workload node-sweep --seed 2023 --seconds 34 --trace 0

Run from the repository root. Each timed unit runs in a fresh process
(``unit.py``), as a command-line user pays a cold start on every
invocation; units repeat until ``--seconds`` would be exceeded, and
end-to-end metrics are medians over them. ``--trace 1`` instead runs one
untraced and one traced unit and reports per-layer metrics plus the
tracing overhead. Every unit's outputs are checked; the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

from layers import REPORTED
from timing import percentile, samples_beyond, tail_percentile, valid_metric_name

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: Worker processes for the pooled workloads (the reference box has 2 CPUs).
JOBS = 2
#: Units always timed per run, however long they take. Beyond these,
#: another unit starts while at least half of it fits in ``--seconds``.
MIN_UNITS = 2
#: Wall-clock limit for one invocation, with a margin under the 180 s cap.
DEADLINE_S = 170.0
WORKLOAD_NAMES = ("node-sweep", "ab-fig17", "datacenter")
#: One BLAS thread per process, so the load is the parent plus at most
#: ``JOBS`` workers. With the library default (a thread per CPU) the
#: small GP solves oversubscribe the two CPUs and node-sweep times swing
#: by up to half between runs; see DESIGN.md.
BLAS_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def source_digest() -> str:
    """sha256 over the program's source files, names and bytes."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "n/a (not a git checkout)"
    try:
        done = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--short", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "n/a"
    return done.stdout.strip() or "n/a"


def run_unit(workload: str, seed: int, jobs: int, trace: bool, timeout_s: float) -> Dict:
    """Run one unit in a fresh interpreter and return its report."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(HERE)]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    env.pop("REPRO_JOBS", None)
    env.update(BLAS_THREADS)
    command = [
        sys.executable, str(HERE / "unit.py"),
        "--workload", workload, "--seed", str(seed), "--jobs", str(jobs),
        "--root", str(ROOT), "--spawned-at", repr(time.monotonic()),
    ] + (["--trace"] if trace else [])
    # Its own session, so the unit and any pool workers it leaves behind
    # can be stopped together.
    with subprocess.Popen(
        command, cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, start_new_session=True,
    ) as unit:
        try:
            stdout, stderr = unit.communicate(timeout=max(timeout_s, 1.0))
        except subprocess.TimeoutExpired:
            stdout, stderr = "", f"timed out after {timeout_s:.0f} s"
        finally:
            try:
                os.killpg(unit.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            unit.communicate()
    lines = stdout.strip().splitlines()
    try:
        report = json.loads(lines[-1])
    except (IndexError, ValueError):
        tail = stderr.strip().splitlines()[-3:]
        return {"ok": False, "error": f"unit exited {unit.returncode}: {tail}"}
    if unit.returncode != 0:
        report["ok"] = False
    if report.get("error"):
        sys.stderr.write(stderr)
    return report


def unit_problems(report: Dict, reference: Optional[str]) -> List[str]:
    """Why a unit counts as failed; empty when it passed."""
    problems = list(report.get("problems", []))
    if report.get("error"):
        problems.append(report["error"])
    for key in ("digest", "serial_digest"):
        if reference and report.get(key) and report[key] != reference:
            problems.append(f"{key} {report[key][:12]} differs from {reference[:12]}")
    if not report.get("ok") and not problems:
        problems.append("unit failed")
    return problems


def say(line: str = "") -> None:
    print(line, flush=True)


def describe_machine(seed: int, report: Dict) -> None:
    versions = report.get("versions", {})
    say(
        f"machine: nproc={os.cpu_count()} "
        f"affinity={len(os.sched_getaffinity(0)) if hasattr(os, 'sched_getaffinity') else 'n/a'} "
        f"platform={versions.get('platform', platform.platform())}"
    )
    say(
        f"software: python={versions.get('python', platform.python_version())} "
        f"numpy={versions.get('numpy', '?')} scipy={versions.get('scipy', '?')} "
        f"commit={git_commit()} source-sha256={source_digest()}"
    )
    say(
        f"settings: jobs={JOBS} seed={seed} "
        + " ".join(f"{k}={v}" for k, v in BLAS_THREADS.items())
    )


def end_to_end(workload: str, seed: int, seconds: float) -> Dict:
    started = time.monotonic()
    reports: List[Dict] = []
    while True:
        left = DEADLINE_S - (time.monotonic() - started)
        reports.append(run_unit(workload, seed, JOBS, False, left))
        elapsed = time.monotonic() - started
        mean = elapsed / len(reports)
        if len(reports) >= MIN_UNITS and (
            elapsed + mean / 2 > seconds or elapsed + 2 * mean > DEADLINE_S
        ):
            break
    good = [r for r in reports if r.get("ok")]
    reference = good[0]["digest"] if good else None
    failures = [unit_problems(r, reference) for r in reports]
    failed = sum(1 for f in failures if f)
    describe_machine(seed, reports[0])
    for index, problems in enumerate(failures):
        for problem in problems:
            say(f"unit {index}: FAILED {problem}")
    timed = [r for r in reports if "wall_s" in r]
    if not timed:
        return {"correct": False, "attempted": len(reports), "failed": failed, "metrics": {}}

    wall = [r["wall_s"] for r in timed]
    setup = [r["setup_s"] for r in timed]
    epochs = sum(r["node_epochs"] for r in timed)
    run_ms = [ms for r in timed for ms in r["run_ms"]]
    tail = tail_percentile(len(run_ms))
    metrics = {
        "setup_s": (statistics.median(setup), "s", len(setup)),
        "wall_s": (statistics.median(wall), "s", len(wall)),
        "sim_epochs_per_s": (epochs / sum(wall), "epochs/s", epochs),
        "run_p50_ms": (percentile(run_ms, 50), "ms", len(run_ms)),
        "run_p90_ms": (percentile(run_ms, 90), "ms", len(run_ms)),
        "peak_rss_mb": (max(r["peak_rss_mb"] for r in timed), "MB", len(timed)),
    }
    say(f"workload {workload}: {len(reports)} units, {failed} failed, "
        f"error_rate={failed / len(reports):.4f}")
    shown = (good or timed)[0]
    say(f"outputs: sha256={shown.get('digest', 'n/a')}  stats={json.dumps(shown.get('stats', {}))}")
    for name, (value, unit, samples) in metrics.items():
        say(f"  {name:<18} {value:>14.6f} {unit:<9} n={samples}")
    say(f"  wall_s per unit: {' '.join(f'{w:.3f}' for w in wall)}")
    say(f"  setup_s per unit: {' '.join(f'{s:.3f}' for s in setup)}")
    say(
        f"  run percentiles over n={len(run_ms)} runs: p90 has "
        f"{samples_beyond(len(run_ms), 90):.1f} samples beyond it; highest "
        f"percentile with >=10 beyond: {tail if tail is not None else 'none'}"
    )
    return {
        "correct": failed == 0,
        "attempted": len(reports),
        "failed": failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u, _) in metrics.items()},
    }


def per_layer(workload: str, seed: int) -> Dict:
    started = time.monotonic()
    plain = run_unit(workload, seed, JOBS, False, DEADLINE_S)
    left = DEADLINE_S - (time.monotonic() - started)
    traced = run_unit(workload, seed, JOBS, True, left)
    reference = plain.get("digest") if plain.get("ok") else None
    reports = [plain, traced]
    failures = [unit_problems(r, reference) for r in reports]
    failed = sum(1 for f in failures if f)
    describe_machine(seed, traced)
    for label, problems in zip(("untraced", "traced"), failures):
        for problem in problems:
            say(f"{label} unit: FAILED {problem}")
    layers = traced.get("layers", {})
    if "wall_s" in plain and "wall_s" in traced:
        overhead = traced["wall_s"] / plain["wall_s"] - 1
        say(
            f"tracing overhead: traced wall_s {traced['wall_s']:.3f} s vs untraced "
            f"{plain['wall_s']:.3f} s at jobs={JOBS} ({overhead:+.1%})"
        )
    say(f"outputs: sha256={traced.get('digest', 'n/a')}  stats={json.dumps(traced.get('stats', {}))}")
    say("per-layer metrics (* = printed only; see DESIGN.md):")
    for name, (value, unit, samples) in sorted(layers.items()):
        mark = " " if name in REPORTED else "*"
        say(f" {mark}{name:<44} {value:>16.6f} {unit:<6} n={samples}")
    return {
        "correct": failed == 0 and bool(layers),
        "attempted": len(reports),
        "failed": failed,
        "metrics": {
            name: {"value": v, "unit": u}
            for name, (v, u, _) in layers.items()
            if name in REPORTED
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=2023)
    parser.add_argument("--seconds", type=float, default=34.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Exit through ``finally`` on SIGTERM, so a running unit is stopped too.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if args.workload not in WORKLOAD_NAMES:
        return fail(f"unknown workload {args.workload!r}; choose from {WORKLOAD_NAMES}")
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        return fail(f"no program source under {ROOT / 'src' / 'repro'}; run from a full checkout")
    if not (ROOT / "benchmarks" / "output").is_dir():
        return fail("benchmarks/output (the committed figures) is missing")
    if args.trace:
        result = per_layer(args.workload, args.seed)
    else:
        result = end_to_end(args.workload, args.seed, args.seconds)
    bad = [name for name in result["metrics"] if not valid_metric_name(name)]
    if bad:
        return fail(f"invalid metric names: {bad}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
