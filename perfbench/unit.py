"""One fresh process: build a workload's inputs, time one unit, check it.

Started by ``run.py``; prints one JSON object as its last line. Set-up
time runs from the moment the parent spawned this process
(``--spawned-at``, a ``time.monotonic`` reading, which is system-wide on
Linux) until the inputs are built, so it includes interpreter start and
``import repro``.

With ``--trace`` the unit runs with spans around every layer boundary
(see ``layers.py``). A workload that pools then runs the same batch once
more at one job, so node-side layers run in this process where their
spans are recorded; that pass also gives the parallel runner's
efficiency. Traced numbers are never end-to-end results.
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import time
import traceback
from pathlib import Path


def peak_rss_mb() -> float:
    """Peak resident set of this process plus each live child, in MB."""
    def hwm_kb(pid: str) -> int:
        try:
            with open(f"/proc/{pid}/status", encoding="ascii") as handle:
                for line in handle:
                    if line.startswith("VmHWM:"):
                        return int(line.split()[1])
        except OSError:
            pass
        return 0

    children = set()
    for task in Path("/proc/self/task").iterdir():
        try:
            children.update((task / "children").read_text().split())
        except OSError:
            continue
    return (hwm_kb("self") + sum(hwm_kb(pid) for pid in children)) / 1024


def versions() -> dict:
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--jobs", type=int, required=True)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--root", type=Path, required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)

    import_started = time.monotonic()
    import repro  # noqa: F401

    import_s = time.monotonic() - import_started
    scipy_stats_loaded = "scipy.stats" in sys.modules
    from repro.parallel import shutdown_pool
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    report = {"import_s": import_s, "versions": versions(), "ok": False}
    try:
        inputs = workload.build(args.seed, args.root)
        report["setup_s"] = time.monotonic() - args.spawned_at
        tracer = _Tracer(args.trace, workload.pooled)
        tracer.begin_pass()
        started = time.perf_counter()
        outcome = workload.run(inputs, args.jobs)
        report["wall_s"] = time.perf_counter() - started
        tracer.end_pass()
        report["peak_rss_mb"] = peak_rss_mb()
        shutdown_pool()
        report.update(
            run_ms=outcome.run_ms,
            node_epochs=outcome.node_epochs,
            problems=workload.check(inputs, outcome, args.seed),
            digest=workload.digest(outcome),
            stats=workload.stats(outcome),
        )
        if args.trace:
            report["layers"] = tracer.layers(
                workload, args, outcome, report, import_s, scipy_stats_loaded
            )
        report["ok"] = not report["problems"]
        getattr(workload, "cleanup", lambda _: None)(inputs)
    except Exception as exc:  # report the failed unit instead of dying
        traceback.print_exc()
        report["error"] = f"{type(exc).__name__}: {exc}"
    finally:
        shutdown_pool()
    print(json.dumps(report))
    return 0


class _Tracer:
    """Owns the wrappers and recorders of a traced unit; inert otherwise."""

    def __init__(self, enabled: bool, pooled: bool) -> None:
        self.enabled = enabled
        self.pooled = pooled
        if not enabled:
            return
        import layers
        from spans import Patcher, SpanRecorder, Tracing

        self.tracing = Tracing()
        self.patcher = Patcher()
        self.capture = layers.Capture()
        layers.install(self.tracing, self.patcher, self.capture)
        self.recorder = SpanRecorder()
        self.caches_before = layers.cache_counts()

    def begin_pass(self) -> None:
        if self.enabled:
            self.capture.enabled = not self.pooled
            self.tracing.recorder = self.recorder

    def end_pass(self) -> None:
        if self.enabled:
            self.tracing.recorder = None
            self.capture.enabled = False

    def layers(self, workload, args, outcome, report, import_s, scipy_stats_loaded):
        import layers
        from repro.parallel import shutdown_pool
        from spans import SpanRecorder

        pooled_rec = self.recorder
        node_rec, caches_before = pooled_rec, self.caches_before
        in_process = None
        if self.pooled:
            inputs = workload.build(args.seed, args.root)
            node_rec = in_process = SpanRecorder()
            caches_before = layers.cache_counts()
            self.capture.enabled = True
            self.tracing.recorder = node_rec
            serial = workload.run(inputs, 1)
            self.end_pass()
            shutdown_pool()
            report["serial_digest"] = workload.digest(serial)
            report["problems"] += workload.check(inputs, serial, args.seed)
            getattr(workload, "cleanup", lambda _: None)(inputs)
        metrics = {
            "import.repro_s": (import_s, "s", 1),
            "import.scipy_stats_loaded": (float(scipy_stats_loaded), "bool", 1),
        }
        metrics.update(layers.node_metrics(node_rec, caches_before, layers.cache_counts()))
        metrics.update(
            layers.wire_metrics(self.capture, self.tracing, node_rec.counters["node_epochs"])
        )
        metrics["obs.windows.us_per_epoch"] = layers.windows_cost(self.capture)
        metrics.update(layers.coordinator_metrics(pooled_rec, in_process, args.jobs))
        self.patcher.restore()
        stats = report["stats"]
        metrics["datacenter.recovery.parked_tenant_epochs"] = (
            float(stats.get("parked_tenant_epochs", 0)), "count", len(outcome.run_ms)
        )
        checkpoint_kb = outcome.extra.get("checkpoint_kb", 0.0)
        metrics["datacenter.recovery.checkpoint_kb"] = (
            checkpoint_kb, "KB", int(bool(checkpoint_kb))
        )
        metrics["datacenter.placement.scaling_exp"] = (
            layers.placement_scaling()
            if workload.name == "datacenter"
            else (0.0, "1", 0)
        )
        return {name: [float(v), unit, int(n)] for name, (v, unit, n) in metrics.items()}


if __name__ == "__main__":
    sys.exit(main())
