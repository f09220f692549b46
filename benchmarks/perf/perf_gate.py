"""CI perf gate: fail fast when a hot-path number regresses.

A quick smoke (~seconds; the full benchmark is ``perfbench/run.py``)
that holds the regression-prone hot-path numbers to their targets:

* **CLITE decide()** — mean ≤ 50 µs and p99 ≤ 500 µs per epoch. CLITE
  is the strategy whose decision used to cost an O(n³) GP refit per
  epoch; this keeps the incremental-Cholesky path honest.
* **Pool dispatch overhead** — the sweep grid forced through a
  one-worker warm pool must stay within 1.1× of the in-process serial
  path. On a single-core CI runner a speedup is impossible, so overhead
  is the honest parallel-runner metric.
* **Bin-packing placement** — ``BinPackingPlacement.assign`` on the
  fig15 population at 1000 nodes takes ≤ 1 s. Placement scores each
  member once per distinct node spec and worst-fits on a heap; a
  return to per-(member, node) scoring costs minutes here.
* **Node epoch loop** — a 90 s ARQ run of the fig10 (0.5, 0.5) cell
  serves exactly ``NODE_MEMO_HITS`` of its 180 epochs from the
  contention fixed-point memo (a deterministic count, so any change to
  when the memo hits shows up here), and its best-of-N loop time stays
  ≤ 400 µs per epoch (≈ 165 µs measured on a 2-CPU x86-64 VM).
* **Cold import** — the median ``import repro`` time over fresh
  interpreters stays within 2.2× the median time to import its floor,
  ``numpy``, ``scipy.special`` and ``scipy.linalg``. A ratio survives slow
  CI boxes. On a 2-CPU x86-64 VM the current import reads ≈ 1.7–2.1×;
  with ``scipy.stats`` on the import path it read ≈ 3–4.4×.

Methodology: full-grid warmup on both paths first
(worker spawn and cache fills are one-off costs the warm pool exists to
amortise), legs interleaved within every repeat so background-load
drift biases none of them, and the **minimum** over repeats reported —
the simulator is deterministic, so run-to-run spread is scheduler noise
that only ever adds time.

Usage::

    PYTHONPATH=src python benchmarks/perf/perf_gate.py [--repeats N]

Exit status 0 when every gate holds, 1 otherwise.
"""

from __future__ import annotations

import argparse
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import List, Optional

import repro
from repro.cluster import run as run_module
from repro.datacenter.placement import BinPackingPlacement
from repro.experiments.common import canonical_mix, make_collocation, run_strategy
from repro.experiments.fig15_datacenter import build_population
from repro.obs.metrics import MetricsRegistry
from repro.parallel import RunPoint, run_many
from repro.server.spec import NodeSpec

DECIDE_MEAN_BUDGET_US = 50.0
DECIDE_P99_BUDGET_US = 500.0
POOL_OVERHEAD_BUDGET = 1.1
PLACEMENT_NODES = 1000
PLACEMENT_BUDGET_S = 1.0
NODE_MEMO_HITS = 142
NODE_EPOCH_BUDGET_US = 400.0
COLD_IMPORT_RUNS = 3
COLD_IMPORT_BUDGET = 2.2
COLD_IMPORT_FLOOR = "numpy, scipy.special, scipy.linalg"


def gate_clite_decide(duration_s: float, repeats: int) -> List[str]:
    """CLITE per-epoch decide() cost, best-of-``repeats`` means."""
    points = [
        RunPoint(canonical_mix(0.5), "clite", duration_s, duration_s / 2)
        for _ in range(repeats)
    ]
    run_many(points[:1], jobs=1)  # warm imports, catalog, quantile caches
    registry = MetricsRegistry()
    run_many(points, jobs=1, metrics=registry)
    summaries = [
        registry.histogram(f"run{rep:03d}.clite/decide_time_s").summary()
        for rep in range(repeats)
    ]
    best = min(summaries, key=lambda summary: summary["mean"])
    mean_us = best["mean"] * 1e6
    p99_us = best["p99"] * 1e6
    print(
        f"clite decide(): mean {mean_us:.1f}µs p99 {p99_us:.1f}µs "
        f"over {best['count']:.0f} epochs (best of {repeats})"
    )
    failures = []
    if mean_us > DECIDE_MEAN_BUDGET_US:
        failures.append(
            f"CLITE decide() mean {mean_us:.1f}µs exceeds the "
            f"{DECIDE_MEAN_BUDGET_US:.0f}µs budget"
        )
    if p99_us > DECIDE_P99_BUDGET_US:
        failures.append(
            f"CLITE decide() p99 {p99_us:.1f}µs exceeds the "
            f"{DECIDE_P99_BUDGET_US:.0f}µs budget"
        )
    return failures


def gate_pool_overhead(duration_s: float, repeats: int) -> List[str]:
    """Warm-pool dispatch tax at jobs=1 vs the in-process serial path."""
    points = [
        RunPoint(
            make_collocation(
                {"xapian": xapian, "moses": 0.2, "img-dnn": imgdnn}, ["stream"]
            ),
            strategy,
            duration_s,
            duration_s / 2,
        )
        for xapian in (0.1, 0.5, 0.9)
        for imgdnn in (0.1, 0.5, 0.9)
        for strategy in ("parties", "arq")
    ]
    run_many(points, jobs=1)
    run_many(points, jobs=1, force_pool=True)
    serial_s = pool_s = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        run_many(points, jobs=1)
        serial_s = min(serial_s, time.perf_counter() - start)
        start = time.perf_counter()
        run_many(points, jobs=1, force_pool=True)
        pool_s = min(pool_s, time.perf_counter() - start)
    ratio = pool_s / serial_s if serial_s > 0 else float("inf")
    print(
        f"pool overhead (jobs=1, {len(points)} points): "
        f"serial {serial_s:.3f}s → warm pool {pool_s:.3f}s ({ratio:.3f}x)"
    )
    if ratio > POOL_OVERHEAD_BUDGET:
        return [
            f"pool dispatch overhead {ratio:.3f}x exceeds the "
            f"{POOL_OVERHEAD_BUDGET}x budget"
        ]
    return []


def gate_placement(repeats: int) -> List[str]:
    """Bin-packing ``assign`` wall time at 1000 nodes, best of ``repeats``."""
    members = build_population(PLACEMENT_NODES)
    specs = (NodeSpec(),) * PLACEMENT_NODES
    best_s = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        BinPackingPlacement().assign(members, specs)
        best_s = min(best_s, time.perf_counter() - start)
    print(
        f"bin-packing assign ({PLACEMENT_NODES} nodes, {len(members)} members): "
        f"{best_s:.3f}s (best of {repeats})"
    )
    if best_s > PLACEMENT_BUDGET_S:
        return [
            f"bin-packing assign {best_s:.3f}s at {PLACEMENT_NODES} nodes "
            f"exceeds the {PLACEMENT_BUDGET_S:.0f}s budget"
        ]
    return []


def gate_node_epoch(repeats: int) -> List[str]:
    """Contention memo hits and µs/epoch of the single-node loop."""
    collocation = make_collocation(
        {"xapian": 0.5, "moses": 0.2, "img-dnn": 0.5}, ["stream"]
    )
    resolve = run_module.resolve_contention
    last = {"result": None, "hits": 0}

    def counting(*args, **kwargs):
        result = resolve(*args, **kwargs)
        last["hits"] += result is last["result"]
        last["result"] = result
        return result

    run_module.resolve_contention = counting
    try:
        run_strategy(collocation, "arq", 90.0, 45.0)
    finally:
        run_module.resolve_contention = resolve
    best_s = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        result = run_strategy(collocation, "arq", 90.0, 45.0)
        best_s = min(best_s, time.perf_counter() - start)
    epochs = len(result.records)
    us_per_epoch = best_s / epochs * 1e6
    print(
        f"node epoch loop (arq, fig10 cell 0.5/0.5): {us_per_epoch:.1f}µs/epoch "
        f"(best of {repeats}), {last['hits']}/{epochs} contention memo hits"
    )
    failures = []
    if last["hits"] != NODE_MEMO_HITS:
        failures.append(
            f"contention memo served {last['hits']} epochs, expected "
            f"{NODE_MEMO_HITS}"
        )
    if us_per_epoch > NODE_EPOCH_BUDGET_US:
        failures.append(
            f"node epoch loop {us_per_epoch:.1f}µs/epoch exceeds the "
            f"{NODE_EPOCH_BUDGET_US:.0f}µs budget"
        )
    return failures


def _import_seconds(modules: str) -> float:
    """Time ``import <modules>`` inside a fresh interpreter."""
    src = Path(repro.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    code = (
        "import time; started = time.perf_counter(); "
        f"import {modules}; print(time.perf_counter() - started)"
    )
    completed = subprocess.run(
        [sys.executable, "-c", code],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    return float(completed.stdout)


def gate_cold_import() -> List[str]:
    """Median cold ``import repro`` over the median import of its floor."""
    repro_s, floor_s = [], []
    for _ in range(COLD_IMPORT_RUNS):
        repro_s.append(_import_seconds("repro"))
        floor_s.append(_import_seconds(COLD_IMPORT_FLOOR))
    ratio = statistics.median(repro_s) / statistics.median(floor_s)
    print(
        f"cold import: repro {statistics.median(repro_s):.2f}s, "
        f"{COLD_IMPORT_FLOOR} {statistics.median(floor_s):.2f}s, "
        f"ratio {ratio:.2f}x (median of {COLD_IMPORT_RUNS})"
    )
    if ratio > COLD_IMPORT_BUDGET:
        return [
            f"cold import repro is {ratio:.2f}x its numpy/scipy floor, "
            f"over the {COLD_IMPORT_BUDGET}x budget"
        ]
    return []


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--repeats",
        type=int,
        default=3,
        help="best-of repeats per gate (more repeats, less noise)",
    )
    parser.add_argument(
        "--decide-duration",
        type=float,
        default=90.0,
        help="simulated seconds per decide()-profile run",
    )
    parser.add_argument(
        "--pool-duration",
        type=float,
        default=60.0,
        help="simulated seconds per pool-overhead grid point",
    )
    args = parser.parse_args(argv)

    failures = gate_clite_decide(args.decide_duration, args.repeats)
    failures += gate_pool_overhead(args.pool_duration, args.repeats)
    failures += gate_placement(args.repeats)
    failures += gate_node_epoch(args.repeats)
    failures += gate_cold_import()
    if failures:
        for failure in failures:
            print(f"PERF GATE FAILED: {failure}", file=sys.stderr)
        return 1
    print("perf gate: PASS")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
