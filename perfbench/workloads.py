"""The benchmark's three workloads, each a fixed call into the public API.

Every workload splits into an untimed ``build`` (the inputs a user would
construct), a timed ``run``, and untimed ``check``/``digest``/``stats``
over the outputs. Inputs depend only on the seed. At the seed the
committed figures were made with, ``check`` compares the rendered figure
with ``benchmarks/output``; at any seed it checks invariants that hold
for every input.
"""

from __future__ import annotations

import hashlib
import math
import os
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Tuple

from spans import Patcher

#: The seed every committed figure under ``benchmarks/output`` used.
DEFAULT_SEED = 2023


@dataclass
class Outcome:
    """What one timed unit produced."""

    outputs: Any
    run_ms: List[float]
    node_epochs: int
    extra: Dict[str, Any] = field(default_factory=dict)


def sha256(text: str) -> str:
    """Hex sha256 of ``text`` encoded as UTF-8."""
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def compare_text(text: str, path: Path) -> Optional[str]:
    """``None`` if ``text`` equals the file byte for byte, else the difference."""
    expected = path.read_bytes()
    actual = text.encode("utf-8")
    if actual == expected:
        return None
    offset = next(
        (i for i, (a, b) in enumerate(zip(actual, expected)) if a != b),
        min(len(actual), len(expected)),
    )
    return (
        f"{path.name}: output differs from the committed file at byte {offset} "
        f"({len(actual)} bytes vs {len(expected)})"
    )


@contextmanager
def call_clock(module: str, attr: str) -> Iterator[List[float]]:
    """Collects the duration in ms of every call of ``module.attr`` in the block."""
    ms: List[float] = []

    def wrap(fn):
        def timed(*args, **kwargs):
            started = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                ms.append((time.perf_counter() - started) * 1e3)

        return timed

    patcher = Patcher()
    patcher.function(module, attr, wrap)
    try:
        yield ms
    finally:
        patcher.restore()


class NodeSweep:
    """Fig. 10's load grid under all five strategies, serially in-process."""

    name = "node-sweep"
    pooled = False
    loads = (0.1, 0.3, 0.5, 0.7, 0.9)
    moses_load = 0.2
    be_name = "stream"
    duration_s = 90.0
    warmup_s = 45.0

    def build(self, seed: int, root: Path) -> Dict[str, Any]:
        from repro.experiments.common import STRATEGY_ORDER, make_collocation

        cells = [
            (
                (x, y),
                make_collocation(
                    {"xapian": x, "moses": self.moses_load, "img-dnn": y},
                    [self.be_name],
                    seed=seed,
                ),
            )
            for x in self.loads
            for y in self.loads
        ]
        return {"cells": cells, "strategies": STRATEGY_ORDER, "root": root}

    def run(self, inputs: Dict[str, Any], jobs: int) -> Outcome:
        from repro.experiments.common import run_strategy

        results = []
        run_ms = []
        for key, collocation in inputs["cells"]:
            for strategy in inputs["strategies"]:
                started = time.perf_counter()
                result = run_strategy(
                    collocation, strategy, self.duration_s, self.warmup_s
                )
                run_ms.append((time.perf_counter() - started) * 1e3)
                results.append((key, strategy, result))
        epochs = sum(len(result.records) for _, _, result in results)
        return Outcome(outputs=results, run_ms=run_ms, node_epochs=epochs)

    def render(self, results) -> str:
        """The committed Fig. 10 text, from the PARTIES and ARQ cells."""
        from repro.experiments.fig10_heatmap import Fig10Result, render

        grids: Dict[str, Dict[str, Dict[Tuple[float, float], float]]] = {
            metric: {"parties": {}, "arq": {}} for metric in ("e_lc", "e_be", "e_s")
        }
        for key, strategy, result in results:
            if strategy in grids["e_s"]:
                grids["e_lc"][strategy][key] = result.mean_e_lc()
                grids["e_be"][strategy][key] = result.mean_e_be()
                grids["e_s"][strategy][key] = result.mean_e_s()
        return render(Fig10Result(**grids)) + "\n"

    def check(self, inputs, outcome: Outcome, seed: int) -> List[str]:
        problems = []
        for key, strategy, result in outcome.outputs:
            e_s = result.mean_e_s()
            if not (math.isfinite(e_s) and 0.0 <= e_s <= 1.0):
                problems.append(f"{key} {strategy}: E_S {e_s!r} outside [0, 1]")
        if seed == DEFAULT_SEED:
            path = inputs["root"] / "benchmarks" / "output" / "fig10.txt"
            diff = compare_text(self.render(outcome.outputs), path)
            if diff:
                problems.append(diff)
        return problems

    def digest(self, outcome: Outcome) -> str:
        return sha256(
            "\n".join(
                f"{x!r} {y!r} {s} {r.mean_e_lc()!r} {r.mean_e_be()!r} "
                f"{r.mean_e_s()!r} {r.violation_count()}"
                for (x, y), s, r in outcome.outputs
            )
        )

    def stats(self, outcome: Outcome) -> Dict[str, Any]:
        runs = [r for _, _, r in outcome.outputs]
        return {
            "runs": len(runs),
            "mean_e_s": sum(r.mean_e_s() for r in runs) / len(runs),
            "violations": sum(r.violation_count() for r in runs),
        }


class ABFig17:
    """Fig. 17*: ARQ against Unmanaged and CLITE as paired A/B trials."""

    name = "ab-fig17"
    pooled = True

    def build(self, seed: int, root: Path) -> Dict[str, Any]:
        import repro.experiment.harness  # noqa: F401  (the clocked module)
        from repro.experiments.common import mix_collocation

        return {"seed": seed, "epoch_s": mix_collocation("canonical", seed).epoch_s,
                "root": root}

    def run(self, inputs: Dict[str, Any], jobs: int) -> Outcome:
        from repro.experiments.fig17_ab import run_fig17

        with call_clock("repro.experiment.harness", "ab_compare") as run_ms:
            results = run_fig17(seed=inputs["seed"], jobs=jobs)
        epochs = sum(
            (len(r.metrics_a) + len(r.metrics_b))
            * int(round(r.duration_s / inputs["epoch_s"]))
            for r in results.values()
        )
        return Outcome(outputs=results, run_ms=run_ms, node_epochs=epochs)

    def check(self, inputs, outcome: Outcome, seed: int) -> List[str]:
        from repro.experiments.fig17_ab import render

        problems = []
        for baseline, result in outcome.outputs.items():
            for metric in ("e_s", "sojourn_ms"):
                estimate = result.estimate(metric, "paired")
                if not math.isfinite(estimate.point):
                    problems.append(f"{baseline}: paired {metric} is not finite")
        if seed == DEFAULT_SEED:
            path = inputs["root"] / "benchmarks" / "output" / "fig17.txt"
            diff = compare_text(render(outcome.outputs) + "\n", path)
            if diff:
                problems.append(diff)
        return problems

    def digest(self, outcome: Outcome) -> str:
        return sha256("\n".join(r.to_json() for r in outcome.outputs.values()))

    def stats(self, outcome: Outcome) -> Dict[str, Any]:
        out: Dict[str, Any] = {}
        for baseline, result in outcome.outputs.items():
            out[f"paired_e_s_vs_{baseline}"] = result.estimate("e_s", "paired").point
            out[f"violations_arq_vs_{baseline}"] = sum(
                m.violations for m in result.metrics_a
            )
        return out


class _EpochClock:
    """A tracer that stamps the host time of each checkpoint event."""

    def __init__(self) -> None:
        from repro.obs.events import CheckpointWritten

        self._kind = CheckpointWritten
        self.marks: List[float] = []

    def emit(self, event) -> None:
        if isinstance(event, self._kind):
            self.marks.append(time.perf_counter())


class DatacenterEpochs:
    """``Datacenter.run_epochs`` on a 200-node population, chaos on."""

    name = "datacenter"
    pooled = True
    nodes = 200
    epochs = 4
    epoch_s = 30.0
    budget = 25
    hysteresis = 0.02

    def build(self, seed: int, root: Path) -> Dict[str, Any]:
        from repro.datacenter import BinPackingPlacement, Datacenter
        from repro.datacenter.chaos import cluster_fault_preset
        from repro.experiments.common import STRATEGY_FACTORIES
        from repro.experiments.fig15_datacenter import build_population
        from repro.server.spec import NodeSpec

        out_dir = root / ".perfbench-out"
        out_dir.mkdir(exist_ok=True)
        checkpoint = out_dir / f"checkpoint-{os.getpid()}.json"
        if checkpoint.exists():
            checkpoint.unlink()
        return {
            "seed": seed,
            "members": build_population(self.nodes),
            "datacenter": Datacenter(specs=(NodeSpec(),) * self.nodes),
            "placement": BinPackingPlacement(),
            "factory": STRATEGY_FACTORIES["arq"],
            "chaos": cluster_fault_preset("chaos", self.nodes),
            "checkpoint": checkpoint,
        }

    def run(self, inputs: Dict[str, Any], jobs: int) -> Outcome:
        from repro.datacenter import EntropyGuidedMigration

        clock = _EpochClock()
        started = time.perf_counter()
        timeline = inputs["datacenter"].run_epochs(
            inputs["members"],
            inputs["placement"],
            inputs["factory"],
            epochs=self.epochs,
            epoch_duration_s=self.epoch_s,
            seed=inputs["seed"],
            jobs=jobs,
            migration=EntropyGuidedMigration(
                budget=self.budget, hysteresis=self.hysteresis
            ),
            retries=1,
            chaos=inputs["chaos"],
            checkpoint_path=str(inputs["checkpoint"]),
            checkpoint_every=1,
            tracer=clock,
        )
        marks = [started] + clock.marks
        run_ms = [(b - a) * 1e3 for a, b in zip(marks, marks[1:])]
        epochs = sum(
            summary.epochs
            for epoch in timeline.epochs
            for summary in epoch.node_summaries
        )
        return Outcome(
            outputs=timeline,
            run_ms=run_ms,
            node_epochs=epochs,
            extra={"checkpoint_kb": inputs["checkpoint"].stat().st_size / 1024},
        )

    def check(self, inputs, outcome: Outcome, seed: int) -> List[str]:
        from repro.datacenter.recovery import DatacenterCheckpoint

        timeline = outcome.outputs
        problems: List[str] = []
        names = sorted(member.name for member in inputs["members"])
        if len(timeline.epochs) != self.epochs:
            problems.append(f"{len(timeline.epochs)} epochs, expected {self.epochs}")
        for epoch in timeline.epochs:
            placed = sorted(
                member.name for node in epoch.assignment.per_node for member in node
            )
            if placed != names:
                problems.append(f"epoch {epoch.epoch}: tenants not placed exactly once")
            if not set(epoch.parked) <= set(names):
                problems.append(f"epoch {epoch.epoch}: unknown parked tenant")
            if len(epoch.moves) > self.budget:
                problems.append(
                    f"epoch {epoch.epoch}: {len(epoch.moves)} moves > budget {self.budget}"
                )
            for summary in epoch.node_summaries:
                score = summary.mean_e_s
                if score is not None and not (math.isfinite(score) and 0 <= score <= 1):
                    problems.append(
                        f"epoch {epoch.epoch} node {summary.node_index}: E_S {score!r}"
                    )
        pooled = timeline.breakdown().e_s
        if not (math.isfinite(pooled) and 0.0 <= pooled <= 1.0):
            problems.append(f"pooled E_S {pooled!r} outside [0, 1]")
        path = inputs["checkpoint"]
        text = path.read_text(encoding="utf-8")
        if DatacenterCheckpoint.load(str(path)).to_json() != text:
            problems.append("the last checkpoint does not re-serialise to its bytes")
        return problems

    def digest(self, outcome: Outcome) -> str:
        import json

        return sha256(
            json.dumps(outcome.outputs.to_dict(), sort_keys=True, separators=(",", ":"))
        )

    def stats(self, outcome: Outcome) -> Dict[str, Any]:
        timeline = outcome.outputs
        return {
            "pooled_e_s": timeline.breakdown().e_s,
            "violations": timeline.violations(),
            "moves": timeline.total_moves(),
            "failovers": sum(len(e.failovers) for e in timeline.epochs),
            "parked_tenant_epochs": sum(len(e.parked) for e in timeline.epochs),
        }

    def cleanup(self, inputs: Dict[str, Any]) -> None:
        checkpoint = inputs["checkpoint"]
        for path in (checkpoint, Path(f"{checkpoint}.tmp")):
            if path.exists():
                path.unlink()
        try:
            checkpoint.parent.rmdir()
        except OSError:
            pass  # another unit's checkpoint is still there


WORKLOADS = {w.name: w for w in (NodeSweep(), ABFig17(), DatacenterEpochs())}
