"""Degraded-mode machinery: quarantine, failover and checkpoint/resume.

The global epoch loop treats node failure as the steady state, not an
exception, once a :class:`~repro.datacenter.chaos.ClusterFaultPlan` or a
:class:`Quarantine` guard is attached. Three cooperating pieces live
here:

* :class:`Quarantine` — the coordinator's per-node health book-keeping:
  failed nodes sit out a quarantine window (doubling for repeat
  offenders, capped), re-enter on probation, and have their last-good
  :class:`~repro.datacenter.shard.NodeEpochSummary` held for
  score-keeping up to a staleness cap — the same stale-telemetry
  tolerance ARQ's cooldown gives a single node, one level up.
* :func:`failover_moves` — when a node goes down, its tenants are
  migrated onto the lowest-``E_S`` feasible survivors (LC applications
  first — they carry the QoS), reusing the migration layer's
  window-aware capacity guard; tenants that fit nowhere stay parked on
  the dead node until capacity or the node returns.
* :class:`DatacenterCheckpoint` — canonical-JSON snapshots of the loop's
  replayable state every K epochs. Because epoch seeds are a pure
  function of the *absolute* epoch number (``seed + i + e·stride``) and
  every assignment mutation (failovers → admissions → moves) is recorded
  per epoch, resuming from a checkpoint replays to a timeline
  byte-identical to the uninterrupted run at any ``--jobs``.

Everything here is deterministic: decisions are pure functions of the
fault plan, the recorded scores and the guard's explicit state — never
of wall-clock time or arrival order.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Sequence, Set, Tuple

from repro.datacenter.migration import Move, _demand_at, _pressure_at
from repro.datacenter.placement import Assignment, _is_lc, _share, _spec_kinds
from repro.datacenter.shard import NodeEpochSummary
from repro.errors import ConfigurationError
from repro.server.spec import NodeSpec

#: Checkpoint wire-format version (bumped on incompatible layout changes).
CHECKPOINT_VERSION = 1


def summary_is_sane(summary: NodeEpochSummary) -> bool:
    """Whether a node summary's entropy means are plausible telemetry.

    The entropies of Eq. 7 are non-negative and finite by construction,
    so a NaN or negative mean can only be corruption in flight — the
    coordinator's cheap end-to-end integrity gate. A summary with *no*
    measured epochs (means ``None``) is empty, not insane.
    """
    for value in (summary.mean_e_s, summary.mean_e_lc, summary.mean_e_be):
        if value is not None and (math.isnan(value) or value < 0.0):
            return False
    return True


@dataclass
class Quarantine:
    """Per-node quarantine, probation and stale-score book-keeping.

    A reported failure puts the node in quarantine for
    ``quarantine_epochs`` global epochs — doubled per repeat offence up
    to ``backoff_cap``× (the flap defence). On release the node serves
    again but stays **on probation** for ``probation_epochs`` epochs: a
    relapse during probation escalates straight to the longer window,
    surviving probation clears the slate.

    While a node is dark (down, or its summary lost/corrupt) the guard
    holds its last good summary and serves its ``E_S`` for score-keeping
    up to ``staleness_cap_epochs`` epochs old; past the cap the node
    simply has no score (absent from the epoch's score vector) until it
    reports again.

    ``straggle_threshold`` is the latency multiplier at or above which a
    straggling node's report misses the epoch deadline entirely and is
    treated as a failure; slower-but-under-threshold nodes are absorbed.
    ``failover=False`` keeps the guard but disables tenant evacuation
    (the fig16 "static" plane).
    """

    quarantine_epochs: int = 2
    probation_epochs: int = 2
    staleness_cap_epochs: int = 3
    straggle_threshold: float = 3.0
    failover: bool = True
    backoff_cap: int = 4

    _sitting: Dict[int, int] = field(default_factory=dict, repr=False)
    _probation: Dict[int, int] = field(default_factory=dict, repr=False)
    _strikes: Dict[int, int] = field(default_factory=dict, repr=False)
    _held: Dict[int, Tuple[NodeEpochSummary, int]] = field(
        default_factory=dict, repr=False
    )
    _released: List[int] = field(default_factory=list, repr=False)

    def __post_init__(self) -> None:
        if self.quarantine_epochs < 1:
            raise ConfigurationError(
                f"quarantine_epochs must be >= 1: {self.quarantine_epochs}"
            )
        if self.probation_epochs < 0:
            raise ConfigurationError(
                f"probation_epochs cannot be negative: {self.probation_epochs}"
            )
        if self.staleness_cap_epochs < 0:
            raise ConfigurationError(
                f"staleness_cap_epochs cannot be negative: "
                f"{self.staleness_cap_epochs}"
            )
        if self.straggle_threshold < 1.0:
            raise ConfigurationError(
                f"straggle_threshold must be >= 1: {self.straggle_threshold}"
            )
        if self.backoff_cap < 1:
            raise ConfigurationError(
                f"backoff_cap must be >= 1: {self.backoff_cap}"
            )

    # -- queries -----------------------------------------------------------

    def active(self) -> Tuple[int, ...]:
        """Sorted indices of nodes currently quarantined."""
        return tuple(sorted(self._sitting))

    def is_quarantined(self, node: int) -> bool:
        """Whether ``node`` is currently quarantined."""
        return node in self._sitting

    def on_probation(self) -> Tuple[int, ...]:
        """Sorted indices of released nodes still on probation."""
        return tuple(sorted(self._probation))

    def held_score(self, node: int) -> Optional[float]:
        """The node's held ``E_S`` if fresh enough, else ``None``."""
        entry = self._held.get(node)
        if entry is None:
            return None
        summary, age = entry
        if age > self.staleness_cap_epochs:
            return None
        return summary.mean_e_s

    # -- transitions -------------------------------------------------------

    def report_failure(self, node: int) -> int:
        """Quarantine ``node``; returns the sentence length in epochs.

        Each repeat offence doubles the window (capped at
        ``backoff_cap``× the base); a failure during probation counts as
        a repeat, which is exactly what defeats a flapping node.
        """
        strikes = self._strikes.get(node, 0) + 1
        self._strikes[node] = strikes
        penalty = self.quarantine_epochs * min(
            2 ** (strikes - 1), self.backoff_cap
        )
        self._sitting[node] = max(self._sitting.get(node, 0), penalty)
        self._probation.pop(node, None)
        return self._sitting[node]

    def refresh(self, node: int) -> None:
        """Keep a still-down node quarantined at least the base window."""
        self._sitting[node] = max(
            self._sitting.get(node, 0), self.quarantine_epochs
        )

    def hold(self, node: int, summary: NodeEpochSummary) -> None:
        """Record ``node``'s fresh good summary (age resets to zero)."""
        self._held[node] = (summary, 0)

    def begin_epoch(self) -> Tuple[int, ...]:
        """Nodes re-entering service this epoch (sorted); starts probation."""
        released = tuple(sorted(self._released))
        self._released.clear()
        return released

    def tick(self) -> None:
        """Advance one global epoch: age scores, serve sentences, parole.

        Call once at the end of every epoch. Quarantine counters count
        down; nodes reaching zero are queued for release at the next
        :meth:`begin_epoch` and put on probation. Probation counters for
        serving nodes count down too; at zero the slate (strike count)
        is wiped. Held summaries age by one epoch.
        """
        self._held = {
            node: (summary, age + 1)
            for node, (summary, age) in self._held.items()
        }
        sitting: Dict[int, int] = {}
        newly_released: List[int] = []
        for node in sorted(self._sitting):
            left = self._sitting[node] - 1
            if left > 0:
                sitting[node] = left
            else:
                self._released.append(node)
                newly_released.append(node)
                if not self.probation_epochs:
                    self._strikes.pop(node, None)
        self._sitting = sitting
        probation: Dict[int, int] = {}
        for node in sorted(self._probation):
            left = self._probation[node] - 1
            if left > 0:
                probation[node] = left
            else:
                self._strikes.pop(node, None)
        # Probation for nodes released *this* tick starts now and counts
        # down on subsequent ticks — it must cover the epochs they serve
        # after release, not be consumed in the releasing tick itself.
        if self.probation_epochs:
            for node in newly_released:
                probation[node] = self.probation_epochs
        self._probation = probation

    # -- serialisation (checkpoint support) --------------------------------

    def state_dict(self) -> Dict[str, Any]:
        """The guard's mutable state as a JSON-safe dict."""
        return {
            "sitting": {str(n): v for n, v in sorted(self._sitting.items())},
            "probation": {
                str(n): v for n, v in sorted(self._probation.items())
            },
            "strikes": {str(n): v for n, v in sorted(self._strikes.items())},
            "held": {
                str(n): {"age": age, "summary": summary.to_dict()}
                for n, (summary, age) in sorted(self._held.items())
            },
            "released": sorted(self._released),
        }

    def load_state(self, state: Mapping[str, Any]) -> None:
        """Restore state previously captured with :meth:`state_dict`."""
        self._sitting = {int(n): v for n, v in state.get("sitting", {}).items()}
        self._probation = {
            int(n): v for n, v in state.get("probation", {}).items()
        }
        self._strikes = {int(n): v for n, v in state.get("strikes", {}).items()}
        self._held = {
            int(n): (NodeEpochSummary.from_dict(entry["summary"]), entry["age"])
            for n, entry in state.get("held", {}).items()
        }
        self._released = [int(n) for n in state.get("released", [])]

    def config_dict(self) -> Dict[str, Any]:
        """The guard's immutable configuration (checkpoint fingerprint)."""
        return {
            "quarantine_epochs": self.quarantine_epochs,
            "probation_epochs": self.probation_epochs,
            "staleness_cap_epochs": self.staleness_cap_epochs,
            "straggle_threshold": self.straggle_threshold,
            "failover": self.failover,
            "backoff_cap": self.backoff_cap,
        }


def failover_moves(
    assignment: Assignment,
    down: Sequence[int],
    scores: Mapping[int, float],
    specs: Sequence[NodeSpec],
    *,
    now_s: float = 0.0,
    horizon_s: float = 0.0,
) -> List[Move]:
    """Evacuate down nodes' tenants onto the best feasible survivors.

    For each down node (ascending index), tenants leave LC-first (they
    carry the QoS), heaviest first within a class. Each tenant lands on
    the survivor with the lowest interference score (nodes without a
    score rank as 0.0 — an idle node is a perfect host), breaking ties
    by upcoming-window pressure then node index, subject to the same
    capacity guard migration uses: the survivor plus the tenant must fit
    within one node's worth of resources over the next epoch's load
    window. Tenants that fit nowhere are left parked on the down node
    (the caller keeps them out of the epoch run).

    Deterministic: a pure function of the inputs. Returned
    :class:`~repro.datacenter.migration.Move` records carry the
    donor/recipient score gap where both scores exist, else 0.0.
    """
    down_set: Set[int] = set(down)
    survivors = [
        node
        for node in range(len(assignment.per_node))
        if node not in down_set and node < len(specs)
    ]
    if not survivors:
        return []
    buckets = [list(bucket) for bucket in assignment.per_node]
    pressures = {
        node: _pressure_at(buckets[node], specs[node], now_s, horizon_s)
        for node in survivors
    }
    # A tenant's weight depends only on the survivor's spec: weigh each
    # tenant once per distinct spec, then look survivors up by kind.
    kinds, kind_of = _spec_kinds(specs)
    moves: List[Move] = []
    for source in sorted(down_set):
        if source >= len(buckets) or not buckets[source]:
            continue
        weights = {}
        for tenant in buckets[source]:
            demand = _demand_at(tenant, now_s, horizon_s)
            weights[tenant.name] = [_share(demand, spec) for spec in kinds]
        tenants = sorted(
            buckets[source],
            key=lambda m: (
                0 if _is_lc(m) else 1,
                -weights[m.name][kind_of[source]],
                m.name,
            ),
        )
        for tenant in tenants:
            row = weights[tenant.name]
            ranked = sorted(
                survivors,
                key=lambda node: (scores.get(node, 0.0), pressures[node], node),
            )
            target = next(
                (
                    node
                    for node in ranked
                    if pressures[node] + row[kind_of[node]] <= 1.0 + 1e-9
                ),
                None,
            )
            if target is None:
                continue
            buckets[source] = [
                m for m in buckets[source] if m.name != tenant.name
            ]
            buckets[target].append(tenant)
            pressures[target] += row[kind_of[target]]
            gap = scores.get(source, 0.0) - scores.get(target, 0.0)
            moves.append(
                Move(
                    member=tenant.name,
                    source=source,
                    target=target,
                    score_gap=gap,
                )
            )
    return moves


@dataclass(frozen=True)
class DatacenterCheckpoint:
    """A canonical-JSON snapshot of the epoch loop's replayable state.

    Written after epoch ``next_epoch - 1`` completed; resuming replays
    the recorded ``epochs`` payloads (reconstructing every assignment
    mutation in failovers → admissions → moves order) and continues the
    live loop at ``next_epoch``. ``config`` fingerprints everything the
    resumed run must agree on — deliberately **excluding** the total
    epoch target, so a run checkpointed at 2 epochs can resume to 8: a
    fault plan and the per-epoch seed formula depend only on absolute
    epoch numbers, never on the horizon.
    """

    next_epoch: int
    config: Mapping[str, Any]
    epochs: Tuple[Mapping[str, Any], ...]
    scores: Mapping[int, float]
    prior_down: Tuple[int, ...] = ()
    migration_state: Mapping[str, Any] = field(default_factory=dict)
    quarantine_state: Mapping[str, Any] = field(default_factory=dict)
    version: int = CHECKPOINT_VERSION

    def to_dict(self) -> Dict[str, Any]:
        """A JSON-safe dict of the whole checkpoint."""
        return {
            "version": self.version,
            "next_epoch": self.next_epoch,
            "config": dict(self.config),
            "epochs": [dict(epoch) for epoch in self.epochs],
            "scores": {
                str(node): score for node, score in sorted(self.scores.items())
            },
            "prior_down": list(self.prior_down),
            "migration_state": dict(self.migration_state),
            "quarantine_state": dict(self.quarantine_state),
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "DatacenterCheckpoint":
        """Rebuild a checkpoint from :meth:`to_dict` output."""
        version = payload.get("version")
        if version != CHECKPOINT_VERSION:
            raise ConfigurationError(
                f"unsupported checkpoint version {version!r} "
                f"(this build writes v{CHECKPOINT_VERSION})"
            )
        return cls(
            next_epoch=payload["next_epoch"],
            config=dict(payload.get("config", {})),
            epochs=tuple(dict(e) for e in payload.get("epochs", ())),
            scores={
                int(node): score
                for node, score in payload.get("scores", {}).items()
            },
            prior_down=tuple(payload.get("prior_down", ())),
            migration_state=dict(payload.get("migration_state", {})),
            quarantine_state=dict(payload.get("quarantine_state", {})),
            version=version,
        )

    def to_json(self) -> str:
        """Canonical JSON (sorted keys, no whitespace) of the checkpoint."""
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))

    @classmethod
    def from_json(cls, text: str) -> "DatacenterCheckpoint":
        """Parse a checkpoint from :meth:`to_json` output."""
        try:
            payload = json.loads(text)
        except ValueError as exc:
            raise ConfigurationError(f"invalid checkpoint JSON: {exc}") from exc
        return cls.from_dict(payload)

    def save(self, path: str) -> str:
        """Atomically write the checkpoint to ``path``; returns the path.

        Written to a sibling temp file then renamed, so a mid-write kill
        never leaves a torn checkpoint behind — the previous snapshot
        survives intact.
        """
        tmp = f"{path}.tmp"
        with open(tmp, "w", encoding="utf-8") as handle:
            handle.write(self.to_json())
        os.replace(tmp, path)
        return path

    @classmethod
    def load(cls, path: str) -> "DatacenterCheckpoint":
        """Read a checkpoint previously written with :meth:`save`."""
        with open(path, "r", encoding="utf-8") as handle:
            return cls.from_json(handle.read())

    def validate_config(self, expected: Mapping[str, Any]) -> None:
        """Fail fast if the resumed run's configuration drifted.

        Compares canonical JSON of both fingerprints so nested dicts and
        tuple/list differences don't produce false mismatches.
        """
        ours = json.dumps(self.to_dict()["config"], sort_keys=True)
        theirs = json.dumps(
            DatacenterCheckpoint(
                next_epoch=0, config=dict(expected), epochs=(), scores={}
            ).to_dict()["config"],
            sort_keys=True,
        )
        if ours != theirs:
            raise ConfigurationError(
                "checkpoint configuration mismatch: the resumed run's "
                "placement/seed/epoch-duration/chaos settings differ from "
                "the checkpointed run's; resume with identical settings "
                "(only the epoch target may change)"
            )
