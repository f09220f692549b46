"""Interference-aware migration: rebalance nodes between global epochs.

The paper scores a *node's* health with one number — ``E_S``. This module
applies that score one level up, the way the Alibaba interference-scoring
mechanism and C-Koordinator drive cluster actions from a per-host score:
after every global epoch the coordinator holds a fresh per-node
interference score (each node's measured mean ``E_S``), and a
:class:`MigrationPolicy` turns the score vector into a bounded, hysteretic
set of :class:`Move` proposals.

:class:`EntropyGuidedMigration` is deliberately ARQ-shaped (Algorithm 1
at datacenter scale):

* **move budget** — at most ``budget`` migrations per global epoch, as
  ARQ moves at most one resource unit per adjustment interval;
* **hysteresis** — a donor/recipient score gap below ``hysteresis`` is
  noise, not signal: no move;
* **cooldown** — a node that just participated in a move sits out
  ``cooldown_epochs`` epochs, mirroring ARQ's penalty cooldown, so the
  policy cannot thrash an application back and forth.

Only best-effort members migrate: they are the interference *sources*
(and, in a real datacenter, the cheap-to-move ones); latency-critical
applications keep their placement.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field, replace
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.datacenter.placement import (
    Assignment,
    _is_lc,
    _member_demand,
    _member_pressure,
    _share,
)
from repro.errors import ConfigurationError
from repro.server.spec import NodeSpec
from repro.workloads.loadgen import TimeShiftedLoad


def _demand_at(member: object, now_s: float, horizon_s: float) -> Tuple[float, float]:
    """A member's ``(cores, GB/s)`` demand over ``[now_s, now_s + horizon_s]``."""
    if _is_lc(member):
        member = replace(
            member, load=TimeShiftedLoad(trace=member.load, offset_s=now_s)
        )
    return _member_demand(member, horizon_s)


def _pressure_at(
    members: Sequence[object],
    spec: NodeSpec,
    now_s: float,
    horizon_s: float,
) -> float:
    """Node packing pressure over the window ``[now_s, now_s + horizon_s]``.

    Placement scores pressure at *peak-over-horizon from t=0* — right for
    one-shot packing, but blind for migration: every diurnal trace has
    the same peak, so at peak-pressure every node of a staggered
    population looks equally full. Migration instead needs to know who
    has headroom *during the next epoch*, which is exactly this window.
    """
    total = 0.0
    for member in members:
        total += _share(_demand_at(member, now_s, horizon_s), spec)
    return total


@dataclass(frozen=True)
class Move:
    """One proposed migration: move ``member`` from ``source`` to ``target``.

    ``score_gap`` records the donor-minus-recipient interference gap the
    move was justified by (provenance for logs and experiments).
    """

    member: str
    source: int
    target: int
    score_gap: float

    def to_dict(self) -> Dict[str, object]:
        """A JSON-ready dict."""
        return {
            "member": self.member,
            "source": self.source,
            "target": self.target,
            "score_gap": self.score_gap,
        }

    def describe(self) -> str:
        """Human-readable one-liner."""
        return (
            f"{self.member}: node {self.source} -> {self.target} "
            f"(gap {self.score_gap:.3f})"
        )


class MigrationPolicy(abc.ABC):
    """A policy proposing migrations from per-node interference scores."""

    name: str = "migration"

    @abc.abstractmethod
    def propose(
        self,
        scores: Mapping[int, float],
        assignment: Assignment,
        specs: Sequence[NodeSpec],
        *,
        now_s: float = 0.0,
        horizon_s: float = 0.0,
    ) -> List[Move]:
        """Propose moves given this epoch's node scores.

        ``scores`` maps node index to measured mean ``E_S`` (nodes with
        no measured epochs are absent). ``now_s``/``horizon_s`` describe
        the load-trace window the *next* epoch will run over — capacity
        checks should look there, not at ``t=0``. Implementations must
        be deterministic: same inputs → same moves.
        """

    def reset(self) -> None:
        """Clear any internal state (cooldowns) before a fresh timeline."""

    def state_dict(self) -> Dict[str, object]:
        """The policy's mutable state as a JSON-safe dict.

        Stateless policies return ``{}``. Stateful ones (cooldowns)
        override so the datacenter checkpoint can capture and restore
        them — resumed timelines must propose the same moves the
        uninterrupted run would have.
        """
        return {}

    def load_state(self, state: Mapping[str, object]) -> None:
        """Restore state previously captured with :meth:`state_dict`."""


@dataclass
class EntropyGuidedMigration(MigrationPolicy):
    """Move BE hogs from high-``E_S`` nodes toward upcoming headroom.

    Per epoch, up to ``budget`` moves: pick the hottest eligible donor
    (highest score, hosting at least one BE member, not cooling down)
    and the recipient with the most *headroom over the next epoch's load
    window* whose score sits at least ``hysteresis`` below the donor's,
    then move the donor's highest-pressure BE member across — provided
    it actually fits (reservations plus the hog within one node's worth
    of resources). Donor ranking is pure ``E_S``; recipient ranking is
    upcoming-window pressure, because the score cannot tell a diurnal
    trough (real headroom) from a well-protected peak. Both endpoints
    then cool down for ``cooldown_epochs`` epochs. All ties break on the
    lower node index and the lexicographically-first member name, so
    proposals are fully deterministic.
    """

    budget: int = 1
    hysteresis: float = 0.02
    cooldown_epochs: int = 1
    name: str = field(default="entropy-guided")
    _cooldowns: Dict[int, int] = field(default_factory=dict, repr=False)

    def __post_init__(self) -> None:
        if self.budget < 1:
            raise ConfigurationError(f"migration budget must be >= 1: {self.budget}")
        if self.hysteresis < 0:
            raise ConfigurationError(
                f"hysteresis cannot be negative: {self.hysteresis}"
            )
        if self.cooldown_epochs < 0:
            raise ConfigurationError(
                f"cooldown cannot be negative: {self.cooldown_epochs}"
            )

    def reset(self) -> None:
        """Forget every node's cooldown."""
        self._cooldowns.clear()

    def state_dict(self) -> Dict[str, object]:
        """The cooldown table as a JSON-safe dict (checkpoint support)."""
        return {
            "cooldowns": {
                str(node): left for node, left in sorted(self._cooldowns.items())
            }
        }

    def load_state(self, state: Mapping[str, object]) -> None:
        """Restore cooldowns captured with :meth:`state_dict`."""
        self._cooldowns = {
            int(node): left
            for node, left in state.get("cooldowns", {}).items()
        }

    def propose(
        self,
        scores: Mapping[int, float],
        assignment: Assignment,
        specs: Sequence[NodeSpec],
        *,
        now_s: float = 0.0,
        horizon_s: float = 0.0,
    ) -> List[Move]:
        """Propose up to ``budget`` hysteretic, cooldown-gated moves."""
        buckets = [list(bucket) for bucket in assignment.per_node]
        moves: List[Move] = []
        frozen = set(self._cooldowns)
        # Upcoming-window pressure per node, computed once and patched
        # after each move (only the two endpoints change) — the budget
        # loop stays O(nodes) instead of O(budget * nodes * members).
        pressures = {
            node: _pressure_at(buckets[node], specs[node], now_s, horizon_s)
            for node in scores
            if node < len(buckets)
        }
        for _ in range(self.budget):
            move = self._best_move(
                scores, buckets, specs, frozen, pressures, horizon_s
            )
            if move is None:
                break
            member = next(
                m for m in buckets[move.source] if m.name == move.member
            )
            buckets[move.source] = [
                m for m in buckets[move.source] if m.name != move.member
            ]
            buckets[move.target].append(member)
            for node in (move.source, move.target):
                pressures[node] = _pressure_at(
                    buckets[node], specs[node], now_s, horizon_s
                )
            frozen.update((move.source, move.target))
            moves.append(move)
        # Tick surviving cooldowns *after* this round used them, then
        # freeze this round's endpoints: a node touched by a move sits
        # out exactly the next ``cooldown_epochs`` proposal rounds.
        self._cooldowns = {
            node: left - 1 for node, left in self._cooldowns.items() if left > 1
        }
        if self.cooldown_epochs:
            for move in moves:
                self._cooldowns[move.source] = self.cooldown_epochs
                self._cooldowns[move.target] = self.cooldown_epochs
        return moves

    def _best_move(
        self,
        scores: Mapping[int, float],
        buckets: List[List[object]],
        specs: Sequence[NodeSpec],
        frozen: set,
        pressures: Mapping[int, float],
        horizon_s: float,
    ) -> Optional[Move]:
        """The single best eligible (donor, recipient, member) triple."""
        donors = sorted(
            (
                node
                for node, score in scores.items()
                if node not in frozen
                and node < len(buckets)
                and any(not _is_lc(m) for m in buckets[node])
            ),
            key=lambda node: (-scores[node], node),
        )
        # Recipients rank by *headroom over the next epoch's window*, not
        # by score: every hog-free node meeting its QoS shows E_S ≈ 0,
        # so the score cannot tell a diurnal trough (real headroom) from
        # a well-protected peak. E_S still gates eligibility through the
        # hysteresis test against the donor below.
        recipients = sorted(
            (
                node
                for node, score in scores.items()
                if node not in frozen and node < len(buckets)
            ),
            key=lambda node: (pressures[node], scores[node], node),
        )
        # A hog's weight depends only on the recipient's spec, so each
        # donor weighs its hogs once per distinct spec among recipients.
        kinds: Dict[NodeSpec, None] = dict.fromkeys(specs[node] for node in recipients)
        for donor in donors:
            candidates = [
                recipient
                for recipient in recipients
                if recipient != donor
                and scores[donor] - scores[recipient] > self.hysteresis
            ]
            if not candidates:
                continue
            hogs = sorted(
                (m for m in buckets[donor] if not _is_lc(m)),
                key=lambda m: (-_member_pressure(m, specs[donor]), m.name),
            )
            # Hogs are BE members: their demand is load-trace independent,
            # so the cached node pressure plus the hog's weight is exact.
            demands = [_member_demand(hog, horizon_s) for hog in hogs]
            weights = {
                spec: [_share(demand, spec) for demand in demands] for spec in kinds
            }
            lightest = min(min(row) for row in weights.values())
            for recipient in candidates:
                # Recipients come lightest first: once even the lightest
                # hog overflows this one, it overflows every later one.
                if pressures[recipient] + lightest > 1.0 + 1e-9:
                    break
                for hog, weight in zip(hogs, weights[specs[recipient]]):
                    # Capacity guard over the *next epoch's* load window
                    # (E_S stays the ranking signal): the recipient with
                    # the hog added must genuinely fit inside the node —
                    # reservations plus the hog's threads within one
                    # node's worth of resources. A low-E_S node at its
                    # diurnal peak has no headroom (its LC apps are
                    # merely well-protected); parking the hog there, or
                    # making any merely-lateral move, just starves the
                    # hog and trades E_LC noise for real E_BE loss.
                    if pressures[recipient] + weight <= 1.0 + 1e-9:
                        return Move(
                            member=hog.name,
                            source=donor,
                            target=recipient,
                            score_gap=scores[donor] - scores[recipient],
                        )
        return None


#: Named migration policies (the CLI's ``--migration`` choices).
MIGRATION_POLICIES = ("none", "entropy")


def migration_policy(name: str, **kwargs: object) -> Optional[MigrationPolicy]:
    """Build a named migration policy (``None`` for ``"none"``)."""
    if name == "none":
        return None
    if name == "entropy":
        return EntropyGuidedMigration(**kwargs)  # type: ignore[arg-type]
    raise ConfigurationError(
        f"unknown migration policy {name!r}; choose from {MIGRATION_POLICIES}"
    )
