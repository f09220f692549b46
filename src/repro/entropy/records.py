"""Observation containers and entropy breakdowns (Table II style).

The entropy theory consumes *observations*: for each LC application the
triple ``(TL_i0, TL_i1, M_i)`` and for each BE application the pair
``(IPC_solo, IPC_real)``. :class:`SystemObservation` bundles one epoch's
worth of observations for a whole node, and :meth:`SystemObservation.breakdown`
produces the full per-application and aggregate picture the paper prints in
Table II.
"""

from __future__ import annotations

import math

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.entropy import aggregate, tolerance
from repro.errors import ModelError


@dataclass(frozen=True)
class LCObservation:
    """One latency-critical application's observed state in an epoch."""

    name: str
    ideal_ms: float  # TL_i0
    measured_ms: float  # TL_i1
    threshold_ms: float  # M_i

    @property
    def tolerance(self) -> float:
        """``A_i`` (Eq. 1)."""
        return tolerance.interference_tolerance(self.ideal_ms, self.threshold_ms)

    @property
    def suffered(self) -> float:
        """``R_i`` (Eq. 2)."""
        return tolerance.interference_suffered(self.ideal_ms, self.measured_ms)

    @property
    def remaining(self) -> float:
        """``ReT_i`` (Eq. 3)."""
        return tolerance.remaining_tolerance(
            self.ideal_ms, self.measured_ms, self.threshold_ms
        )

    @property
    def intolerable(self) -> float:
        """``Q_i`` (Eq. 4)."""
        return tolerance.intolerable_interference(
            self.ideal_ms, self.measured_ms, self.threshold_ms
        )

    @property
    def satisfied(self) -> bool:
        """True when the measured tail latency meets the QoS target."""
        return self.measured_ms <= self.threshold_ms


@dataclass(frozen=True)
class BEObservation:
    """One best-effort application's observed state in an epoch."""

    name: str
    ipc_solo: float
    ipc_real: float

    def __post_init__(self) -> None:
        # Deliberately sign-only: ``nan <= 0`` is False, so NaN-corrupted
        # samples can be *constructed* (fault injection needs that) but are
        # rejected wherever they would be consumed — see :attr:`slowdown`
        # and the telemetry sanitizer in ``schedulers.base``.
        if self.ipc_solo <= 0:
            raise ModelError(f"ipc_solo must be positive, got {self.ipc_solo}")
        if self.ipc_real <= 0:
            raise ModelError(f"ipc_real must be positive, got {self.ipc_real}")

    @property
    def slowdown(self) -> float:
        """``IPC_solo / IPC_real`` — ≥ 1 under interference.

        Raises :class:`~repro.errors.ModelError` on non-finite samples:
        ``max(1.0, nan)`` returns 1.0, so NaN telemetry would otherwise
        masquerade as a perfectly unimpeded application.
        """
        if not (math.isfinite(self.ipc_solo) and math.isfinite(self.ipc_real)):
            raise ModelError(
                f"IPC samples for {self.name!r} must be finite, got "
                f"solo={self.ipc_solo} real={self.ipc_real}"
            )
        return max(1.0, self.ipc_solo / self.ipc_real)


@dataclass(frozen=True)
class EntropyBreakdown:
    """The aggregate entropy picture for one epoch (Table II's System rows)."""

    e_lc: float
    e_be: float
    e_s: float
    relative_importance: float
    mean_tolerance: float  # system-level mean A_i
    mean_suffered: float  # system-level mean R_i
    mean_remaining: float  # system-level mean ReT_i
    yield_fraction: float  # ratio of satisfied LC applications ("yield")


@dataclass(frozen=True)
class SystemObservation:
    """All observations for one node in one epoch.

    Either application list may be empty — the paper's scenarios 1 and 2
    (only LC, only BE) are the degenerate cases of scenario 3.
    """

    lc: Sequence[LCObservation] = field(default_factory=tuple)
    be: Sequence[BEObservation] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        if not self.lc and not self.be:
            raise ModelError("a SystemObservation needs at least one application")

    def lc_entropy(self) -> float:
        """``E_LC`` of this observation (Eq. 5); 0.0 when no LC apps exist."""
        if not self.lc:
            return 0.0
        return aggregate.lc_entropy(
            [(o.ideal_ms, o.measured_ms, o.threshold_ms) for o in self.lc]
        )

    def be_entropy(self) -> float:
        """``E_BE`` of this observation (Eq. 6); 0.0 when no BE apps exist."""
        if not self.be:
            return 0.0
        return aggregate.be_entropy([(o.ipc_solo, o.ipc_real) for o in self.be])

    def system_entropy(self, relative_importance: Optional[float] = None) -> float:
        """``E_S`` (Eq. 7), handling the paper's three scenarios.

        When only LC applications run, ``RI`` is forced to 1; when only BE
        applications run, to 0; otherwise ``relative_importance`` is used
        (defaulting to the paper's 0.8).
        """
        ri = self._effective_ri(relative_importance)
        return aggregate.system_entropy(self.lc_entropy(), self.be_entropy(), ri)

    def yield_fraction(self) -> float:
        """Ratio of LC applications meeting their QoS target (the "yield")."""
        if not self.lc:
            return 1.0
        return sum(1 for o in self.lc if o.satisfied) / len(self.lc)

    def breakdown(
        self, relative_importance: Optional[float] = None
    ) -> EntropyBreakdown:
        """Compute the full Table II-style summary for this epoch.

        Runs one scalar pass over the observations (the scalar route
        recomputes Eqs. (1)-(4) with per-call validation roughly ten times
        per epoch). Inputs that fail the pass's validation fall back to
        :meth:`breakdown_scalar`, which raises the precise per-quantity
        :class:`~repro.errors.ModelError` the equations define; valid
        inputs produce bit-identical results either way.
        """
        ri = self._effective_ri(relative_importance)
        fast = self._breakdown_fast(ri)
        if fast is not None:
            return fast
        return self.breakdown_scalar(relative_importance)

    def breakdown_scalar(
        self, relative_importance: Optional[float] = None
    ) -> EntropyBreakdown:
        """The reference one-quantity-at-a-time breakdown.

        Kept as the validation-failure path of :meth:`breakdown` and as
        the oracle its equivalence tests compare against.
        """
        ri = self._effective_ri(relative_importance)
        e_lc = self.lc_entropy()  # validates every LC sample first
        e_be = self.be_entropy()
        e_s = self.system_entropy(ri)
        n = len(self.lc)
        # Plain left-to-right sums (CPython 3.12+ compensates float sum()).
        tolerance = suffered = remaining = 0.0
        for o in self.lc:
            tolerance += o.tolerance
            suffered += o.suffered
            remaining += o.remaining
        return EntropyBreakdown(
            e_lc=e_lc,
            e_be=e_be,
            e_s=e_s,
            relative_importance=ri,
            mean_tolerance=tolerance / n if n else 0.0,
            mean_suffered=suffered / n if n else 0.0,
            mean_remaining=remaining / n if n else 0.0,
            yield_fraction=self.yield_fraction(),
        )

    def _breakdown_fast(self, ri: float) -> Optional[EntropyBreakdown]:
        """Eqs. (1)-(7) in one scalar pass; ``None`` on invalid input.

        Each sample is validated once, then the four per-application
        quantities are the expressions of :mod:`repro.entropy.tolerance`
        (same operations, same order) and every mean is a left-to-right
        sum, as in the scalar route. Results are therefore bit-identical
        to :meth:`breakdown_scalar` whenever that path would succeed.
        """
        isfinite = math.isfinite
        n_lc = len(self.lc)
        if n_lc:
            q_sum = tolerance_sum = suffered_sum = remaining_sum = 0.0
            satisfied = 0
            for o in self.lc:
                ideal = o.ideal_ms
                measured = o.measured_ms
                threshold = o.threshold_ms
                if not (
                    isfinite(ideal)
                    and isfinite(measured)
                    and isfinite(threshold)
                    and ideal > 0
                    and measured > 0
                    and threshold > 0
                    and ideal <= threshold
                ):
                    return None
                tol = 1.0 - ideal / threshold  # A_i (Eq. 1)
                suf = 0.0 if measured < ideal else 1.0 - ideal / measured  # R_i
                q_sum += 1.0 - threshold / measured if suf > tol else 0.0  # Q_i
                tolerance_sum += tol
                suffered_sum += suf
                remaining_sum += 1.0 - measured / threshold if tol > suf else 0.0
                if measured <= threshold:
                    satisfied += 1
            e_lc = q_sum / n_lc
            mean_tolerance = tolerance_sum / n_lc
            mean_suffered = suffered_sum / n_lc
            mean_remaining = remaining_sum / n_lc
            yield_fraction = satisfied / n_lc
        else:
            e_lc = 0.0
            mean_tolerance = mean_suffered = mean_remaining = 0.0
            yield_fraction = 1.0
        n_be = len(self.be)
        if n_be:
            slowdown_sum = 0.0
            for o in self.be:
                solo = o.ipc_solo
                real = o.ipc_real
                if not (isfinite(solo) and isfinite(real) and solo > 0 and real > 0):
                    return None
                slowdown_sum += max(1.0, solo / real)
            e_be = 1.0 - n_be / slowdown_sum
        else:
            e_be = 0.0
        return EntropyBreakdown(
            e_lc=e_lc,
            e_be=e_be,
            e_s=aggregate.system_entropy(e_lc, e_be, ri),
            relative_importance=ri,
            mean_tolerance=mean_tolerance,
            mean_suffered=mean_suffered,
            mean_remaining=mean_remaining,
            yield_fraction=yield_fraction,
        )

    def remaining_tolerances(self) -> Dict[str, float]:
        """Map LC application name → ``ReT_i`` (the array ARQ consumes)."""
        return {o.name: o.remaining for o in self.lc}

    def _effective_ri(self, relative_importance: Optional[float]) -> float:
        if not self.lc:
            return 0.0
        if not self.be:
            return 1.0
        if relative_importance is None:
            return aggregate.DEFAULT_RELATIVE_IMPORTANCE
        return relative_importance

    @staticmethod
    def table_rows(observation: "SystemObservation") -> List[dict]:
        """Rows in the layout of the paper's Table II (one dict per LC app,
        plus a final ``System`` row with the aggregates)."""
        rows = []
        for o in observation.lc:
            rows.append(
                {
                    "application": o.name,
                    "TL_i0": o.ideal_ms,
                    "TL_i1": o.measured_ms,
                    "M_i": o.threshold_ms,
                    "A_i": o.tolerance,
                    "R_i": o.suffered,
                    "ReT_i": o.remaining,
                    "Q_i": o.intolerable,
                }
            )
        summary = observation.breakdown()
        rows.append(
            {
                "application": "System",
                "A_i": summary.mean_tolerance,
                "R_i": summary.mean_suffered,
                "ReT_i": summary.mean_remaining,
                "E_LC": summary.e_lc,
                "E_BE": summary.e_be,
                "E_S": summary.e_s,
            }
        )
        return rows
