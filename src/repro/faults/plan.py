"""Typed, deterministic fault specifications and the :class:`FaultPlan`.

A *fault plan* is a declarative timeline of adverse conditions injected
into a collocation run: load spikes, QPS ramps, telemetry dropout and
corruption, capacity degradation and best-effort arrival bursts. Every
spec is a frozen dataclass describing a ``[start_s, start_s + duration_s)``
window on the **simulated clock** — a fault's effect is a pure function of
simulation time, so a seeded run with a plan attached is exactly as
deterministic as one without (byte-identical traces across ``--jobs``
values and ``PYTHONHASHSEED`` settings).

Two families of fault exist and the distinction matters for scoring:

* **ground-truth faults** (:class:`LoadSpike`, :class:`QpsRamp`,
  :class:`CapacityDegradation`, :class:`BEBurst`) change what actually
  happens on the node — epoch records and entropy series reflect them;
* **telemetry faults** (:class:`TelemetryDropout`,
  :class:`TelemetryCorruption`) corrupt only the *scheduler's view*; the
  run's records keep the true measurements, so any degradation in ``E_S``
  is attributable to the bad decisions the corrupt view induced.

Plans round-trip through JSON (:meth:`FaultPlan.to_json` /
:meth:`FaultPlan.from_json`) for the CLI's ``--faults plan.json`` flag,
and :func:`fault_preset` builds the named, intensity-scalable presets the
resilience experiment sweeps.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import ClassVar, Dict, Iterable, List, Tuple

from repro.errors import FaultError, TelemetryCorruptionError
from repro.tagged import Plan, Tagged

#: The telemetry-corruption modes :class:`TelemetryCorruption` understands.
CORRUPTION_MODES = ("nan", "stale", "outlier")


@dataclass(frozen=True)
class FaultSpec(Tagged, family="fault", error=FaultError):
    """Base class of all fault specs: a kind tag plus an activity window.

    ``kind`` is a class attribute (stable wire name); ``start_s`` and
    ``duration_s`` bound the half-open activity window
    ``[start_s, start_s + duration_s)`` on the simulated clock. Subclasses
    add flat, JSON-safe fields.
    """

    kind: ClassVar[str] = "fault"

    start_s: float = 0.0
    duration_s: float = 1.0

    def __post_init__(self) -> None:
        if not self.start_s >= 0:
            raise FaultError(f"fault start must be >= 0, got {self.start_s}")
        if not self.duration_s > 0:
            raise FaultError(f"fault duration must be positive, got {self.duration_s}")

    @property
    def end_s(self) -> float:
        """The first instant at which the fault is no longer active."""
        return self.start_s + self.duration_s

    def active_at(self, time_s: float) -> bool:
        """Whether the fault is active at simulated time ``time_s``."""
        return self.start_s <= time_s < self.end_s

    def targets(self) -> Tuple[str, ...]:
        """Application names the fault targets (empty = every application)."""
        value = getattr(self, "applications", None)
        if value is not None:
            return tuple(value)
        application = getattr(self, "application", None)
        return (application,) if application else ()

    def describe(self) -> str:
        """Human-readable one-liner (used in trace events)."""
        extras = ", ".join(
            f"{f.name}={getattr(self, f.name)!r}"
            for f in fields(self)
            if f.name not in ("start_s", "duration_s")
        )
        window = f"[{self.start_s:g}s, {self.end_s:g}s)"
        return f"{self.kind} {window}" + (f" {extras}" if extras else "")


#: Registry of fault kinds (shared with :class:`FaultSpec`).
FAULT_KINDS: Dict[str, type] = FaultSpec._kinds

#: Rebuild a :class:`FaultSpec` from its ``to_dict`` output.
fault_from_dict = FaultSpec.from_dict


def _clamp01(value: float) -> float:
    """Clamp a load fraction into the ``[0, 1]`` domain of load traces."""
    return min(1.0, max(0.0, value))


@dataclass(frozen=True)
class LoadSpike(FaultSpec):
    """Pin one LC application's load at ``level`` for the window."""

    kind: ClassVar[str] = "load_spike"

    application: str = ""
    level: float = 0.95

    def __post_init__(self) -> None:
        super().__post_init__()
        if not self.application:
            raise FaultError("a load spike needs a target application")
        if not 0.0 <= self.level <= 1.0:
            raise FaultError(f"spike level must be in [0, 1], got {self.level}")

    def level_at(self, time_s: float) -> float:
        """The injected load level (constant across the window)."""
        return self.level


@dataclass(frozen=True)
class QpsRamp(FaultSpec):
    """Ramp one LC application's load linearly across the window."""

    kind: ClassVar[str] = "qps_ramp"

    application: str = ""
    from_level: float = 0.1
    to_level: float = 0.9

    def __post_init__(self) -> None:
        super().__post_init__()
        if not self.application:
            raise FaultError("a QPS ramp needs a target application")
        for label, level in (("from", self.from_level), ("to", self.to_level)):
            if not 0.0 <= level <= 1.0:
                raise FaultError(f"{label}_level must be in [0, 1], got {level}")

    def level_at(self, time_s: float) -> float:
        """The linearly interpolated load level at ``time_s``."""
        progress = (time_s - self.start_s) / self.duration_s
        return _clamp01(self.from_level + (self.to_level - self.from_level) * progress)


@dataclass(frozen=True)
class TelemetryDropout(FaultSpec):
    """Suppress the targeted applications' samples (empty = all of them)."""

    kind: ClassVar[str] = "telemetry_dropout"

    applications: Tuple[str, ...] = ()


@dataclass(frozen=True)
class TelemetryCorruption(FaultSpec):
    """Corrupt the targeted applications' samples in the scheduler's view.

    ``mode`` selects the corruption: ``"nan"`` replaces values with NaN,
    ``"stale"`` freezes them at the last pre-fault value, ``"outlier"``
    multiplies LC tail latencies by ``factor`` (and divides BE IPCs by it).
    """

    kind: ClassVar[str] = "telemetry_corruption"

    mode: str = "nan"
    applications: Tuple[str, ...] = ()
    factor: float = 64.0

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.mode not in CORRUPTION_MODES:
            raise TelemetryCorruptionError(
                f"unknown corruption mode {self.mode!r}; "
                f"choose from {CORRUPTION_MODES}"
            )
        if not self.factor > 0:
            raise FaultError(f"corruption factor must be positive, got {self.factor}")


@dataclass(frozen=True)
class CapacityDegradation(FaultSpec):
    """Scale the targeted applications' effective cores/LLC ways down.

    Models cores going busy/offline (``cores_factor``) or cache ways lost
    to a co-runner outside the managed set (``ways_factor``); the factors
    multiply the *effective* resources after contention resolution, so the
    scheduler's plan still validates against full node capacity.
    """

    kind: ClassVar[str] = "capacity_degradation"

    applications: Tuple[str, ...] = ()
    cores_factor: float = 0.5
    ways_factor: float = 1.0

    def __post_init__(self) -> None:
        super().__post_init__()
        for label, factor in (
            ("cores_factor", self.cores_factor),
            ("ways_factor", self.ways_factor),
        ):
            if not 0.0 < factor <= 1.0:
                raise FaultError(f"{label} must be in (0, 1], got {factor}")


@dataclass(frozen=True)
class BEBurst(FaultSpec):
    """A best-effort arrival burst saturating shared memory bandwidth.

    ``intensity`` ≥ 1 scales how hard the burst squeezes the LC
    applications' effective bandwidth headroom for the window.
    """

    kind: ClassVar[str] = "be_burst"

    applications: Tuple[str, ...] = ()
    intensity: float = 2.0

    def __post_init__(self) -> None:
        super().__post_init__()
        if not self.intensity >= 1.0:
            raise FaultError(f"burst intensity must be >= 1, got {self.intensity}")

    def bandwidth_factor(self) -> float:
        """The extra memory-time stretch imposed on LC applications (≥ 1).

        Multiplies ``EffectiveResources.bandwidth_multiplier``, which the
        performance model treats as a stretch factor on memory-bound
        execution time — larger means slower, never below 1.
        """
        return 1.0 + 0.5 * (self.intensity - 1.0)


class FaultPlan(Plan):
    """An immutable, JSON-round-trippable timeline of :class:`FaultSpec` values."""

    spec: ClassVar[type] = FaultSpec

    def active_at(self, time_s: float) -> List[FaultSpec]:
        """The faults active at ``time_s``, in plan order."""
        return [fault for fault in self.faults if fault.active_at(time_s)]


def check_targets(
    plan: FaultPlan, names: Iterable[str], label: str = "fault plan"
) -> None:
    """Raise :class:`~repro.errors.FaultError` when ``plan`` targets an
    application outside ``names`` (the run's mix); ``label`` names the
    plan in the message."""
    mix = set(names)
    unknown = sorted({t for fault in plan for t in fault.targets()} - mix)
    if unknown:
        raise FaultError(
            f"{label} targets application(s) {', '.join(unknown)} "
            f"not in the mix ({', '.join(sorted(mix))})"
        )


def _preset_telemetry_dropout(intensity: float) -> Tuple[FaultSpec, ...]:
    """Repeated full-telemetry blackouts plus a NaN-corruption window."""
    blackout = 3.0 * intensity
    return (
        TelemetryDropout(start_s=5.0, duration_s=blackout),
        TelemetryDropout(start_s=40.0, duration_s=blackout),
        TelemetryCorruption(start_s=70.0, duration_s=blackout, mode="nan"),
    )


def _preset_telemetry_corruption(intensity: float) -> Tuple[FaultSpec, ...]:
    """NaN, stale and outlier corruption windows across the run."""
    window = 4.0 * intensity
    return (
        TelemetryCorruption(start_s=6.0, duration_s=window, mode="nan"),
        TelemetryCorruption(start_s=30.0, duration_s=window, mode="stale"),
        TelemetryCorruption(
            start_s=60.0,
            duration_s=window,
            mode="outlier",
            factor=16.0 * max(1.0, intensity),
        ),
    )


def _preset_load_spike(intensity: float) -> Tuple[FaultSpec, ...]:
    """A Xapian saturation spike followed by a steep ramp."""
    return (
        LoadSpike(
            start_s=8.0,
            duration_s=6.0 * intensity,
            application="xapian",
            level=_clamp01(0.5 + 0.45 * intensity),
        ),
        QpsRamp(
            start_s=45.0,
            duration_s=10.0 * intensity,
            application="xapian",
            from_level=0.1,
            to_level=_clamp01(0.5 + 0.4 * intensity),
        ),
    )


def _preset_capacity_loss(intensity: float) -> Tuple[FaultSpec, ...]:
    """Cores going busy/offline for everybody, then an LLC squeeze."""
    shrink = max(0.25, 1.0 - 0.35 * intensity)
    return (
        CapacityDegradation(
            start_s=10.0, duration_s=8.0 * intensity, cores_factor=shrink
        ),
        CapacityDegradation(
            start_s=50.0,
            duration_s=8.0 * intensity,
            cores_factor=1.0,
            ways_factor=shrink,
        ),
    )


def _preset_be_burst(intensity: float) -> Tuple[FaultSpec, ...]:
    """Best-effort arrival bursts saturating memory bandwidth."""
    return (
        BEBurst(start_s=12.0, duration_s=6.0 * intensity, intensity=1.0 + intensity),
        BEBurst(start_s=55.0, duration_s=6.0 * intensity, intensity=1.0 + intensity),
    )


def _preset_chaos(intensity: float) -> Tuple[FaultSpec, ...]:
    """Everything at once: the resilience experiment's escalation axis."""
    return (
        _preset_telemetry_dropout(intensity)
        + _preset_load_spike(intensity)
        + _preset_capacity_loss(intensity)
        + _preset_be_burst(intensity)
    )


#: Named preset builders, each taking an intensity scale factor.
FAULT_PRESETS = {
    "telemetry-dropout": _preset_telemetry_dropout,
    "telemetry-corruption": _preset_telemetry_corruption,
    "load-spike": _preset_load_spike,
    "capacity-loss": _preset_capacity_loss,
    "be-burst": _preset_be_burst,
    "chaos": _preset_chaos,
}


def fault_preset(name: str, intensity: float = 1.0) -> FaultPlan:
    """Build a named preset :class:`FaultPlan` at the given intensity.

    ``intensity`` scales window lengths and fault magnitudes; 0 returns an
    empty plan (the clean baseline of an escalation sweep). Presets are
    written for the canonical mix, so a fault whose target application
    is absent from the run's mix injects nothing (the ``load-spike``
    faults on ``xapian``, for instance, are skipped in a mix without
    it). ``run_collocation`` and ``run_strategy`` skip absent targets
    for that reason (``--fault-preset`` and fig14 rely on it); a user
    plan passed to ``repro.run``/``repro.compare`` or ``--faults`` is
    checked with :func:`check_targets` instead.
    """
    if name not in FAULT_PRESETS:
        raise FaultError(
            f"unknown fault preset {name!r}; choose from {sorted(FAULT_PRESETS)}"
        )
    if intensity < 0:
        raise FaultError(f"fault intensity cannot be negative: {intensity}")
    if intensity == 0:
        return FaultPlan()
    return FaultPlan(faults=FAULT_PRESETS[name](intensity))
