"""Load traces: how an LC application's load evolves over a run.

The paper evaluates constant loads (§VI-A) and a fluctuating Xapian load
(§VI-B, Fig. 13: 250 seconds sweeping 10% → 90% and back). A trace maps
simulation time (seconds) to a load fraction in [0, 1], and reports its
exact peak over any closed interval (:meth:`LoadTrace.peak`).
"""

from __future__ import annotations

import abc
import math
from dataclasses import dataclass
from typing import Tuple

from repro.errors import ConfigurationError


class LoadTrace(abc.ABC):
    """A time-varying load level for one LC application."""

    @abc.abstractmethod
    def fraction(self, time_s: float) -> float:
        """Load fraction in [0, 1] at simulation time ``time_s``."""

    @abc.abstractmethod
    def peak(self, t0_s: float, t1_s: float) -> float:
        """Exact maximum load over the closed interval ``[t0_s, t1_s]``.

        Computed from the trace's shape (breakpoints, crests), not by
        sampling, so a spike of any width inside the interval counts.
        """

    def __call__(self, time_s: float) -> float:
        value = self.fraction(time_s)
        if not 0.0 <= value <= 1.0:
            raise ConfigurationError(
                f"{type(self).__name__} produced a load outside [0, 1]: {value}"
            )
        return value


@dataclass(frozen=True)
class ConstantLoad(LoadTrace):
    """A fixed load fraction (the §VI-A constant-load experiments)."""

    level: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.level <= 1.0:
            raise ConfigurationError(f"load level must be in [0, 1], got {self.level}")

    def fraction(self, time_s: float) -> float:
        return self.level

    def peak(self, t0_s: float, t1_s: float) -> float:
        return self.level


@dataclass(frozen=True)
class StepLoad(LoadTrace):
    """A single step from ``before`` to ``after`` at ``at_s`` seconds."""

    before: float
    after: float
    at_s: float

    def __post_init__(self) -> None:
        for value in (self.before, self.after):
            if not 0.0 <= value <= 1.0:
                raise ConfigurationError(f"load level must be in [0, 1], got {value}")
        if self.at_s < 0:
            raise ConfigurationError("step time cannot be negative")

    def fraction(self, time_s: float) -> float:
        return self.before if time_s < self.at_s else self.after

    def peak(self, t0_s: float, t1_s: float) -> float:
        if t1_s < self.at_s:
            return self.before
        if t0_s >= self.at_s:
            return self.after
        return max(self.before, self.after)


@dataclass(frozen=True)
class PiecewiseLoad(LoadTrace):
    """Piecewise-constant load: ``segments`` of (start_s, level).

    Segments must start at 0 and be sorted; each level holds until the next
    segment begins.
    """

    segments: Tuple[Tuple[float, float], ...]

    def __post_init__(self) -> None:
        if not self.segments:
            raise ConfigurationError("PiecewiseLoad needs at least one segment")
        if self.segments[0][0] != 0:
            raise ConfigurationError("the first segment must start at t=0")
        previous = -1.0
        for start, level in self.segments:
            if start <= previous:
                raise ConfigurationError("segments must be strictly increasing in time")
            if not 0.0 <= level <= 1.0:
                raise ConfigurationError(f"load level must be in [0, 1], got {level}")
            previous = start

    @classmethod
    def of(cls, *segments: Tuple[float, float]) -> "PiecewiseLoad":
        return cls(segments=tuple(segments))

    def fraction(self, time_s: float) -> float:
        level = self.segments[0][1]
        for start, value in self.segments:
            if time_s >= start:
                level = value
            else:
                break
        return level

    def peak(self, t0_s: float, t1_s: float) -> float:
        # The level at t0, then every segment starting inside (t0, t1].
        return max(
            [self.fraction(t0_s)]
            + [level for start, level in self.segments if t0_s < start <= t1_s]
        )


@dataclass(frozen=True)
class FluctuatingLoad(LoadTrace):
    """The Fig. 13 pattern: staircase up 10% → 90% and back down.

    The default reproduces the paper's 250-second run: 25-second plateaus
    stepping through 10, 30, 50, 70, 90, 70, 50, 30, 10, 30 percent.
    """

    plateau_s: float = 25.0
    levels: Tuple[float, ...] = (0.1, 0.3, 0.5, 0.7, 0.9, 0.7, 0.5, 0.3, 0.1, 0.3)

    def __post_init__(self) -> None:
        if self.plateau_s <= 0:
            raise ConfigurationError("plateau length must be positive")
        if not self.levels:
            raise ConfigurationError("FluctuatingLoad needs at least one level")
        for level in self.levels:
            if not 0.0 <= level <= 1.0:
                raise ConfigurationError(f"load level must be in [0, 1], got {level}")

    @property
    def duration_s(self) -> float:
        return self.plateau_s * len(self.levels)

    def fraction(self, time_s: float) -> float:
        if time_s < 0:
            return self.levels[0]
        index = int(time_s // self.plateau_s) % len(self.levels)
        return self.levels[index]

    def peak(self, t0_s: float, t1_s: float) -> float:
        if t1_s < 0:
            return self.levels[0]
        first = int(max(t0_s, 0.0) // self.plateau_s)
        last = int(t1_s // self.plateau_s)
        if last - first + 1 >= len(self.levels):
            return max(self.levels)
        count = len(self.levels)
        levels = [self.levels[index % count] for index in range(first, last + 1)]
        if t0_s < 0:
            levels.append(self.levels[0])
        return max(levels)


@dataclass(frozen=True)
class TimeShiftedLoad(LoadTrace):
    """A view of another trace advanced by ``offset_s`` seconds.

    ``TimeShiftedLoad(trace, offset_s=o)(t) == trace(t + o)``. The
    datacenter's global epoch loop uses this to hand each epoch's node
    runs the *next segment* of one long load trace (epoch ``e`` sees
    ``[e·Δ, (e+1)·Δ)``), and phase-staggered diurnal populations are
    built by shifting one :class:`DiurnalLoad` per group.
    """

    trace: LoadTrace
    offset_s: float = 0.0

    def fraction(self, time_s: float) -> float:
        return self.trace.fraction(time_s + self.offset_s)

    def peak(self, t0_s: float, t1_s: float) -> float:
        return self.trace.peak(t0_s + self.offset_s, t1_s + self.offset_s)


@dataclass(frozen=True)
class DiurnalLoad(LoadTrace):
    """Smooth day/night oscillation: high in the "daytime", low at "night".

    ``period_s`` is a full day; the load swings sinusoidally between
    ``low`` and ``high``. Used by the extension examples.
    """

    low: float
    high: float
    period_s: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.low <= self.high <= 1.0:
            raise ConfigurationError("need 0 <= low <= high <= 1")
        if self.period_s <= 0:
            raise ConfigurationError("period must be positive")

    def fraction(self, time_s: float) -> float:
        phase = math.sin(2.0 * math.pi * time_s / self.period_s)
        return self.low + (self.high - self.low) * 0.5 * (1.0 + phase)

    def peak(self, t0_s: float, t1_s: float) -> float:
        # Crests sit at period/4 + k·period. Without one inside the
        # interval the sinusoid only falls, rises, or dips to a trough
        # there, so one of the two ends is the peak.
        quarter = self.period_s / 4.0
        crest = quarter + math.ceil((t0_s - quarter) / self.period_s) * self.period_s
        if crest <= t1_s:
            return self.high
        return max(self.fraction(t0_s), self.fraction(t1_s))
