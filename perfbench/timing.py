"""Summary statistics and naming rules shared by the benchmark's reports.

Pure functions only: no imports of the program under test, so the
orchestrator (``run.py``) can use them without paying ``import repro``.
"""

from __future__ import annotations

import math
import re
from typing import Optional, Sequence

#: A metric name: starts with a letter or digit, at most 64 characters
#: drawn from letters, digits, ``_``, ``.`` and ``-``.
METRIC_NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")

#: Percentiles a timing may be reported at, lowest first.
PERCENTILES = (50.0, 90.0, 99.0, 99.9)

#: Samples that must lie beyond a reported percentile.
MIN_BEYOND = 10


def valid_metric_name(name: str) -> bool:
    """Whether ``name`` is a legal metric or workload name."""
    return METRIC_NAME.fullmatch(name) is not None


def samples_beyond(n: int, p: float) -> float:
    """How many of ``n`` samples lie above the ``p``-th percentile."""
    return round(n * (100.0 - p) / 100.0, 9)  # 10000 above p99.9 is 10, not 9.99…


def tail_percentile(
    n: int, candidates: Sequence[float] = PERCENTILES, beyond: int = MIN_BEYOND
) -> Optional[float]:
    """The highest candidate percentile with ``beyond`` samples above it.

    ``None`` when even the lowest candidate lacks that many samples.
    """
    best = None
    for p in candidates:
        if samples_beyond(n, p) >= beyond:
            best = p
    return best


def percentile(values: Sequence[float], p: float) -> float:
    """The ``p``-th percentile by linear interpolation between ranks."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    position = (len(ordered) - 1) * p / 100.0
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    fraction = position - low
    return ordered[low] + (ordered[high] - ordered[low]) * fraction

