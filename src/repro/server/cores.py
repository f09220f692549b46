"""Core-pool time sharing: CFS-like fair sharing and RT-style priority.

When several applications share a pool of cores (the Unmanaged baseline, the
LC-first baseline, or ARQ's shared region), each application receives a
*fractional* number of effective cores. Two policies are modelled:

* :data:`CorePolicy.FAIR` — Linux CFS: core time is divided proportionally
  to runnable thread counts, with water-filling so that an application never
  receives more than it demands and the surplus is redistributed.
* :data:`CorePolicy.LC_PRIORITY` — real-time priority (the LC-first
  baseline, and the intra-shared-region rule of ARQ): latency-critical
  applications are water-filled first; best-effort applications split
  whatever remains.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, Sequence

from repro.errors import ModelError


class CorePolicy(enum.Enum):
    """How a shared core pool divides time among its occupants."""

    FAIR = "fair"
    LC_PRIORITY = "lc_priority"


@dataclass(frozen=True)
class CoreDemand:
    """One application's claim on a shared core pool.

    Attributes
    ----------
    name:
        Application name.
    weight:
        Fair-share weight — proportional to runnable thread count.
    demand:
        Cores' worth of work the application can actually use (an LC app
        at low load cannot consume its full fair share; CFS gives the
        slack to others).
    is_lc:
        Whether the application is latency-critical (used by the
        LC-priority policy).
    """

    name: str
    weight: float
    demand: float
    is_lc: bool

    def __post_init__(self) -> None:
        if self.weight < 0:
            raise ModelError(f"weight of {self.name!r} cannot be negative")
        if self.demand < 0:
            raise ModelError(f"demand of {self.name!r} cannot be negative")


def water_fill(pool: float, demands: Sequence[CoreDemand]) -> Dict[str, float]:
    """Divide ``pool`` cores among ``demands`` proportionally to weight,
    never exceeding any application's demand, redistributing surplus.

    This is the classic progressive-filling algorithm: repeatedly give every
    unsatisfied application its weighted share of the remaining pool; when
    an application's share exceeds its demand, cap it and redistribute.
    """
    if pool < 0:
        raise ModelError(f"core pool cannot be negative: {pool}")
    allocation = {d.name: 0.0 for d in demands}
    remaining = pool
    unsatisfied = [d for d in demands if d.demand > 0 and d.weight > 0]
    # Each iteration satisfies at least one application, so this terminates
    # in at most len(demands) rounds.
    while unsatisfied and remaining > 1e-12:
        total_weight = sum(d.weight for d in unsatisfied)
        share = {d.name: remaining * d.weight / total_weight for d in unsatisfied}
        capped = [d for d in unsatisfied if share[d.name] >= d.demand - allocation[d.name]]
        if not capped:
            for d in unsatisfied:
                allocation[d.name] += share[d.name]
            remaining = 0.0
            break
        for d in capped:
            grant = d.demand - allocation[d.name]
            allocation[d.name] = d.demand
            remaining -= grant
        unsatisfied = [d for d in unsatisfied if d not in capped]
    return allocation


#: Fraction of a shared pool reserved for non-real-time tasks under the
#: LC-priority policy — Linux's RT throttling (sched_rt_runtime_us) keeps
#: ~5% of CPU time for CFS tasks so best-effort work is never fully starved.
RT_THROTTLE_RESERVE = 0.05


def share_cores(
    pool: float,
    demands: Sequence[CoreDemand],
    policy: CorePolicy = CorePolicy.FAIR,
) -> Dict[str, float]:
    """Divide a shared core pool according to ``policy``.

    Returns application name → effective (fractional) cores from this pool.
    """
    if policy is CorePolicy.FAIR:
        return water_fill(pool, demands)

    lc_demands = [d for d in demands if d.is_lc]
    be_demands = [d for d in demands if not d.is_lc]
    lc_pool = pool
    if be_demands and any(d.demand > 0 for d in be_demands):
        lc_pool = pool * (1.0 - RT_THROTTLE_RESERVE)
    allocation = water_fill(lc_pool, lc_demands)
    used = sum(allocation.values())
    allocation.update(water_fill(max(0.0, pool - used), be_demands))
    for d in demands:
        allocation.setdefault(d.name, 0.0)
    return allocation
