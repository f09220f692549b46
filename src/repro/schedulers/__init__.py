"""Resource scheduling strategies: ARQ and the paper's baselines.

* :mod:`repro.schedulers.base` — the :class:`Scheduler` interface and
  :class:`RegionPlan` (isolated regions + one shared region);
* :mod:`repro.schedulers.unmanaged` — Linux CFS fair sharing (everything
  shared, no isolation);
* :mod:`repro.schedulers.lc_first` — real-time priority preemption;
* :mod:`repro.schedulers.parties` — PARTIES: strict partitioning driven by
  per-application slack and a resource-type FSM;
* :mod:`repro.schedulers.clite` — CLITE: strict partitioning chosen by
  Bayesian optimisation;
* :mod:`repro.schedulers.arq` — the paper's ARQ strategy (Algorithm 1);
* :mod:`repro.schedulers.static` — fixed plans for what-if studies
  (Fig. 1).
"""

from repro.schedulers.arq import ARQScheduler
from repro.schedulers.base import RegionPlan, Scheduler, SchedulerContext
from repro.schedulers.clite import CLITEScheduler
from repro.schedulers.fsm import ResourceTypeFSM
from repro.schedulers.lc_first import LCFirstScheduler
from repro.schedulers.parties import PartiesScheduler
from repro.schedulers.static import StaticScheduler
from repro.schedulers.unmanaged import UnmanagedScheduler

__all__ = [
    "ARQScheduler",
    "CLITEScheduler",
    "LCFirstScheduler",
    "PartiesScheduler",
    "RegionPlan",
    "ResourceTypeFSM",
    "Scheduler",
    "SchedulerContext",
    "StaticScheduler",
    "UnmanagedScheduler",
]
