#!/usr/bin/env python3
"""Entropy as a cluster signal: scaling the theory out to many nodes.

The paper's single figure of merit ranks *strategies* on one node; this
example uses it one level up. Three LC services on staggered diurnal
load cycles and two BE batch jobs are bin-packed onto three nodes, every
node runs ARQ, and the global epoch loop scores each node by its
measured ``E_S`` after every epoch. The static plane leaves the
placement alone; entropy-guided migration moves a BE job off the
hottest node onto one with headroom over the next epoch. The pooled
``E_S`` and the per-node scores of each epoch show what the move did —
on a cluster this small it need not pay off.

Run with:  python examples/datacenter_placement.py
"""

from repro.cluster.collocation import BEMember, LCMember
from repro.datacenter import (
    BinPackingPlacement,
    Datacenter,
    EntropyGuidedMigration,
)
from repro.schedulers import ARQScheduler
from repro.server.spec import PAPER_NODE
from repro.workloads.catalog import lc_profile
from repro.workloads.loadgen import DiurnalLoad, TimeShiftedLoad

DAY_S = 120.0


def main() -> None:
    day = DiurnalLoad(low=0.05, high=0.9, period_s=DAY_S)
    members = [
        LCMember(
            profile=lc_profile(name),
            load=TimeShiftedLoad(trace=day, offset_s=i * DAY_S / 3),
        )
        for i, name in enumerate(("xapian", "moses", "img-dnn"))
    ]
    members += [BEMember.of("fluidanimate"), BEMember.of("streamcluster")]

    datacenter = Datacenter(specs=[PAPER_NODE, PAPER_NODE, PAPER_NODE])
    planes = {
        "static": None,
        "entropy-guided": EntropyGuidedMigration(budget=1),
    }
    for name, migration in planes.items():
        timeline = datacenter.run_epochs(
            members,
            BinPackingPlacement(),
            ARQScheduler,
            epochs=6,
            epoch_duration_s=20.0,
            migration=migration,
        )
        summary = timeline.breakdown()
        print(
            f"{name}: pooled E_S {summary.e_s:.3f} "
            f"(E_LC {summary.e_lc:.3f}, E_BE {summary.e_be:.3f}), "
            f"{timeline.total_moves()} move(s)"
        )
        for epoch in timeline.epochs:
            scores = " ".join(
                f"n{node}={score:.3f}" for node, score in sorted(epoch.scores.items())
            )
            moves = "".join(
                f"  then {m.member} {m.source}->{m.target}" for m in epoch.moves
            )
            print(f"  epoch {epoch.epoch}: per-node E_S [{scores}]{moves}")
    print("\n(lower E_S = less interference — the same metric, one level up)")


if __name__ == "__main__":
    main()
