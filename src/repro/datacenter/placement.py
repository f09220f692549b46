"""Application-to-node placement strategies.

A placement maps a mixed bag of LC and BE applications onto a set of
nodes. :class:`Placement` is the interface; :class:`BinPackingPlacement`
is the strategy: greedy worst-fit on a pressure score combining reserved
cores and memory-bandwidth appetite (the classic resource-vector
heuristic). ``E_S`` enters one level up, after placement: the global
epoch loop (:meth:`~repro.datacenter.cluster.Datacenter.run_epochs`)
admits arrivals onto, and migrates BE hogs away from, nodes ranked by
their measured ``E_S``.

Pressure scoring is **horizon-aware**: an LC application's core
reservation is evaluated at its *peak* load over ``horizon_s`` seconds of
its load trace, not at ``t=0`` — a diurnal or ramping workload that idles
at the start of the run would otherwise be scored as nearly free and
packed onto an already-busy node.

Bin packing is deterministic: the heaviest-first ordering is a stable
sort (equal-pressure members keep their input order) and node selection
breaks pressure ties by the lowest node index.

Cost: a member's demand (its peak-load core reservation and bandwidth)
does not depend on the node, so it is evaluated once per member and
divided by each *distinct* :class:`~repro.server.spec.NodeSpec` into a
pressure table. Bin packing then keeps one min-heap-ordered tree of node
loads per spec kind: for ``M`` members, ``N`` nodes and ``S`` distinct
specs it costs O(M·S + M·S·log N) — O(M·S + M log N) on a homogeneous
cluster — instead of one pressure evaluation per (member, node) pair.
"""

from __future__ import annotations

import abc
import math
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple, Union

from repro.cluster.collocation import BEMember, Collocation, LCMember
from repro.errors import ConfigurationError
from repro.server.spec import NodeSpec
from repro.workloads.loadgen import LoadTrace

Member = Union[LCMember, BEMember]

#: Default look-ahead for pressure scoring: long enough to cover a full
#: :class:`~repro.workloads.loadgen.FluctuatingLoad` staircase or a
#: short diurnal period. Constant loads are horizon-independent.
DEFAULT_PRESSURE_HORIZON_S = 600.0


def _is_lc(member: Member) -> bool:
    return isinstance(member, LCMember)


def peak_load(trace: LoadTrace, horizon_s: float) -> float:
    """Exact peak load fraction of ``trace`` over ``[0, horizon_s]``.

    Delegates to :meth:`~repro.workloads.loadgen.LoadTrace.peak`, so a
    spike of any width inside the horizon counts. A non-positive horizon
    degenerates to the instantaneous ``trace(0)``.
    """
    return trace.peak(0.0, max(horizon_s, 0.0))


def _member_demand(member: Member, horizon_s: float) -> Tuple[float, float]:
    """``(cores, GB/s)`` one application claims on any node.

    LC core reservation is taken at the member's **peak** load over
    ``horizon_s`` (see :func:`peak_load`): scoring at ``t=0``
    underestimates diurnal and ramping workloads, which was exactly how
    :class:`BinPackingPlacement` used to overpack nodes that only get
    busy later in the run. BE members claim all their threads.
    """
    profile = member.profile
    if _is_lc(member):
        cores = profile.reserve_cores(peak_load(member.load, horizon_s))
    else:
        cores = float(profile.threads)
    return cores, profile.membw_ref_gbps


def _share(demand: Tuple[float, float], spec: NodeSpec) -> float:
    """Packing pressure of a ``(cores, GB/s)`` demand on one node spec.

    The max of its normalised core reservation and bandwidth appetite —
    whichever dimension it stresses more.
    """
    cores, membw = demand
    return max(cores / spec.cores, membw / spec.membw_gbps)


def _member_pressure(
    member: Member, spec: NodeSpec, horizon_s: float = DEFAULT_PRESSURE_HORIZON_S
) -> float:
    """Scalar packing pressure of one application on one node."""
    return _share(_member_demand(member, horizon_s), spec)


def _spec_kinds(specs: Sequence[NodeSpec]) -> Tuple[List[NodeSpec], List[int]]:
    """The distinct specs in first-seen order, and each node's kind index."""
    kinds: Dict[NodeSpec, int] = {}
    kind_of = [kinds.setdefault(spec, len(kinds)) for spec in specs]
    return list(kinds), kind_of


def _pressure_table(
    members: Sequence[Member], kinds: Sequence[NodeSpec], horizon_s: float
) -> List[List[float]]:
    """Each member's pressure on each distinct spec: ``table[member][kind]``."""
    table = []
    for member in members:
        demand = _member_demand(member, horizon_s)
        table.append([_share(demand, spec) for spec in kinds])
    return table


def _heaviest_first(table: Sequence[Sequence[float]]) -> List[int]:
    """Member indices by their heaviest pressure on any spec, descending.

    A stable sort: equal-pressure members keep their input order.
    """
    return sorted(range(len(table)), key=lambda i: max(table[i]), reverse=True)


class _LoadTree:
    """Node loads of one spec kind in a min-heap-ordered tournament tree.

    Worst-fit wants the lowest-index node minimising ``load + weight``.
    A plain ``(load, index)`` heap is not enough: a heavier node with a
    lower index can tie with the lightest once ``weight`` is added and
    the sum rounds. Float addition is monotone, so the tied nodes are
    exactly those whose subtree minimum still sums to the key, and
    descending into the leftmost such subtree finds the lowest index in
    O(log N). Leaves hold the kind's nodes in index order; padding
    leaves are ``inf`` and never tie.
    """

    def __init__(self, nodes: Sequence[int]) -> None:
        self.nodes = list(nodes)
        self.size = 1 << (len(self.nodes) - 1).bit_length()
        self.mins = [math.inf] * (2 * self.size)
        for slot in range(len(self.nodes)):
            self.mins[self.size + slot] = 0.0
        for pos in range(self.size - 1, 0, -1):
            self.mins[pos] = min(self.mins[2 * pos], self.mins[2 * pos + 1])

    def lightest(self, weight: float) -> Tuple[float, int, int]:
        """``(load + weight, node, slot)`` of the node worst-fit picks."""
        mins = self.mins
        key = mins[1] + weight
        pos = 1
        while pos < self.size:
            pos *= 2
            if mins[pos] + weight != key:
                pos += 1
        slot = pos - self.size
        return key, self.nodes[slot], slot

    def set(self, slot: int, load: float) -> None:
        """Set one node's load and refresh the minima above it."""
        mins = self.mins
        pos = self.size + slot
        mins[pos] = load
        while pos > 1:
            pos //= 2
            mins[pos] = min(mins[2 * pos], mins[2 * pos + 1])


def node_pressure(
    members: Sequence[Member],
    spec: NodeSpec,
    horizon_s: float = DEFAULT_PRESSURE_HORIZON_S,
) -> float:
    """Total packing pressure of a member list on one node."""
    return sum(_member_pressure(member, spec, horizon_s) for member in members)


@dataclass(frozen=True)
class Assignment:
    """The outcome of a placement: per-node member lists."""

    per_node: Tuple[Tuple[Member, ...], ...]

    def indexed_collocations(
        self, specs: Sequence[NodeSpec], seed: int = 2023
    ) -> List[Tuple[int, Collocation]]:
        """Materialise ``(node_index, collocation)`` pairs for busy nodes.

        Empty nodes contribute nothing, but every returned collocation
        stays paired with the node index it runs on — consumers must use
        these indices (not list positions) to line results up with
        :attr:`per_node` and :meth:`node_of`. Each node's seed is
        ``seed + node_index``, so per-node random streams stay distinct
        and stable however many nodes are empty.
        """
        pairs: List[Tuple[int, Collocation]] = []
        for index, members in enumerate(self.per_node):
            if not members:
                continue
            pairs.append(
                (
                    index,
                    Collocation(
                        lc=tuple(m for m in members if _is_lc(m)),
                        be=tuple(m for m in members if not _is_lc(m)),
                        spec=specs[index],
                        seed=seed + index,
                    ),
                )
            )
        return pairs

    def node_of(self, name: str) -> int:
        """Index of the node hosting application ``name``."""
        for index, members in enumerate(self.per_node):
            if any(m.name == name for m in members):
                return index
        raise ConfigurationError(f"application {name!r} was not placed")

    def members(self) -> List[Member]:
        """All placed members, in node order then per-node order."""
        return [member for bucket in self.per_node for member in bucket]

    def busy_nodes(self) -> Tuple[int, ...]:
        """Indices of nodes hosting at least one application."""
        return tuple(
            index for index, bucket in enumerate(self.per_node) if bucket
        )

    def moved(self, name: str, target: int) -> "Assignment":
        """A new assignment with application ``name`` moved to ``target``.

        Raises :class:`~repro.errors.ConfigurationError` when the
        application is unplaced or the target index is out of range; the
        move is order-preserving (the member is appended to the target
        bucket, everything else keeps its position).
        """
        if not 0 <= target < len(self.per_node):
            raise ConfigurationError(
                f"target node {target} out of range 0..{len(self.per_node) - 1}"
            )
        source = self.node_of(name)
        if source == target:
            return self
        moved_member = next(
            m for m in self.per_node[source] if m.name == name
        )
        buckets = [list(bucket) for bucket in self.per_node]
        buckets[source] = [m for m in buckets[source] if m.name != name]
        buckets[target].append(moved_member)
        return Assignment(per_node=tuple(tuple(b) for b in buckets))

    def cleared(self, nodes: Sequence[int]) -> "Assignment":
        """A new assignment with the given nodes' buckets emptied.

        The degraded-mode epoch loop uses this to keep quarantined
        nodes' parked tenants out of an epoch run without forgetting
        where they live: the cleared copy is what *runs*, the original
        keeps the book-keeping. Out-of-range indices are ignored (a
        fault plan may name nodes a smaller cluster doesn't have).
        """
        exclude = {node for node in nodes if 0 <= node < len(self.per_node)}
        if not exclude:
            return self
        return Assignment(
            per_node=tuple(
                () if index in exclude else bucket
                for index, bucket in enumerate(self.per_node)
            )
        )

    def with_admitted(self, member: Member, node: int) -> "Assignment":
        """A new assignment with ``member`` added to node ``node``."""
        if not 0 <= node < len(self.per_node):
            raise ConfigurationError(
                f"admission node {node} out of range 0..{len(self.per_node) - 1}"
            )
        if any(m.name == member.name for bucket in self.per_node for m in bucket):
            raise ConfigurationError(
                f"application {member.name!r} is already placed"
            )
        buckets = [list(bucket) for bucket in self.per_node]
        buckets[node].append(member)
        return Assignment(per_node=tuple(tuple(b) for b in buckets))


class Placement(abc.ABC):
    """A strategy assigning applications to nodes."""

    name: str = "placement"

    @abc.abstractmethod
    def assign(
        self, members: Sequence[Member], specs: Sequence[NodeSpec]
    ) -> Assignment:
        """Assign every member to exactly one node."""

    @staticmethod
    def _validate(members: Sequence[Member], specs: Sequence[NodeSpec]) -> None:
        if not specs:
            raise ConfigurationError("placement needs at least one node")
        if not members:
            raise ConfigurationError("placement needs at least one application")
        names = [m.name for m in members]
        if len(names) != len(set(names)):
            raise ConfigurationError(f"duplicate application names: {sorted(names)}")


@dataclass(frozen=True)
class BinPackingPlacement(Placement):
    """Greedy worst-fit on the pressure score (heaviest first).

    ``horizon_s`` is the load-trace look-ahead for pressure scoring (see
    :func:`peak_load`); constant-load members score identically at any
    horizon. Ordering is fully deterministic: the heaviest-first sort is
    stable and node selection breaks ties by the lowest node index.
    """

    horizon_s: float = DEFAULT_PRESSURE_HORIZON_S
    name: str = field(default="bin-packing")

    def assign(
        self, members: Sequence[Member], specs: Sequence[NodeSpec]
    ) -> Assignment:
        """Greedily pack members onto the least-pressured node."""
        self._validate(members, specs)
        kinds, kind_of = _spec_kinds(specs)
        table = _pressure_table(members, kinds, self.horizon_s)
        trees = [
            _LoadTree([node for node, k in enumerate(kind_of) if k == kind])
            for kind in range(len(kinds))
        ]
        buckets: List[List[Member]] = [[] for _ in specs]
        for i in _heaviest_first(table):
            load, target, slot = min(
                tree.lightest(table[i][kind]) for kind, tree in enumerate(trees)
            )
            trees[kind_of[target]].set(slot, load)
            buckets[target].append(members[i])
        return Assignment(per_node=tuple(tuple(b) for b in buckets))
