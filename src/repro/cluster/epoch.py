"""Epoch records: everything observed in one monitoring interval.

Besides the record dataclasses, this module owns their *wire format*:
:func:`pack_records` / :func:`unpack_records` turn a run's record list
into a columnar blob (one float array per field instead of thousands of
tiny objects) that pickles several times faster and smaller. The parallel
runner ships every :class:`~repro.cluster.run.RunResult` through it, and
on a single-core box that serialisation is the warm pool's entire
dispatch tax — ``perfbench/`` reports it as the
``cluster.epoch.pack_us_per_epoch`` and ``.wire_bytes_per_epoch`` layer
metrics.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from itertools import chain
from typing import Any, Dict, List, Mapping, Sequence, Tuple

import numpy as np

from repro.cluster.contention import EffectiveResources
from repro.entropy.records import (
    BEObservation,
    EntropyBreakdown,
    LCObservation,
    SystemObservation,
)
from repro.schedulers.base import RegionPlan


@dataclass(frozen=True)
class LCMeasurement:
    """One LC application's measurements in one epoch."""

    name: str
    load_fraction: float
    tail_ms: float
    ideal_ms: float
    threshold_ms: float

    @property
    def satisfied(self) -> bool:
        return self.tail_ms <= self.threshold_ms

    @property
    def slack(self) -> float:
        """PARTIES-style slack: positive when under the QoS target."""
        return (self.threshold_ms - self.tail_ms) / self.threshold_ms


@dataclass(frozen=True)
class BEMeasurement:
    """One BE application's measurements in one epoch."""

    name: str
    ipc: float
    ipc_solo: float

    @property
    def normalised(self) -> float:
        """IPC relative to solo (1.0 = no interference)."""
        return self.ipc / self.ipc_solo


@dataclass(frozen=True)
class EpochRecord:
    """The full picture of one monitoring epoch."""

    index: int
    time_s: float
    plan: RegionPlan
    loads: Mapping[str, float]
    lc: Mapping[str, LCMeasurement]
    be: Mapping[str, BEMeasurement]
    resources: Mapping[str, EffectiveResources]
    observation: SystemObservation
    breakdown: EntropyBreakdown
    plan_changed: bool = field(default=False)

    @property
    def e_s(self) -> float:
        return self.breakdown.e_s

    @property
    def e_lc(self) -> float:
        return self.breakdown.e_lc

    @property
    def e_be(self) -> float:
        return self.breakdown.e_be

    def violations(self) -> int:
        """Number of LC applications violating QoS this epoch."""
        return sum(1 for m in self.lc.values() if not m.satisfied)


# -- columnar wire format ----------------------------------------------------
#
# A simulated run produces hundreds of EpochRecords, each a dozen small
# frozen dataclasses — ~170KB and several milliseconds per pickle round
# trip, which on a one-core box lands squarely on the parallel runner's
# critical path. The packer rewrites the list as per-field float arrays
# (bit-exact: float64 all the way) plus an identity-deduplicated object
# table for the coarse-grained parts (plans, load maps) that repeat
# across epochs. Anything that does not match the canonical shape run.py
# produces — subclassed records, mismatched keys, non-float values —
# falls back to the untouched list, so correctness never depends on the
# fast path applying.

_WIRE_TAG = "epoch-records/v1"
_RAW_TAG = "epoch-records/raw"


class _Unpackable(Exception):
    """Internal: the record list doesn't fit the columnar layout."""


#: Field layouts the packer flattens. Record 0 is checked against these
#: key tuples exactly; later leaves are checked for exact type, width and
#: name only — instances of the same dataclass built by ``__init__`` (or
#: by :func:`_unpack_v1`) always carry their ``__dict__`` in field order,
#: so one full check per run suffices.
_LCM_KEYS = ("name", "load_fraction", "tail_ms", "ideal_ms", "threshold_ms")
_BEM_KEYS = ("name", "ipc", "ipc_solo")
_RES_KEYS = (
    "name", "cores", "ways", "bandwidth_multiplier",
    "transient_penalty", "activity", "sched_delay_ms",
)
_OLC_KEYS = ("name", "ideal_ms", "measured_ms", "threshold_ms")
_OBE_KEYS = ("name", "ipc_solo", "ipc_real")
_BD_KEYS = (
    "e_lc", "e_be", "e_s", "relative_importance", "mean_tolerance",
    "mean_suffered", "mean_remaining", "yield_fraction",
)
_REC_KEYS = (
    "index", "time_s", "plan", "loads", "lc", "be", "resources",
    "observation", "breakdown", "plan_changed",
)


def _as_float_matrix(values: List[Any], shape: Tuple[int, ...]) -> np.ndarray:
    """``values`` as a float64 array, or :class:`_Unpackable`.

    Delegating validation to numpy keeps the pack loop free of per-value
    type checks. Numeric non-floats (ints, bools, numpy scalars) are
    coerced — value-preserving, so round-tripped records still compare
    equal — while anything non-numeric lands in an object array or a
    conversion error, both of which trigger the raw fallback.
    """
    try:
        matrix = np.asarray(values, dtype=np.float64)
        return matrix.reshape(shape)
    except (TypeError, ValueError) as exc:
        raise _Unpackable from exc


def _intern(obj: Any, memo: Dict[int, int], table: List[Any]) -> int:
    ref = memo.get(id(obj))
    if ref is None:
        ref = len(table)
        memo[id(obj)] = ref
        table.append(obj)
    return ref


def pack_records(records: Sequence[EpochRecord]) -> Tuple[str, Any]:
    """The records list as a compact picklable blob (see module docstring)."""
    records = list(records)
    try:
        return _pack_v1(records)
    except (_Unpackable, AttributeError):
        # AttributeError: an object passed the width check but carries a
        # renamed field the extractors can't read — nonconforming, so it
        # takes the raw path like every other shape mismatch.
        return (_RAW_TAG, records)


def unpack_records(wire: Tuple[str, Any]) -> List[EpochRecord]:
    """Inverse of :func:`pack_records` — an equal list of equal records."""
    tag, payload = wire
    if tag == _RAW_TAG:
        return list(payload)
    if tag != _WIRE_TAG:
        raise ValueError(f"unknown epoch-record wire tag {tag!r}")
    return _unpack_v1(payload)


def _check_first(record: EpochRecord) -> None:
    """Exhaustive field-order check on one record (the rest trust type)."""
    if tuple(record.__dict__) != _REC_KEYS:
        raise _Unpackable
    for mapping, keys in (
        (record.lc, _LCM_KEYS),
        (record.be, _BEM_KEYS),
        (record.resources, _RES_KEYS),
    ):
        for value in mapping.values():
            if tuple(value.__dict__) != keys:
                raise _Unpackable
    if tuple(record.observation.__dict__) != ("lc", "be"):
        raise _Unpackable
    for o in record.observation.lc:
        if tuple(o.__dict__) != _OLC_KEYS:
            raise _Unpackable
    for o in record.observation.be:
        if tuple(o.__dict__) != _OBE_KEYS:
            raise _Unpackable
    if tuple(record.breakdown.__dict__) != _BD_KEYS:
        raise _Unpackable


_NAME_OF = operator.attrgetter("name")
#: C-level field extractors, one per flattened dataclass (name dropped).
_LCM_FIELDS = operator.attrgetter(*_LCM_KEYS[1:])
_BEM_FIELDS = operator.attrgetter(*_BEM_KEYS[1:])
_RES_FIELDS = operator.attrgetter(*_RES_KEYS[1:])
_OLC_FIELDS = operator.attrgetter(*_OLC_KEYS[1:])
_OBE_FIELDS = operator.attrgetter(*_OBE_KEYS[1:])
_BD_FIELDS = operator.attrgetter(*_BD_KEYS)


def _typed_column(values: List[Any], cls: type) -> List[Any]:
    """``values`` back, or :class:`_Unpackable` unless all are exactly ``cls``."""
    if set(map(type, values)) != {cls}:
        raise _Unpackable
    return values


def _extend_column(
    out: List[float], values: List[Any], cls: type, name: str,
    fields: "operator.attrgetter", width: int,
) -> None:
    """Append one application's numeric fields to the flat column buffer.

    Every value must be exactly ``cls`` with ``width`` ``__dict__``
    entries whose ``name`` matches the column. All validation is a bulk
    C-level pass (``set``/``map``/``count``) over the whole column and
    the extraction itself is one ``attrgetter`` call per value — this is
    the pack hot path, looped once per (application, field-class) pair
    rather than once per record.
    """
    n = len(values)
    _typed_column(values, cls)
    if list(map(len, map(vars, values))).count(width) != n:
        raise _Unpackable
    if list(map(_NAME_OF, values)).count(name) != n:
        raise _Unpackable
    out.extend(chain.from_iterable(map(fields, values)))


def _column_matrix(
    cols: List[float], names: Tuple[str, ...], width: int, n: int
) -> np.ndarray:
    """The flat column-major buffer as an ``(n, apps, width-1)`` matrix."""
    matrix = _as_float_matrix(cols, (len(names), n, width - 1))
    return np.ascontiguousarray(matrix.transpose(1, 0, 2))


def _mapping_matrix(
    maps: List[Mapping[str, Any]], cls: type, names: Tuple[str, ...],
    fields: "operator.attrgetter", width: int, n: int,
) -> np.ndarray:
    """The per-record ``{name: measurement}`` dicts, flattened columnar."""
    if any(type(m) is not dict or tuple(m) != names for m in maps):
        raise _Unpackable
    cols: List[float] = []
    for name in names:
        _extend_column(cols, [m[name] for m in maps], cls, name, fields, width)
    return _column_matrix(cols, names, width, n)


def _tuple_matrix(
    groups: List[tuple], cls: type, names: Tuple[str, ...],
    fields: "operator.attrgetter", width: int, n: int,
) -> np.ndarray:
    """The per-record observation tuples, flattened columnar."""
    _typed_column(groups, tuple)
    if list(map(len, groups)).count(len(names)) != n:
        raise _Unpackable
    cols: List[float] = []
    for j, name in enumerate(names):
        _extend_column(cols, [g[j] for g in groups], cls, name, fields, width)
    return _column_matrix(cols, names, width, n)


def _pack_v1(records: List[EpochRecord]) -> Tuple[str, Any]:
    if not records:
        raise _Unpackable
    first = records[0]
    if type(first) is not EpochRecord:
        raise _Unpackable
    obs = first.observation
    if type(obs) is not SystemObservation:
        raise _Unpackable
    _check_first(first)
    lc_names = tuple(first.lc)
    be_names = tuple(first.be)
    res_names = tuple(first.resources)
    olc_names = tuple(o.name for o in obs.lc)
    obe_names = tuple(o.name for o in obs.be)

    # Column-major from here on: every validation is a bulk C-level pass
    # (``set(map(type, ...))``, ``map(len)`` + ``count``) over one field
    # of all n records, not a Python loop over records — the difference
    # between ~20µs and ~4µs per record on the pool result path.
    n = len(records)
    _typed_column(records, EpochRecord)
    if list(map(len, map(vars, records))).count(10) != n:
        raise _Unpackable
    index = _typed_column([r.index for r in records], int)
    time_s = _typed_column([r.time_s for r in records], float)
    changed = _typed_column([r.plan_changed for r in records], bool)

    plan_table: List[RegionPlan] = []
    plan_memo: Dict[int, int] = {}
    loads_table: List[Mapping[str, float]] = []
    loads_memo: Dict[int, int] = {}
    plan_ref = [_intern(r.plan, plan_memo, plan_table) for r in records]
    loads_ref = [_intern(r.loads, loads_memo, loads_table) for r in records]

    observations = _typed_column(
        [r.observation for r in records], SystemObservation
    )
    if list(map(len, map(vars, observations))).count(2) != n:
        raise _Unpackable
    breakdowns = _typed_column([r.breakdown for r in records], EntropyBreakdown)
    if list(map(len, map(vars, breakdowns))).count(8) != n:
        raise _Unpackable
    bd_vals = list(chain.from_iterable(map(_BD_FIELDS, breakdowns)))

    return (_WIRE_TAG, {
        "n": n,
        "lc_names": lc_names,
        "be_names": be_names,
        "res_names": res_names,
        "olc_names": olc_names,
        "obe_names": obe_names,
        "index": np.asarray(index, dtype=np.int64),
        "time_s": np.asarray(time_s, dtype=np.float64),
        "plan_changed": np.asarray(changed, dtype=bool),
        "plan_table": plan_table,
        "plan_ref": np.asarray(plan_ref, dtype=np.int32),
        "loads_table": loads_table,
        "loads_ref": np.asarray(loads_ref, dtype=np.int32),
        "lc": _mapping_matrix(
            [r.lc for r in records], LCMeasurement, lc_names,
            _LCM_FIELDS, 5, n,
        ),
        "be": _mapping_matrix(
            [r.be for r in records], BEMeasurement, be_names,
            _BEM_FIELDS, 3, n,
        ),
        "res": _mapping_matrix(
            [r.resources for r in records], EffectiveResources, res_names,
            _RES_FIELDS, 7, n,
        ),
        "olc": _tuple_matrix(
            [o.lc for o in observations], LCObservation, olc_names,
            _OLC_FIELDS, 4, n,
        ),
        "obe": _tuple_matrix(
            [o.be for o in observations], BEObservation, obe_names,
            _OBE_FIELDS, 3, n,
        ),
        "breakdown": _as_float_matrix(bd_vals, (n, 8)),
    })


def _unpack_v1(d: Dict[str, Any]) -> List[EpochRecord]:
    n = d["n"]
    lc_names = d["lc_names"]
    be_names = d["be_names"]
    res_names = d["res_names"]
    olc_names = d["olc_names"]
    obe_names = d["obe_names"]
    # ``.tolist()`` yields plain Python floats/ints/bools with the exact
    # bits of the packed values — reconstruction is value-identical.
    index = d["index"].tolist()
    time_s = d["time_s"].tolist()
    changed = d["plan_changed"].tolist()
    plan_table = d["plan_table"]
    plan_ref = d["plan_ref"].tolist()
    loads_table = d["loads_table"]
    loads_ref = d["loads_ref"].tolist()
    # One tight loop per (application, class) pair — the whole n-epoch
    # column of a single app is built before moving on, so the name and
    # the class are loop constants and the per-object work is one slice
    # unpack, one dict literal and one ``__dict__`` fill.
    def column(cls: type, keys: Tuple[str, ...], rows: List[tuple]) -> List[Any]:
        new = object.__new__
        out = []
        append = out.append
        for row in rows:
            obj = new(cls)
            obj.__dict__.update(zip(keys, row))
            append(obj)
        return out

    def mapping_series(
        cls: type, keys: Tuple[str, ...], names: Tuple[str, ...],
        matrix: np.ndarray,
    ) -> List[Dict[str, Any]]:
        columns = [
            column(
                cls, keys,
                [(name, *row) for row in matrix[:, j, :].tolist()],
            )
            for j, name in enumerate(names)
        ]
        if not columns:
            return [{} for _ in range(n)]
        return [dict(zip(names, epoch)) for epoch in zip(*columns)]

    def tuple_series(
        cls: type, keys: Tuple[str, ...], names: Tuple[str, ...],
        matrix: np.ndarray,
    ) -> List[tuple]:
        columns = [
            column(
                cls, keys,
                [(name, *row) for row in matrix[:, j, :].tolist()],
            )
            for j, name in enumerate(names)
        ]
        if not columns:
            return [() for _ in range(n)]
        return list(zip(*columns))

    lc_series = mapping_series(LCMeasurement, _LCM_KEYS, lc_names, d["lc"])
    be_series = mapping_series(BEMeasurement, _BEM_KEYS, be_names, d["be"])
    res_series = mapping_series(
        EffectiveResources, _RES_KEYS, res_names, d["res"]
    )
    olc_series = tuple_series(LCObservation, _OLC_KEYS, olc_names, d["olc"])
    obe_series = tuple_series(BEObservation, _OBE_KEYS, obe_names, d["obe"])
    bd_series = column(EntropyBreakdown, _BD_KEYS, d["breakdown"].tolist())
    obs_series = column(
        SystemObservation, ("lc", "be"), list(zip(olc_series, obe_series))
    )
    return column(
        EpochRecord,
        _REC_KEYS,
        list(zip(
            index, time_s,
            (plan_table[ref] for ref in plan_ref),
            (loads_table[ref] for ref in loads_ref),
            lc_series, be_series, res_series, obs_series, bd_series, changed,
        )),
    )
