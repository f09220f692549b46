"""Kind-tagged records and the fault-plan file format.

Three families of frozen dataclasses travel as flat JSON dicts with a
``kind`` discriminator: trace events (:class:`~repro.obs.events.TraceEvent`),
node fault specs (:class:`~repro.faults.plan.FaultSpec`) and cluster
fault specs (:class:`~repro.datacenter.chaos.NodeFaultSpec`). This module
owns that codec once:

* :class:`Tagged` gives each family a kind registry and the
  ``to_dict``/``from_dict`` pair; a malformed payload raises the family's
  own error type, never a bare ``AttributeError`` or ``TypeError``.
* :class:`Plan` is the ``{"faults": [...]}`` file format shared by
  :class:`~repro.faults.plan.FaultPlan` and
  :class:`~repro.datacenter.chaos.ClusterFaultPlan`.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, fields
from typing import Any, ClassVar, Dict, Iterator, Mapping, Optional, Tuple, Type

from repro.errors import FaultError, ReproError


class Tagged:
    """Mixin for frozen dataclasses serialised as kind-tagged dicts.

    A family root names its family and error type in its class keywords::

        @dataclass(frozen=True)
        class FaultSpec(Tagged, family="fault", error=FaultError):
            kind: ClassVar[str] = "fault"

    which gives the family an empty registry. Every subclass that sets
    its own ``kind`` class attribute (the stable wire name) registers in
    it; the root's own kind stays unregistered.
    """

    kind: ClassVar[str]
    _family: ClassVar[str]
    _error: ClassVar[Type[Exception]]
    _kinds: ClassVar[Dict[str, type]]

    def __init_subclass__(
        cls,
        family: Optional[str] = None,
        error: Type[Exception] = ReproError,
        **kwargs: Any,
    ) -> None:
        super().__init_subclass__(**kwargs)
        if family is not None:
            cls._family = family
            cls._error = error
            cls._kinds = {}
        elif "kind" in cls.__dict__:
            cls._kinds[cls.kind] = cls

    def to_dict(self) -> Dict[str, Any]:
        """A flat JSON-safe dict including the ``kind`` discriminator."""
        return {"kind": self.kind, **asdict(self)}

    @classmethod
    def from_dict(cls, payload: Any) -> Any:
        """Rebuild a record of the family from :meth:`to_dict` output.

        JSON lists become tuples before construction. Raises the family's
        error for a non-mapping payload, an unknown kind, unexpected
        fields or arguments the record's constructor rejects — a payload
        written by a newer version fails loudly instead of dropping data.
        """
        family, error = cls._family, cls._error
        if not isinstance(payload, Mapping):
            raise error(
                f"a {family} payload must be a JSON object, "
                f"got {type(payload).__name__}"
            )
        kind = payload.get("kind")
        target = cls._kinds.get(kind) if isinstance(kind, str) else None
        if target is None:
            raise error(
                f"unknown {family} kind {kind!r}; known kinds: {sorted(cls._kinds)}"
            )
        kwargs = {
            key: tuple(value) if isinstance(value, list) else value
            for key, value in payload.items()
            if key != "kind"
        }
        unknown = set(kwargs) - {f.name for f in fields(target)}
        if unknown:
            raise error(
                f"unexpected fields {sorted(unknown, key=str)} "
                f"for {family} kind {kind!r}"
            )
        try:
            return target(**kwargs)
        except TypeError as exc:
            raise error(
                f"malformed payload for {family} kind {kind!r}: {exc}"
            ) from exc


@dataclass(frozen=True)
class Plan:
    """An immutable, JSON-round-trippable timeline of fault specs.

    Subclasses set :attr:`spec` to their family root; every entry of
    ``faults`` must be an instance of it. The file format is
    ``{"faults": [spec.to_dict(), ...]}`` with sorted keys.
    """

    spec: ClassVar[Type[Tagged]] = Tagged

    faults: Tuple[Any, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "faults", tuple(self.faults))
        for fault in self.faults:
            if not isinstance(fault, self.spec):
                raise FaultError(
                    f"{type(self).__name__} entries must be "
                    f"{self.spec.__name__} values, got {type(fault).__name__}"
                )

    def __len__(self) -> int:
        return len(self.faults)

    def __iter__(self) -> Iterator[Any]:
        return iter(self.faults)

    def to_dict(self) -> Dict[str, Any]:
        """A JSON-safe dict of the whole plan."""
        return {"faults": [fault.to_dict() for fault in self.faults]}

    @classmethod
    def from_dict(cls, payload: Any) -> "Plan":
        """Rebuild a plan from :meth:`to_dict` output."""
        faults = payload.get("faults") if isinstance(payload, Mapping) else None
        if not isinstance(faults, (list, tuple)):
            raise FaultError(f"a {cls.spec._family} plan needs a 'faults' list")
        return cls(faults=tuple(cls.spec.from_dict(entry) for entry in faults))

    def to_json(self, indent: int = 2) -> str:
        """The plan serialised as JSON."""
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "Plan":
        """Parse a plan from :meth:`to_json` output."""
        try:
            payload = json.loads(text)
        except ValueError as exc:
            raise FaultError(f"invalid {cls.spec._family} plan JSON: {exc}") from exc
        return cls.from_dict(payload)

    def save(self, path: str) -> str:
        """Write the plan to ``path`` as JSON; returns the path."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(self.to_json() + "\n")
        return path

    @classmethod
    def load(cls, path: str) -> "Plan":
        """Read a plan previously written with :meth:`save`."""
        try:
            with open(path, "r", encoding="utf-8") as handle:
                text = handle.read()
        except OSError as exc:
            raise FaultError(
                f"{path}: cannot read {cls.spec._family} plan: {exc.strerror}"
            ) from exc
        return cls.from_json(text)
