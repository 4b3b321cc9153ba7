"""Service families: named services with composition and encapsulation.

A service is either the empty service (rejects every method) or a
functional unit paired with a current state.  A family maps foci (names)
to services, each name occurring once; composing two families that share
a name collapses that name to the empty service.  ``service_step`` is
the one-step protocol: a known method replies True/False and steps the
state, an unknown method replies Divergent and the service collapses.
It returns the successor in public form (see ``units.FunctionalUnit``);
``machine`` replays a traced run's steps through it.  A reply that
contradicts the operation's declared constant reply is a bug in the unit
and raises AssertionError.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Any, Iterable, Mapping, Union

from .program import _FOCUS_RE, InputError
from .units import FunctionalUnit, unit_by_name


class Reply(enum.Enum):
    TRUE = "T"
    FALSE = "F"
    DIVERGENT = "D"

    @classmethod
    def from_bool(cls, value: bool) -> "Reply":
        return cls.TRUE if value else cls.FALSE

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True)
class EmptyService:
    def __repr__(self) -> str:
        return "EMPTY_SERVICE"


EMPTY_SERVICE = EmptyService()


@dataclass(frozen=True)
class UnitService:
    unit: FunctionalUnit
    state: Any


Service = Union[EmptyService, UnitService]


@dataclass(frozen=True)
class ServiceFamily:
    """Services by focus: each focus a ``str`` that ``_FOCUS_RE`` matches,
    each service of the exact type ``EmptyService`` or ``UnitService``."""

    entries: Mapping[str, Service]

    def __post_init__(self):
        # The family keeps a copy, which the caller cannot change after the check.
        object.__setattr__(self, "entries", dict(self.entries.items()))
        for focus, service in self.entries.items():
            _check_entry(focus, service)


def _check_entry(focus: str, service: Service) -> None:
    if type(focus) is not str or not _FOCUS_RE.match(focus):
        raise InputError(f"bad focus {focus!r}")
    if type(service) is not UnitService and type(service) is not EmptyService:
        raise InputError(f"not a service at {focus!r}: {service!r}")


def _service_family(entries: Mapping[str, Service]) -> ServiceFamily:
    """A ``ServiceFamily`` without the check, for entries known to pass
    it: those this module has checked or taken from checked families,
    those ``machine._family`` gives new states and ``halting._dup_run``'s
    one dup service."""
    family = object.__new__(ServiceFamily)
    object.__setattr__(family, "entries", entries)
    return family


def empty_family() -> ServiceFamily:
    return ServiceFamily({})


def singleton_family(focus: str, service: Service) -> ServiceFamily:
    _check_entry(focus, service)
    return _service_family({focus: service})


def compose(c: ServiceFamily, d: ServiceFamily) -> ServiceFamily:
    """Union of the entries; a focus present in both collapses to the
    empty service."""
    entries = dict(c.entries)
    for focus, service in d.entries.items():
        entries[focus] = EMPTY_SERVICE if focus in entries else service
    return _service_family(entries)


def encapsulate(foci: Iterable[str], c: ServiceFamily) -> ServiceFamily:
    hidden = frozenset(foci)
    return _service_family({f: s for f, s in c.entries.items() if f not in hidden})


def service_step(service: Service, method: str) -> tuple[Reply, Service]:
    step = None if type(service) is EmptyService else service.unit.steps.get(method)
    if step is None:
        return Reply.DIVERGENT, EMPTY_SERVICE
    unit = service.unit
    reply, state = step(service.state)
    return Reply.from_bool(reply), UnitService(unit, unit.export_state(state))


def format_family(family: ServiceFamily | Mapping[str, Service]) -> str:
    entries = family.entries if type(family) is ServiceFamily else family
    return ",".join(
        f"{f}=empty" if type(s) is EmptyService else f"{f}={s.unit.name}:{s.unit.format_state(s.state)}"
        for f, s in sorted(entries.items())
    )


def parse_family(text: str) -> ServiceFamily:
    """Parse a family literal like ``f=counter:0,g=dup:|10``; the empty
    string is the empty family."""
    if type(text) is not str:
        raise InputError(f"family literal must be a string: {text!r}")
    text = text.strip()
    if not text:
        return empty_family()
    entries: dict[str, Service] = {}
    for part in text.split(","):
        focus, eq, rest = part.partition("=")
        if not eq or not _FOCUS_RE.match(focus):
            raise InputError(f"bad family entry {part!r}")
        if focus in entries:
            raise InputError(f"duplicate focus {focus!r}")
        if rest == "empty":
            entries[focus] = EMPTY_SERVICE
            continue
        unit_name, colon, state_literal = rest.partition(":")
        if not colon:
            raise InputError(f"bad family entry {part!r} (want focus=unit:state)")
        unit = unit_by_name(unit_name)
        entries[focus] = UnitService(unit, unit.parse_state(state_literal))
    return _service_family(entries)

