"""Service families: named services with composition and encapsulation.

A service is either the empty service (rejects every method) or a
functional unit paired with a current state.  A family maps foci (names)
to services, each name occurring once; composing two families that share
a name collapses that name to the empty service.  ``service_step`` is
the one-step protocol: a known method replies True/False and steps the
state, an unknown method replies Divergent and the service collapses.
A reply that contradicts the operation's declared constant reply is a
bug in the unit and raises AssertionError.
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
    entries: Mapping[str, Service]


def empty_family() -> ServiceFamily:
    return ServiceFamily({})


def singleton_family(focus: str, service: Service) -> ServiceFamily:
    if not _FOCUS_RE.match(focus):
        raise InputError(f"bad focus {focus!r}")
    return ServiceFamily({focus: service})


def compose(c: ServiceFamily, d: ServiceFamily) -> ServiceFamily:
    """Union of the entries; a focus present in both collapses to the
    empty service."""
    entries = dict(c.entries)
    for focus, service in d.entries.items():
        entries[focus] = EMPTY_SERVICE if focus in entries else service
    return ServiceFamily(entries)


def encapsulate(foci: Iterable[str], c: ServiceFamily) -> ServiceFamily:
    hidden = frozenset(foci)
    return ServiceFamily({f: s for f, s in c.entries.items() if f not in hidden})


def service_step(service: Service, method: str) -> tuple[Reply, Service]:
    if isinstance(service, EmptyService):
        return Reply.DIVERGENT, EMPTY_SERVICE
    op = service.unit.operations.get(method)
    if op is None:
        return Reply.DIVERGENT, EMPTY_SERVICE
    reply, state = op.step(service.state)
    if op.constant_reply is not None and reply != op.constant_reply:
        raise AssertionError(
            f"declared constant reply violated by {service.unit.name}.{method}"
        )
    return Reply.from_bool(reply), UnitService(service.unit, state)


def format_family(family: ServiceFamily | Mapping[str, Service]) -> str:
    entries = family.entries if isinstance(family, ServiceFamily) else family
    return ",".join(
        f"{f}=empty" if isinstance(s, EmptyService) else f"{f}={s.unit.name}:{s.unit.format_state(s.state)}"
        for f, s in sorted(entries.items())
    )


def parse_family(text: str) -> ServiceFamily:
    """Parse a family literal like ``f=counter:0,g=dup:|10``; the empty
    string is the empty family."""
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
    return ServiceFamily(entries)


def family_key(entries: Mapping[str, Service]):
    """Hashable canonical form of a family's state, for cycle detection."""
    return tuple(
        (f, ("empty",) if isinstance(s, EmptyService) else (s.unit.name, s.state))
        for f, s in sorted(entries.items())
    )
