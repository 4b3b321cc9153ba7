import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import FOCI, random_family, random_service
from seqhalt.program import InputError
from seqhalt.services import (
    EMPTY_SERVICE,
    EmptyService,
    Reply,
    ServiceFamily,
    UnitService,
    compose,
    empty_family,
    encapsulate,
    format_family,
    parse_family,
    service_step,
    singleton_family,
)
from seqhalt.units import TapeState, at_left, counter_unit, dup_unit

st_family = st.builds(
    lambda seed: random_family(random.Random(seed)), st.integers(0, 10**6)
)
st_foci = st.sets(st.sampled_from(FOCI))


@given(st_family)
def test_empty_family_is_identity(u):
    assert compose(u, empty_family()) == u
    assert compose(empty_family(), u) == u


@given(st_family, st_family)
def test_compose_commutative(u, v):
    assert compose(u, v) == compose(v, u)


@given(st_family, st_family, st_family)
def test_compose_associative(u, v, w):
    assert compose(compose(u, v), w) == compose(u, compose(v, w))


@given(st.integers(0, 10**6), st.integers(0, 10**6))
def test_name_clash_collapses_to_empty_service(s1, s2):
    rng1, rng2 = random.Random(s1), random.Random(s2)
    left = singleton_family("f", random_service(rng1))
    right = singleton_family("f", random_service(rng2))
    assert compose(left, right) == singleton_family("f", EMPTY_SERVICE)


@given(st_foci)
def test_encapsulate_empty_family(foci):
    assert encapsulate(foci, empty_family()) == empty_family()


@given(st.integers(0, 10**6), st_foci)
def test_encapsulate_singleton(seed, foci):
    service = random_service(random.Random(seed))
    fam = singleton_family("f", service)
    expected = empty_family() if "f" in foci else fam
    assert encapsulate(foci, fam) == expected


@given(st_family, st_family, st_foci)
def test_encapsulate_distributes_over_compose(u, v, foci):
    assert encapsulate(foci, compose(u, v)) == compose(
        encapsulate(foci, u), encapsulate(foci, v)
    )


def test_singleton_has_one_entry():
    fam = singleton_family("f", EMPTY_SERVICE)
    assert len(fam.entries) == 1
    fam2 = compose(fam, singleton_family("g", EMPTY_SERVICE))
    assert set(fam2.entries) == {"f", "g"}


def test_singleton_rejects_a_bad_focus():
    for focus, shown in (("F", "'F'"), (["f"], r"\['f'\]")):
        with pytest.raises(InputError, match=f"^bad focus {shown}$"):
            singleton_family(focus, EMPTY_SERVICE)


def test_family_rejects_a_malformed_entry():
    # A junk entry used to run to a claimed REPLY_D divergence, and a
    # non-string focus to a missing focus.
    class Service(UnitService):
        pass

    rejected = [
        ({"f": 5}, "^not a service at 'f': 5$"),
        ({"f": None}, "^not a service at 'f': None$"),
        ({"f": Service(dup_unit(), at_left("1"))}, "^not a service at 'f': "),
        ({1: EMPTY_SERVICE}, "^bad focus 1$"),
        ({b"f": EMPTY_SERVICE}, "^bad focus b'f'$"),
        ({"F": EMPTY_SERVICE}, "^bad focus 'F'$"),
        ({"f.g": EMPTY_SERVICE}, "^bad focus 'f.g'$"),
    ]
    for entries, message in rejected:
        with pytest.raises(InputError, match=message):
            ServiceFamily(entries)
        [(focus, service)] = entries.items()
        with pytest.raises(InputError, match=message):
            singleton_family(focus, service)
    for entries in ([], None):
        with pytest.raises(InputError, match="^entries must be a mapping, not "):
            ServiceFamily(entries)
    fam = ServiceFamily({"f": EmptyService(), "g0": UnitService(dup_unit(), at_left("1"))})
    assert format_family(fam) == "f=empty,g0=dup:|1"


def test_empty_service_is_absorbing():
    for method in ("dup", "anything", "test:0"):
        assert service_step(EMPTY_SERVICE, method) == (Reply.DIVERGENT, EMPTY_SERVICE)


def test_unit_service_steps():
    dup = UnitService(dup_unit(), at_left("10"))
    reply, successor = service_step(dup, "dup")
    assert reply is Reply.TRUE
    assert successor == UnitService(dup_unit(), at_left("10:10"))


def test_unknown_method_collapses_to_empty():
    dup = UnitService(dup_unit(), at_left("10"))
    assert service_step(dup, "unknown") == (Reply.DIVERGENT, EMPTY_SERVICE)


def test_counter_iszero_probe():
    counter = UnitService(counter_unit(), 0)
    reply, successor = service_step(counter, "iszero")
    assert reply is Reply.TRUE and successor == counter


@given(st.integers(0, 10**6))
def test_service_step_deterministic(seed):
    service = random_service(random.Random(seed))
    assert service_step(service, "dup") == service_step(service, "dup")


def test_family_literal_round_trip():
    fam = parse_family("f=counter:3,g=dup:1|0:1,h=empty")
    assert format_family(fam) == "f=counter:3,g=dup:1|0:1,h=empty"
    assert fam.entries["f"] == UnitService(counter_unit(), 3)
    assert fam.entries["g"] == UnitService(dup_unit(), TapeState("1", "0:1"))
    assert fam.entries["h"] is EMPTY_SERVICE
    assert parse_family("") == empty_family()
    assert parse_family("f=tapebasic:|").entries["f"].state == TapeState("", "")


@pytest.mark.parametrize(
    "text",
    [
        "f", "f=", "f=counter", "f=nosuch:0", "1f=counter:0", "f=counter:0,f=counter:1",
        "f=counter:1_0", "f=counter:+5", "f=counter: 7", "f=counter:\u0663", "f=counter:-1", "f=counter:07",
        ["f=counter:0"],
    ],
)
def test_family_literal_rejects(text):
    with pytest.raises(ValueError):
        parse_family(text)

