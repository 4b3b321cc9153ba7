"""``run`` with every configuration digest colliding: each step is a
candidate repeat, so the replay that confirms one decides every answer.
It must still agree with the frozen original step loop, which keys on
the configurations themselves.  Replay under a constant digest is
quadratic in the steps, so the fuel stays small."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seqhalt import machine
from seqhalt.machine import DivergenceCause, FuelExhausted, ProvenDivergent, run
from seqhalt.program import parse
from seqhalt.services import parse_family
from seqhalt.threads import extract
from test_step_loop_differential import (
    PREFIXES,
    assert_run_matches,
    st_family,
    st_program,
    st_program_or_thread,
    st_thread,
)

st_fuel = st.integers(1, 200)


def collide(monkeypatch):
    monkeypatch.setattr(machine, "_digest", lambda configuration: 0)


def test_counter_loop_exhausts_fuel(monkeypatch):
    collide(monkeypatch)
    assert run(parse("f.succ;\\#1"), parse_family("f=counter:0"), 200) == FuelExhausted(200)


def test_cycle_found_at_the_same_step(monkeypatch):
    x, family = parse("+f.pred;\\#1;f.setzero;\\#1"), parse_family("f=counter:50")
    expected = ProvenDivergent(DivergenceCause.CYCLE, 52)
    assert run(x, family) == expected
    collide(monkeypatch)
    assert run(x, family) == expected


# The patch is made per example, since hypothesis runs every example of
# a test inside one function-scoped fixture.


@settings(deadline=None, max_examples=200)
@given(st.data(), st_fuel)
def test_run_matches_reference_when_digests_collide(data, fuel):
    family = data.draw(st_family)
    thread = extract(data.draw(st_program(family)))
    with pytest.MonkeyPatch.context() as monkeypatch:
        collide(monkeypatch)
        assert_run_matches(thread, family, fuel)


@settings(deadline=None, max_examples=100)
@given(st_thread, st_family, st_fuel)
def test_run_matches_reference_on_threads_with_tau_when_digests_collide(thread, family, fuel):
    with pytest.MonkeyPatch.context() as monkeypatch:
        collide(monkeypatch)
        assert_run_matches(thread, family, fuel)


@pytest.mark.parametrize("prefix", PREFIXES)
@settings(deadline=None, max_examples=50)
@given(data=st.data(), fuel=st_fuel)
def test_run_matches_reference_after_a_short_prefix_when_digests_collide(prefix, data, fuel):
    family = data.draw(st_family)
    thread = data.draw(st_program_or_thread(family))
    with pytest.MonkeyPatch.context() as monkeypatch:
        collide(monkeypatch)
        monkeypatch.setattr(machine, "_PREFIX", prefix)
        assert_run_matches(thread, family, fuel)
