"""``run`` and ``run_total`` agree with the frozen original step loop on
random programs, threads, families and fuels: outcome, steps, cause,
final family and trace lines.  A program is passed both extracted and
as it is, where the run resolves each node on its first visit; the
reference then runs the frozen original ``extract``'s thread."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import frozen_machine
import frozen_walk
from conftest import random_thread
from seqhalt.machine import DivergenceCause, FuelExhausted, ProvenDivergent, run, run_total
from seqhalt.program import (
    TERM_FALSE,
    TERM_TRUE,
    BasicInstruction,
    BwdJump,
    FwdJump,
    InputError,
    NegTest,
    Plain,
    PosTest,
    Program,
    parse,
)
from seqhalt.services import EMPTY_SERVICE, ServiceFamily, UnitService, parse_family
from seqhalt.threads import TAU, PostCond, RegularThread, extract
from seqhalt.units import (
    TapeState,
    counter_unit,
    dup_unit,
    halting_empty_unit,
    interface,
    tape_basic_unit,
)

METHODS = (
    "setzero", "succ", "pred", "iszero",
    "mvl", "mvr", "test:0", "test:1", "test:colon", "test:end",
    "write:0", "write:1", "write:colon", "delete",
    "dup", "halting",
)
CONSTANT_METHODS = ("setzero", "succ", "write:0", "write:1", "write:colon", "dup")

st_tape = st.builds(TapeState, st.text("01:", max_size=3), st.text("01:", max_size=3))
st_service = st.one_of(
    st.builds(UnitService, st.just(counter_unit()), st.integers(0, 4)),
    st.builds(UnitService, st.just(tape_basic_unit()), st_tape),
    st.builds(UnitService, st.just(dup_unit()), st_tape),
    st.builds(UnitService, st.just(halting_empty_unit()), st_tape),
    st.just(EMPTY_SERVICE),
    st.none(),  # the focus is absent from the family
)
st_family = st.tuples(st_service, st_service, st_service).filter(
    lambda services: any(s is not None for s in services)
).map(
    lambda services: ServiceFamily(
        {focus: s for focus, s in zip("fgh", services) if s is not None}
    )
)
st_fuel = st.integers(1, 300)


def st_program(family, methods=METHODS):
    """Programs over foci f and g.  Most methods are drawn from the
    interface of the unit at their focus, so that runs tend to get past
    their first steps, and half the programs end with a jump back to
    their first instruction, so that runs tend to loop."""

    def st_method(focus):
        service = family.entries.get(focus)
        offered = interface(service.unit) if isinstance(service, UnitService) else ()
        fitting = sorted(set(methods).intersection(offered)) or list(methods)
        return st.one_of(st.sampled_from(fitting), st.sampled_from(fitting), st.sampled_from(methods))

    basic = st.one_of(*(st.builds(BasicInstruction, st.just(f), st_method(f)) for f in "fg"))
    instruction = st.one_of(
        st.builds(Plain, basic),
        st.builds(PosTest, basic),
        st.builds(NegTest, basic),
        st.builds(FwdJump, st.integers(1, 3)),
        st.builds(BwdJump, st.integers(0, 3)),
        st.sampled_from([TERM_TRUE, TERM_FALSE]),
    )
    return st.builds(
        lambda items, loop: Program(tuple(items) + (BwdJump(len(items)),) * loop),
        st.lists(instruction, min_size=1, max_size=8),
        st.booleans(),
    )


st_thread = st.builds(
    lambda seed: random_thread(
        random.Random(seed),
        actions=[BasicInstruction(f, m) for f in "fg" for m in ("succ", "pred", "mvr", "dup")] + [TAU],
    ),
    st.integers(0, 10**6),
)


def assert_run_matches(x, family, fuel, reference=None):
    """``run`` on ``x``, a thread or a program, matches the frozen loop on
    the thread ``reference``, by default ``x`` itself."""
    reference = x if reference is None else reference
    lines, reference_lines = [], []
    outcome = run(x, family, fuel, trace=lines.append)
    assert outcome == frozen_machine.run(reference, family, fuel, trace=reference_lines.append)
    assert lines == reference_lines
    assert run(x, family, fuel) == outcome


def run_total_or_error(evaluate, thread, family):
    try:
        return evaluate(thread, family)
    except InputError:
        return InputError


@settings(deadline=None, max_examples=300)
@given(st.data(), st_fuel)
def test_run_matches_reference(data, fuel):
    family = data.draw(st_family)
    assert_run_matches(extract(data.draw(st_program(family))), family, fuel)


@settings(deadline=None, max_examples=300)
@given(st.data(), st_fuel)
def test_run_on_programs_matches_reference(data, fuel):
    family = data.draw(st_family)
    x = data.draw(st_program(family))
    assert_run_matches(x, family, fuel, reference=frozen_walk.extract(x))


@settings(deadline=None, max_examples=200)
@given(st_thread, st_family, st_fuel)
def test_run_matches_reference_on_threads_with_tau(thread, family, fuel):
    assert_run_matches(thread, family, fuel)


def st_program_or_thread(family):
    return st.one_of(st_program(family).map(extract), st_thread)


# Fuels at and beside the powers of two, where ``run`` saves the
# configuration it compares each step with.
st_checkpoint_fuel = st.builds(lambda k, d: max(1, 2**k + d), st.integers(0, 9), st.integers(-1, 1))

LASSO_ACTIONS = (TAU, *(BasicInstruction("f", m) for m in ("iszero", "setzero", "pred")))


def lasso(actions, entry):
    """A thread of one node per action, each leading to the next whatever
    the reply, and the last back to node ``entry``: on a counter, runs
    that enter a cycle after prefixes of many lengths, with many periods."""
    nodes = {i: PostCond(action, i + 1, i + 1) for i, action in enumerate(actions)}
    back = entry % len(actions)
    nodes[len(actions) - 1] = PostCond(actions[-1], back, back)
    return RegularThread(nodes, 0)


st_lasso = st.builds(lasso, st.lists(st.sampled_from(LASSO_ACTIONS), min_size=1, max_size=40), st.integers(0, 39))
st_counter_family = st.builds(
    lambda n: ServiceFamily({"f": UnitService(counter_unit(), n)}), st.integers(0, 70)
)


# Lengths of the acyclic prefix of a lasso: the run walks this many
# nodes once before it enters the cycle it then repeats.
PREFIXES = [1, 2, 5, 16]


@pytest.mark.parametrize("prefix", PREFIXES)
@settings(deadline=None, max_examples=100)
@given(data=st.data(), fuel=st.one_of(st_fuel, st_checkpoint_fuel))
def test_run_matches_reference_after_a_short_prefix(prefix, data, fuel):
    action = st.sampled_from(LASSO_ACTIONS)
    walk = data.draw(st.lists(action, min_size=prefix, max_size=prefix))
    cycle = data.draw(st.lists(action, min_size=1, max_size=24))
    thread = lasso(walk + cycle, prefix)
    family = data.draw(st.one_of(st_family, st_counter_family))
    assert_run_matches(thread, family, fuel)


@settings(deadline=None, max_examples=300)
@given(data=st.data(), fuel=st_checkpoint_fuel)
def test_run_matches_reference_at_checkpoint_fuels(data, fuel):
    family = data.draw(st.one_of(st_family, st_counter_family))
    thread = data.draw(st.one_of(st_program_or_thread(family), st_lasso))
    assert_run_matches(thread, family, fuel)


@settings(deadline=None, max_examples=200)
@given(data=st.data(), fuel=st_checkpoint_fuel)
def test_run_on_programs_matches_reference_at_checkpoint_fuels(data, fuel):
    family = data.draw(st.one_of(st_family, st_counter_family))
    x = data.draw(st_program(family))
    assert_run_matches(x, family, fuel, reference=frozen_walk.extract(x))


# Tape-basic loops whose tape returns to its start, and the step at which
# each closes its cycle.  The loop holds bare (left, right) pairs, and a
# cycle's replay from the root starts from the family's TapeStates.
TAPE_LOOPS = [
    ("f.mvr;f.mvl;\\#2", "f=tapebasic:|01", 2),
    ("+f.mvl;#2;\\#2;f.mvr;f.mvr;f.mvl;f.mvl;\\#4", "f=tapebasic:0|1", 5),
    ("f.write:1;f.mvr;f.mvl;\\#2", "f=tapebasic:|0", 3),
    # Walks right to the end of 20 symbols and back, again and again.
    ("+f.mvr;\\#1;+f.mvl;\\#1;\\#4", "f=tapebasic:|" + "0" * 20, 42),
]
CHECKPOINT_FUELS = sorted({max(1, 2**k + d) for k in range(10) for d in (-1, 0, 1)})


@pytest.mark.parametrize("text, literal, cycle_step", TAPE_LOOPS)
@pytest.mark.parametrize("fuel", CHECKPOINT_FUELS)
def test_tape_loops_match_reference_at_checkpoint_fuels(text, literal, cycle_step, fuel):
    x, family = parse(text), parse_family(literal)
    assert_run_matches(x, family, fuel, reference=frozen_walk.extract(x))
    assert_run_matches(extract(x), family, fuel)
    cycle = ProvenDivergent(DivergenceCause.CYCLE, cycle_step)
    assert run(x, family, fuel) == (cycle if cycle_step <= fuel else FuelExhausted(fuel))


@pytest.mark.parametrize("methods", [METHODS, CONSTANT_METHODS], ids=["all", "constant"])
@settings(deadline=None, max_examples=150)
@given(data=st.data())
def test_run_total_matches_reference(methods, data):
    family = data.draw(st_family)
    thread = extract(data.draw(st_program(family, methods)))
    assert run_total_or_error(run_total, thread, family) == run_total_or_error(
        frozen_machine.run_total, thread, family
    )


@pytest.mark.parametrize("methods", [METHODS, CONSTANT_METHODS], ids=["all", "constant"])
@settings(deadline=None, max_examples=150)
@given(data=st.data())
def test_run_total_on_programs_matches_reference(methods, data):
    family = data.draw(st_family)
    x = data.draw(st_program(family, methods))
    assert run_total_or_error(run_total, x, family) == run_total_or_error(
        frozen_machine.run_total, frozen_walk.extract(x), family
    )


# Lassos whose every action has a constant reply on a counter, so that
# ``run_total`` first revisits a node at steps up to 64, well past the
# first steps at which the loop saves a mark (1, 2, 4 and 8).
TOTAL_LASSO_ACTIONS = (TAU, BasicInstruction("f", "setzero"))


@settings(deadline=None, max_examples=150)
@given(data=st.data(), family=st_counter_family)
def test_run_total_matches_reference_on_lassos(data, family):
    action = st.sampled_from(TOTAL_LASSO_ACTIONS)
    walk = data.draw(st.lists(action, max_size=40))
    cycle = data.draw(st.lists(action, min_size=1, max_size=24))
    thread = lasso(walk + cycle, len(walk))
    assert run_total(thread, family) == frozen_machine.run_total(thread, family)


@pytest.mark.parametrize("n", [1000, 1024])
def test_run_total_proves_a_long_cycle(n):
    x = parse("f.dup;" * n + "\\#%d" % n)
    thread = extract(x)
    family = parse_family("f=dup:|1")
    outcome = run_total(thread, family)
    assert outcome == ProvenDivergent(DivergenceCause.CYCLE, n)
    assert outcome == frozen_machine.run_total(thread, family)
    assert run_total(x, family) == outcome
