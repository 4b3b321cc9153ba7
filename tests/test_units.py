import copy
import dataclasses
import itertools
import pickle
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import Fuel, random_tape
from seqhalt.machine import (
    UNDEFINED,
    UNKNOWN,
    Applied,
    derived_operation,
    run,
)
from seqhalt.program import FOCUS, InputError, parse
from seqhalt.services import UnitService, service_step, singleton_family
from seqhalt.threads import extract
from seqhalt.units import (
    TAPE_ALPHABET,
    FunctionalUnit,
    MethodOperation,
    TapeState,
    at_left,
    counter_unit,
    dup_step,
    dup_unit,
    dup_witness_program,
    format_tape,
    halting_empty_unit,
    interface,
    parse_tape,
    tape_basic_unit,
    unit_by_name,
)

st_bits = st.text(alphabet="01", max_size=4)
st_word = st.text(alphabet="01:", max_size=6)
st_tape = st.builds(lambda seed: random_tape(random.Random(seed)), st.integers(0, 10**6))
# Any text, with tape symbols, the head marker and a newline drawn often
# enough that both accepted and rejected parts come up.
st_any_part = st.text(st.sampled_from("01:|\n") | st.characters(), max_size=6)


def step(unit, method, state):
    return unit.operations[method].step(state)


class TestInterfaces:
    def test_counter_interface(self):
        assert interface(counter_unit()) == {"setzero", "succ", "pred", "iszero"}

    def test_dup_interface(self):
        assert interface(dup_unit()) == {"dup"}

    def test_tape_basic_interface(self):
        assert interface(tape_basic_unit()) == {
            "mvl", "mvr", "test:0", "test:1", "test:colon", "test:end",
            "write:0", "write:1", "write:colon", "delete",
        }

    def test_registry(self):
        for name in ("counter", "tapebasic", "dup", "halting-empty"):
            assert unit_by_name(name).name == name
        for name in ("nosuch", ["dup"]):
            with pytest.raises(ValueError):
                unit_by_name(name)

    def test_operation_under_another_name_rejected(self):
        with pytest.raises(InputError, match="^operation 'dup' registered under 'copy'$"):
            FunctionalUnit("dup", {"copy": MethodOperation("dup", dup_step)}, format_tape, parse_tape)

    @pytest.mark.parametrize(
        ("operations", "message"),
        [
            ([], "^operations must be a mapping, not list$"),
            (None, "^operations must be a mapping, not NoneType$"),
            ({"a": 5}, "^not a method operation at 'a': 5$"),
        ],
    )
    def test_malformed_operations_rejected(self, operations, message):
        with pytest.raises(InputError, match=message):
            FunctionalUnit("x", operations, str, str)

    def test_unit_is_not_changed_through_the_mapping_it_was_given(self):
        # The unit checks and keeps a copy, so a method added to the
        # caller's dict afterwards is in neither its interface nor its steps.
        operations = {"a": MethodOperation("a", lambda n: (True, n))}
        unit = FunctionalUnit("x", operations, str, int)
        operations["m"] = MethodOperation("m", lambda n: (True, n))
        assert interface(unit) == {"a"} and set(unit.steps) == {"a"}
        with pytest.raises(InputError, match="^'m' not in interface of x$"):
            derived_operation(parse("f.m;!t"), unit)

    def test_unit_cannot_be_changed_after_it_is_built(self):
        # Its operations and steps are read-only, so its interface always
        # names its steps, and a run may keep the steps it resolved.
        unit = FunctionalUnit("x", {"a": MethodOperation("a", lambda n: (True, n))}, str, int)
        with pytest.raises(TypeError):
            unit.operations["m"] = MethodOperation("m", lambda n: (True, n))
        with pytest.raises(TypeError):
            del unit.operations["a"]
        with pytest.raises(TypeError):
            unit.steps["m"] = lambda n: (True, n)
        assert interface(unit) == {"a"} and set(unit.steps) == {"a"}
        with pytest.raises(InputError, match="^'m' not in interface of x$"):
            derived_operation(parse("f.m;!t"), unit)

    def test_unit_copies_and_replaces(self):
        # A copy is rebuilt through the constructor, as a replace is.
        unit = counter_unit()
        for clone in (copy.copy(unit), copy.deepcopy(unit), dataclasses.replace(unit)):
            assert type(clone) is FunctionalUnit and clone == unit and interface(clone) == set(clone.steps)
            outcome = run(parse("f.succ;f.succ;!t"), singleton_family("f", UnitService(clone, 0)))
            assert outcome.family.entries["f"].state == 2
        renamed = dataclasses.replace(unit, name="tally")
        assert renamed.name == "tally" and interface(renamed) == interface(unit)


class TestCounter:
    def test_values(self):
        unit = counter_unit()
        assert step(unit, "setzero", 7) == (True, 0)
        assert step(unit, "succ", 0) == (True, 1)
        assert step(unit, "pred", 0) == (False, 0)
        assert step(unit, "pred", 3) == (True, 2)
        assert step(unit, "iszero", 0) == (True, 0)
        assert step(unit, "iszero", 2) == (False, 2)

    @given(st.integers(min_value=0, max_value=10**9))
    def test_operations_total(self, n):
        for op in counter_unit().operations.values():
            reply, successor = op.step(n)
            assert isinstance(reply, bool)
            assert isinstance(successor, int) and successor >= 0

    def test_state_literal_rejects_a_non_numeral(self):
        for text in ("x", "07", 5):
            with pytest.raises(InputError, match="^counter state must be a natural number: "):
                counter_unit().parse_state(text)


class TestTapeState:
    def test_literals(self):
        assert parse_tape("10|0:11") == TapeState("10", "0:11")
        assert parse_tape("|10") == at_left("10")
        assert parse_tape("|") == TapeState("", "")
        assert format_tape(TapeState("1", ":0")) == "1|:0"
        for text in ("10", 5):
            with pytest.raises(InputError, match="^tape literal needs a head marker '\\|': "):
                parse_tape(text)
        for build in (
            lambda: TapeState("2", ""),
            lambda: TapeState("", "2"),
            lambda: at_left("0a"),
            lambda: parse_tape("1|x"),
        ):
            with pytest.raises(ValueError, match="tape symbols must be 0, 1 or ':'"):
                build()

    @pytest.mark.parametrize("part", [["0", "1"], ("1",), None, b"01", b""])
    def test_non_string_parts_rejected(self, part):
        for build in (
            lambda: TapeState(part, ""),
            lambda: TapeState("", part),
            lambda: TapeState(left=part),
            lambda: TapeState(right=part),
            lambda: at_left(part),
        ):
            with pytest.raises(InputError, match="tape symbols must be 0, 1 or ':'"):
                build()

    # Each reader's rejected inputs and the message it raises for each.
    REJECTED = [
        (lambda: TapeState(None, ""), "tape symbols must be 0, 1 or ':': None"),
        (lambda: TapeState("", b"01"), "tape symbols must be 0, 1 or ':': b'01'"),
        (lambda: TapeState(left=["0"]), "tape symbols must be 0, 1 or ':': ['0']"),
        (lambda: TapeState(right=("1",)), "tape symbols must be 0, 1 or ':': ('1',)"),
        (lambda: TapeState("2", ""), "tape symbols must be 0, 1 or ':': '2'"),
        (lambda: TapeState("", "0a"), "tape symbols must be 0, 1 or ':': '0a'"),
        (lambda: TapeState("0 ", "1"), "tape symbols must be 0, 1 or ':': '0 '"),
        # Both parts bad: the left one is named.
        (lambda: TapeState("x", 5), "tape symbols must be 0, 1 or ':': 'x'"),
        (lambda: TapeState(5, "x"), "tape symbols must be 0, 1 or ':': 5"),
        (lambda: at_left(None), "tape symbols must be 0, 1 or ':': None"),
        (lambda: at_left(b""), "tape symbols must be 0, 1 or ':': b''"),
        (lambda: at_left(10), "tape symbols must be 0, 1 or ':': 10"),
        (lambda: at_left("0a"), "tape symbols must be 0, 1 or ':': '0a'"),
        (lambda: at_left("|1"), "tape symbols must be 0, 1 or ':': '|1'"),
        (lambda: parse_tape(5), "tape literal needs a head marker '|': 5"),
        (lambda: parse_tape(b"|1"), "tape literal needs a head marker '|': b'|1'"),
        (lambda: parse_tape("10"), "tape literal needs a head marker '|': '10'"),
        (lambda: parse_tape("1|x"), "tape symbols must be 0, 1 or ':': 'x'"),
        (lambda: parse_tape("2|x"), "tape symbols must be 0, 1 or ':': '2'"),
        (lambda: parse_tape("1|2|"), "tape symbols must be 0, 1 or ':': '2|'"),
    ]

    @pytest.mark.parametrize("build, message", REJECTED)
    def test_rejected_inputs_and_their_messages(self, build, message):
        with pytest.raises(InputError) as caught:
            build()
        assert str(caught.value) == message

    def test_string_subclass_parts_accepted(self):
        class Word(str):
            pass

        assert TapeState(Word("1"), Word(":0")) == TapeState("1", ":0")
        assert at_left(Word("1:0")) == TapeState("", "1:0")

    @given(st_any_part, st_any_part)
    def test_accepts_exactly_the_alphabet(self, left, right):
        accepted = set(left) | set(right) <= TAPE_ALPHABET
        for build in (lambda: TapeState(left, right), lambda: parse_tape(f"{left}|{right}")):
            if accepted:
                assert build() == TapeState(left, right)
            else:
                with pytest.raises(InputError):
                    build()
        if set(left) <= TAPE_ALPHABET:
            assert at_left(left) == TapeState("", left)
        else:
            with pytest.raises(InputError):
                at_left(left)

    def test_public_surface(self):
        state = TapeState("1", "0:11")
        assert repr(state) == "TapeState(left='1', right='0:11')"
        assert str(state) == format_tape(state) == "1|0:11"
        assert state.content == "10:11"
        assert (state.left, state.right) == ("1", "0:11")
        assert TapeState() == TapeState("", "") == parse_tape("|")
        assert TapeState().left == TapeState().right == ""
        assert TapeState(left="1", right="0:11") == state
        assert TapeState(right="0") == at_left("0")
        for name in ("left", "right"):
            with pytest.raises(AttributeError):
                setattr(state, name, "0")
        assert not hasattr(state, "__dict__")
        with pytest.raises(AttributeError):
            state.head = 0

    def test_equals_the_bare_tuple_and_orders_lexicographically(self):
        state = TapeState("1", "0:11")
        assert state == ("1", "0:11") and hash(state) == hash(("1", "0:11"))
        assert sorted([TapeState("1", ""), TapeState("0", "1"), TapeState("0", "")]) == [
            TapeState("0", ""),
            TapeState("0", "1"),
            TapeState("1", ""),
        ]

    def test_copies_and_pickles_as_tape_states(self):
        state = TapeState("1", "0:11")
        for clone in (copy.copy(state), copy.deepcopy(state), pickle.loads(pickle.dumps(state))):
            assert type(clone) is TapeState and clone == state

    def test_make_and_replace_check(self):
        state = TapeState("1", "0:11")
        with pytest.raises(InputError):
            state._replace(left="2")
        with pytest.raises(InputError):
            TapeState._make(("1", None))
        assert type(state._replace(left="")) is TapeState and state._replace(left="") == at_left("0:11")


# Every tape state with up to 4 symbols, the head at each position.
SMALL_TAPES = [
    TapeState(word[:head], word[head:])
    for size in range(5)
    for word in map("".join, itertools.product("01:", repeat=size))
    for head in range(size + 1)
]


TAPE_OPERATIONS = [
    (unit, name) for unit in (tape_basic_unit(), dup_unit(), halting_empty_unit()) for name in sorted(unit.operations)
]


@pytest.mark.parametrize("unit, name", TAPE_OPERATIONS, ids=[name for _, name in TAPE_OPERATIONS])
def test_tape_successors_equal_checked_states(unit, name):
    # The tape operations skip the symbol check; their successors, made
    # public by the unit's export_state, must still be states the checked
    # constructor accepts, equal and hashing alike, and of the same type:
    # a bare (left, right) tuple, which is what a tape-basic step returns,
    # would pass the equality and hash checks alone.
    for state in SMALL_TAPES:
        _, successor = unit.operations[name].step(state)
        successor = unit.export_state(successor)
        checked = TapeState(successor.left, successor.right)
        assert type(successor) is TapeState
        assert successor == checked and hash(successor) == hash(checked)


# Inside a run a tape-basic state is a bare (left, right) pair; a run
# starts from a TapeState and converts none on the way in.  The step a
# run takes, on either form, must export to what the operation's step
# returns from the TapeState.
TAPE_BASIC_NAMES = sorted(tape_basic_unit().operations)


def assert_internal_step_exports_to_public(name, state):
    unit = tape_basic_unit()
    public_reply, public = unit.operations[name].step(state)
    for internal_state in (state, tuple(state)):
        reply, internal = unit.steps[name](internal_state)
        exported = unit.export_state(internal)
        assert reply is public_reply
        assert exported == unit.export_state(public)
        assert type(exported) is TapeState


@pytest.mark.parametrize("name", TAPE_BASIC_NAMES)
def test_internal_tape_steps_export_to_the_public_steps(name):
    for state in SMALL_TAPES:
        assert_internal_step_exports_to_public(name, state)


@given(st_tape)
def test_internal_tape_steps_export_to_the_public_steps_on_random_tapes(state):
    for name in TAPE_BASIC_NAMES:
        assert_internal_step_exports_to_public(name, state)


# A tape-basic step returns a bare (left, right) pair, which equals and
# hashes like a TapeState: the test below checks the type of every state
# that leaves a run, which equality alone would not catch.  Its runs
# move, write and delete, each from |01 and from 0|1.
MOVING_PROGRAMS = ["f.mvr;f.write:colon;f.mvl;!t", "+f.delete;f.mvr;f.write:colon;!f", "f.mvr;f.mvl;f.delete;!t"]


@pytest.mark.parametrize("text", MOVING_PROGRAMS)
def test_states_leave_a_tape_basic_run_as_tape_states(text):
    x = parse(text)
    evaluate = derived_operation(x, tape_basic_unit())
    for start in (at_left("01"), TapeState("0", "1")):
        family = singleton_family(FOCUS, UnitService(tape_basic_unit(), start))
        for program_or_thread in (x, extract(x)):
            state = run(program_or_thread, family).family.entries[FOCUS].state
            assert state != start and type(state) is TapeState
        applied = evaluate(start)
        assert applied.state == state and type(applied.state) is TapeState
        service = family.entries[FOCUS]
        for item in text.split(";")[:-1]:
            _, service = service_step(service, item.lstrip("+-").partition(".")[2])
            assert type(service.state) is TapeState
        assert service.state == state


class TestTapeBasic:
    def test_moves(self):
        unit = tape_basic_unit()
        assert step(unit, "mvr", at_left("10")) == (True, TapeState("1", "0"))
        assert step(unit, "mvl", at_left("10")) == (False, at_left("10"))
        assert step(unit, "mvl", TapeState("1", "0")) == (True, at_left("10"))
        assert step(unit, "mvr", TapeState("10", "")) == (False, TapeState("10", ""))

    def test_tests(self):
        unit = tape_basic_unit()
        assert step(unit, "test:0", at_left("01"))[0] is True
        assert step(unit, "test:1", at_left("01"))[0] is False
        assert step(unit, "test:colon", at_left(":"))[0] is True
        assert step(unit, "test:0", TapeState("0", ""))[0] is False
        assert step(unit, "test:end", TapeState("0", ""))[0] is True
        assert step(unit, "test:end", at_left("0"))[0] is False

    def test_writes_and_delete(self):
        unit = tape_basic_unit()
        assert step(unit, "write:colon", TapeState("", "")) == (True, at_left(":"))
        assert step(unit, "write:1", at_left("0:")) == (True, at_left("1:"))
        assert step(unit, "delete", at_left("0:")) == (True, at_left(":"))
        assert step(unit, "delete", TapeState("0", "")) == (False, TapeState("0", ""))

    @given(st_tape)
    def test_operations_total(self, state):
        for unit in (tape_basic_unit(), dup_unit()):
            for op in unit.operations.values():
                reply, successor = op.step(state)
                assert isinstance(reply, bool)
                assert isinstance(unit.export_state(successor), TapeState)

    @given(st_tape)
    def test_colon_counts_match_declarations(self, state):
        # Only dup and write:colon may add a ':'.
        for unit in (tape_basic_unit(), dup_unit()):
            for op in unit.operations.values():
                _, successor = op.step(state)
                if op.name not in ("dup", "write:colon"):
                    assert unit.export_state(successor).content.count(":") <= state.content.count(":")


class TestDup:
    def test_given_cases(self):
        assert dup_step(at_left("10")) == (True, at_left("10:10"))
        assert dup_step(at_left("0:11")) == (True, at_left("0:0:11"))
        assert dup_step(TapeState("1", "0:11")) == (True, at_left("10:10:11"))
        assert dup_step(TapeState("", "")) == (True, at_left(":"))

    @given(st_bits, st_word)
    def test_duplicates_leading_block(self, bits, word):
        assert dup_step(at_left(f"{bits}:{word}")) == (True, at_left(f"{bits}:{bits}:{word}"))

    @given(st_tape)
    def test_adds_exactly_one_colon(self, state):
        _, successor = dup_step(state)
        assert successor.content.count(":") == state.content.count(":") + 1


class TestDerivedOperation:
    def test_trivially_total(self):
        evaluate = derived_operation(parse("!t"), dup_unit())
        for state in (at_left(""), at_left("10:1"), TapeState("1", "0")):
            assert evaluate(state) == Applied(True, state)

    def test_one_step(self):
        evaluate = derived_operation(parse("f.dup;!t"), dup_unit())
        assert evaluate(at_left("1")) == Applied(True, at_left("1:1"))

    def test_divergence_is_undefined(self):
        evaluate = derived_operation(parse("#0"), dup_unit())
        assert evaluate(at_left("1")) is UNDEFINED

    def test_fuel_exhaustion_is_unknown(self):
        evaluate = derived_operation(parse("f.dup;\\#1"), dup_unit(), fuel=50)
        assert evaluate(at_left("1")) is UNKNOWN

    def test_wrong_focus_rejected(self):
        with pytest.raises(InputError, match="^g.dup does not use focus 'f'$"):
            derived_operation(parse("g.dup;!t"), dup_unit())

    def test_unknown_method_rejected(self):
        with pytest.raises(InputError, match="^'nope' not in interface of dup$"):
            derived_operation(parse("f.nope;!t"), dup_unit())

    @pytest.mark.parametrize("fuel", [0, 1.5, True, Fuel.TEN])
    def test_fuel_rejected_when_built(self, fuel):
        with pytest.raises(InputError, match="^fuel must be"):
            derived_operation(parse("!t"), dup_unit(), fuel)


class TestDupWitness:
    def test_spot_checks(self):
        op = derived_operation(dup_witness_program(), tape_basic_unit(), fuel=100_000)
        for state in (
            TapeState("", ""),
            at_left("10"),
            at_left(":"),
            at_left("0:11"),
            TapeState("1", "0:11"),
            TapeState("10:1", "0"),
            at_left("::"),
        ):
            assert op(state) == Applied(*dup_step(state))

    def test_uses_only_tape_basic_methods(self):
        methods = {
            u.action.method
            for u in dup_witness_program()
            if hasattr(u, "action")
        }
        assert methods <= interface(tape_basic_unit())
