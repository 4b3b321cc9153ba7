import copy
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
)
from seqhalt.program import InputError, parse
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
    halting_op_step,
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
        with pytest.raises(ValueError):
            unit_by_name("nosuch")

    def test_operation_under_another_name_rejected(self):
        with pytest.raises(InputError, match="^operation 'dup' registered under 'copy'$"):
            FunctionalUnit("dup", {"copy": MethodOperation("dup", dup_step)}, format_tape, parse_tape)


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


class TestTapeState:
    def test_literals(self):
        assert parse_tape("10|0:11") == TapeState("10", "0:11")
        assert parse_tape("|10") == at_left("10")
        assert parse_tape("|") == TapeState("", "")
        assert format_tape(TapeState("1", ":0")) == "1|:0"
        with pytest.raises(ValueError):
            parse_tape("10")
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


@pytest.mark.parametrize(
    "name, step",
    [*((op.name, op.step) for op in tape_basic_unit().operations.values()), ("dup", dup_step), ("halting", halting_op_step)],
)
def test_tape_successors_equal_checked_states(name, step):
    # The tape operations skip the symbol check; their successors must
    # still be states the checked constructor accepts, equal and hashing
    # alike, and of the same type: a bare (left, right) tuple would pass
    # the equality and hash checks alone.
    for state in SMALL_TAPES:
        _, successor = step(state)
        checked = TapeState(successor.left, successor.right)
        assert type(successor) is TapeState
        assert successor == checked and hash(successor) == hash(checked)


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
                assert isinstance(successor, TapeState)

    @given(st_tape)
    def test_colon_counts_match_declarations(self, state):
        # Only dup and write:colon may add a ':'.
        for unit in (tape_basic_unit(), dup_unit()):
            for op in unit.operations.values():
                _, successor = op.step(state)
                if op.name not in ("dup", "write:colon"):
                    assert successor.content.count(":") <= state.content.count(":")


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
