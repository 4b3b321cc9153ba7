import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import random_tape
from seqhalt.machine import (
    UNDEFINED,
    UNKNOWN,
    Applied,
    derived_operation,
)
from seqhalt.program import InputError, parse
from seqhalt.units import (
    TapeState,
    at_left,
    counter_unit,
    dup_step,
    dup_unit,
    dup_witness_program,
    format_tape,
    interface,
    parse_tape,
    tape_basic_unit,
    unit_by_name,
)

st_bits = st.text(alphabet="01", max_size=4)
st_word = st.text(alphabet="01:", max_size=6)
st_tape = st.builds(lambda seed: random_tape(random.Random(seed)), st.integers(0, 10**6))


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
        with pytest.raises(ValueError):
            TapeState("2", "")


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
