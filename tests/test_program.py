import copy
import dataclasses
import pickle
import sys

import pytest
from hypothesis import given, strategies as st

from conftest import st_program
from seqhalt.program import (
    BwdJump,
    FwdJump,
    InputError,
    NOT_AN_ENCODING,
    NegTest,
    Plain,
    PosTest,
    ProgramSyntaxError,
    Program,
    TERM_FALSE,
    TERM_TRUE,
    BasicInstruction,
    decode,
    encode,
    enumerate_programs,
    foreign_action,
    parse,
    render,
)


def test_parse_basic_forms():
    x = parse("+f.dup;!t;!f")
    assert x.instructions == (
        PosTest(BasicInstruction("f", "dup")),
        TERM_TRUE,
        TERM_FALSE,
    )
    assert parse("#0").instructions == (FwdJump(0),)
    assert parse("\\#3").instructions == (BwdJump(3),)
    assert parse("-g.mvl").instructions == (NegTest(BasicInstruction("g", "mvl")),)
    assert parse("f.write:colon").instructions == (
        Plain(BasicInstruction("f", "write:colon")),
    )


def test_parse_rejects_empty_slot_with_position():
    with pytest.raises(ProgramSyntaxError) as info:
        parse("f.dup;;!t")
    assert info.value.position == 6


def test_parse_rejects_empty_program():
    with pytest.raises(ProgramSyntaxError, match="program has no instructions"):
        parse("   ")


@pytest.mark.parametrize(
    "text",
    ["f", "f.", ".m", "+#1", "#01", "#-1", "\\#x", "F.m", "f.M", "!x", "f..m", "f.m;+", None],
)
def test_parse_rejects_malformed(text):
    with pytest.raises(ProgramSyntaxError):
        parse(text)


@pytest.mark.parametrize(
    "text, message",
    [
        ("f.M", "bad instruction 'f.M' (at character 0)"),
        ("F.m", "bad instruction 'F.m' (at character 0)"),
        ("!t;+#1", "bad instruction '#1' (at character 3)"),
        ("f.m;+", "bad instruction '' (at character 4)"),
        ("f..m", "bad instruction 'f..m' (at character 0)"),
        ("#01", "bad jump counter in '#01' (at character 0)"),
    ],
)
def test_parse_names_the_bad_instruction(text, message):
    with pytest.raises(ProgramSyntaxError) as caught:
        parse(text)
    assert str(caught.value) == message


@given(st_program())
def test_parsed_actions_are_checked_actions(x):
    # parse builds its actions without BasicInstruction's second check;
    # each must still be one the checked constructor builds alike.
    for u in parse(render(x)):
        if type(u) in (Plain, PosTest, NegTest):
            checked = BasicInstruction(u.action.focus, u.action.method)
            assert type(u.action) is BasicInstruction
            assert u.action == checked and hash(u.action) == hash(checked)
            assert repr(u.action) == repr(checked)


def test_parsed_action_is_a_frozen_record():
    action = parse("+f.write:0").at(1).action
    for clone in (copy.copy(action), copy.deepcopy(action), pickle.loads(pickle.dumps(action))):
        assert type(clone) is BasicInstruction and clone == action
    with pytest.raises(dataclasses.FrozenInstanceError):
        action.method = "M"


def test_render_canonical():
    assert render(Program((TERM_TRUE,))) == "!t"
    assert render(Program((NegTest(BasicInstruction("f", "dup")), BwdJump(1)))) == "-f.dup;\\#1"
    assert render(parse("f.test:0;#2;!f")) == "f.test:0;#2;!f"
    assert str(parse("f.dup;!t")) == "f.dup;!t"


@given(st_program())
def test_parse_render_round_trip(x):
    assert parse(render(x)) == x


def test_encode_term_true_bits():
    assert encode(Program((TERM_TRUE,))) == "0010000101110100"


def test_encode_injective_on_enumerated_set():
    seen = {}
    for x in enumerate_programs({"dup"}, 2):
        bits = encode(x)
        assert bits not in seen, (x, seen[bits])
        seen[bits] = x
    assert len(seen) > 50


@given(st_program(max_size=4))
def test_decode_inverts_encode(x):
    assert decode(encode(x)) == x


@pytest.mark.parametrize(
    "bits",
    [
        "0000000",  # not a multiple of 8
        "11111111" * 2,  # non-ASCII byte
        encode(parse("!t"))[:8] + "1",
        "0011101100111011",  # bits of ";;"
        "",
        "0_100001" * 2,  # int(..., 2) takes underscores
        " 0100001" + "01110100",  # ... surrounding whitespace
        "+0100001" + "01110100",  # ... a sign
        "0010000101110100\n",  # '$' would match before a trailing newline
        "٠١" * 8,  # ... and non-ASCII digits
        # "#" and a counter past int()'s default limit of 4300 digits
        pytest.param("".join(format(byte, "08b") for byte in ("#" + "1" * 5000).encode()), id="long-jump"),
        5,  # not a string
    ],
)
def test_decode_rejects_non_encodings(bits):
    assert decode(bits) is NOT_AN_ENCODING


def test_non_encoding_repr_is_its_name():
    assert repr(NOT_AN_ENCODING) == "NOT_AN_ENCODING"


# The largest counter ``str`` converts: as many nines as the digit limit.
_LONGEST = 10 ** sys.get_int_max_str_digits() - 1


@pytest.mark.parametrize("jump", [FwdJump, BwdJump])
@pytest.mark.parametrize(
    "counter",
    [-1, -_LONGEST - 1, True, False, 1.5, 2.0, "3", None, _LONGEST + 1],
    ids=["negative", "long-negative", "true", "false", "float", "integral-float", "str", "none", "past-digit-limit"],
)
def test_jump_rejects_a_counter_that_does_not_parse_back(jump, counter):
    # A bool or a float would render as "#True" or "#1.5", which decode
    # answers NOT_AN_ENCODING; a counter past the limit would make render
    # raise a bare ValueError in str().
    with pytest.raises(InputError, match="^jump counter "):
        jump(counter)


@given(st.sampled_from([FwdJump, BwdJump]), st.one_of(st.integers(0, 10**6), st.integers(0, _LONGEST)))
def test_every_accepted_jump_round_trips(jump, counter):
    x = Program((jump(counter),))
    assert parse(render(x)) == x
    # The refuters write encodings on tapes unchecked: only 0s and 1s.
    assert set(encode(x)) <= {"0", "1"}
    assert decode(encode(x)) == x


@pytest.mark.parametrize("limit", [0, 640, sys.get_int_max_str_digits(), 5000])
def test_jump_counter_follows_the_digit_limit_in_force(limit):
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(limit)
    try:
        # 640 digits is the lowest limit there can be; 0 means none.
        for counter in [10**640 - 1, 10**limit - 1] if limit else [10**640, 10**5000]:
            x = Program((BwdJump(counter),))
            assert parse(render(x)) == x
        if limit:
            with pytest.raises(InputError, match=f"more than {limit} digits"):
                BwdJump(10**limit)
    finally:
        sys.set_int_max_str_digits(saved)


def test_program_positions_are_one_based():
    x = parse("f.m;!t")
    assert x.at(1) == Plain(BasicInstruction("f", "m"))
    assert x.at(2) == TERM_TRUE
    assert len(x) == 2


@pytest.mark.parametrize(
    "text, first",
    [
        ("f.dup;+g.dup;-f.m", "g.dup"),
        ("-f.m;g.dup", "f.m"),
        ("f.dup;!t;g.dup;f.m", "g.dup"),  # after a terminal, in position order
        ("!f;#1;\\#2;f.dup", None),
    ],
)
def test_foreign_action_is_the_first_in_position_order(text, first):
    action = foreign_action(parse(text), ("dup",))
    assert (None if action is None else str(action)) == first


def test_empty_construction_rejected():
    with pytest.raises(ProgramSyntaxError, match="program has no instructions"):
        Program(())


def test_program_rejects_a_non_instruction():
    # Every layer then sees instructions only: foreign_action, render,
    # extract and the fixed-reply walk never meet another element.
    subclassed = type("LikeTermTrue", (type(TERM_TRUE),), {})()
    for stray in ("f.m", BasicInstruction("f", "m"), None, subclassed):
        with pytest.raises(InputError, match="^not an instruction: "):
            Program((FwdJump(1), stray, TERM_TRUE))


@pytest.mark.parametrize(
    "focus, method, message",
    [
        ("F", "m", "bad focus 'F'"),
        ("f", "M", "bad method name 'M'"),
        (["f"], "m", r"bad focus \['f'\]"),
        ("f", 3, "bad method name 3"),
    ],
)
def test_basic_instruction_rejects_a_bad_name(focus, method, message):
    with pytest.raises(InputError, match=f"^{message}$"):
        BasicInstruction(focus, method)


def test_enumerate_counts():
    # 3 basic forms + 2 terminators + 4 jumps of each kind at offsets 0..3
    programs = list(enumerate_programs({"dup"}, 2))
    assert len(programs) == 13 + 13 * 13
