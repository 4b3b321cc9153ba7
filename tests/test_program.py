import pytest
from hypothesis import given

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
    ["f", "f.", ".m", "+#1", "#01", "#-1", "\\#x", "F.m", "f.M", "!x", "f..m", "f.m;+"],
)
def test_parse_rejects_malformed(text):
    with pytest.raises(ProgramSyntaxError):
        parse(text)


def test_render_canonical():
    assert render(Program((TERM_TRUE,))) == "!t"
    assert render(Program((NegTest(BasicInstruction("f", "dup")), BwdJump(1)))) == "-f.dup;\\#1"
    assert render(parse("f.test:0;#2;!f")) == "f.test:0;#2;!f"


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
    ],
)
def test_decode_rejects_non_encodings(bits):
    assert decode(bits) is NOT_AN_ENCODING


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


def test_enumerate_counts():
    # 3 basic forms + 2 terminators + 4 jumps of each kind at offsets 0..3
    programs = list(enumerate_programs({"dup"}, 2))
    assert len(programs) == 13 + 13 * 13
