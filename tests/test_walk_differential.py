"""``threads._halts`` and ``threads.extract`` agree with the frozen
originals, which chased jumps and picked successors in separate
functions, and ``encode`` with its byte-by-byte definition, exhaustively
on small program classes and on random programs."""

import itertools

import pytest
from hypothesis import given, settings

import frozen_walk
from conftest import st_program
from seqhalt.program import Program, decode, encode, enumerate_programs, instruction_alphabet, render
from seqhalt.threads import _halts, extract

REPLY_PAIRS = [(first, later) for first in (True, False) for later in (True, False)]


@pytest.mark.parametrize(
    "methods, max_len",
    [({"halting"}, 3), ({"dup"}, 4), ({"dup", "halting"}, 3)],
    ids=["halting-3", "dup-4", "dup-halting-3"],
)
def test_halts_matches_reference_exhaustively(methods, max_len):
    for x in enumerate_programs(methods, max_len):
        for first, later in REPLY_PAIRS:
            assert _halts(x, first, later) == frozen_walk.halts(x, first, later), (str(x), first, later)


# Offsets up to 12 give 0-jumps, jumps past either end of a program of up
# to 8 instructions and backward jumps past position 1.
@settings(max_examples=500, deadline=None)
@given(st_program(max_size=8, foci=("f", "g"), methods=("m", "dup", "halting"), max_offset=12))
def test_halts_matches_reference_on_random_programs(x):
    for first, later in REPLY_PAIRS:
        assert _halts(x, first, later) == frozen_walk.halts(x, first, later), (first, later)


# f.dup, +f.dup, -f.dup, !t, !f and jumps of both kinds at 0..5: every
# jump from any position of a 3-instruction program lands inside it, just
# past either end, or further out.
_LETTERS = instruction_alphabet({"dup"}, fwd_offsets=range(6), bwd_offsets=range(6))
SMALL = [Program(combo) for k in (1, 2, 3) for combo in itertools.product(_LETTERS, repeat=k)]


def byte_by_byte(x):
    return "".join(format(byte, "08b") for byte in render(x).encode("ascii"))


def check_extract_and_encode(x):
    thread, reference = extract(x), frozen_walk.extract(x)
    # Equal graphs, with the nodes found in the same order.
    assert (thread.root, list(thread.nodes.items())) == (reference.root, list(reference.nodes.items()))
    bits = encode(x)
    assert bits == byte_by_byte(x)
    assert decode(bits) == x


def test_extract_and_encode_match_reference_exhaustively():
    assert len(SMALL) == 17 + 17**2 + 17**3
    for x in SMALL:
        check_extract_and_encode(x)


@settings(max_examples=500, deadline=None)
@given(st_program(max_size=8, foci=("f", "g"), methods=("m", "dup", "halting"), max_offset=12))
def test_extract_and_encode_match_reference_on_random_programs(x):
    check_extract_and_encode(x)
