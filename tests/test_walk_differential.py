"""``threads._halts`` agrees with the frozen original walk, which chased
jumps and picked successors in separate functions, exhaustively on small
program classes and on random programs."""

import pytest
from hypothesis import given, settings

import frozen_walk
from conftest import st_program
from seqhalt.program import enumerate_programs
from seqhalt.threads import _halts

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
