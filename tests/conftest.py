"""Shared generators for random programs, threads and service families,
and the one-focus families and outcome reader that several test files use."""

from __future__ import annotations

import enum
import random

from hypothesis import strategies as st

from seqhalt.machine import Converged, ProvenDivergent
from seqhalt.program import (
    BasicInstruction,
    BwdJump,
    FwdJump,
    NegTest,
    Plain,
    PosTest,
    Program,
    TERM_FALSE,
    TERM_TRUE,
)
from seqhalt.services import EMPTY_SERVICE, Reply, ServiceFamily, UnitService, singleton_family
from seqhalt.threads import (
    DEADLOCK,
    PostCond,
    RegularThread,
    STOP_FALSE,
    STOP_TRUE,
    TAU,
)
from seqhalt.units import TapeState, at_left, counter_unit, dup_unit, halting_empty_unit, tape_basic_unit


class Fuel(enum.IntEnum):
    """An ``int`` subclass, which a fuel parameter rejects: fuel must be an
    exact ``int``."""

    TEN = 10


def counter_family(n=0):
    return singleton_family("f", UnitService(counter_unit(), n))


def dup_family(word=""):
    return singleton_family("f", UnitService(dup_unit(), at_left(word)))


def halting_family(word=""):
    return singleton_family("f", UnitService(halting_empty_unit(), at_left(word)))


def definite(outcome) -> Reply:
    """Reply of a resolved outcome: T, F or D."""
    if isinstance(outcome, Converged):
        return Reply.from_bool(outcome.reply)
    assert isinstance(outcome, ProvenDivergent)
    return Reply.DIVERGENT


def st_basic(foci=("f",), methods=("m", "test:0")):
    return st.builds(
        BasicInstruction, st.sampled_from(foci), st.sampled_from(methods)
    )


def st_instruction(foci=("f", "g"), methods=("m", "dup", "test:0"), max_offset=7):
    basic = st_basic(foci, methods)
    offsets = st.integers(min_value=0, max_value=max_offset)
    return st.one_of(
        st.builds(Plain, basic),
        st.builds(PosTest, basic),
        st.builds(NegTest, basic),
        st.builds(FwdJump, offsets),
        st.builds(BwdJump, offsets),
        st.just(TERM_TRUE),
        st.just(TERM_FALSE),
    )


def st_program(max_size=6, **kwargs):
    return st.lists(st_instruction(**kwargs), min_size=1, max_size=max_size).map(
        lambda items: Program(tuple(items))
    )


def random_instruction(rng: random.Random, methods, max_offset=4, focus="f"):
    kind = rng.randrange(7)
    if kind < 3:
        action = BasicInstruction(focus, rng.choice(methods))
        return (Plain, PosTest, NegTest)[kind](action)
    if kind == 3:
        return FwdJump(rng.randrange(max_offset + 1))
    if kind == 4:
        return BwdJump(rng.randrange(max_offset + 1))
    return TERM_TRUE if kind == 5 else TERM_FALSE


def random_program(rng: random.Random, methods, max_len=6, focus="f") -> Program:
    length = rng.randint(1, max_len)
    return Program(
        tuple(
            random_instruction(rng, methods, max_len + 1, focus)
            for _ in range(length)
        )
    )


def random_tape(rng: random.Random, max_side=3) -> TapeState:
    def side():
        return "".join(rng.choice("01:") for _ in range(rng.randrange(max_side + 1)))

    return TapeState(side(), side())


def random_service(rng: random.Random):
    roll = rng.randrange(4)
    if roll == 0:
        return EMPTY_SERVICE
    if roll == 1:
        return UnitService(counter_unit(), rng.randrange(5))
    if roll == 2:
        return UnitService(dup_unit(), random_tape(rng))
    return UnitService(tape_basic_unit(), random_tape(rng))


FOCI = ("a", "b", "c", "f", "g")


def random_family(rng: random.Random) -> ServiceFamily:
    count = rng.randrange(4)
    entries = {}
    for focus in rng.sample(FOCI, count):
        entries[focus] = random_service(rng)
    return ServiceFamily(entries)


def random_thread(rng: random.Random, max_nodes=8, actions=None) -> RegularThread:
    if actions is None:
        actions = [BasicInstruction("f", "m"), BasicInstruction("f", "dup"), TAU]
    count = rng.randint(1, max_nodes)
    ids = list(range(count))
    nodes = {}
    for ref in ids:
        roll = rng.random()
        if roll < 0.15:
            nodes[ref] = rng.choice((DEADLOCK, STOP_TRUE, STOP_FALSE))
        else:
            nodes[ref] = PostCond(
                rng.choice(actions), rng.choice(ids), rng.choice(ids)
            )
    return RegularThread(nodes, 0)


def unrolled(t: RegularThread) -> RegularThread:
    """A two-copy unrolling, bisimilar to the input by construction."""
    nodes = {}
    for parity in (0, 1):
        for ref, node in t.nodes.items():
            if isinstance(node, PostCond):
                nodes[(ref, parity)] = PostCond(
                    node.action,
                    (node.then_ref, 1 - parity),
                    (node.else_ref, 1 - parity),
                )
            else:
                nodes[(ref, parity)] = node
    return RegularThread(nodes, (t.root, 0))


def postcond_thread(action, t_then: RegularThread, t_else: RegularThread) -> RegularThread:
    """Thread performing `action` then continuing as one of the branches."""
    nodes = {}
    for tag, t in (("t", t_then), ("e", t_else)):
        for ref, node in t.nodes.items():
            if isinstance(node, PostCond):
                nodes[(tag, ref)] = PostCond(
                    node.action, (tag, node.then_ref), (tag, node.else_ref)
                )
            else:
                nodes[(tag, ref)] = node
    nodes["root"] = PostCond(action, ("t", t_then.root), ("e", t_else.root))
    return RegularThread(nodes, "root")
