import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import random_family, random_program
from seqhalt.machine import (
    Converged,
    DivergenceCause,
    FuelExhausted,
    ProvenDivergent,
    apply,
    converges,
    reply,
    run,
    run_total,
)
from seqhalt.program import parse
from seqhalt.services import Reply, UnitService, empty_family, singleton_family
from seqhalt.threads import PostCond, RegularThread, STOP_TRUE, TAU
from seqhalt.units import FunctionalUnit, MethodOperation, at_left, counter_unit, dup_unit


def counter_family(n=0):
    return singleton_family("f", UnitService(counter_unit(), n))


def dup_family(word=""):
    return singleton_family("f", UnitService(dup_unit(), at_left(word)))


class TestRun:
    def test_immediate_termination_keeps_family(self):
        fam = counter_family(0)
        out = run(parse("!t"), fam)
        assert out == Converged(True, fam, 0)

    def test_missing_focus(self):
        out = run(parse("+g.m;!t;!f"), counter_family(0))
        assert out == ProvenDivergent(DivergenceCause.MISSING_FOCUS, 0)

    def test_counter_walkthrough(self):
        out = run(parse("f.setzero;f.succ;+f.iszero;!f;!t"), counter_family(0))
        assert isinstance(out, Converged)
        assert out.reply is True
        assert out.family == counter_family(1)

    def test_growing_state_exhausts_fuel(self):
        out = run(parse("f.succ;\\#1"), counter_family(0), fuel=1000)
        assert out == FuelExhausted(1000)

    def test_reply_true_into_missing_instruction_deadlocks(self):
        out = run(parse("-f.dup;!t"), dup_family("1"))
        assert out == ProvenDivergent(DivergenceCause.DEADLOCK, 1)

    def test_unknown_method_reply_d(self):
        out = run(parse("f.pred;!t"), dup_family("1"))
        assert out == ProvenDivergent(DivergenceCause.REPLY_D, 0)

    def test_cycle_detected_on_repeated_configuration(self):
        out = run(parse("+f.iszero;\\#1"), counter_family(0))
        assert out == ProvenDivergent(DivergenceCause.CYCLE, 1)

    def test_stationary_plain_loop_cycles(self):
        out = run(parse("f.setzero;\\#1"), counter_family(3))
        assert isinstance(out, ProvenDivergent)
        assert out.cause is DivergenceCause.CYCLE

    def test_tau_consumes_a_step_without_touching_family(self):
        thread = RegularThread({0: PostCond(TAU, 1, 1), 1: STOP_TRUE}, 0)
        fam = counter_family(5)
        trace = []
        assert run(thread, fam, trace=trace.append) == Converged(True, fam, 1)
        assert trace == ["pc=0 action=tau reply=T state=f=counter:5"]

    def test_trace_lines(self):
        trace = []
        run(parse("f.dup;!t"), dup_family("10"), trace=trace.append)
        assert trace == ["pc=1 action=f.dup reply=T state=f=dup:|10:10"]

    def test_cycle_witness_replays(self):
        # pred drives the counter 3,2,1,0 and then loops at 0
        trace = []
        out = run(parse("f.pred;\\#1"), counter_family(3), trace=trace.append)
        assert out == ProvenDivergent(DivergenceCause.CYCLE, 4)
        seen = set()
        repeats = []
        for line in trace:
            pc = line.split()[0]
            state = line.split("state=")[1]
            if (pc, state) in seen:
                repeats.append((pc, state))
            seen.add((pc, state))
        assert repeats == [("pc=1", "f=counter:0")]
        again = []
        assert run(parse("f.pred;\\#1"), counter_family(3), trace=again.append) == out
        assert again == trace

    def test_trace_is_delivered_per_step(self):
        delivered = []

        def hook(line):
            if delivered:
                raise RuntimeError("second step")
            delivered.append(line)

        with pytest.raises(RuntimeError, match="second step"):
            run(parse("f.succ;\\#1"), counter_family(0), trace=hook)
        assert delivered == ["pc=1 action=f.succ reply=T state=f=counter:1"]

    def test_deterministic(self):
        rng = random.Random(5)
        for _ in range(60):
            x = random_program(rng, ["setzero", "succ", "pred", "iszero"])
            fam = counter_family(rng.randrange(3))
            assert run(x, fam, 500) == run(x, fam, 500)

    def test_monotone_in_fuel(self):
        rng = random.Random(6)
        for _ in range(120):
            x = random_program(rng, ["setzero", "succ", "pred", "iszero"])
            fam = counter_family(rng.randrange(3))
            first = run(x, fam, 100)
            if not isinstance(first, FuelExhausted):
                assert run(x, fam, 1000) == first

    def test_lying_unit_caught_on_every_path(self):
        liar = FunctionalUnit(
            "liar", {"m": MethodOperation("m", lambda n: (False, n), constant_reply=True)}, str, int
        )
        fam = singleton_family("f", UnitService(liar, 0))
        for evaluate in (run, run_total):
            with pytest.raises(AssertionError, match="declared constant reply"):
                evaluate(parse("f.m;!t"), fam)


class TestProjectionsOfRun:
    def test_reply_values(self):
        assert reply(parse("!f"), empty_family()) is Reply.FALSE
        assert reply(parse("#0"), counter_family()) is Reply.DIVERGENT
        assert reply(parse("f.dup;!t"), dup_family("10")) is Reply.TRUE
        assert reply(parse("f.succ;\\#1"), counter_family(), fuel=100) is None

    def test_apply_values(self):
        fam = counter_family(2)
        assert apply(parse("!t"), fam) == fam
        assert apply(parse("#0"), fam) == empty_family()
        assert apply(parse("f.dup;!t"), dup_family("1")) == dup_family("1:1")
        assert apply(parse("f.succ;\\#1"), fam, fuel=100) is None

    def test_converges_values(self):
        assert converges(parse("!t"), counter_family()) is True
        assert converges(parse("#0"), counter_family()) is False
        assert converges(parse("f.succ;\\#1"), counter_family(), fuel=100) is None


@given(st.integers(0, 10**6), st.integers(0, 10**6))
def test_tau_prefix_preserves_apply_and_reply(seed1, seed2):
    rng = random.Random(seed1)
    fam = random_family(random.Random(seed2))
    x = random_program(rng, ["m", "dup"], max_len=3)
    from seqhalt.threads import extract

    inner = extract(x)
    prefixed = RegularThread(
        {("w", ref): _shift(node) for ref, node in inner.nodes.items()}
        | {"root": PostCond(TAU, ("w", inner.root), ("w", inner.root))},
        "root",
    )
    out_inner = run(inner, fam, 300)
    out_prefixed = run(prefixed, fam, 301)
    if isinstance(out_inner, FuelExhausted) or isinstance(out_prefixed, FuelExhausted):
        return
    if isinstance(out_inner, Converged):
        assert isinstance(out_prefixed, Converged)
        assert out_prefixed.reply == out_inner.reply
        assert out_prefixed.family == out_inner.family
    else:
        assert isinstance(out_prefixed, ProvenDivergent)


def _shift(node):
    if isinstance(node, PostCond):
        return PostCond(node.action, ("w", node.then_ref), ("w", node.else_ref))
    return node
