import copy
import pickle
import random
import tracemalloc
from typing import get_args

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import Fuel, random_family, random_program
from seqhalt import machine
from seqhalt.machine import (
    Applied,
    Converged,
    DivergenceCause,
    FuelExhausted,
    Outcome,
    ProvenDivergent,
    apply,
    converges,
    reply,
    run,
    run_total,
)
from seqhalt.program import InputError, parse
from seqhalt.services import (
    EMPTY_SERVICE,
    Reply,
    ServiceFamily,
    UnitService,
    empty_family,
    parse_family,
    singleton_family,
)
from seqhalt.threads import PostCond, RegularThread, STOP_TRUE, TAU, extract
from seqhalt.units import FunctionalUnit, MethodOperation, at_left, counter_unit, dup_unit


def counter_family(n=0):
    return singleton_family("f", UnitService(counter_unit(), n))


def dup_family(word=""):
    return singleton_family("f", UnitService(dup_unit(), at_left(word)))


def counting_counter_family(n, calls):
    """A counter family whose unit appends each state it steps to ``calls``."""

    def counted(op):
        def step(state):
            calls.append(state)
            return op.step(state)

        return MethodOperation(op.name, step, op.constant_reply)

    operations = {name: counted(op) for name, op in counter_unit().operations.items()}
    return singleton_family("f", UnitService(FunctionalUnit("counter", operations, str, int), n))


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

    @pytest.mark.parametrize("fuel", [0, 1.5, "5", True, Fuel.TEN])
    def test_fuel_must_be_an_int_of_at_least_1(self, fuel):
        with pytest.raises(InputError, match="^fuel must be"):
            run(parse("f.succ;\\#1"), counter_family(0), fuel)
        assert run(parse("f.succ;\\#1"), counter_family(0), 1) == FuelExhausted(1)

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

    def test_growing_tape_runs_in_bounded_memory(self):
        # Keeping every configuration of this loop holds O(steps^2)
        # symbols: about 57 MB traced at 20 000 steps.
        x, fam = parse("f.mvr;f.write:1;\\#2"), parse_family("f=tapebasic:|")
        tracemalloc.start()
        try:
            out = run(x, fam, 20_000)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert out == FuelExhausted(20_000)
        assert peak < 10 * 2**20

    def test_flat_memory_whatever_the_fuel(self):
        # A FUEL run holds a fixed number of configurations.  One set
        # entry per step, at about 70 bytes each, would pass 3 MB here.
        x, fam = parse("f.succ;\\#1"), parse_family("f=counter:0")
        tracemalloc.start()
        try:
            out = run(x, fam, 50_000)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert out == FuelExhausted(50_000)
        assert peak < 2**20

    def test_run_that_ends_takes_each_step_once(self):
        # The counter is back at a node it has visited on every step but
        # the first, with a new state each time.
        calls = []
        out = run(parse("+f.pred;\\#1;!t"), counting_counter_family(500, calls))
        assert (out.reply, out.family.entries["f"].state, out.steps) == (True, 0, 501)
        assert len(calls) == 501

    @pytest.mark.parametrize("fuel", [1, 2, 3, 7, 8, 9, 100, 1023, 1024, 1025])
    def test_fuel_run_takes_at_most_twice_its_fuel(self, fuel):
        calls = []
        assert run(parse("f.succ;\\#1"), counting_counter_family(0, calls), fuel) == FuelExhausted(fuel)
        assert len(calls) <= 2 * fuel

    @pytest.mark.parametrize(
        "start", sorted({0, 1, 600} | {max(0, 2**k + d) for k in range(13) for d in (-3, -2, -1, 0, 1)})
    )
    def test_cycle_run_work_is_bounded(self, start):
        # The run enters its cycle at mu = start + 1, with period 1.  It
        # sees the cycle within 4n steps and finds mu within 2n more.
        # Replayed from the checkpoint before the cycle, as here, the
        # whole run takes about 2n unit calls.
        x, calls = parse("+f.pred;\\#1;f.setzero;\\#1"), []
        n = start + 2
        assert run(x, counting_counter_family(start, calls)) == ProvenDivergent(DivergenceCause.CYCLE, n)
        assert len(calls) <= 2 * n + 1

    @pytest.mark.parametrize("mu, period", [(0, 2), (0, 5), (0, 64), (1, 7), (3, 13), (50, 50), (0, 100)])
    def test_cycle_closing_at_the_fuel_is_proven(self, mu, period):
        # The run repeats a configuration at the last step its fuel
        # allows.  Only the mark saved at step ``fuel`` has a window long
        # enough to see that cycle.
        n = mu + period
        nodes = {i: PostCond(TAU, i + 1, i + 1) for i in range(n - 1)}
        nodes[n - 1] = PostCond(TAU, mu, mu)
        thread, fam = RegularThread(nodes, 0), counter_family(0)
        assert run(thread, fam, n) == ProvenDivergent(DivergenceCause.CYCLE, n)
        assert run(thread, fam, n - 1) == FuelExhausted(n - 1)

    def test_traced_run_steps_again_once(self):
        x, untraced, traced, lines = parse("+f.pred;\\#1;f.setzero;\\#1"), [], [], []
        out = run(x, counting_counter_family(600, untraced))
        assert run(x, counting_counter_family(600, traced), trace=lines.append) == out
        assert len(lines) == out.steps
        assert len(traced) == len(untraced) + out.steps

    def test_lying_unit_caught_on_every_path(self):
        liar = FunctionalUnit(
            "liar", {"m": MethodOperation("m", lambda n: (False, n), constant_reply=True)}, str, int
        )
        fam = singleton_family("f", UnitService(liar, 0))
        for evaluate in (run, run_total):
            with pytest.raises(AssertionError, match="declared constant reply"):
                evaluate(parse("f.m;!t"), fam)

    def test_run_total_rejects_a_varying_action_it_never_visits(self):
        # f.succ replies True, so the run ends at !t; f.iszero, reachable
        # on the False branch, is never visited.
        x = parse("+f.succ;!t;f.iszero;!t")
        for program_or_thread in (x, extract(x)):
            with pytest.raises(InputError, match="f.iszero has no declared constant reply"):
                run_total(program_or_thread, parse_family("f=counter:0"))

    def test_untraced_runs_on_the_dup_unit_extract_nothing(self, monkeypatch):
        extracted = []

        def counting_extract(x):
            extracted.append(x)
            return extract(x)

        # Two steps: f.dup replies True, so -f.dup skips the !f.
        x = parse("f.dup;-f.dup;!f;!t")
        expected = run(extract(x), dup_family("1"))
        assert (expected.reply, expected.steps) == (True, 2)
        monkeypatch.setattr(machine, "extract", counting_extract)
        assert run(x, dup_family("1")) == expected
        assert run_total(x, dup_family("1")) == expected
        assert extracted == []
        # A traced run replays its steps from the same nodes.
        assert run(x, dup_family("1"), trace=lambda line: None) == expected
        assert extracted == []

    @pytest.mark.parametrize(
        "text, fuel, expected",
        [
            ("f.succ;!t", 1, Converged(True, counter_family(1), 1)),
            ("f.succ;!f", 1, Converged(False, counter_family(1), 1)),
            ("f.succ;#0", 1, ProvenDivergent(DivergenceCause.DEADLOCK, 1)),
            ("f.succ;g.succ", 1, FuelExhausted(1)),
            ("f.succ;g.succ", 2, ProvenDivergent(DivergenceCause.MISSING_FOCUS, 1)),
            ("f.succ;f.dup", 1, FuelExhausted(1)),
            ("f.succ;f.dup", 2, ProvenDivergent(DivergenceCause.REPLY_D, 1)),
        ],
    )
    def test_fuel_boundary_at_each_kind_of_end(self, text, fuel, expected):
        # Each kind of end one step in, at the fuel of that step and, where
        # the end attempts a step of its own, at the fuel after it.
        assert run(parse(text), counter_family(0), fuel) == expected

    @pytest.mark.parametrize(
        "text, expected",
        [
            ("f.succ;!t", Converged(True, counter_family(1), 1)),
            ("f.succ;!f", Converged(False, counter_family(1), 1)),
            ("f.succ;#0", ProvenDivergent(DivergenceCause.DEADLOCK, 1)),
            ("f.succ;g.succ", ProvenDivergent(DivergenceCause.MISSING_FOCUS, 1)),
        ],
    )
    def test_run_total_at_each_kind_of_end(self, text, expected):
        assert run_total(parse(text), counter_family(0)) == expected

    def test_family_is_not_changed_through_the_mapping_it_was_given(self):
        # The family checks and keeps a copy, so a junk entry added to the
        # caller's dict afterwards is not run as a service.
        entries = {}
        fam = ServiceFamily(entries)
        entries["f"] = 5
        assert fam.entries == {}
        for evaluate in (run, run_total):
            assert evaluate(parse("+f.dup;!t"), fam) == ProvenDivergent(DivergenceCause.MISSING_FOCUS, 0)


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


class TestAnswerRecords:
    """The run outcomes and ``Applied`` are named tuples, with the fields,
    repr, copies and pickles they had as frozen dataclasses."""

    CONVERGED = Converged(True, singleton_family("f", EMPTY_SERVICE), 1)
    # The records that pickle and hash: no unit, so no local function.
    PLAIN = [ProvenDivergent(DivergenceCause.CYCLE, 4), FuelExhausted(7), Applied(True, at_left("1:1"))]

    def test_fields(self):
        assert Converged._fields == ("reply", "family", "steps")
        assert ProvenDivergent._fields == ("cause", "steps")
        assert FuelExhausted._fields == ("steps",)
        assert Applied._fields == ("reply", "state")

    def test_repr(self):
        assert [repr(r) for r in (self.CONVERGED, *self.PLAIN)] == [
            "Converged(reply=True, family=ServiceFamily(entries={'f': EMPTY_SERVICE}), steps=1)",
            "ProvenDivergent(cause=<DivergenceCause.CYCLE: 'cycle'>, steps=4)",
            "FuelExhausted(steps=7)",
            "Applied(reply=True, state=TapeState(left='', right='1:1'))",
        ]

    def test_a_unit_shows_only_its_name(self):
        # Its operations and state functions are left out of its repr.
        assert repr(counter_unit()) == "FunctionalUnit(name='counter')"
        assert repr(run(parse("f.succ;!t"), parse_family("f=counter:0"))) == (
            "Converged(reply=True, family=ServiceFamily(entries="
            "{'f': UnitService(unit=FunctionalUnit(name='counter'), state=1)}), steps=1)"
        )

    def test_copies_and_pickles_as_records(self):
        for record in self.PLAIN:
            for clone in (copy.deepcopy(record), pickle.loads(pickle.dumps(record))):
                assert type(clone) is type(record) and clone == record
            hash(record)

    def test_a_converged_run_does_not_hash(self):
        # Its family holds a dict.
        for outcome in (self.CONVERGED, run(parse("f.dup;!t"), dup_family("1"))):
            with pytest.raises(TypeError):
                hash(outcome)

    def test_fields_cannot_be_assigned(self):
        for record in (self.CONVERGED, *self.PLAIN):
            with pytest.raises(AttributeError):
                setattr(record, record._fields[0], None)

    def test_equals_the_bare_tuple(self):
        reply, family, steps = self.CONVERGED
        assert self.CONVERGED == (reply, family, steps) and len(self.CONVERGED) == 3
        assert ProvenDivergent(DivergenceCause.CYCLE, 4) == (DivergenceCause.CYCLE, 4)
        assert FuelExhausted(7) == (7,) and FuelExhausted(6) < FuelExhausted(7)
        assert Applied(True, at_left("1:1")) == (True, at_left("1:1"))

    def test_no_two_outcome_kinds_compare_equal(self):
        # The record rule: siblings of one union differ in field count.
        kinds = get_args(Outcome)
        assert len({len(kind._fields) for kind in kinds}) == len(kinds) == 3
