import copy
import itertools
import pickle
import random
import tracemalloc
from typing import get_args

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import frozen_walk
from conftest import definite, dup_family, halting_family, random_program, st_program
from seqhalt import halting
from seqhalt.machine import Converged, FuelExhausted, ProvenDivergent, run
from seqhalt.program import (
    NOT_AN_ENCODING,
    BasicInstruction,
    InputError,
    Program,
    TermFalse,
    TermTrue,
    decode,
    encode,
    enumerate_programs,
    parse,
    render,
)
from seqhalt.services import UnitService, singleton_family
from seqhalt.halting import (
    InterpreterReport,
    NotRefuted,
    RefutedByDivergence,
    RefutedByWrongReply,
    SampleCheck,
    SolverVerdict,
    check_interpreter,
    decide_halting_dup,
    decide_halting_empty_ext,
    diag_interpreter,
    diag_solver,
    diag_solver_alt,
    f2d,
    leads_to_first_application,
    replay_verdict,
    run_total,
    swap,
    validate_solver,
    verdict_record,
)
from seqhalt.units import (
    TapeState,
    _halting_reply,
    at_left,
    counter_unit,
    halting_op_step,
)


# Every dup program up to length 3: the candidates of the exhaustive checks.
DUP_CANDIDATES = list(enumerate_programs({"dup"}, 3))


class TestTransforms:
    def test_swap_examples(self):
        assert render(swap(parse("!t"))) == "!f"
        assert render(swap(parse("!t;#2;!f"))) == "!f;#2;!t"

    def test_f2d_examples(self):
        assert render(f2d(parse("!f"))) == "#0"
        assert render(f2d(parse("!t"))) == "!t"

    @given(st_program())
    def test_swap_involution(self, x):
        assert swap(swap(x)) == x

    @given(st_program())
    def test_f2d_idempotent(self, x):
        assert f2d(f2d(x)) == f2d(x)

    @given(st_program())
    def test_transforms_preserve_positions(self, x):
        for y in (swap(x), f2d(x)):
            assert len(y) == len(x)
            for u, v in zip(x, y):
                if not isinstance(u, (TermTrue, TermFalse)):
                    assert u == v

    @given(st_program())
    def test_transforms_commute_with_extraction(self, x):
        # swapping terminators (or turning !f into deadlock) in the text
        # matches the same surgery on the extracted behaviour graph
        from seqhalt.threads import DEADLOCK, STOP_FALSE, STOP_TRUE, RegularThread, bisimilar, extract

        def map_nodes(t, mapping):
            return RegularThread(
                {ref: mapping.get(id(node), node) for ref, node in t.nodes.items()},
                t.root,
            )

        t = extract(x)
        swapped = map_nodes(t, {id(STOP_TRUE): STOP_FALSE, id(STOP_FALSE): STOP_TRUE})
        assert bisimilar(extract(swap(x)), swapped)
        dropped = map_nodes(t, {id(STOP_FALSE): DEADLOCK})
        assert bisimilar(extract(f2d(x)), dropped)


class TestDupDecider:
    def test_examples(self):
        assert decide_halting_dup(parse("f.dup;!t")) is True
        assert decide_halting_dup(parse("-f.dup;!t")) is False
        assert decide_halting_dup(parse("!t")) is True
        assert decide_halting_dup(parse("f.dup;\\#1")) is False
        assert decide_halting_dup(parse("+f.dup;!f")) is True

    def test_rejects_foreign_programs(self):
        with pytest.raises(InputError, match="^f.mvl is not f.dup$"):
            decide_halting_dup(parse("f.mvl;!t"))
        with pytest.raises(InputError, match="^g.dup is not f.dup$"):
            decide_halting_dup(parse("g.dup;!t"))


class TestLeadsToFirstApplication:
    def test_position_one(self):
        assert leads_to_first_application(parse("f.halting;!t"), 1) is True

    def test_through_a_jump(self):
        assert leads_to_first_application(parse("#1;f.halting;!t"), 2) is True

    def test_not_reached_before_termination(self):
        assert leads_to_first_application(parse("!t;f.halting"), 2) is False

    def test_only_the_first_occurrence(self):
        x = parse("f.halting;f.halting;!t")
        assert leads_to_first_application(x, 1) is True
        assert leads_to_first_application(x, 2) is False

    def test_range_checked(self):
        with pytest.raises(InputError, match=r"^position 2 not in 1\.\.1$"):
            leads_to_first_application(parse("!t"), 2)
        with pytest.raises(InputError, match="^position 1 holds no basic instruction$"):
            leads_to_first_application(parse("#1;!t"), 1)
        # Only an exact int is a position: not a float, and not a bool.
        x = parse("f.halting;!t")
        for i, text in ((1.0, "1.0"), (1.5, "1.5"), (True, "True")):
            with pytest.raises(InputError, match=rf"^position {text} not in 1\.\.2$"):
                leads_to_first_application(x, i)


_HALTING_ACTION = BasicInstruction("f", "halting")


def reference_reply(content):
    """The oracle's reply by its definition, with no length test: the
    first segment must encode a program over ``f.halting`` alone, which
    the reference walk then runs with the reply on the rest first."""
    segment, colon, rest = content.partition(":")
    y = decode(segment)
    if not colon or y is NOT_AN_ENCODING:
        return False
    if any(hasattr(u, "action") and u.action != _HALTING_ACTION for u in y):
        return False
    return frozen_walk.halts(y, reference_reply(rest), False)


class TestHaltingOracle:
    def test_plain_bits_reply_false(self):
        assert halting_op_step(at_left("101")) == (False, at_left(""))

    def test_non_encoding_prefix_replies_false(self):
        assert halting_op_step(at_left("11:0")) == (False, at_left(""))

    def test_encoded_terminating_program_replies_true(self):
        word = encode(parse("!t")) + ":0"
        assert halting_op_step(at_left(word)) == (True, at_left(""))

    def test_encoded_diverging_program_replies_false(self):
        word = encode(parse("#0")) + ":"
        assert halting_op_step(at_left(word)) == (False, at_left(""))

    def test_prefix_encoding_foreign_program_replies_false(self):
        word = encode(parse("f.dup;!t")) + ":0"
        assert halting_op_step(at_left(word)) == (False, at_left(""))

    def test_rewinds_before_reading(self):
        word = encode(parse("!t")) + ":"
        split = len(word) // 2
        state_mid = type(at_left(""))(word[:split], word[split:])
        assert halting_op_step(state_mid) == (True, at_left(""))

    @pytest.mark.parametrize(
        "word, reply",
        [
            ("", False),
            ("0000000:1", False),  # a 7-symbol first segment
            ("00100001:1", False),  # 8 symbols, the byte "!", which is no program
            (encode(parse("-f.halting;#0;!t")) + ":" + encode(parse("!t")) + ":", True),
            (encode(parse("-f.halting;#0;!t")) + ":" + encode(parse("#0")) + ":", False),
        ],
    )
    def test_edge_of_the_length_test(self, word, reply):
        assert halting_op_step(at_left(word)) == (reply, at_left(""))

    def test_no_memory_kept_after_the_reply(self):
        # The oracle holds no answers: once its inputs are dropped, 16
        # distinct 1 MB contents leave under 1 MiB behind (a cache of
        # them would keep 16 MiB).  Their first segment, 9 symbols, is
        # long enough to reach the fold.
        x = parse("f.halting;!t")
        tracemalloc.start()
        try:
            for k in range(16):
                state = at_left("0" * 9 + ":" + "1" * k + "0" * (2**20 - k))
                assert decide_halting_empty_ext(x, state) is True
                assert halting_op_step(state) == (False, at_left(""))
                del state
            kept, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert kept < 2**20

    def test_reads_no_segment_past_the_fold(self):
        # The fold stops at the second segment, "0", which encodes no
        # program; half a million segments after it are never copied.
        state = at_left(encode(parse("!t")) + ":" + "0:" * 500_000)
        tracemalloc.start()
        try:
            assert halting_op_step(state) == (True, at_left(""))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**10

    def test_reply_matches_the_reference_fold_on_every_short_word(self):
        # Every word over 0, 1 and ':' of up to 10 symbols, split at each
        # cut: the length test must answer exactly where the fold would.
        for size in range(11):
            for word in map("".join, itertools.product("01:", repeat=size)):
                expected = reference_reply(word)
                for cut in range(size + 1):
                    assert _halting_reply(word[:cut], word[cut:]) is expected, (word, cut)

    def test_reply_matches_the_reference_fold_on_reflexive_words(self):
        rests = ["", "0", "1:0", encode(parse("!t")) + ":", encode(parse("#0")) + ":1"]
        rests += [encode(parse(text)) + ":" + rest for text in ("+f.halting;!t;#0", "f.dup;!t") for rest in rests]
        programs = [*enumerate_programs({"halting"}, 2), parse("f.dup;!t"), parse("+f.halting;!t;#0")]
        true = 0
        for z in programs:
            ybar = encode(z)
            for rest in rests:
                word = f"{ybar}:{rest}"
                expected = reference_reply(word)
                true += expected
                for cut in {0, 1, len(ybar) // 2, len(ybar), len(ybar) + 1, len(word) - 1, len(word)}:
                    assert _halting_reply(word[:cut], word[cut:]) is expected, (render(z), rest, cut)
        # Both replies occur.
        assert 0 < true < len(programs) * len(rests)

    def test_effect_always_resets_tape(self):
        rng = random.Random(3)
        for _ in range(50):
            word = "".join(rng.choice("01:") for _ in range(rng.randrange(9)))
            _, state = halting_op_step(at_left(word))
            assert state == at_left("")


class TestEmptyExtDecider:
    def test_trivial_termination(self):
        for word in ("", "101", "1:0"):
            assert decide_halting_empty_ext(parse("!t"), at_left(word)) is True

    def test_positive_test_converges_delivering_false(self):
        assert decide_halting_empty_ext(parse("+f.halting;!t;!f"), at_left("101")) is True

    def test_negative_test_runs_into_deadlock(self):
        # reply False sends a negative test to the next instruction, #0
        x = parse("-f.halting;#0;!t")
        assert decide_halting_empty_ext(x, at_left("101")) is False
        out = run(x, halting_family("101"), 1000)
        assert isinstance(out, ProvenDivergent)

    def test_plain_occurrence_continues_to_next(self):
        x = parse("f.halting;!t;#0")
        assert decide_halting_empty_ext(x, at_left("101")) is True
        assert isinstance(run(x, halting_family("101"), 1000), Converged)

    def test_true_reply_branch_with_real_encoding(self):
        # first segment encodes !t, so the first application replies True
        word = encode(parse("!t")) + ":0"
        x = parse("+f.halting;#0;!t")
        assert decide_halting_empty_ext(x, at_left(word)) is False
        assert isinstance(run(x, halting_family(word), 1000), ProvenDivergent)
        y = parse("-f.halting;#0;!t")
        assert decide_halting_empty_ext(y, at_left(word)) is True
        assert isinstance(run(y, halting_family(word), 1000), Converged)

    def test_loop_back_to_first_occurrence_sees_reset_tape(self):
        # the same occurrence replies True on its first execution and
        # False afterwards; a one-copy static replacement gets this wrong
        word = encode(parse("!t")) + ":"
        y = parse("+f.halting;\\#1;!t")
        assert decide_halting_empty_ext(y, at_left(word)) is True
        out = run(y, halting_family(word), 1000)
        assert isinstance(out, Converged) and out.reply is True

    def test_agrees_exhaustively_where_first_reply_is_true(self):
        from seqhalt.program import enumerate_programs

        word = encode(parse("!t")) + ":"
        for y in enumerate_programs({"halting"}, 2):
            decided = decide_halting_empty_ext(y, at_left(word))
            out = run(y, halting_family(word), 1000)
            assert not isinstance(out, FuelExhausted)
            assert decided == isinstance(out, Converged), render(y)

    def test_second_occurrence_sees_reset_tape(self):
        word = encode(parse("!t")) + ":"
        x = parse("+f.halting;+f.halting;!t;!f")
        # first reply True -> second application on the empty tape replies False -> !f
        assert decide_halting_empty_ext(x, at_left(word)) is True
        out = run(x, halting_family(word), 1000)
        assert isinstance(out, Converged) and out.reply is False

    def test_rejects_foreign_programs(self):
        with pytest.raises(InputError, match="^f.dup is not f.halting$"):
            decide_halting_empty_ext(parse("f.dup;!t"), at_left(""))

    def test_agrees_with_bounded_evaluation(self):
        rng = random.Random(17)
        words = [
            "", "0", "101", ":", "1:0", "11:01", "1:0:1", "::", "1010:0011:",
            encode(parse("!t")) + ":0",
            encode(parse("!t")) + ":" + encode(parse("#0")) + ":",
        ]
        for _ in range(300):
            y = random_program(rng, ["halting"], max_len=4)
            word = rng.choice(words)
            decided = decide_halting_empty_ext(y, at_left(word))
            out = run(y, halting_family(word), 10_000)
            assert not isinstance(out, FuelExhausted)
            assert decided == isinstance(out, Converged), render(y)

    def test_agrees_exhaustively_on_two_colon_states(self):
        from seqhalt.halting import bit_blocks
        from seqhalt.program import enumerate_programs

        blocks = bit_blocks(2)
        words = [f"{a}:{b}:{c}" for a in blocks for b in blocks for c in blocks]
        for y in enumerate_programs({"halting"}, 2):
            for word in words:
                decided = decide_halting_empty_ext(y, at_left(word))
                out = run(y, halting_family(word), 500)
                assert not isinstance(out, FuelExhausted)
                assert decided == isinstance(out, Converged), (render(y), word)


class TestReflexiveSolution:
    SOLVER = "+f.halting;!t;!f"

    def test_total(self):
        x = parse(self.SOLVER)
        for word in ("", "10", ":", "1:1", encode(parse("!t")) + ":"):
            assert isinstance(run(x, halting_family(word), 100), Converged)

    def test_biconditional_on_spot_pairs(self):
        x = parse(self.SOLVER)
        for y_text in ("!t", "!f", "#0", "f.halting;!t", "-f.halting;#0;!t"):
            y = parse(y_text)
            for word in ("", "101", "1:0"):
                lhs = run(x, halting_family(f"{encode(y)}:{word}"), 1000)
                assert isinstance(lhs, Converged)
                rhs = run(y, halting_family(word), 1000)
                assert lhs.reply is isinstance(rhs, Converged)

    def test_solver_decides_itself(self):
        # the solver is itself a halting-unit program, so it can be asked
        # about its own encoding; it halts on every input, so the answer
        # on |sbar:sbar is True
        s = parse(self.SOLVER)
        sbar = encode(s)
        out = run(s, halting_family(f"{sbar}:{sbar}"), 100)
        assert isinstance(out, Converged) and out.reply is True
        assert decide_halting_empty_ext(s, at_left(sbar)) is True

    def test_nested_encodings_recurse(self):
        # asking about a program that itself asks about another program
        inner_halts = encode(parse("!t")) + ":"
        inner_diverges = encode(parse("#0")) + ":"
        asker = parse("+f.halting;!t;#0")
        askerbar = encode(asker)
        # asker on |inner_halts: first reply True -> !t, so it halts
        assert decide_halting_empty_ext(asker, at_left(inner_halts)) is True
        out = run(parse(self.SOLVER), halting_family(f"{askerbar}:{inner_halts}"), 100)
        assert isinstance(out, Converged) and out.reply is True
        # asker on |inner_diverges: first reply False -> #0, so it deadlocks
        assert decide_halting_empty_ext(asker, at_left(inner_diverges)) is False
        out = run(parse(self.SOLVER), halting_family(f"{askerbar}:{inner_diverges}"), 100)
        assert isinstance(out, Converged) and out.reply is False

    def test_solver_reply_matches_on_f2d_image(self):
        # whenever y converges, its reply equals the solver's reply on
        # the tape holding the f2d-image's encoding and the same input
        x = parse(self.SOLVER)
        rng = random.Random(23)
        fired = 0
        for _ in range(200):
            y = random_program(rng, ["halting"], max_len=3)
            word = rng.choice(["", "0", "1:1", "::"])
            out_y = run(y, halting_family(word), 1000)
            if not isinstance(out_y, Converged):
                continue
            fired += 1
            probe = run(x, halting_family(f"{encode(f2d(y))}:{word}"), 1000)
            assert isinstance(probe, Converged)
            assert probe.reply == out_y.reply
        assert fired > 40


class TestDiagonals:
    def test_diag_interpreter_examples(self):
        assert render(diag_interpreter(parse("!t"))) == "f.dup;!f"
        assert render(diag_interpreter(parse("!f"))) == "f.dup;!t"

    def test_diag_solver_examples(self):
        assert render(diag_solver(parse("!t"))) == "f.dup;#0"
        assert render(diag_solver(parse("!f"))) == "f.dup;!t"
        assert render(diag_solver(parse("+f.dup;!t;!f"))) == "f.dup;+f.dup;#0;!t"

    @given(st_program(methods=("dup",), foci=("f",)))
    def test_length_and_form_agreement(self, x):
        assert len(diag_interpreter(x)) == len(x) + 1
        assert len(diag_solver(x)) == len(x) + 1
        assert diag_solver(x) == diag_solver_alt(x)

    def test_one_pass_diagonals_match_their_definitions(self):
        # The references are built from the public transforms, so a wrong
        # entry in a diagonal's own table shows here.
        dup = parse("f.dup;!t").instructions[:1]
        assert len(DUP_CANDIDATES) == 3615
        for x in DUP_CANDIDATES:
            assert diag_solver(x) == Program(dup + f2d(swap(x)).instructions)
            assert diag_interpreter(x) == Program(dup + swap(x).instructions)
            assert diag_solver(x) == diag_solver_alt(x)


class TestRunTotal:
    def test_agrees_with_run_on_convergent_programs(self):
        rng = random.Random(29)
        for _ in range(200):
            x = random_program(rng, ["dup"], max_len=4)
            total = run_total(x, dup_family("10:1"))
            bounded = run(x, dup_family("10:1"), 10_000)
            if isinstance(bounded, Converged):
                assert isinstance(total, Converged)
                assert (total.reply, total.family) == (bounded.reply, bounded.family)
            elif isinstance(bounded, ProvenDivergent):
                assert isinstance(total, ProvenDivergent)

    def test_proves_growing_divergence(self):
        out = run_total(parse("f.dup;\\#1"), dup_family("1"))
        assert isinstance(out, ProvenDivergent)

    def test_refuses_state_dependent_replies(self):
        fam = singleton_family("f", UnitService(counter_unit(), 0))
        with pytest.raises(ValueError):
            run_total(parse("f.pred;!t"), fam)


class TestValidateSolver:
    def test_always_true_candidate(self):
        verdict = validate_solver(parse("!t"))
        assert isinstance(verdict, RefutedByWrongReply)
        assert render(verdict.witness_program) == "f.dup;#0"
        assert verdict.claimed is True and verdict.actual is False
        assert replay_verdict(parse("!t"), verdict)

    def test_always_false_candidate(self):
        verdict = validate_solver(parse("!f"))
        assert isinstance(verdict, RefutedByWrongReply)
        assert render(verdict.witness_program) == "f.dup;!t"
        assert verdict.claimed is False and verdict.actual is True
        assert replay_verdict(parse("!f"), verdict)

    def test_divergent_candidate(self):
        verdict = validate_solver(parse("#0"))
        assert isinstance(verdict, RefutedByDivergence)
        assert replay_verdict(parse("#0"), verdict)

    def test_growing_candidate_still_refuted(self):
        verdict = validate_solver(parse("f.dup;\\#1"))
        assert isinstance(verdict, RefutedByDivergence)
        assert replay_verdict(parse("f.dup;\\#1"), verdict)

    def test_both_forms(self):
        for form in ("first", "second"):
            verdict = validate_solver(parse("+f.dup;!t;!f"), form=form)
            assert not isinstance(verdict, NotRefuted)

    def test_hypothesis_violations(self):
        for candidate in ("f.mvl;!t", "g.dup;!t"):
            with pytest.raises(InputError, match=f"^{candidate[:5]} is not f.dup$"):
                validate_solver(parse(candidate))

    def test_unknown_form_is_a_usage_error(self):
        for form in ("third", ["first"]):
            with pytest.raises(InputError, match="first.*second"):
                validate_solver(parse("!t"), form=form)

    def test_replay_checks_hypothesis(self):
        with pytest.raises(InputError, match="^f.mvl is not f.dup$"):
            replay_verdict(parse("f.mvl;!t"), validate_solver(parse("!t")))

    def test_replay_of_not_refuted_holds(self):
        assert replay_verdict(parse("!t"), NotRefuted(0)) is True

    def test_replay_fails_when_the_candidate_diverges(self):
        # The verdict claims that #0 halts on its diagonal's tape, where
        # #0 diverges: the recorded discrepancy does not reappear.
        x = parse("#0")
        y = diag_solver(x)
        verdict = RefutedByWrongReply(y, at_left(encode(y)), True, False, 0)
        assert replay_verdict(x, verdict) is False

    def test_record_fields(self):
        record = verdict_record(parse("!t"), validate_solver(parse("!t")))
        assert set(record) == {
            "candidate", "verdict", "witnessProgram", "witnessState", "claimed", "actual", "steps",
        }
        assert record["verdict"] == "refuted-by-wrong-reply"
        assert record["claimed"] == "T" and record["actual"] == "no"
        assert verdict_record(parse("!t"), NotRefuted(7))["steps"] == 7


class TestCheckInterpreter:
    def test_trivial_candidate_fails_apply_agreement(self):
        report = check_interpreter(
            parse("f.dup;!t;!f"), samples=[(parse("!t"), at_left(""))]
        )
        assert report.samples[0].status == "fail-apply"
        assert not report.passed

    def test_divergent_candidate_fails_convergence(self):
        report = check_interpreter(parse("#0"), samples=[(parse("!t"), at_left(""))])
        assert report.samples[0].status == "fail-convergence"
        assert not report.passed

    def test_single_instruction_candidates_fail_via_diagonal(self):
        # no plain-step candidate is a reflexive interpreter
        for method in ("dup",):
            report = check_interpreter(parse(f"f.{method};!t;!f"))
            assert report.diagonal.status in {"fail-reply", "fail-apply"}
            assert not report.passed

    def test_divergent_samples_are_skipped(self):
        # f.dup;\#1 grows the tape forever: only a total run proves it divergent.
        samples = [(parse("#0"), at_left("")), (parse("f.dup;\\#1"), at_left("1"))]
        report = check_interpreter(parse("f.dup;!t;!f"), samples=samples)
        assert [c.status for c in report.samples] == ["skipped-divergent"] * 2

    def test_foreign_focus_candidate_rejected(self):
        with pytest.raises(InputError, match="^g.dup is not f.dup$"):
            check_interpreter(parse("g.dup;!t;!f"))

    def test_sample_methods_validated(self):
        for sample in ("f.mvl;!t", "g.dup;!t"):
            with pytest.raises(InputError, match=f"^{sample[:5]} is not f.dup$"):
                check_interpreter(parse("!t"), samples=[(parse(sample), at_left(""))])

    def test_sample_head_must_be_on_the_far_left(self):
        # The candidate reads |encode(y):v, which has no place for v's head.
        with pytest.raises(InputError, match=r"^sample state must have its head on the far left: '1\|0'$"):
            check_interpreter(parse("!t"), samples=[(parse("!t"), TapeState("1", "0"))])


class TestEncodedTapes:
    """The refuters build the tapes they write encodings on without the
    symbol check; these pin what that rests on."""

    def test_every_refuter_tape_is_a_checked_tape(self, monkeypatch):
        states = []
        dup_run = halting._dup_run

        def recording(x, state):
            states.append(state)
            return dup_run(x, state)

        monkeypatch.setattr(halting, "_dup_run", recording)
        witnesses = []
        for x in DUP_CANDIDATES:
            for form in ("first", "second"):
                verdict = validate_solver(x, form=form)
                assert replay_verdict(x, verdict)
                witnesses.append(verdict.witness_state)
            report = check_interpreter(x, samples=[(x, at_left("10:1"))])
            witnesses += [report.samples[0].state, report.diagonal.state]
        # Every candidate up to length 3 is refuted, so each verdict has a
        # witness state; the recorded ones are every state a refuter ran.
        assert len(states) > len(witnesses)
        for state in witnesses + states:
            checked = at_left(state.right)
            assert type(state) is TapeState
            assert state == checked and hash(state) == hash(checked)


class TestTransformReplyLaws:
    @given(st.integers(0, 10**6))
    def test_reply_relations(self, seed):
        rng = random.Random(seed)
        methods = rng.choice((["setzero", "succ", "pred", "iszero"], ["dup"]))
        x = random_program(rng, methods, max_len=6)
        if methods == ["dup"]:
            fam = dup_family("10")
        else:
            fam = singleton_family("f", UnitService(counter_unit(), rng.randrange(3)))
        out = run(x, fam, 2000)
        if isinstance(out, Converged) and out.reply:
            assert run(swap(x), fam, 2000).reply is False
            assert run(f2d(x), fam, 2000).reply is True
        elif isinstance(out, Converged):
            assert run(swap(x), fam, 2000).reply is True
            f2d_out = run(f2d(x), fam, 2000)
            assert isinstance(f2d_out, ProvenDivergent)


class TestDupPrefixLaw:
    # No deadline: a dup loop runs to the fuel of 2000 steps, which can
    # take longer than hypothesis's default 200 ms on a slow host.
    @settings(deadline=None)
    @given(
        st.text(alphabet="01", max_size=4),
        st.text(alphabet="01:", max_size=4),
        st.integers(0, 10**6),
    )
    def test_dup_prefix_matches_expanded_input(self, bits, tail, seed):
        # run_total resolves every dup program, so replies compare exactly
        # even where a prefixed backward jump turns a deadlock into an
        # ever-growing loop the fueled evaluator cannot disprove.
        rng = random.Random(seed)
        x = random_program(rng, ["dup"], max_len=4)
        dup_plain = parse("f.dup;!t").instructions[:1]
        for word in (bits, f"{bits}:{tail}"):
            prefixed = Program(dup_plain + x.instructions)
            left = definite(run_total(prefixed, dup_family(word)))
            right = definite(run_total(x, dup_family(f"{bits}:{word}")))
            assert left == right
            bounded = run(x, dup_family(f"{bits}:{word}"), 2000)
            if not isinstance(bounded, FuelExhausted):
                assert definite(bounded) == right


class TestSweepsKeepTenCounterexamples:
    """A broken decider makes every sweep disagree often; the count is
    exact and only the first ten counterexamples are kept."""

    def test_dup_decider(self, monkeypatch):
        programs = list(enumerate_programs({"dup"}, 2))
        expected = sum(not decide_halting_dup(x) for x in programs)
        monkeypatch.setattr(halting, "decide_halting_dup", lambda x: True)
        result = halting.sweep_dup_decider(2)
        assert expected > 10
        assert (result["agree"], result["disagree"]) == (len(programs) - expected, expected)
        assert len(result["counterexamples"]) == 10

    def test_empty_halting(self, monkeypatch):
        blocks = halting.bit_blocks(2)
        states = [at_left(w) for w in blocks + [f"{a}:{b}" for a in blocks for b in blocks]]
        programs = list(enumerate_programs({"halting"}, 1))
        expected = sum(not decide_halting_empty_ext(y, v) for y in programs for v in states)
        monkeypatch.setattr(halting, "decide_halting_empty_ext", lambda y, v: True)
        result = halting.sweep_empty_halting(1)
        assert expected > 10
        assert (result["agree"], result["disagree"]) == (len(programs) * len(states) - expected, expected)
        assert len(result["counterexamples"]) == 10

    def test_diagonal(self, monkeypatch):
        monkeypatch.setattr(halting, "validate_solver", lambda x, form: NotRefuted(0))
        result = halting.sweep_diagonal(2)
        assert (result["refuted"], result["not-refuted"]) == (0, len(list(enumerate_programs({"dup"}, 2))))
        assert len(result["counterexamples"]) == 10


class TestAnswerRecords:
    """The solver verdicts and the interpreter reports are named tuples,
    with the fields, repr, copies and pickles they had as frozen
    dataclasses."""

    X = parse("f.dup;!t")
    OK = SampleCheck(X, at_left("01"), "ok")
    RECORDS = [
        RefutedByDivergence(at_left("0:1"), 3),
        RefutedByWrongReply(X, at_left("1"), True, False, 5),
        NotRefuted(2),
        OK,
        InterpreterReport(X, (OK,), OK, True),
    ]
    X_TEXT = "Program(instructions=(Plain(action=BasicInstruction(focus='f', method='dup')), TermTrue()))"
    OK_TEXT = f"SampleCheck(program={X_TEXT}, state=TapeState(left='', right='01'), status='ok', detail='')"

    def test_fields(self):
        assert RefutedByDivergence._fields == ("witness_state", "steps")
        assert RefutedByWrongReply._fields == ("witness_program", "witness_state", "claimed", "actual", "steps")
        assert NotRefuted._fields == ("steps",)
        assert SampleCheck._fields == ("program", "state", "status", "detail")
        assert SampleCheck._field_defaults == {"detail": ""}
        assert InterpreterReport._fields == ("candidate", "samples", "diagonal", "passed")

    def test_repr(self):
        assert [repr(r) for r in self.RECORDS] == [
            "RefutedByDivergence(witness_state=TapeState(left='', right='0:1'), steps=3)",
            f"RefutedByWrongReply(witness_program={self.X_TEXT}, witness_state=TapeState(left='', right='1'), "
            "claimed=True, actual=False, steps=5)",
            "NotRefuted(steps=2)",
            self.OK_TEXT,
            f"InterpreterReport(candidate={self.X_TEXT}, samples=({self.OK_TEXT},), diagonal={self.OK_TEXT}, "
            "passed=True)",
        ]

    def test_copies_and_pickles_as_records(self):
        for record in self.RECORDS:
            for clone in (copy.deepcopy(record), pickle.loads(pickle.dumps(record))):
                assert type(clone) is type(record) and clone == record
            hash(record)

    def test_fields_cannot_be_assigned(self):
        for record in self.RECORDS:
            with pytest.raises(AttributeError):
                setattr(record, record._fields[0], None)

    def test_equals_the_bare_tuple(self):
        program, state, status, detail = self.OK
        assert self.OK == (program, state, status, detail) == (self.X, at_left("01"), "ok", "")
        assert NotRefuted(2) == (2,) and NotRefuted(1) < NotRefuted(2) and len(self.RECORDS[1]) == 5
        # The widening: records of different unions may compare equal.  No
        # code compares a verdict with a run outcome.
        assert NotRefuted(2) == FuelExhausted(2)

    def test_no_two_verdict_kinds_compare_equal(self):
        # The record rule: siblings of one union differ in field count.
        kinds = get_args(SolverVerdict)
        assert len({len(kind._fields) for kind in kinds}) == len(kinds) == 3
