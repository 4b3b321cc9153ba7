"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report.  The heavier sweeps are exhaustive by design and take a few tens
of seconds altogether.
"""

from __future__ import annotations

import itertools
import random
import time

import frozen_walk
from conftest import (
    counter_family,
    definite,
    dup_family,
    halting_family,
    postcond_thread,
    random_family,
    random_program,
    random_thread,
    unrolled,
)
from seqhalt.halting import (
    NotRefuted,
    bit_blocks,
    check_interpreter,
    decide_halting_dup,
    decide_halting_empty_ext,
    diag_interpreter,
    f2d,
    replay_verdict,
    run_total,
    swap,
    validate_solver,
)
from seqhalt.machine import (
    Applied,
    Converged,
    FuelExhausted,
    ProvenDivergent,
    apply,
    derived_operation,
    reply,
    run,
)
from seqhalt.program import (
    Program,
    encode,
    enumerate_programs,
    instruction_alphabet,
    parse,
    render,
)
from seqhalt.services import (
    EMPTY_SERVICE,
    Reply,
    UnitService,
    compose,
    empty_family,
    encapsulate,
    service_step,
    singleton_family,
)
from seqhalt.threads import (
    DEADLOCK,
    PostCond,
    STOP_FALSE,
    STOP_TRUE,
    TAU,
    TreeNode,
    bisimilar,
    constant_thread,
    extract,
    project,
    projections_agree,
)
from seqhalt.units import (
    TapeState,
    at_left,
    counter_unit,
    dup_step,
    dup_unit,
    dup_witness_program,
    tape_basic_unit,
)


def _report(number: int, name: str, **stats) -> None:
    details = " ".join(f"{key}={value}" for key, value in stats.items())
    print(f"\nACCEPTANCE {number:02d} {name}: PASS ({details})")


def test_criterion_01_axiom_suites():
    started = time.monotonic()
    rng = random.Random(101)
    families = [random_family(rng) for _ in range(1000)]
    foci_pool = ("a", "b", "c", "f", "g")
    for index, u in enumerate(families):
        v = families[(index + 1) % len(families)]
        w = families[(index + 7) % len(families)]
        hidden = frozenset(rng.sample(foci_pool, rng.randrange(3)))
        assert compose(u, empty_family()) == u
        assert compose(u, v) == compose(v, u)
        assert compose(compose(u, v), w) == compose(u, compose(v, w))
        s1, s2 = UnitService(counter_unit(), index % 3), EMPTY_SERVICE
        assert compose(singleton_family("f", s1), singleton_family("f", s2)) == singleton_family(
            "f", EMPTY_SERVICE
        )
        assert encapsulate(hidden, empty_family()) == empty_family()
        assert encapsulate(hidden, singleton_family("f", s1)) == (
            empty_family() if "f" in hidden else singleton_family("f", s1)
        )
        assert encapsulate(hidden, compose(u, v)) == compose(
            encapsulate(hidden, u), encapsulate(hidden, v)
        )

    # apply/reply axioms on instrumented (thread, family) pairs
    checked = 0
    for seed in range(600):
        rng2 = random.Random(8000 + seed)
        u = random_family(rng2)
        x_branch = random_thread(rng2, 3)
        y_branch = random_thread(rng2, 3)
        assert run(constant_thread(STOP_TRUE), u) == Converged(True, u, 0)  # True-termination keeps the family
        assert run(constant_thread(STOP_FALSE), u) == Converged(False, u, 0)  # False-termination keeps the family
        assert apply(constant_thread(DEADLOCK), u) == empty_family()  # deadlock empties the family
        assert reply(constant_thread(DEADLOCK), u) is Reply.DIVERGENT  # deadlock replies Divergent

        tau_pref = postcond_thread(TAU, x_branch, y_branch)
        assert apply(tau_pref, u, 301) == apply(x_branch, u, 300)  # internal step is transparent to apply
        assert reply(tau_pref, u, 301) == reply(x_branch, u, 300)  # internal step is transparent to reply

        action = parse("f.m;!t").at(1).action
        composite = postcond_thread(action, x_branch, y_branch)
        without_f = encapsulate({"f"}, u)
        assert apply(composite, without_f) == empty_family()  # hidden focus empties the family
        assert reply(composite, without_f) is Reply.DIVERGENT  # hidden focus replies Divergent

        service = rng2.choice(
            [
                UnitService(counter_unit(), rng2.randrange(2)),
                UnitService(dup_unit(), at_left("1")),
                EMPTY_SERVICE,
            ]
        )
        method = rng2.choice(["iszero", "pred", "dup", "m"])
        with_f = compose(singleton_family("f", service), without_f)
        step_reply, successor = service_step(service, method)
        full = postcond_thread(type(action)("f", method), x_branch, y_branch)
        if step_reply is Reply.DIVERGENT:
            assert apply(full, with_f) == empty_family()  # Divergent service reply empties the family
            assert reply(full, with_f) is Reply.DIVERGENT  # Divergent service reply propagates
        else:
            branch = x_branch if step_reply is Reply.TRUE else y_branch  # known reply selects the branch and steps the service
            stepped = compose(singleton_family("f", successor), without_f)
            assert apply(full, with_f, 301) == apply(branch, stepped, 300)
            assert reply(full, with_f, 301) == reply(branch, stepped, 300)
        checked += 1
    elapsed = time.monotonic() - started
    assert elapsed < 30.0
    _report(1, "axiom-suites", families=len(families), instrumented=checked, secs=round(elapsed, 1))


def test_criterion_02_thread_extraction_and_projection():
    fm = parse("f.m;!t").at(1).action
    # every extraction row, directed
    assert extract(parse("#9")).root == "D"  # out of range
    assert extract(parse("f.m;!t")).nodes[1] == PostCond(fm, "S+", "S+")  # plain
    assert extract(parse("+f.m;!t;!f")).nodes[1] == PostCond(fm, "S+", "S-")  # +test
    assert extract(parse("-f.m;!t;!f")).nodes[1] == PostCond(fm, "S-", "S+")  # -test
    assert extract(parse("#2;!t;!f")).root == "S-"  # forward jump
    assert extract(parse("!f;\\#1")).root == "S-"  # backward jump target
    assert extract(parse("\\#2;!t")).root == "D"  # truncated subtraction
    assert extract(parse("!t")).root == "S+"
    assert extract(parse("!f")).root == "S-"
    assert extract(parse("#0")).root == "D"
    assert extract(parse("\\#0")).root == "D"
    assert extract(parse("#2;!t;\\#2")).root == "D"  # cyclic jump chain
    assert extract(parse("#3;!t;!f;\\#3")).root == "D"

    # projection axioms on generated threads
    rng = random.Random(202)
    for _ in range(60):
        t = random_thread(rng, 5)
        assert project(0, t) is DEADLOCK  # depth zero cuts to deadlock
        n = rng.randrange(4)
        assert project(n + 1, constant_thread(STOP_TRUE)) is STOP_TRUE  # terminals are fixed points
        assert project(n + 1, constant_thread(STOP_FALSE)) is STOP_FALSE
        assert project(n + 1, constant_thread(DEADLOCK)) is DEADLOCK
        t2 = random_thread(rng, 4)
        composite = postcond_thread(fm, t, t2)
        assert project(n + 1, composite) == TreeNode(
            fm, project(n, t), project(n, t2)
        )  # one unfolding, both branches cut one shallower

    # bisimilarity coincides with agreement of all bounded projections
    pairs = 0
    for trial in range(200):
        rng2 = random.Random(40_000 + trial)
        t1 = random_thread(rng2, 8)
        t2 = unrolled(t1) if trial % 3 == 0 else random_thread(rng2, 8)
        depth = 2 * max(len(t1.nodes), len(t2.nodes))
        assert bisimilar(t1, t2) == projections_agree(t1, t2, depth)
        pairs += 1
    _report(2, "thread-extraction", projection_threads=60, bisim_pairs=pairs)


def test_criterion_03_convergence_is_termination():
    started = time.monotonic()
    methods = ["setzero", "succ", "pred", "iszero"]
    # In-range backward jumps are omitted: a succ loop grows the counter
    # forever, which the evaluator reports as fuel exhaustion by design.
    letters = instruction_alphabet(methods, fwd_offsets=range(5), bwd_offsets=(0,))
    outcomes = {"T": 0, "F": 0, "D": 0}
    programs = 0
    for length in (1, 2, 3):
        for combo in itertools.product(letters, repeat=length):
            thread = extract(Program(combo))
            programs += 1
            for start in (0, 1, 2):
                out = run(thread, counter_family(start), 10_000)
                assert not isinstance(out, FuelExhausted)
                converged = isinstance(out, Converged)
                r = definite(out)
                assert converged == (r in (Reply.TRUE, Reply.FALSE))
                outcomes[str(r)] += 1
    elapsed = time.monotonic() - started
    assert outcomes["T"] and outcomes["F"] and outcomes["D"]
    assert elapsed < 60.0
    _report(3, "convergence-is-termination", programs=programs, runs=sum(outcomes.values()), secs=round(elapsed, 1), **outcomes)


def test_criterion_04_termination_transforms():
    rng = random.Random(404)
    fired_true = fired_false = 0
    for _ in range(500):
        methods = rng.choice((["setzero", "succ", "pred", "iszero"], ["dup"]))
        x = random_program(rng, methods, max_len=6)
        for family in (counter_family(rng.randrange(3)), dup_family("10")):
            out = run(x, family, 10_000)
            if not isinstance(out, Converged):
                continue
            if out.reply:
                fired_true += 1
                assert definite(run(swap(x), family, 10_000)) is Reply.FALSE
                assert definite(run(f2d(x), family, 10_000)) is Reply.TRUE
            else:
                fired_false += 1
                assert definite(run(swap(x), family, 10_000)) is Reply.TRUE
                assert isinstance(run(f2d(x), family, 10_000), ProvenDivergent)
    assert fired_true >= 50 and fired_false >= 50
    _report(4, "swap-f2d", fired_true=fired_true, fired_false=fired_false)


def test_criterion_05_dup_prefix_law():
    rng = random.Random(505)
    plain_dup = parse("f.dup;!t").instructions[:1]
    checked = 0
    for _ in range(200):
        bits = "".join(rng.choice("01") for _ in range(rng.randrange(5)))
        tail = "".join(rng.choice("01:") for _ in range(rng.randrange(5)))
        word = bits if rng.random() < 0.5 else f"{bits}:{tail}"
        x = random_program(rng, ["dup"], max_len=5)
        prefixed = Program(plain_dup + x.instructions)
        left = definite(run_total(prefixed, dup_family(word)))
        right = definite(run_total(x, dup_family(f"{bits}:{word}")))
        assert left == right
        checked += 1
    _report(5, "dup-prefix-law", triples=checked)


def test_criterion_06_dup_decider_exhaustive():
    started = time.monotonic()
    states = (at_left(""), at_left("1"), at_left("10:1"))
    programs = 0
    for x in enumerate_programs({"dup"}, 4):
        thread = extract(x)
        decided = decide_halting_dup(x)
        per_state = [
            isinstance(run_total(thread, dup_family(s.content)), Converged) for s in states
        ]
        assert per_state[0] == per_state[1] == per_state[2], render(x)
        assert per_state[0] == decided, render(x)
        programs += 1
    elapsed = time.monotonic() - started
    assert programs == 17 + 17**2 + 17**3 + 17**4
    assert elapsed < 120.0
    _report(6, "dup-decider", programs=programs, states=len(states), secs=round(elapsed, 1))


def test_criterion_07_reflexive_solution_empty_unit():
    started = time.monotonic()
    solver = parse("+f.halting;!t;!f")
    solver_thread = extract(solver)
    words = [b for b in bit_blocks(4)] + [
        f"{a}:{b}" for a in bit_blocks(4) for b in bit_blocks(4)
    ]
    # Every first halting reply in this universe is False: an encoding
    # needs eight bits per character and no segment here is that long.
    assert all(len(word.split(":")[0]) < 8 for word in words)

    ys = list(enumerate_programs({"halting"}, 3))

    # The reference: y's convergence when every halting reply is False.
    # The first reply is False on these words (above), and the first
    # halting application leaves the tape empty, where every later reply
    # is False too.
    pairs = 0
    converges = {y: frozen_walk.halts(y, False, False) for y in ys}
    for y in ys:
        decided = decide_halting_empty_ext(y, at_left("0"))
        assert decided == converges[y], render(y)
    for y in ys:
        converges_here = converges[y]
        for word in words:
            # The solver's reply on each short word equals y's convergence
            # under all-False halting replies, which these words give; the
            # fidelity runs below are the ones that put encode(y) on a tape.
            lhs = decide_halting_empty_ext(y, at_left(word))
            assert lhs == converges_here
            pairs += 1

    # full-fidelity cross-check with real services on all short y, and a
    # seeded sample of the rest; also checks the solver's totality
    fidelity = 0
    sample_rng = random.Random(707)
    sampled_long = {
        (sample_rng.randrange(len(ys)), sample_rng.randrange(len(words)))
        for _ in range(12_000)
    }
    for yi, y in enumerate(ys):
        thread = extract(y)
        ybar = encode(y)
        short = len(y) <= 2
        for wi, word in enumerate(words):
            if not short and (yi, wi) not in sampled_long:
                continue
            out_y = run(thread, halting_family(word), 300)
            assert not isinstance(out_y, FuelExhausted)
            actual = isinstance(out_y, Converged)
            assert actual == converges[y], render(y)
            assert actual == decide_halting_empty_ext(y, at_left(word))
            out_x = run(solver_thread, halting_family(f"{ybar}:{word}"), 300)
            assert isinstance(out_x, Converged)
            assert out_x.reply == actual
            fidelity += 1
    elapsed = time.monotonic() - started
    _report(
        7,
        "reflexive-solution",
        programs=len(ys),
        words=len(words),
        pairs=pairs,
        fidelity_runs=fidelity,
        secs=round(elapsed, 1),
    )


def test_criterion_08_no_solver_survives_the_diagonal():
    started = time.monotonic()
    refuted = 0
    for x in enumerate_programs({"dup"}, 3):
        for form in ("first", "second"):
            verdict = validate_solver(x, form=form)
            assert not isinstance(verdict, NotRefuted), render(x)
            assert replay_verdict(x, verdict), render(x)
        refuted += 1
    elapsed = time.monotonic() - started
    assert refuted == 15 + 15**2 + 15**3
    _report(8, "solver-refutation", candidates=refuted, forms=2, secs=round(elapsed, 1))


def test_criterion_09_no_interpreter_survives_the_diagonal():
    trivial = check_interpreter(
        parse("f.dup;!t;!f"), samples=[(parse("!t"), at_left(""))]
    )
    assert trivial.samples[0].status == "fail-apply"
    assert not trivial.passed
    diverging = check_interpreter(parse("#0"), samples=[(parse("!t"), at_left(""))])
    assert diverging.samples[0].status == "fail-convergence"
    assert not diverging.passed

    passed = 0
    candidates = 0
    for x in enumerate_programs({"dup"}, 2):
        report = check_interpreter(x)
        assert report.diagonal.program == diag_interpreter(x)
        if report.passed:
            passed += 1
        candidates += 1
    assert passed == 0
    _report(9, "interpreter-refutation", candidates=candidates, passed=passed)


def test_criterion_10_dup_is_derived_from_tape_basics():
    started = time.monotonic()
    witness = dup_witness_program()
    op = derived_operation(witness, tape_basic_unit(), fuel=200_000)
    checked = 0
    for n in range(7):
        for combo in itertools.product("01:", repeat=n):
            word = "".join(combo)
            for cut in range(n + 1):
                state = TapeState(word[:cut], word[cut:])
                assert op(state) == Applied(*dup_step(state)), state
                checked += 1
    elapsed = time.monotonic() - started
    assert checked == sum((n + 1) * 3**n for n in range(7))
    _report(10, "dup-derivability", states=checked, witness_len=len(witness), secs=round(elapsed, 1))
