"""Halting-problem lab.

Machinery around the question whether a program over a tape unit can
decide, given an encoded program and an input on its own tape, whether
that program halts on that input:

* ``swap``/``f2d``: termination-behaviour transforms (exchange the
  terminators; turn False-termination into divergence),
* ``decide_halting_dup``: a real decision procedure for programs over
  the duplication unit (every dup reply is True, so halting reduces to
  a finite walk over program positions under that fixed reply),
* ``decide_halting_empty_ext``: the decision procedure for programs
  over the halting oracle, the stock unit ``units.halting_empty_unit``
  (the first reply comes from the tape and every later one is False,
  so the same walk decides it),
* ``diag_solver``/``diag_interpreter``: diagonal program constructors
  that defeat any claimed solver or total interpreter drawn from the
  program class it is supposed to cover,
* ``validate_solver``/``check_interpreter``: refuters that evaluate a
  candidate on its own diagonal and report a replayable witness.

The program class is fixed: every basic instruction is ``f.dup``, on the
focus ``program.FOCUS``, which is ``f``, the focus of the diagonal's
leading ``f.dup``.  The refuters reject a program with any other basic
instruction.  They run every program with ``run_total`` on the dup unit,
without fuel: the dup reply is always True, so each run ends in a reply
or a proven divergence.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .machine import (
    Converged,
    FuelExhausted,
    Outcome,
    ProvenDivergent,
    run,
    run_total,
)
from .program import (
    FOCUS,
    BasicInstruction,
    FwdJump,
    InputError,
    Plain,
    Program,
    TERM_FALSE,
    TERM_TRUE,
    TermFalse,
    TermTrue,
    encode,
    enumerate_programs,
    foreign_action,
    render,
)
from .services import Reply, UnitService, singleton_family
from .threads import RegularThread, _halts, _resolve, extract
from .units import (
    TapeState,
    _halting_reply,
    at_left,
    dup_unit,
    format_tape,
    halting_empty_unit,
)


# --- termination-behaviour transforms -------------------------------------


def swap(x: Program) -> Program:
    """Exchange !t and !f everywhere; an involution."""
    out = []
    for u in x:
        if isinstance(u, TermTrue):
            out.append(TERM_FALSE)
        elif isinstance(u, TermFalse):
            out.append(TERM_TRUE)
        else:
            out.append(u)
    return Program(tuple(out))


def f2d(x: Program) -> Program:
    """Replace every !f by #0: termination with False becomes deadlock."""
    return Program(tuple(FwdJump(0) if isinstance(u, TermFalse) else u for u in x))


def _check_single_method(x: Program, method: str) -> None:
    action = foreign_action(x, (method,))
    if action is not None:
        raise InputError(f"{action} is not {FOCUS}.{method}")


# --- halting over the duplication unit (decidable) -------------------------


def decide_halting_dup(x: Program) -> bool:
    """Decide whether a program over the duplication unit halts.

    The dup reply is True on every state, so halting is the finite walk
    over positions that follows every basic instruction's True-successor
    (plain and positive tests continue with the next instruction,
    negative tests skip one).  The answer does not depend on the tape
    state, so none is taken.
    """
    _check_single_method(x, "dup")
    return _halts(x, True, True)


# --- halting over the empty unit extended with a halting oracle ------------


def leads_to_first_application(x: Program, i: int) -> bool:
    """Whether the occurrence at position i is the first basic
    instruction execution reaches (by jump chasing from position 1)."""
    if not 1 <= i <= len(x):
        raise InputError(f"position {i} not in 1..{len(x)}")
    # Jump chasing stays where it starts exactly on a basic instruction.
    if _resolve(x, i) != i:
        raise InputError(f"position {i} holds no basic instruction")
    return _resolve(x, 1) == i


def decide_halting_empty_ext(x: Program, state: TapeState) -> bool:
    """Decide whether a program over the halting-extended empty unit
    halts on the given state, by induction on the number of ':' in it.

    Only the first halting application sees the original state; every
    application resets the tape to empty, where the reply is False, so
    halting is the finite walk over positions with the first reply
    taken from the state and every later reply False.
    """
    _check_single_method(x, "halting")
    return _halts(x, _halting_reply(state.content), False)


# --- diagonal constructions -------------------------------------------------


def _dup_prefixed(x: Program) -> Program:
    return Program((Plain(BasicInstruction(FOCUS, "dup")),) + x.instructions)


def diag_interpreter(x: Program) -> Program:
    """Diagonal input for an interpreter candidate: f.dup ; swap(x)."""
    return _dup_prefixed(swap(x))


def diag_solver(x: Program) -> Program:
    """Diagonal witness against a solver candidate: f.dup ; f2d(swap(x))."""
    return _dup_prefixed(f2d(swap(x)))


def diag_solver_alt(x: Program) -> Program:
    """Second construction: f2d(swap(f.dup ; x)).  Extensionally the same
    program as :func:`diag_solver`, since the transforms fix f.dup."""
    return f2d(swap(_dup_prefixed(x)))


# --- the refuters' runs --------------------------------------------------------


def _dup_run(x: Program | RegularThread, state: TapeState) -> Outcome:
    """Run x on the dup unit at this state.  The dup reply is constant, so
    run_total ends in a reply or a proven divergence, never out of fuel."""
    return run_total(x, singleton_family(FOCUS, UnitService(dup_unit(), state)))


# --- solver validation -------------------------------------------------------


@dataclass(frozen=True)
class RefutedByDivergence:
    witness_state: TapeState
    steps: int


@dataclass(frozen=True)
class RefutedByWrongReply:
    witness_program: Program
    witness_state: TapeState
    claimed: bool
    actual: bool
    steps: int


@dataclass(frozen=True)
class NotRefuted:
    steps: int


SolverVerdict = RefutedByDivergence | RefutedByWrongReply | NotRefuted


def validate_solver(x: Program, form: str = "first") -> SolverVerdict:
    """Try to refute a claimed halting solver by its own diagonal.

    Builds y = f.dup ; f2d(swap(x)), runs the candidate on ``|ybar:ybar``
    and y on ``|ybar``: a total solver must converge on the former and
    its reply must match the observed convergence of the latter.  Both
    runs are total, so a NotRefuted verdict means the candidate answered
    its own diagonal correctly; ``steps`` counts both runs.
    """
    _check_single_method(x, "dup")
    builder = {"first": diag_solver, "second": diag_solver_alt}.get(form)
    if builder is None:
        raise InputError(f"form must be 'first' or 'second', not {form!r}")
    y = builder(x)
    ybar = encode(y)
    diagonal_state = at_left(f"{ybar}:{ybar}")
    y_state = at_left(ybar)
    out_x = _dup_run(x, diagonal_state)
    if isinstance(out_x, ProvenDivergent):
        return RefutedByDivergence(diagonal_state, out_x.steps)
    out_y = _dup_run(y, y_state)
    actual = isinstance(out_y, Converged)
    if out_x.reply == actual:
        return NotRefuted(out_x.steps + out_y.steps)
    return RefutedByWrongReply(y, y_state, out_x.reply, actual, out_x.steps + out_y.steps)


def replay_verdict(x: Program, verdict: SolverVerdict) -> bool:
    """Re-run the evaluator on a verdict's witness and confirm the
    recorded discrepancy reappears."""
    _check_single_method(x, "dup")
    if isinstance(verdict, NotRefuted):
        return True
    if isinstance(verdict, RefutedByDivergence):
        return isinstance(_dup_run(x, verdict.witness_state), ProvenDivergent)
    y = verdict.witness_program
    ybar = encode(y)
    out_x = _dup_run(x, at_left(f"{ybar}:{ybar}"))
    if isinstance(out_x, ProvenDivergent):
        return False
    out_y = _dup_run(y, verdict.witness_state)
    return out_x.reply == verdict.claimed and isinstance(out_y, Converged) == verdict.actual


_VERDICT_NAMES = {
    RefutedByDivergence: "refuted-by-divergence",
    RefutedByWrongReply: "refuted-by-wrong-reply",
    NotRefuted: "not-refuted",
}


def verdict_record(candidate: Program, verdict: SolverVerdict) -> dict:
    """Stable, serialisable record of a solver verdict; None in each field it lacks."""
    record = dict.fromkeys(("witnessProgram", "witnessState", "claimed", "actual"))
    record.update(candidate=render(candidate), verdict=_VERDICT_NAMES[type(verdict)], steps=verdict.steps)
    if not isinstance(verdict, NotRefuted):
        record["witnessState"] = format_tape(verdict.witness_state)
    if isinstance(verdict, RefutedByWrongReply):
        record.update(
            witnessProgram=render(verdict.witness_program),
            claimed=str(Reply.from_bool(verdict.claimed)),
            actual="yes" if verdict.actual else "no",
        )
    return record


# --- interpreter checking ----------------------------------------------------


@dataclass(frozen=True)
class SampleCheck:
    program: Program
    state: TapeState
    status: str
    detail: str = ""


@dataclass(frozen=True)
class InterpreterReport:
    candidate: Program
    samples: tuple[SampleCheck, ...]
    diagonal: SampleCheck
    passed: bool


def _check_sample(x: Program, y: Program, word: str) -> SampleCheck:
    y_state = at_left(word)
    out_y = _dup_run(y, y_state)
    if isinstance(out_y, ProvenDivergent):
        return SampleCheck(y, y_state, "skipped-divergent", "sample program diverges")
    x_state = at_left(f"{encode(y)}:{word}")
    out_x = _dup_run(x, x_state)
    if isinstance(out_x, ProvenDivergent):
        return SampleCheck(y, y_state, "fail-convergence", "candidate diverges on encoded input")
    if out_x.reply != out_y.reply:
        return SampleCheck(
            y, y_state, "fail-reply", f"candidate={out_x.reply} sample={out_y.reply}"
        )
    if out_x.family != out_y.family:
        return SampleCheck(y, y_state, "fail-apply", "final families differ")
    return SampleCheck(y, y_state, "ok")


def check_interpreter(
    x: Program, samples: Sequence[tuple[Program, TapeState]] = ()
) -> InterpreterReport:
    """Check interpreter-style agreement on samples and on the diagonal.

    For each sample (y, v) with y converging: the candidate must converge on
    the tape holding y's encoding and v, leave the same final family and
    deliver the same reply.  That tape, ``|encode(y):v``, has no place
    for v's head, so a sample state with symbols left of the head raises
    InputError.  The diagonal probe uses y0 = f.dup;swap(x) on its own
    encoding; a candidate passes only if every check agrees.
    """
    _check_single_method(x, "dup")
    checks = []
    for y, v in samples:
        _check_single_method(y, "dup")
        if v.left:
            raise InputError(f"sample state must have its head on the far left: {format_tape(v)!r}")
        checks.append(_check_sample(x, y, v.content))
    y0 = diag_interpreter(x)
    diagonal = _check_sample(x, y0, encode(y0))
    passed = diagonal.status == "ok" and all(c.status == "ok" for c in checks)
    return InterpreterReport(x, tuple(checks), diagonal, passed)


def report_record(report: InterpreterReport) -> dict:
    def one(check: SampleCheck) -> dict:
        return {
            "program": render(check.program),
            "state": format_tape(check.state),
            "status": check.status,
            "detail": check.detail,
        }

    return {
        "candidate": render(report.candidate),
        "samples": [one(c) for c in report.samples],
        "diagonal": one(report.diagonal),
        "passed": report.passed,
    }


# --- exhaustive sweeps --------------------------------------------------------

# A sweep counts every disagreement but keeps only the first few.
_SHOWN = 10


def sweep_dup_decider(max_len: int) -> dict:
    """Compare the dup decision procedure against total evaluation on all
    dup programs up to the given length and three tape states."""
    states = (at_left(""), at_left("1"), at_left("10:1"))
    agree = disagree = 0
    counterexamples = []
    for x in enumerate_programs({"dup"}, max_len):
        decided = decide_halting_dup(x)
        thread = extract(x)
        oracle_answers = [isinstance(_dup_run(thread, state), Converged) for state in states]
        if all(answer == decided for answer in oracle_answers):
            agree += 1
            continue
        disagree += 1
        if len(counterexamples) < _SHOWN:
            counterexamples.append({"program": render(x), "decider": decided, "oracle": oracle_answers})
    return {"suite": "dup-decider", "agree": agree, "disagree": disagree, "counterexamples": counterexamples}


def bit_blocks(max_len: int) -> list[str]:
    """All bit strings of length 0..max_len."""
    blocks = [""]
    frontier = [""]
    for _ in range(max_len):
        frontier = [b + c for b in frontier for c in "01"]
        blocks += frontier
    return blocks


def sweep_empty_halting(max_len: int) -> dict:
    """Compare the halting decision procedure against direct evaluation
    with the halting service (fuel 10 000), over all programs up to the
    given length and all inputs of one or two blocks of at most two bits."""
    unit = halting_empty_unit()
    blocks = bit_blocks(2)
    words = blocks + [f"{a}:{b}" for a in blocks for b in blocks]
    inputs = [(state, singleton_family(FOCUS, UnitService(unit, state))) for state in map(at_left, words)]
    agree = disagree = 0
    counterexamples = []
    for y in enumerate_programs({"halting"}, max_len):
        thread = extract(y)
        for state, family in inputs:
            decided = decide_halting_empty_ext(y, state)
            out = run(thread, family, 10_000)
            observed = isinstance(out, Converged) if not isinstance(out, FuelExhausted) else None
            if observed is not None and observed == decided:
                agree += 1
                continue
            disagree += 1
            if len(counterexamples) < _SHOWN:
                counterexamples.append(
                    {"program": render(y), "state": format_tape(state), "decider": decided, "evaluation": observed}
                )
    return {"suite": "empty-halting", "agree": agree, "disagree": disagree, "counterexamples": counterexamples}


def sweep_diagonal(max_len: int) -> dict:
    """Validate that every candidate solver up to the given length is
    refuted under both diagonal constructions."""
    refuted = not_refuted = 0
    counterexamples = []
    for x in enumerate_programs({"dup"}, max_len):
        verdicts = [validate_solver(x, form=form) for form in ("first", "second")]
        if not any(isinstance(v, NotRefuted) for v in verdicts):
            refuted += 1
            continue
        not_refuted += 1
        if len(counterexamples) < _SHOWN:
            counterexamples.append(render(x))
    return {"suite": "diagonal", "refuted": refuted, "not-refuted": not_refuted, "counterexamples": counterexamples}


# Suite name -> sweep, in the order ``seqhalt sweep --suite`` lists them and
# scripts/run_sweeps.py runs them.  The key order of each result is a contract:
# "suite", the passes, the failures, "counterexamples"; ``seqhalt sweep`` prints
# the two counts in that order and exits 1 when the second is non-zero.
SWEEPS = {"dup-decider": sweep_dup_decider, "empty-halting": sweep_empty_halting, "diagonal": sweep_diagonal}
