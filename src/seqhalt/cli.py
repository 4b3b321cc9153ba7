"""Command-line front end.

Subcommands: parse, run, transform, encode, decode, decide,
validate-solver, check-interpreter, sweep.  Every subcommand accepts
--json for machine-readable output.  Exit codes: 0 success, 1 domain
negative (refuted candidate, sweep counterexample), 2 usage or parse
error.  Output is reproducible: no timestamps, no randomness.
"""

from __future__ import annotations

import argparse
import json
import sys

from .halting import (
    NotRefuted,
    check_interpreter,
    decide_halting_dup,
    decide_halting_empty_ext,
    f2d,
    report_record,
    swap,
    sweep_diagonal,
    sweep_dup_decider,
    sweep_empty_halting,
    validate_solver,
    verdict_record,
)
from .machine import Converged, DEFAULT_FUEL, ProvenDivergent, run
from .program import NOT_AN_ENCODING, decode, encode, parse, render
from .services import format_family, parse_family
from .units import parse_tape

def _emit(args, payload: dict, text: str) -> None:
    if args.json:
        print(json.dumps(payload, sort_keys=True))
    else:
        print(text)


def _cmd_parse(args) -> int:
    x = parse(args.program)
    _emit(args, {"program": render(x), "length": len(x)}, render(x))
    return 0


def _cmd_run(args) -> int:
    x = parse(args.program)
    family = parse_family(args.family)
    trace: list[str] | None = [] if args.trace else None
    outcome = run(x, family, args.fuel, trace)
    if trace:
        for line in trace:
            print(line)
    if isinstance(outcome, Converged):
        literal = format_family(outcome.family)
        text = ("T" if outcome.reply else "F") + (f" {literal}" if literal else "")
        payload = {
            "outcome": "T" if outcome.reply else "F",
            "family": literal,
            "steps": outcome.steps,
        }
    elif isinstance(outcome, ProvenDivergent):
        text = f"D({outcome.cause})"
        payload = {"outcome": "D", "cause": str(outcome.cause), "steps": outcome.steps}
    else:
        text = f"UNKNOWN({outcome.steps})"
        payload = {"outcome": "UNKNOWN", "steps": outcome.steps}
    _emit(args, payload, text)
    return 0


def _cmd_transform(args) -> int:
    x = parse(args.program)
    for op in args.ops or []:
        x = swap(x) if op == "swap" else f2d(x)
    _emit(args, {"program": render(x)}, render(x))
    return 0


def _cmd_encode(args) -> int:
    bits = encode(parse(args.program))
    _emit(args, {"bits": bits}, bits)
    return 0


def _cmd_decode(args) -> int:
    result = decode(args.bits)
    if result is NOT_AN_ENCODING:
        _emit(args, {"program": None}, "NOT-AN-ENCODING")
        return 0
    _emit(args, {"program": render(result)}, render(result))
    return 0


def _cmd_decide(args) -> int:
    x = parse(args.program)
    # Parsed for both units, so a bad tape literal is a usage error.
    state = parse_tape(args.state)
    if args.unit == "dup":
        answer = decide_halting_dup(x)
    else:
        answer = decide_halting_empty_ext(x, state)
    _emit(args, {"halts": answer}, str(answer))
    return 0


def _cmd_validate_solver(args) -> int:
    x = parse(args.candidate)
    verdict = validate_solver(x, form=args.form)
    record = verdict_record(x, verdict)
    text = " ".join(f"{key}={record[key]}" for key in sorted(record) if record[key] is not None)
    _emit(args, record, text)
    return 0 if isinstance(verdict, NotRefuted) else 1


def _cmd_check_interpreter(args) -> int:
    x = parse(args.candidate)
    samples = []
    for item in args.sample or []:
        text, sep, literal = item.partition("@")
        if not sep:
            raise ValueError(f"sample must look like PROGRAM@STATE: {item!r}")
        samples.append((parse(text), parse_tape(literal)))
    report = check_interpreter(x, samples=samples)
    record = report_record(report)
    if args.json:
        print(json.dumps(record, sort_keys=True))
    else:
        for item in record["samples"]:
            print(f"sample {item['program']} @ {item['state']}: {item['status']}")
        diag = record["diagonal"]
        print(f"diagonal {diag['program']} @ {diag['state']}: {diag['status']}")
        print(f"passed={str(report.passed).lower()}")
    return 0 if report.passed else 1


def _cmd_sweep(args) -> int:
    if not 1 <= args.max_len <= 5:
        raise ValueError("sweep enumeration is guarded at 1 <= --max-len <= 5")
    if args.suite == "dup-decider":
        result = sweep_dup_decider(args.max_len)
        bad = result["disagree"]
        text = f"agree={result['agree']} disagree={bad}"
    elif args.suite == "empty-halting":
        result = sweep_empty_halting(args.max_len)
        bad = result["disagree"]
        text = f"agree={result['agree']} disagree={bad}"
    else:
        result = sweep_diagonal(args.max_len)
        bad = result["not-refuted"]
        text = f"refuted={result['refuted']} not-refuted={bad}"
    if args.json:
        print(json.dumps(result, sort_keys=True))
    else:
        print(text)
        for example in result["counterexamples"]:
            print(f"counterexample: {example}")
    return 1 if bad else 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="seqhalt",
        description="Run, transform and analyse instruction sequences over service families.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--json", action="store_true", help="machine-readable output")

    p = sub.add_parser("parse", help="validate a program and print its canonical form")
    p.add_argument("program")
    common(p)
    p.set_defaults(func=_cmd_parse)

    p = sub.add_parser("run", help="execute a program against a service family")
    p.add_argument("program")
    p.add_argument("family", help="family literal, e.g. f=counter:0 (empty string for none)")
    p.add_argument("--fuel", type=int, default=DEFAULT_FUEL)
    p.add_argument("--trace", action="store_true")
    common(p)
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("transform", help="apply termination transforms left to right")
    p.add_argument("--swap", dest="ops", action="append_const", const="swap")
    p.add_argument("--f2d", dest="ops", action="append_const", const="f2d")
    p.add_argument("program")
    common(p)
    p.set_defaults(func=_cmd_transform)

    p = sub.add_parser("encode", help="bit encoding of a program")
    p.add_argument("program")
    common(p)
    p.set_defaults(func=_cmd_encode)

    p = sub.add_parser("decode", help="decode a bit string back to a program")
    p.add_argument("bits")
    common(p)
    p.set_defaults(func=_cmd_decode)

    p = sub.add_parser("decide", help="decide halting for the stock decidable units")
    p.add_argument("--unit", choices=("dup", "halting-empty"), required=True)
    p.add_argument("program")
    p.add_argument("state", help="tape literal, e.g. |10:1")
    common(p)
    p.set_defaults(func=_cmd_decide)

    p = sub.add_parser("validate-solver", help="refute a claimed halting solver")
    p.add_argument("candidate")
    p.add_argument("--form", choices=("first", "second"), default="first")
    common(p)
    p.set_defaults(func=_cmd_validate_solver)

    p = sub.add_parser("check-interpreter", help="check interpreter agreement and the diagonal")
    p.add_argument("candidate")
    p.add_argument("--sample", action="append", help="PROGRAM@STATE, may repeat")
    common(p)
    p.set_defaults(func=_cmd_check_interpreter)

    p = sub.add_parser("sweep", help="exhaustive agreement sweeps")
    p.add_argument("--suite", choices=("dup-decider", "empty-halting", "diagonal"), required=True)
    p.add_argument("--max-len", type=int, default=3)
    common(p)
    p.set_defaults(func=_cmd_sweep)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    # Every usage and parse error is a ValueError; anything else is a bug
    # and keeps its traceback.
    try:
        return args.func(args)
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
