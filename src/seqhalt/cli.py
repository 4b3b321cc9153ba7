"""The ``seqhalt`` command line: its subcommands (``_build_parser``) and
``main``, which runs one.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
import traceback
from functools import lru_cache

from .halting import (
    FORMS,
    SWEEPS,
    NotRefuted,
    check_interpreter,
    decide_halting_dup,
    decide_halting_empty_ext,
    f2d,
    report_record,
    swap,
    validate_solver,
    verdict_record,
)
from .machine import Converged, DEFAULT_FUEL, ProvenDivergent, run
from .program import NOT_AN_ENCODING, InputError, decode, encode, parse, render
from .services import Reply, format_family, parse_family
from .units import parse_tape


def _cmd_parse(args) -> tuple[dict, str, int]:
    x = parse(args.program)
    return {"program": render(x), "length": len(x)}, render(x), 0


def _cmd_run(args) -> tuple[dict, str, int]:
    x = parse(args.program)
    family = parse_family(args.family)
    outcome = run(x, family, args.fuel, print if args.trace else None)
    if type(outcome) is Converged:
        literal = format_family(outcome.family)
        letter = str(Reply.from_bool(outcome.reply))
        text = letter + (f" {literal}" if literal else "")
        payload = {"outcome": letter, "family": literal, "steps": outcome.steps}
    elif type(outcome) is ProvenDivergent:
        text = f"D({outcome.cause})"
        payload = {"outcome": "D", "cause": str(outcome.cause), "steps": outcome.steps}
    else:
        text = f"UNKNOWN({outcome.steps})"
        payload = {"outcome": "UNKNOWN", "steps": outcome.steps}
    return payload, text, 0


def _cmd_transform(args) -> tuple[dict, str, int]:
    x = parse(args.program)
    for op in args.ops or []:
        x = op(x)
    return {"program": render(x)}, render(x), 0


def _cmd_encode(args) -> tuple[dict, str, int]:
    bits = encode(parse(args.program))
    return {"bits": bits}, bits, 0


def _cmd_decode(args) -> tuple[dict, str, int]:
    result = decode(args.bits)
    program = None if result is NOT_AN_ENCODING else render(result)
    return {"program": program}, program or "NOT-AN-ENCODING", 0


def _cmd_decide(args) -> tuple[dict, str, int]:
    x = parse(args.program)
    # Parsed for both units, so a bad tape literal is a usage error.
    state = parse_tape(args.state)
    answer = decide_halting_dup(x) if args.unit == "dup" else decide_halting_empty_ext(x, state)
    return {"halts": answer}, str(answer), 0


def _cmd_validate_solver(args) -> tuple[dict, str, int]:
    x = parse(args.candidate)
    verdict = validate_solver(x, form=args.form)
    record = verdict_record(x, verdict)
    text = " ".join(f"{key}={record[key]}" for key in sorted(record) if record[key] is not None)
    return record, text, 0 if type(verdict) is NotRefuted else 1


def _cmd_check_interpreter(args) -> tuple[dict, str, int]:
    x = parse(args.candidate)
    samples = []
    for item in args.sample or []:
        text, sep, literal = item.partition("@")
        if not sep:
            raise InputError(f"sample must look like PROGRAM@STATE: {item!r}")
        samples.append((parse(text), parse_tape(literal)))
    report = check_interpreter(x, samples=samples)
    record = report_record(report)
    checks = [("sample", item) for item in record["samples"]] + [("diagonal", record["diagonal"])]
    lines = [f"{kind} {item['program']} @ {item['state']}: {item['status']}" for kind, item in checks]
    lines.append(f"passed={str(report.passed).lower()}")
    return record, "\n".join(lines), 0 if report.passed else 1


def _cmd_sweep(args) -> tuple[dict, str, int]:
    if not 1 <= args.max_len <= 5:
        raise InputError("sweep enumeration is guarded at 1 <= --max-len <= 5")
    result = SWEEPS[args.suite](args.max_len)
    # The two counts sit between "suite" and "counterexamples" (see SWEEPS).
    _, good, bad, _ = result
    lines = [f"{good}={result[good]} {bad}={result[bad]}"]
    lines += [f"counterexample: {example}" for example in result["counterexamples"]]
    return result, "\n".join(lines), 1 if result[bad] else 0


@lru_cache(maxsize=1)
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="seqhalt",
        description="Run, transform and analyse instruction sequences over service families.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("parse", help="validate a program and print its canonical form")
    p.add_argument("program")
    p.set_defaults(func=_cmd_parse)

    p = sub.add_parser("run", help="execute a program against a service family")
    p.add_argument("program")
    p.add_argument("family", help="family literal, e.g. f=counter:0 (empty string for none)")
    p.add_argument("--fuel", type=int, default=DEFAULT_FUEL)
    p.add_argument("--trace", action="store_true")
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("transform", help="apply termination transforms left to right")
    p.add_argument("--swap", dest="ops", action="append_const", const=swap)
    p.add_argument("--f2d", dest="ops", action="append_const", const=f2d)
    p.add_argument("program")
    p.set_defaults(func=_cmd_transform)

    p = sub.add_parser("encode", help="bit encoding of a program")
    p.add_argument("program")
    p.set_defaults(func=_cmd_encode)

    p = sub.add_parser("decode", help="decode a bit string back to a program")
    p.add_argument("bits")
    p.set_defaults(func=_cmd_decode)

    p = sub.add_parser("decide", help="decide halting for the stock decidable units")
    p.add_argument("--unit", choices=("dup", "halting-empty"), required=True)
    p.add_argument("program")
    p.add_argument("state", help="tape literal, e.g. |10:1")
    p.set_defaults(func=_cmd_decide)

    p = sub.add_parser("validate-solver", help="refute a claimed halting solver")
    p.add_argument("candidate")
    p.add_argument("--form", choices=tuple(FORMS), default="first")
    p.set_defaults(func=_cmd_validate_solver)

    p = sub.add_parser("check-interpreter", help="check interpreter agreement and the diagonal")
    p.add_argument("candidate")
    p.add_argument("--sample", action="append", help="PROGRAM@STATE, may repeat")
    p.set_defaults(func=_cmd_check_interpreter)

    p = sub.add_parser("sweep", help="exhaustive agreement sweeps")
    p.add_argument("--suite", choices=tuple(SWEEPS), required=True)
    p.add_argument("--max-len", type=int, default=3)
    p.set_defaults(func=_cmd_sweep)

    # Every subcommand takes --json, as its last option.
    for p in sub.choices.values():
        p.add_argument("--json", action="store_true", help="machine-readable output")
    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one ``seqhalt`` command line and return its exit code: 0
    success, 1 a domain negative (a refuted candidate, a sweep
    counterexample), 2 an ``InputError``, the one type of rejected input
    (usage, parse or program-class error), 3 any other exception, a bug,
    with its traceback on stderr (not 1, the code an uncaught exception
    would give), and 141 when the reader closed stdout (the status of a
    process that SIGPIPE ended).  A subcommand prints nothing (but the
    steps of ``run --trace``, as they come) and returns ``(payload, text,
    code)``: ``main`` prints the payload as JSON under ``--json``, else
    the text, which may run over several lines.  Output is reproducible: no
    timestamps, no randomness.  ``main`` may run repeatedly in one process
    and builds its parser once; a one-shot ``seqhalt`` run is no faster."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        payload, text, code = args.func(args)
        print(json.dumps(payload, sort_keys=True) if args.json else text)
        # Flush here, so a closed stdout is met inside this handler.
        sys.stdout.flush()
        return code
    except InputError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # The reader stopped reading (``| head``).  Point stdout at devnull
        # so the interpreter's final flush stays silent, and exit as SIGPIPE
        # would have ended the process.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 128 + signal.SIGPIPE
    except Exception:
        traceback.print_exc()
        return 3


if __name__ == "__main__":
    sys.exit(main())
