"""Regenerate golden_cli.json, the cli lines the toolkit workload samples.

    PYTHONPATH=src python3 benchmarks/make_golden.py

The pool is drawn from a fixed seed and covers run (some with --trace),
encode, decode, transform, decide and validate-solver.  For each line it
records the exit code and the SHA-256 of standard output, so a later
commit must print byte-identical output to pass the toolkit check.
Regenerate only when a change to the cli output is intended.
"""

from __future__ import annotations

import hashlib
import io
import json
import random
from contextlib import redirect_stderr, redirect_stdout

from seqhalt import cli, encode, parse

from workloads import (
    GOLDEN_CLI,
    random_bits,
    random_family_literal,
    random_program_text,
    random_single_method_text,
    random_tape_literal,
)

LINES_PER_COMMAND = 40


def _options(rng: random.Random, *flags: str) -> list[str]:
    return [flag for flag in flags if rng.random() < 0.3]


def cli_pool(rng: random.Random) -> list[list[str]]:
    lines = []
    for _ in range(LINES_PER_COMMAND):
        lines.append(
            ["run", "--fuel", str(rng.choice((50, 200)))]
            + _options(rng, "--trace", "--json")
            + ["--", random_program_text(rng, 6), random_family_literal(rng)]
        )
        lines.append(["encode"] + _options(rng, "--json") + ["--", random_program_text(rng, 8)])
        bits = encode(parse(random_program_text(rng, 6))) if rng.random() < 0.7 else random_bits(rng, 40)
        lines.append(["decode"] + _options(rng, "--json") + [bits])
        ops = [rng.choice(("--swap", "--f2d")) for _ in range(rng.randint(0, 3))]
        lines.append(["transform"] + ops + _options(rng, "--json") + ["--", random_program_text(rng, 8)])
        if rng.random() < 0.5:
            program, state = random_single_method_text(rng, "dup", 1, 5, 6), random_tape_literal(rng, 6)
            unit = "dup"
        else:
            program = random_single_method_text(rng, "halting", 1, 4, 5)
            state = "|" + ":".join(
                [encode(parse(random_single_method_text(rng, "halting", 1, 3, 4)))] * rng.randint(0, 1)
                + [random_bits(rng, 3)]
            )
            unit = "halting-empty"
        lines.append(["decide", "--unit", unit] + _options(rng, "--json") + ["--", program, state])
        lines.append(
            ["validate-solver", "--form", rng.choice(("first", "second"))]
            + _options(rng, "--json")
            + ["--", random_single_method_text(rng, "dup", 1, 3, 4)]
        )
    return lines


def main() -> None:
    golden = []
    for argv in cli_pool(random.Random(0)):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(argv)
        if code not in (0, 1) or err.getvalue():
            raise SystemExit(f"pool line {argv} failed: exit {code}, {err.getvalue()!r}")
        golden.append(
            {"argv": argv, "exit": code, "stdout_sha256": hashlib.sha256(out.getvalue().encode()).hexdigest()}
        )
    GOLDEN_CLI.write_text(json.dumps({"lines": golden}, indent=1) + "\n")
    print(f"wrote {len(golden)} lines to {GOLDEN_CLI}")


if __name__ == "__main__":
    main()
