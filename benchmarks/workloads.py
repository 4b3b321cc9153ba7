"""The four seqhalt workloads: seeded inputs, the calls each item makes,
and the reference checks that run after the timed phase.

Every workload is a closed loop with one caller: the next item starts
only after the previous one has returned.  Items reach seqhalt only
through ``Api``, whose members are the public functions themselves or,
in a traced round, timing wrappers around them.  A workload's inputs
depend on nothing but the seed.
"""

from __future__ import annotations

import hashlib
import io
import itertools
import json
import random
from collections import Counter
from contextlib import redirect_stdout
from pathlib import Path

from seqhalt import cli, halting, machine, program, services, threads, units

CLI_SUBCOMMANDS = ("run", "encode", "decode", "transform", "decide", "validate-solver")
GOLDEN_CLI = Path(__file__).with_name("golden_cli.json")

# Result-derived counts the traced wrappers add, reported as 0 when absent.
COUNT_KEYS = (
    "machine.run.steps",
    "machine.run.outcome.converged",
    "machine.run.outcome.cycle",
    "machine.run.outcome.deadlock",
    "machine.run.outcome.fuel",
    "program.encode.bits",
    "program.enumerate_programs.programs",
    "threads.extract.nodes",
    "halting.validate_solver.refuted",
)


def _count(key, measure):
    def observe(counts, result):
        counts[key] += measure(result)

    return observe


def _count_outcome(counts, outcome) -> None:
    counts["machine.run.steps"] += outcome.steps
    if isinstance(outcome, machine.Converged):
        kind = "converged"
    elif isinstance(outcome, machine.FuelExhausted):
        kind = "fuel"
    else:
        kind = outcome.cause.value
    counts[f"machine.run.outcome.{kind}"] += 1


class Api:
    """The public seqhalt functions the workloads call, each passed
    through ``wrap(name, fn, observe)``; ``names`` lists the span names."""

    def __init__(self, wrap):
        self.names: list[str] = []

        def w(name, fn, observe=None):
            self.names.append(name)
            return wrap(name, fn, observe)

        def listed(fn):
            return lambda *args, **kwargs: list(fn(*args, **kwargs))

        self.parse = w("program.parse", program.parse)
        self.render = w("program.render", program.render)
        self.encode = w("program.encode", program.encode, _count("program.encode.bits", len))
        self.decode = w("program.decode", program.decode)
        self.enumerate_programs = w(
            "program.enumerate_programs",
            listed(program.enumerate_programs),
            _count("program.enumerate_programs.programs", len),
        )
        self.extract = w("threads.extract", threads.extract, _count("threads.extract.nodes", lambda t: len(t.nodes)))
        self.bisimilar = w("threads.bisimilar", threads.bisimilar)
        self.at_left = w("units.at_left", units.at_left)
        self.TapeState = w("units.TapeState", units.TapeState)
        self.dup_step = w("units.dup_step", units.dup_step)
        self.dup_unit = w("units.dup_unit", units.dup_unit)
        self.tape_basic_unit = w("units.tape_basic_unit", units.tape_basic_unit)
        self.dup_witness_program = w("units.dup_witness_program", units.dup_witness_program)
        self.UnitService = w("services.UnitService", services.UnitService)
        self.singleton_family = w("services.singleton_family", services.singleton_family)
        self.parse_family = w("services.parse_family", services.parse_family)
        self.format_family = w("services.format_family", services.format_family)
        self.run = w("machine.run", machine.run, _count_outcome)
        self.run_total = w("halting.run_total", halting.run_total)
        self.bit_blocks = w("halting.bit_blocks", halting.bit_blocks)
        self.halting_empty_unit = w("halting.halting_empty_unit", halting.halting_empty_unit)
        self.decide_halting_empty_ext = w("halting.decide_halting_empty_ext", halting.decide_halting_empty_ext)
        self.decide_halting_dup = w("halting.decide_halting_dup", halting.decide_halting_dup)
        self.validate_solver = w(
            "halting.validate_solver",
            halting.validate_solver,
            _count("halting.validate_solver.refuted", lambda v: not isinstance(v, halting.NotRefuted)),
        )
        self.replay_verdict = w("halting.replay_verdict", halting.replay_verdict)
        self.check_interpreter = w("halting.check_interpreter", halting.check_interpreter)
        self.diag_solver = w("halting.diag_solver", halting.diag_solver)
        self.diag_interpreter = w("halting.diag_interpreter", halting.diag_interpreter)
        self.swap = w("halting.swap", halting.swap)
        self.cli_main = {sub: w(f"cli.main.{sub}", cli.main) for sub in CLI_SUBCOMMANDS}


# --- seeded input generators ------------------------------------------------

FOCI = ("f", "g")
METHODS = (
    "succ", "pred", "iszero", "setzero", "dup", "mvl", "mvr", "test:0", "test:1",
    "test:end", "write:0", "write:1", "write:colon", "delete", "halting",
)
UNITS = ("counter", "dup", "tapebasic", "halting-empty")


def random_bits(rng: random.Random, max_len: int) -> str:
    return "".join(rng.choice("01") for _ in range(rng.randint(0, max_len)))


def random_tape_literal(rng: random.Random, max_len: int) -> str:
    content = "".join(rng.choice("01:") for _ in range(rng.randint(0, max_len)))
    cut = rng.randint(0, len(content))
    return f"{content[:cut]}|{content[cut:]}"


def random_program_text(rng: random.Random, max_len: int, max_offset: int = 6) -> str:
    """Canonical text of a random program over two foci and every stock method."""
    parts = []
    for _ in range(rng.randint(1, max_len)):
        roll = rng.random()
        if roll < 0.6:
            parts.append(f"{rng.choice(('', '+', '-'))}{rng.choice(FOCI)}.{rng.choice(METHODS)}")
        elif roll < 0.85:
            parts.append(f"{rng.choice(('#', chr(92) + '#'))}{rng.randint(0, max_offset)}")
        else:
            parts.append(rng.choice(("!t", "!f")))
    return ";".join(parts)


def random_single_method_text(
    rng: random.Random, method: str, min_len: int, max_len: int, max_offset: int
) -> str:
    """Random program over focus f and one method, drawn uniformly from
    the same letters ``program.enumerate_programs`` uses."""
    letters = [f"f.{method}", f"+f.{method}", f"-f.{method}", "!t", "!f"]
    letters += [f"#{k}" for k in range(max_offset + 1)]
    letters += [f"\\#{k}" for k in range(max_offset + 1)]
    return ";".join(rng.choice(letters) for _ in range(rng.randint(min_len, max_len)))


def random_family_literal(rng: random.Random) -> str:
    """A family literal in canonical form (foci sorted, as format_family prints)."""
    parts = []
    for focus in sorted(rng.sample(("f", "g", "h"), rng.randint(1, 3))):
        unit = rng.choice(UNITS + ("empty",))
        if unit == "empty":
            parts.append(f"{focus}=empty")
        elif unit == "counter":
            parts.append(f"{focus}=counter:{rng.randrange(20)}")
        else:
            parts.append(f"{focus}={unit}:{random_tape_literal(rng, 5)}")
    return ",".join(parts)


def machine_steps(results) -> int:
    """Machine steps of the Outcomes among a round's results."""
    outcomes = (machine.Converged, machine.ProvenDivergent, machine.FuelExhausted)
    return sum(result.steps for result in results if isinstance(result, outcomes))


def _failures(pairs, ok) -> int:
    """Items whose check fails or raises."""
    failed = 0
    for pair in pairs:
        try:
            failed += not ok(*pair)
        except Exception:
            failed += 1
    return failed


# --- workloads --------------------------------------------------------------


class ExecLong:
    """Long machine.run calls: a counter loop and a tape-growing loop that
    exhaust their fuel, a cycle with a long prefix, and the dup witness
    thread on every tape state with up to five symbols."""

    COUNTER_FUEL = 100_000
    TAPE_FUEL = 10_000
    CYCLE_START = 100_000

    def __init__(self, api: Api, rng: random.Random, item):
        self.api = api
        run_long, run_witness = item("long", api.run), item("witness", api.run)
        parse, family = api.parse, api.parse_family
        start = self.CYCLE_START + rng.randrange(100)
        cases = [
            (
                run_long,
                (parse("f.succ;\\#1"), family(f"f=counter:{rng.randrange(1000)}"), self.COUNTER_FUEL),
                machine.FuelExhausted(self.COUNTER_FUEL),
            ),
            (
                run_long,
                (parse("f.mvr;f.write:1;\\#2"), family(f"f=tapebasic:{random_tape_literal(rng, 4)}"), self.TAPE_FUEL),
                machine.FuelExhausted(self.TAPE_FUEL),
            ),
            (
                run_long,
                (parse("+f.pred;\\#1;f.setzero;\\#1"), family(f"f=counter:{start}")),
                machine.ProvenDivergent(machine.DivergenceCause.CYCLE, start + 2),
            ),
        ]
        witness = api.extract(api.dup_witness_program())
        tape_basic = api.tape_basic_unit()
        for size in range(6):
            for symbols in itertools.product("01:", repeat=size):
                word = "".join(symbols)
                for cut in range(size + 1):
                    state = api.TapeState(word[:cut], word[cut:])
                    service = api.UnitService(tape_basic, state)
                    cases.append((run_witness, (witness, api.singleton_family("f", service)), state))
        # The long runs go first, in a fixed order, so the peak RSS does
        # not depend on where the shuffle puts them.
        witness_cases = cases[3:]
        rng.shuffle(witness_cases)
        cases[3:] = witness_cases
        self.items = [(fn, args) for fn, args, _ in cases]
        self.expected = [expected for _, _, expected in cases]

    def check(self, results) -> int:
        """Pinned outcomes for the long runs; the witness must end in
        the state dup_step gives."""

        def ok(expected, result):
            if isinstance(expected, units.TapeState):
                return (
                    isinstance(result, machine.Converged)
                    and result.reply
                    and result.family.entries["f"].state == self.api.dup_step(expected)[1]
                )
            return result == expected

        return _failures(zip(self.expected, results), ok)


class Decide:
    """Halting decisions: every halting program up to length 3 on short
    words (cache hits), on reflexive words encode(z):w that decode real
    programs (cache misses), and every dup program up to length 4."""

    # Verdict totals of the exhaustive classes, recorded at the seed commit.
    HX_TRUE = 36_960
    DUP_TRUE = 15_050
    REFLEXIVE = 4_000
    SAMPLE = 1_000

    def __init__(self, api: Api, rng: random.Random, item):
        self.api = api
        halting_programs = api.enumerate_programs({"halting"}, 3)
        dup_programs = api.enumerate_programs({"dup"}, 4)
        blocks = api.bit_blocks(2)
        words = blocks + [f"{a}:{b}" for a in blocks for b in blocks]
        at_left, decide_ext = api.at_left, api.decide_halting_empty_ext

        def on_word(y, word):
            return decide_ext(y, at_left(word))

        calls = {"hx": item("hx", on_word), "hr": item("hr", on_word), "dup": item("dup", api.decide_halting_dup)}
        cases = [("hx", (y, word)) for y in halting_programs for word in words]
        cases += [
            ("hr", (rng.choice(halting_programs), f"{api.encode(rng.choice(halting_programs))}:{rng.choice(words)}"))
            for _ in range(self.REFLEXIVE)
        ]
        cases += [("dup", (x,)) for x in dup_programs]
        rng.shuffle(cases)
        self.cases = cases
        self.items = [(calls[kind], args) for kind, args in cases]
        self.sample = rng.sample(range(len(cases)), self.SAMPLE)

    def check(self, results) -> int:
        """Exact verdict totals, and a seeded sample against evaluation."""
        api = self.api
        true = Counter()
        failed = 0
        for (kind, _), verdict in zip(self.cases, results):
            if isinstance(verdict, bool):
                true[kind] += verdict
            else:
                failed += 1
        failed += abs(true["hx"] - self.HX_TRUE) + abs(true["dup"] - self.DUP_TRUE)

        def ok(index):
            kind, args = self.cases[index]
            if kind == "dup":
                service = api.UnitService(api.dup_unit(), api.at_left("10:1"))
                outcome = api.run_total(args[0], api.singleton_family("f", service))
            else:
                service = api.UnitService(api.halting_empty_unit(), api.at_left(args[1]))
                outcome = api.run(args[0], api.singleton_family("f", service), 300)
            return (
                not isinstance(outcome, machine.FuelExhausted)
                and isinstance(outcome, machine.Converged) == results[index]
            )

        return failed + _failures(((i,) for i in self.sample), ok)


class Refute:
    """The diagonal arguments: both forms of validate_solver plus
    replay_verdict on every dup candidate up to length 3 and a seeded
    sample of length-4 candidates; check_interpreter on every candidate
    up to length 2 with one seeded sample each."""

    LENGTH4 = 1_300

    def __init__(self, api: Api, rng: random.Random, item):
        self.api = api
        candidates = api.enumerate_programs({"dup"}, 3)
        drawn: set[str] = set()
        while len(drawn) < self.LENGTH4:
            drawn.add(random_single_method_text(rng, "dup", 4, 4, max_offset=5))
        candidates += [api.parse(text) for text in sorted(drawn)]
        interpreters = api.enumerate_programs({"dup"}, 2)

        def refute(x, form):
            witness = api.diag_solver(x)
            verdict = api.validate_solver(x, form=form)
            return witness, verdict, api.replay_verdict(x, verdict)

        def interpret(x, sample, word):
            return api.check_interpreter(x, samples=[(sample, api.at_left(word))])

        calls = {"solver": item("solver", refute), "interp": item("interp", interpret)}
        cases = [("solver", (x, form)) for x in candidates for form in ("first", "second")]
        cases += [("interp", (x, rng.choice(interpreters), random_bits(rng, 3))) for x in interpreters]
        rng.shuffle(cases)
        self.cases = cases
        self.items = [(calls[kind], args) for kind, args in cases]

    def check(self, results) -> int:
        """Every solver verdict refutes and replays, with the diagonal
        witness; no interpreter candidate passes its diagonal."""
        api = self.api

        def ok(case, result):
            kind, args = case
            x = args[0]
            if kind == "interp":
                return (
                    not result.passed
                    and result.diagonal.status != "ok"
                    and result.diagonal.program == api.diag_interpreter(x)
                )
            witness, verdict, replayed = result
            ybar = api.encode(witness)
            if isinstance(verdict, halting.RefutedByWrongReply):
                return replayed and verdict.witness_program == witness and verdict.witness_state == api.at_left(ybar)
            return (
                replayed
                and isinstance(verdict, halting.RefutedByDivergence)
                and verdict.witness_state == api.at_left(f"{ybar}:{ybar}")
            )

        return _failures(zip(self.cases, results), ok)


class Toolkit:
    """Many small calls: random programs through parse, render, encode,
    decode, extract and bisimilar against swap(swap(x)) with a family
    literal round trip, and every cli.main line of the golden pool twice.
    The cli lines are most of the time, so taking each one a fixed number
    of times keeps the mix, and with it the tail latency, the same for
    every seed."""

    PROGRAMS = 1_000
    CLI_REPEATS = 2

    def __init__(self, api: Api, rng: random.Random, item):
        self.api = api
        pool = json.loads(GOLDEN_CLI.read_text())["lines"]

        def toolkit(text, literal):
            x = api.parse(text)
            same = api.bisimilar(api.extract(x), api.extract(api.swap(api.swap(x))))
            family = api.parse_family(literal)
            service = next(iter(family.entries.values()))
            single = api.format_family(api.singleton_family("h", service))
            return api.render(x), api.decode(api.encode(x)) == x, same, api.format_family(family), single

        def command(argv):
            out = io.StringIO()
            with redirect_stdout(out):
                code = api.cli_main[argv[0]](argv)
            return code, out.getvalue()

        calls = {"program": item("program", toolkit), "cli": item("cli", command)}
        cases = [
            ("program", (random_program_text(rng, 10), random_family_literal(rng)))
            for _ in range(self.PROGRAMS)
        ]
        cases += [("cli", (line["argv"],)) for line in pool * self.CLI_REPEATS]
        self.golden = {tuple(line["argv"]): (line["exit"], line["stdout_sha256"]) for line in pool}
        rng.shuffle(cases)
        self.cases = cases
        self.items = [(calls[kind], args) for kind, args in cases]

    def check(self, results) -> int:
        """Round-trip and bisimilarity laws; cli exit codes and stdout
        digests equal to the golden pool's."""

        def ok(case, result):
            kind, args = case
            if kind == "cli":
                code, stdout = result
                digest = hashlib.sha256(stdout.encode()).hexdigest()
                return (code, digest) == self.golden[tuple(args[0])]
            text, literal = args
            rendered, decoded, same, family_text, single = result
            first_service = literal.split(",")[0].partition("=")[2]
            return (
                rendered == text
                and decoded
                and same
                and family_text == literal
                and single == f"h={first_service}"
            )

        return _failures(zip(self.cases, results), ok)


WORKLOADS = {"exec-long": ExecLong, "decide": Decide, "refute": Refute, "toolkit": Toolkit}
