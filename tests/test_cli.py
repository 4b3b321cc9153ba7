import hashlib
import io
import json
import os
import runpy
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from seqhalt import cli, halting
from seqhalt.cli import main
from seqhalt.halting import NotRefuted
from seqhalt.program import encode, parse

GOLDEN_CLI = Path(__file__).resolve().parent.parent / "benchmarks" / "golden_cli.json"


def invoke(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parse_prints_canonical_form(capsys):
    code, out, _ = invoke(capsys, "parse", "+f.dup;!t;!f")
    assert code == 0 and out.strip() == "+f.dup;!t;!f"


def test_parse_error_exits_2(capsys):
    code, _, err = invoke(capsys, "parse", "f.dup;;!t")
    assert code == 2 and "error:" in err


@pytest.mark.parametrize("error", [KeyError("bug"), ValueError("bug")], ids=["KeyError", "ValueError"])
def test_internal_error_is_not_usage_error(monkeypatch, capsys, error):
    def broken(x):
        raise error

    monkeypatch.setattr(cli, "encode", broken)
    code, _, err = invoke(capsys, "encode", "!t")
    assert code == 3 and err.endswith(f"{type(error).__name__}: {error}\n")


# A numeral past int()'s default limit of 4300 digits, and the bits of a
# jump with that counter.
_LONG = "1" * 5000
_LONG_JUMP_BITS = "".join(format(byte, "08b") for byte in f"#{_LONG}".encode())


@pytest.mark.parametrize(
    "argv, message",
    [
        (["decide", "--unit", "dup", "f.mvl", "|"], "f.mvl is not f.dup"),
        (["run", "!t", "f=counter:x"], "counter state must be a natural number: 'x'"),
        (["run", "!t", "f=dup:|2"], "tape symbols must be 0, 1 or ':': '2'"),
        (["run", "--fuel", "0", "!t", "f=counter:0"], "fuel must be at least 1"),
        (["sweep", "--suite", "diagonal", "--max-len", "0"], "sweep enumeration is guarded at 1 <= --max-len <= 5"),
        (["validate-solver", "g.dup;!t"], "g.dup is not f.dup"),
        (["check-interpreter", "--sample", "!t", "!t"], "sample must look like PROGRAM@STATE: '!t'"),
        (["check-interpreter", "--sample", "!t@1|0", "!t"], "sample state must have its head on the far left: '1|0'"),
        pytest.param(["parse", f"#{_LONG}"], f"bad jump counter in '#{_LONG}' (at character 0)", id="long-jump"),
        pytest.param(
            ["run", "!t", f"f=counter:{_LONG}"], f"counter state must be a natural number: '{_LONG}'", id="long-counter"
        ),
    ],
)
def test_input_errors_exit_2(capsys, argv, message):
    assert invoke(capsys, *argv) == (2, "", f"error: {message}\n")


CLI = [sys.executable, "-m", "seqhalt.cli"]
CLI_ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))


def test_closed_stdout_exits_as_sigpipe():
    """A reader that stops early (``| head -1``) ends the run with the
    SIGPIPE status, 141, and nothing on stderr."""
    argv = [*CLI, "run", "f.succ;\\#1", "f=counter:0", "--fuel", "100000", "--trace"]
    with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=CLI_ENV) as proc:
        assert proc.stdout.readline().startswith(b"pc=1 ")
        proc.stdout.close()
        err = proc.stderr.read()
    assert (proc.returncode, err) == (141, b"")


def test_unread_buffered_stdout_exits_as_sigpipe():
    """Output that is still buffered when the command ends meets the
    closed pipe in main too, not in the interpreter's final flush."""
    env = {key: value for key, value in CLI_ENV.items() if key != "PYTHONUNBUFFERED"}
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        done = subprocess.run([*CLI, "encode", "!t"], stdout=write_end, stderr=subprocess.PIPE, env=env)
    finally:
        os.close(write_end)
    assert (done.returncode, done.stderr) == (141, b"")


def test_run_converged(capsys):
    code, out, _ = invoke(capsys, "run", "!t", "f=counter:0")
    assert code == 0 and out.strip() == "T f=counter:0"


def test_run_dup(capsys):
    code, out, _ = invoke(capsys, "run", "f.dup;!t", "f=dup:|10")
    assert code == 0 and out.strip() == "T f=dup:|10:10"


def test_run_deadlock(capsys):
    code, out, _ = invoke(capsys, "run", "#0", "f=counter:0")
    assert code == 0 and out.strip() == "D(deadlock)"


def test_run_empty_family_and_unknown(capsys):
    code, out, _ = invoke(capsys, "run", "!t", "")
    assert code == 0 and out.strip() == "T"
    code, out, _ = invoke(capsys, "run", "f.succ;\\#1", "f=counter:0", "--fuel", "50")
    assert code == 0 and out.strip() == "UNKNOWN(50)"


def test_run_trace(capsys):
    code, out, _ = invoke(capsys, "run", "f.dup;!t", "f=dup:|1", "--trace")
    lines = out.strip().splitlines()
    assert lines[0] == "pc=1 action=f.dup reply=T state=f=dup:|1:1"
    assert lines[-1] == "T f=dup:|1:1"


def test_run_json(capsys):
    code, out, _ = invoke(capsys, "run", "f.dup;!t", "f=dup:|10", "--json")
    payload = json.loads(out)
    assert payload == {"outcome": "T", "family": "f=dup:|10:10", "steps": 1}


def test_transform_order(capsys):
    assert invoke(capsys, "transform", "--swap", "!t;!f")[1].strip() == "!f;!t"
    assert invoke(capsys, "transform", "--f2d", "!f")[1].strip() == "#0"
    assert invoke(capsys, "transform", "--swap", "--f2d", "!t")[1].strip() == "#0"
    assert invoke(capsys, "transform", "--f2d", "--swap", "!t")[1].strip() == "!f"


def test_transform_applies_every_op_in_order(capsys):
    # !t;!f -f2d-> !t;#0 -swap-> !f;#0 -f2d-> #0;#0
    argv = ["transform", "--f2d", "--swap", "--f2d", "!t;!f", "--json"]
    assert invoke(capsys, *argv) == (0, '{"program": "#0;#0"}\n', "")


def test_encode_decode_round_trip(capsys):
    _, bits, _ = invoke(capsys, "encode", "!t")
    assert bits.strip() == "0010000101110100"
    code, out, _ = invoke(capsys, "decode", bits.strip())
    assert code == 0 and out.strip() == "!t"


def test_decode_non_encoding(capsys):
    code, out, _ = invoke(capsys, "decode", "0000000")
    assert code == 0 and out.strip() == "NOT-AN-ENCODING"


def test_long_jump_counter_is_not_an_encoding(capsys):
    # The oracle answers a segment that encodes no program as it answers
    # any other: the first halting reply is False.
    assert invoke(capsys, "decode", _LONG_JUMP_BITS) == (0, "NOT-AN-ENCODING\n", "")
    argv = ["decide", "--unit", "halting-empty", "f.halting;!t", f"|{_LONG_JUMP_BITS}:"]
    assert invoke(capsys, *argv) == (0, "True\n", "")
    argv = ["run", "+f.halting;!t;!f", f"f=halting-empty:|{_LONG_JUMP_BITS}:"]
    assert invoke(capsys, *argv) == (0, "F f=halting-empty:|\n", "")


def test_decide_dup(capsys):
    assert invoke(capsys, "decide", "--unit", "dup", "f.dup;!t", "|")[1].strip() == "True"
    # programs starting with "-" need the usual end-of-options marker
    assert (
        invoke(capsys, "decide", "--unit", "dup", "--", "-f.dup;!t", "|")[1].strip()
        == "False"
    )


def test_decide_halting_empty(capsys):
    code, out, _ = invoke(capsys, "decide", "--unit", "halting-empty", "!f", "|101")
    assert code == 0 and out.strip() == "True"


def test_decide_foreign_method_exits_2(capsys):
    code, _, err = invoke(capsys, "decide", "--unit", "dup", "f.mvl;!t", "|")
    assert code == 2 and "error:" in err


def test_validate_solver_refuted_exits_1(capsys):
    code, out, _ = invoke(capsys, "validate-solver", "!t", "--json")
    assert code == 1
    record = json.loads(out)
    assert record["verdict"] == "refuted-by-wrong-reply"
    assert record["witnessProgram"] == "f.dup;#0"
    assert record["claimed"] == "T" and record["actual"] == "no"


def test_validate_solver_divergent(capsys):
    code, out, _ = invoke(capsys, "validate-solver", "#0")
    assert code == 1 and "refuted-by-divergence" in out


def test_check_interpreter(capsys):
    code, out, _ = invoke(
        capsys, "check-interpreter", "f.dup;!t;!f", "--sample", "!t@|"
    )
    assert code == 1
    assert "fail-apply" in out and "passed=false" in out


def test_check_interpreter_text(capsys):
    argv = ["check-interpreter", "f.dup;!t;!f", "--sample", "!t@|", "--sample", "f.dup;!t@|10"]
    y0 = "f.dup;f.dup;!f;!t"
    assert invoke(capsys, *argv) == (
        1,
        "sample !t @ |: fail-apply\n"
        "sample f.dup;!t @ |10: fail-apply\n"
        f"diagonal {y0} @ |{encode(parse(y0))}: fail-reply\n"
        "passed=false\n",
        "",
    )


def test_check_interpreter_sample_ok(capsys):
    # !t reads no tape, so it agrees with a sample that dups once and halts.
    y = encode(parse("f.dup;!t"))
    y0 = "f.dup;!f"
    assert invoke(capsys, "check-interpreter", "!t", "--sample", f"f.dup;!t@|{y}:1") == (
        1,
        f"sample f.dup;!t @ |{y}:1: ok\n"
        f"diagonal {y0} @ |{encode(parse(y0))}: fail-reply\n"
        "passed=false\n",
        "",
    )


def test_check_interpreter_json(capsys):
    argv = ["check-interpreter", "f.dup;!t;!f", "--sample", "!t@|", "--sample", "f.dup;!t@|10", "--json"]
    code, out, err = invoke(capsys, *argv)
    assert (code, err) == (1, "")
    assert out == (
        '{"candidate": "f.dup;!t;!f", "diagonal": {"detail": "candidate=True sample=False", '
        '"program": "f.dup;f.dup;!f;!t", "state": "|' + encode(parse("f.dup;f.dup;!f;!t")) + '", '
        '"status": "fail-reply"}, "passed": false, "samples": ['
        '{"detail": "final families differ", "program": "!t", "state": "|", "status": "fail-apply"}, '
        '{"detail": "final families differ", "program": "f.dup;!t", "state": "|10", "status": "fail-apply"}]}\n'
    )


def test_decide_many_halting_segments(capsys):
    # Each segment answers for the rest of the tape, so the reply flips
    # once per segment; thousands of them must not exhaust the stack.
    segment = encode(parse("-f.halting;!t;#0"))
    for count, expected in ((2000, "True"), (2001, "False")):
        tape = "|" + ":".join([segment] * count)
        code, out, err = invoke(capsys, "decide", "--unit", "halting-empty", "+f.halting;!t;#0", tape)
        assert (code, out.strip(), err) == (0, expected, "")


def test_sweep_suites(capsys):
    code, out, _ = invoke(capsys, "sweep", "--suite", "dup-decider", "--max-len", "2")
    assert code == 0 and out.strip() == "agree=182 disagree=0"
    code, out, _ = invoke(capsys, "sweep", "--suite", "diagonal", "--max-len", "1", "--json")
    assert code == 0
    assert json.loads(out)["not-refuted"] == 0
    code, out, _ = invoke(capsys, "sweep", "--suite", "empty-halting", "--max-len", "1")
    assert code == 0 and "disagree=0" in out


@pytest.mark.parametrize(
    "suite, name, wrong, expected",
    [
        (
            "dup-decider",
            "decide_halting_dup",
            lambda x: True,
            "agree=2 disagree=9\n"
            + "".join(
                f"counterexample: {{'program': '{x}', 'decider': True, 'oracle': [False, False, False]}}\n"
                for x in ["f.dup", "+f.dup", "-f.dup", "#0", "#1", "#2", "\\\\#0", "\\\\#1", "\\\\#2"]
            ),
        ),
        (
            "empty-halting",
            "decide_halting_empty_ext",
            lambda y, v: True,
            "agree=112 disagree=504\n"
            + "".join(
                f"counterexample: {{'program': 'f.halting', 'state': '|{w}', 'decider': True, 'evaluation': False}}\n"
                for w in ["", "0", "1", "00", "01", "10", "11", ":", ":0", ":1"]
            ),
        ),
        (
            "diagonal",
            "validate_solver",
            lambda x, form: NotRefuted(0),
            "refuted=0 not-refuted=11\n"
            + "".join(
                f"counterexample: {x}\n"
                for x in ["f.dup", "+f.dup", "-f.dup", "!t", "!f", "#0", "#1", "#2", "\\#0", "\\#1"]
            ),
        ),
    ],
    ids=["dup-decider", "empty-halting", "diagonal"],
)
def test_sweep_prints_counterexamples_and_exits_1(capsys, monkeypatch, suite, name, wrong, expected):
    # A wrong decider, as in test_halting's TestSweepsKeepTenCounterexamples.
    monkeypatch.setattr(halting, name, wrong)
    assert invoke(capsys, "sweep", "--suite", suite, "--max-len", "1") == (1, expected, "")


def test_sweep_guard(capsys):
    for max_len in ("6", "0", "-1"):
        code, _, err = invoke(capsys, "sweep", "--suite", "dup-decider", "--max-len", max_len)
        assert code == 2 and "guarded" in err


# What scripts/run_sweeps.py prints at lengths 1 and 3.  At length 3 the
# diagonal sweep runs 3615 candidates as programs, whose nodes the step
# loop builds on their first visit.
SWEEPS_PRINTED = {
    1: (
        "== sweep dup-decider (max-len 1)\n"
        "agree=11 disagree=0\n"
        "== sweep empty-halting (max-len 1)\n"
        "agree=616 disagree=0\n"
        "== sweep diagonal (max-len 1)\n"
        "refuted=11 not-refuted=0\n"
    ),
    3: (
        "== sweep dup-decider (max-len 3)\n"
        "agree=3615 disagree=0\n"
        "== sweep empty-halting (max-len 3)\n"
        "agree=202440 disagree=0\n"
        "== sweep diagonal (max-len 3)\n"
        "refuted=3615 not-refuted=0\n"
    ),
}


@pytest.mark.parametrize("max_len", SWEEPS_PRINTED)
def test_run_sweeps_script(capsys, monkeypatch, max_len):
    script = Path(__file__).resolve().parent.parent / "scripts" / "run_sweeps.py"
    monkeypatch.setattr("sys.argv", ["run_sweeps.py", "--max-len", str(max_len)])
    assert runpy.run_path(str(script))["main"]() == 0
    assert capsys.readouterr().out == SWEEPS_PRINTED[max_len]


# Tape-basic runs print their states, which the step loop holds as bare
# (left, right) pairs and turns into TapeStates only where they leave a
# run: the final family, each trace line and a cycle's replay.
TAPE_RUNS = [
    (["run", "+f.test:end;#3;f.mvr;\\#3;f.write:1;!t", "f=tapebasic:|0101"], "T f=tapebasic:0101|1\n"),
    (
        ["run", "+f.test:end;#3;f.mvr;\\#3;f.write:1;!t", "f=tapebasic:|01", "--trace"],
        "pc=1 action=f.test:end reply=F state=f=tapebasic:|01\n"
        "pc=3 action=f.mvr reply=T state=f=tapebasic:0|1\n"
        "pc=1 action=f.test:end reply=F state=f=tapebasic:0|1\n"
        "pc=3 action=f.mvr reply=T state=f=tapebasic:01|\n"
        "pc=1 action=f.test:end reply=T state=f=tapebasic:01|\n"
        "pc=5 action=f.write:1 reply=T state=f=tapebasic:01|1\n"
        "T f=tapebasic:01|1\n",
    ),
    (["run", "f.mvr;f.write:1;\\#2", "f=tapebasic:|", "--fuel", "20000"], "UNKNOWN(20000)\n"),
    (["run", "f.mvr;f.mvl;\\#2", "f=tapebasic:|01", "--json"], '{"cause": "cycle", "outcome": "D", "steps": 2}\n'),
]


@pytest.mark.parametrize("argv, printed", TAPE_RUNS, ids=["converged", "trace", "fuel", "cycle"])
def test_tape_runs(capsys, argv, printed):
    assert invoke(capsys, *argv) == (0, printed, "")


def test_outputs_reproducible(capsys):
    first = invoke(capsys, "validate-solver", "+f.dup;!t;!f", "--json")
    second = invoke(capsys, "validate-solver", "+f.dup;!t;!f", "--json")
    assert first == second


def test_golden_cli_lines():
    """Every line of the benchmark's golden cli pool prints byte-identical
    output with the recorded exit code."""
    mismatches = []
    for line in json.loads(GOLDEN_CLI.read_text())["lines"]:
        out = io.StringIO()
        with redirect_stdout(out):
            code = main(list(line["argv"]))
        digest = hashlib.sha256(out.getvalue().encode()).hexdigest()
        if (code, digest) != (line["exit"], line["stdout_sha256"]):
            mismatches.append(line["argv"])
    assert not mismatches


# Program letters (the dup class first, then other units') and junk that
# the parser must reject as a usage error.
_DUP_LETTERS = ["f.dup", "+f.dup", "-f.dup", "#0", "#1", "#3", "\\#1", "\\#2", "!t", "!f"]
_LETTERS = _DUP_LETTERS + ["f.halting", "-f.halting", "f.succ", "+f.iszero", "f.mvr", "g.dup"]
_JUNK = ["", " ", "#", "#-1", "#01", "f.", ".dup", "F.dup", "+", "!x", "\\", "é", "@", "|", "0", "1:"]


def st_program_text(letters=_LETTERS):
    def joined(alphabet):
        return st.lists(st.sampled_from(alphabet), min_size=1, max_size=6).map(";".join)

    return st.one_of(joined(letters), joined(letters + _JUNK), st.text(alphabet="f.dup+-#\\!t;01 :|@", max_size=12))


st_tape = st.one_of(
    st.tuples(st.text(alphabet="01:", max_size=4), st.text(alphabet="01:", max_size=6)).map("|".join),
    st.text(alphabet="01:| x", max_size=8),
)
st_family = st.one_of(
    st.sampled_from(["", "f=counter:0", "f=counter:3", "f=dup:|10", "f=tapebasic:1|0", "f=empty",
                     "f=halting-empty:|", "g=counter:1,f=dup:|", "f=counter:1_0", "f=nosuch:0", "f"]),
    st.text(alphabet="fg=counterdup:|01,", max_size=14),
)
# Each command line as (options, positionals); the positionals follow
# "--", so a program that starts with "-" is not taken for an option.
st_argv = st.one_of(
    st.tuples(st.just(["parse"]), st.tuples(st_program_text())),
    st.tuples(
        st.tuples(st.integers(-2, 300), st.sampled_from([[], ["--trace"]])).map(lambda a: ["run", f"--fuel={a[0]}", *a[1]]),
        st.tuples(st_program_text(), st_family),
    ),
    st.tuples(
        st.lists(st.sampled_from(["--swap", "--f2d"]), max_size=3).map(lambda ops: ["transform", *ops]),
        st.tuples(st_program_text()),
    ),
    st.tuples(st.just(["encode"]), st.tuples(st_program_text())),
    st.tuples(
        st.just(["decode"]),
        st.tuples(
            st.one_of(
                st.text(alphabet="01x", max_size=40),
                st.tuples(st.lists(st.sampled_from(_LETTERS), min_size=1, max_size=4), st.text(alphabet="01", max_size=3)).map(
                    lambda a: encode(parse(";".join(a[0]))) + a[1]
                ),
            )
        ),
    ),
    st.tuples(
        st.sampled_from(["dup", "halting-empty", "nosuch"]).map(lambda unit: ["decide", f"--unit={unit}"]),
        st.tuples(st_program_text(_DUP_LETTERS + ["f.halting", "-f.halting", "+f.halting"]), st_tape),
    ),
    st.tuples(
        st.sampled_from(["first", "second", "third"]).map(lambda form: ["validate-solver", f"--form={form}"]),
        st.tuples(st_program_text(_DUP_LETTERS)),
    ),
    st.tuples(
        st.lists(st.tuples(st_program_text(_DUP_LETTERS), st_tape), max_size=2).map(
            lambda samples: ["check-interpreter", *(f"--sample={p}@{t}" for p, t in samples)]
        ),
        st.tuples(st_program_text(_DUP_LETTERS)),
    ),
    st.tuples(
        st.tuples(st.sampled_from(["dup-decider", "empty-halting", "diagonal"]), st.sampled_from([-1, 0, 1, 6])).map(
            lambda a: ["sweep", f"--suite={a[0]}", f"--max-len={a[1]}"]
        ),
        st.just(()),
    ),
)
st_cli_line = st.tuples(st_argv, st.booleans()).map(
    lambda a: [*a[0][0], *(["--json"] if a[1] else []), "--", *a[0][1]]
)


@settings(deadline=None, max_examples=400)
@given(st_cli_line)
def test_cli_fuzz_exits_cleanly(argv):
    """Whatever the arguments, main returns or exits with 0, 1 or 2; a bug
    would exit 3."""
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        try:
            code = main(argv)
        except SystemExit as stop:  # argparse rejects the command line
            code = stop.code
    assert code in (0, 1, 2)


def parsed(parser, argv):
    """What ``parser`` makes of ``argv``: the namespace's values, or the
    exit code and stderr of a rejected command line."""
    err = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        try:
            return vars(parser.parse_args(argv))
        except SystemExit as stop:
            return stop.code, err.getvalue()


@settings(deadline=None, max_examples=100)
@given(st_cli_line, st_cli_line)
def test_reused_parser_parses_as_a_fresh_one(first, second):
    """main builds its parser once per process; after any command line,
    the reused parser reads the next one as a freshly built parser does."""
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        try:
            main(first)
        except SystemExit:
            pass
    assert parsed(cli._build_parser(), second) == parsed(cli._build_parser.__wrapped__(), second)


@pytest.mark.parametrize(
    "first, second, expected",
    [
        (["transform", "--swap", "!t;!f"], ["transform", "!t;!f"], "!t;!f\n"),
        (
            ["check-interpreter", "--sample", "!t@|", "f.dup;!t;!f"],
            ["check-interpreter", "f.dup;!t;!f"],
            "diagonal f.dup;f.dup;!f;!t @ ",
        ),
        (["run", "--trace", "f.dup;!t", "f=dup:|1"], ["run", "f.dup;!t", "f=dup:|1"], "T f=dup:|1:1\n"),
    ],
    ids=["swap", "sample", "trace"],
)
def test_options_do_not_leak_into_the_next_call(capsys, first, second, expected):
    invoke(capsys, *first)
    _, out, _ = invoke(capsys, *second)
    assert out.startswith(expected)
    assert not any(line.startswith(("sample ", "pc=")) for line in out.splitlines())


def test_parser_is_built_once_per_process(capsys):
    cli._build_parser.cache_clear()
    for _ in range(50):
        invoke(capsys, "encode", "!t")
    info = cli._build_parser.cache_info()
    assert (info.misses, info.hits) == (1, 49)


SUBCOMMANDS = ["parse", "run", "transform", "encode", "decode", "decide", "validate-solver", "check-interpreter", "sweep"]


def help_text(parse_args, argv):
    out = io.StringIO()
    with redirect_stdout(out), pytest.raises(SystemExit) as stop:
        parse_args(argv)
    assert stop.value.code == 0
    return out.getvalue()


@pytest.mark.parametrize("argv", [["--help"]] + [[sub, "--help"] for sub in SUBCOMMANDS], ids=" ".join)
def test_help_is_the_fresh_parsers(argv):
    fresh = help_text(cli._build_parser.__wrapped__().parse_args, argv)
    assert help_text(main, argv) == help_text(main, argv) == fresh


def test_help_follows_the_terminal_width(monkeypatch):
    widths = {}
    for columns in ("200", "40"):
        monkeypatch.setenv("COLUMNS", columns)
        widths[columns] = help_text(main, ["run", "--help"])
        assert widths[columns] == help_text(cli._build_parser.__wrapped__().parse_args, ["run", "--help"])
    assert widths["200"] != widths["40"]
    assert max(map(len, widths["40"].splitlines())) <= 40
