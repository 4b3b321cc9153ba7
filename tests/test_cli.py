import hashlib
import io
import json
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from seqhalt import cli
from seqhalt.cli import main
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


def test_internal_error_is_not_usage_error(monkeypatch):
    def broken(x):
        raise KeyError("bug")

    monkeypatch.setattr(cli, "encode", broken)
    with pytest.raises(KeyError):
        main(["encode", "!t"])


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


def test_encode_decode_round_trip(capsys):
    _, bits, _ = invoke(capsys, "encode", "!t")
    assert bits.strip() == "0010000101110100"
    code, out, _ = invoke(capsys, "decode", bits.strip())
    assert code == 0 and out.strip() == "!t"


def test_decode_non_encoding(capsys):
    code, out, _ = invoke(capsys, "decode", "0000000")
    assert code == 0 and out.strip() == "NOT-AN-ENCODING"


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


def test_sweep_guard(capsys):
    for max_len in ("6", "0", "-1"):
        code, _, err = invoke(capsys, "sweep", "--suite", "dup-decider", "--max-len", max_len)
        assert code == 2 and "guarded" in err


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
        st.tuples(st.integers(0, 300), st.sampled_from([[], ["--trace"]])).map(lambda a: ["run", f"--fuel={a[0]}", *a[1]]),
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
)
st_cli_line = st.tuples(st_argv, st.booleans()).map(
    lambda a: [*a[0][0], *(["--json"] if a[1] else []), "--", *a[0][1]]
)


@settings(deadline=None, max_examples=200)
@given(st_cli_line)
def test_cli_fuzz_exits_cleanly(argv):
    """Whatever the arguments, main returns or exits with 0, 1 or 2; no
    other exception escapes."""
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        try:
            code = main(argv)
        except SystemExit as stop:  # argparse rejects the command line
            code = stop.code
    assert code in (0, 1, 2)
