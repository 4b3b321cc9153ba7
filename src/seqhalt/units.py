"""Functional units (``FunctionalUnit``) and the stock ones: the counter,
the duplication unit, the tape-basic unit and the halting oracle over the
otherwise empty unit; and ``dup_witness_program``, a tape-basic program
whose derived operation is the duplication.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass, field
from functools import partial
from typing import Any, Callable, Mapping

from .program import (
    FOCUS,
    NOT_AN_ENCODING,
    InputError,
    Program,
    decode,
    foreign_action,
    parse,
    read_natural,
)
from .threads import _halts

TAPE_ALPHABET = frozenset("01:")
_TAPE_SYMBOLS = "".join(TAPE_ALPHABET)


class TapeState(namedtuple("TapeState", "left right")):
    """The tuple ``(left, right)`` of tape content over 0, 1 and ':', split
    around the head, which is on the first symbol of ``right`` (past the
    end if empty), written ``left|right``.  It equals and hashes like the
    bare tuple; states order lexicographically."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # and so _replace: both check

    def __new__(cls, left: str = "", right: str = "") -> TapeState:
        # Each part inline: a loop over a tuple built per call took about
        # a tenth longer.
        if not isinstance(left, str) or left.strip(_TAPE_SYMBOLS):
            raise _bad_symbols(left)
        if not isinstance(right, str) or right.strip(_TAPE_SYMBOLS):
            raise _bad_symbols(right)
        return tuple.__new__(cls, (left, right))

    @property
    def content(self) -> str:
        return self[0] + self[1]

    def __str__(self) -> str:
        return format_tape(self)


# A ``TapeState`` from its ``(left, right)`` pair without the symbol
# check, for parts of tape symbols only (``TRUSTED`` in
# ``tests/test_imports.py``).
_tape = partial(tuple.__new__, TapeState)


def _bad_symbols(part: object) -> InputError:
    return InputError(f"tape symbols must be 0, 1 or ':': {part!r}")


def at_left(word: str) -> TapeState:
    """State with the head on the first symbol of ``word``."""
    if not isinstance(word, str) or word.strip(_TAPE_SYMBOLS):
        raise _bad_symbols(word)
    return _tape(("", word))


def format_tape(state: TapeState) -> str:
    return "|".join(state)


def parse_tape(text: str) -> TapeState:
    if type(text) is not str or "|" not in text:
        raise InputError(f"tape literal needs a head marker '|': {text!r}")
    left, _, right = text.partition("|")
    return TapeState(left, right)


@dataclass(frozen=True)
class MethodOperation:
    """A named total step function on its unit's internal states (see
    ``FunctionalUnit``).  ``constant_reply`` is its reply on every state,
    or None when the reply varies; ``machine.run_total`` relies on it."""

    name: str
    step: Callable[[Any], tuple[bool, Any]]
    constant_reply: bool | None = None


def _checked_step(unit_name: str, op: MethodOperation) -> Callable[[Any], tuple[bool, Any]]:
    """``op``'s step, checking every reply against the declared constant
    reply when ``op`` declares one: a contradicting reply is a bug in the
    unit and raises AssertionError."""
    step, constant = op.step, op.constant_reply
    if constant is None:
        return step

    def checked(state: Any) -> tuple[bool, Any]:
        reply, successor = step(state)
        if reply != constant:
            raise AssertionError(f"declared constant reply violated by {unit_name}.{op.name}")
        return reply, successor

    return checked


def _identity(state: Any) -> Any:
    return state


@dataclass(frozen=True)
class FunctionalUnit:
    """A named set of operations, each keyed by its own name.

    Each operation's ``step`` acts on the unit's internal states.
    ``export_state``, the identity unless given, turns an internal state
    into its public one, and is the only way out: a state leaves a run
    only through it, in ``machine._family`` and ``services.service_step``.
    A public state is an internal one too, so none is converted on the
    way in, and two states are equal, and hash alike, exactly when their
    internal forms are.  The tape-basic unit's internal states are bare
    ``(left, right)`` pairs, a ``TapeState`` being one; every other stock
    unit's are its public ones.

    ``steps`` maps each method to its step, built once with the unit by
    ``_checked_step``; ``varying`` holds the methods that declare no
    constant reply."""

    name: str
    operations: Mapping[str, MethodOperation] = field(repr=False)
    format_state: Callable[[Any], str] = field(repr=False)
    parse_state: Callable[[str], Any] = field(repr=False)
    export_state: Callable[[Any], Any] = field(default=_identity, repr=False)
    steps: Mapping[str, Callable[[Any], tuple[bool, Any]]] = field(
        init=False, repr=False, compare=False
    )
    varying: frozenset[str] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not isinstance(self.operations, Mapping):
            raise InputError(f"operations must be a mapping, not {type(self.operations).__name__}")
        for key, op in self.operations.items():
            if type(op) is not MethodOperation:
                raise InputError(f"not a method operation at {key!r}: {op!r}")
            if key != op.name:
                raise InputError(f"operation {op.name!r} registered under {key!r}")
        steps = {key: _checked_step(self.name, op) for key, op in self.operations.items()}
        object.__setattr__(self, "steps", steps)
        varying = frozenset(key for key, op in self.operations.items() if op.constant_reply is None)
        object.__setattr__(self, "varying", varying)


def interface(unit: FunctionalUnit) -> frozenset[str]:
    return frozenset(unit.operations)


def _parse_counter(text: str) -> int:
    n = read_natural(text)
    if n is None:
        raise InputError(f"counter state must be a natural number: {text!r}")
    return n


def _counter_ops() -> dict[str, MethodOperation]:
    return {
        "setzero": MethodOperation("setzero", lambda n: (True, 0), constant_reply=True),
        "succ": MethodOperation("succ", lambda n: (True, n + 1), constant_reply=True),
        "pred": MethodOperation("pred", lambda n: (False, 0) if n == 0 else (True, n - 1)),
        "iszero": MethodOperation("iszero", lambda n: (n == 0, n)),
    }


_COUNTER = FunctionalUnit("counter", _counter_ops(), str, _parse_counter)


def counter_unit() -> FunctionalUnit:
    return _COUNTER


def dup_step(state: TapeState) -> tuple[bool, TapeState]:
    """Duplicate the bit block before the first ':' (the whole content if
    colon-free), after rewinding the head to the far left."""
    content = state.content
    return True, _tape(("", f"{content.partition(':')[0]}:{content}"))


_DUP = FunctionalUnit(
    "dup", {"dup": MethodOperation("dup", dup_step, constant_reply=True)}, format_tape, parse_tape
)


def dup_unit() -> FunctionalUnit:
    return _DUP


# The tape-basic unit's internal states (see ``FunctionalUnit``).
_Pair = tuple[str, str]


def _move_left(s: _Pair) -> tuple[bool, _Pair]:
    left, right = s
    if not left:
        return False, s
    return True, (left[:-1], left[-1] + right)


def _move_right(s: _Pair) -> tuple[bool, _Pair]:
    left, right = s
    if not right:
        return False, s
    return True, (left + right[0], right[1:])


def _test(symbol: str) -> Callable[[_Pair], tuple[bool, _Pair]]:
    def step(s: _Pair) -> tuple[bool, _Pair]:
        return s[1][:1] == symbol, s

    return step


def _test_end(s: _Pair) -> tuple[bool, _Pair]:
    return not s[1], s


def _write(symbol: str) -> Callable[[_Pair], tuple[bool, _Pair]]:
    def step(s: _Pair) -> tuple[bool, _Pair]:
        # Overwrites the symbol under the head, appends at the right end.
        left, right = s
        return True, (left, symbol + right[1:])

    return step


def _delete(s: _Pair) -> tuple[bool, _Pair]:
    left, right = s
    if not right:
        return False, s
    return True, (left, right[1:])


def _tape_basic_ops() -> dict[str, MethodOperation]:
    ops = [
        MethodOperation("mvl", _move_left),
        MethodOperation("mvr", _move_right),
        MethodOperation("test:0", _test("0")),
        MethodOperation("test:1", _test("1")),
        MethodOperation("test:colon", _test(":")),
        MethodOperation("test:end", _test_end),
        MethodOperation("write:0", _write("0"), constant_reply=True),
        MethodOperation("write:1", _write("1"), constant_reply=True),
        MethodOperation("write:colon", _write(":"), constant_reply=True),
        MethodOperation("delete", _delete),
    ]
    return {op.name: op for op in ops}


_TAPE_BASIC = FunctionalUnit("tapebasic", _tape_basic_ops(), format_tape, parse_tape, _tape)


def tape_basic_unit() -> FunctionalUnit:
    return _TAPE_BASIC


def _halting_reply(left: str, right: str) -> bool:
    """Reply of the halting operation on the tape ``left|right``: True
    iff the part of its content ``left + right`` before the first ':'
    encodes a halting-unit program that halts on the rest.

    The rest is answered the same way, so the reply folds from the right
    over the leading segments that encode halting-unit programs, starting
    from False (the reply on a content without such a segment).  A loop,
    not recursion, so any number of segments is answered.  The segments
    are read one at a time, up to the first that is not such a program.
    """
    # An encoding is whole bytes, so a first segment shorter than 8
    # symbols encodes no program; a content without ':' (find gives -1)
    # has no segment to fold.  Either way the reply is False.  A first
    # segment of 8 symbols and its ':' need 9 symbols, and the length
    # alone answers the short words most calls pass, before the content
    # is built.
    if len(left) + len(right) < 9:
        return False
    content = left + right
    end = content.find(":")
    if end < 8:
        return False
    programs = []
    start = 0
    while end >= 0:
        y = decode(content[start:end])
        if y is NOT_AN_ENCODING or foreign_action(y, ("halting",)) is not None:
            break
        programs.append(y)
        start = end + 1
        end = content.find(":", start)
    reply = False
    for y in reversed(programs):
        reply = _halts(y, reply, False)
    return reply


def halting_op_step(state: TapeState) -> tuple[bool, TapeState]:
    """The halting oracle as a method operation: reply per
    ``_halting_reply`` on the tape, and reset the tape to empty."""
    return _halting_reply(state.left, state.right), _tape(("", ""))


_HALTING_EMPTY = FunctionalUnit(
    "halting-empty", {"halting": MethodOperation("halting", halting_op_step)}, format_tape, parse_tape
)


def halting_empty_unit() -> FunctionalUnit:
    return _HALTING_EMPTY


# The stock units, each under its own name.
_UNITS = {unit.name: unit for unit in (_COUNTER, _TAPE_BASIC, _DUP, _HALTING_EMPTY)}


def unit_by_name(name: str) -> FunctionalUnit:
    if type(name) is not str or name not in _UNITS:
        raise InputError(f"unknown unit {name!r}")
    return _UNITS[name]


# --- duplication as a derived operation of the tape-basic unit ------------


def _assemble(items: list[str]) -> Program:
    """Resolve labelled program text into a program with relative jumps.

    An item is a label ``name:`` for the position of the next instruction,
    a jump ``goto name``, a terminal such as ``!t``, or a basic instruction
    written without its focus (``mvr``, ``+test:0``): all of them are on
    ``FOCUS``.
    """
    positions: dict[str, int] = {}
    tokens: list[str] = []
    for item in items:
        if item.endswith(":"):
            positions[item[:-1]] = len(tokens) + 1
        elif item.startswith(("goto ", "!")):
            tokens.append(item)
        else:
            _, sign, method = item.rpartition("+")
            tokens.append(f"{sign}{FOCUS}.{method}")
    for pc, token in enumerate(tokens, 1):
        if token.startswith("goto "):
            target = positions[token[5:]]
            # The witness text is fixed, so only a bug in it jumps to itself.
            if target == pc:
                raise AssertionError(f"self-jump at {token[5:]!r}")
            tokens[pc - 1] = f"#{target - pc}" if target > pc else f"\\#{pc - target}"
    return parse(";".join(tokens))


def _branch(method: str, if_true: str, if_false: str) -> list[str]:
    return [f"+{method}", f"goto {if_true}", f"goto {if_false}"]


def _prepend_ir(symbol: str, tag: str) -> list[str]:
    """Insert one symbol in front of the whole content: walk to the right
    end, shift every cell one place right, then write the symbol into
    cell 0.  Ends with the head on cell 0."""
    w = {"0": "write:0", "1": "write:1", ":": "write:colon"}[symbol]
    items = [f"{tag}.end:"] + _branch("test:end", f"{tag}.enter", f"{tag}.step")
    items += [f"{tag}.step:", "mvr", f"goto {tag}.end"]
    # mvl fails only on an empty tape, where the write below appends.
    items += [f"{tag}.enter:"] + _branch("mvl", f"{tag}.shift", f"{tag}.write")
    items += [f"{tag}.shift:"] + _branch("test:0", f"{tag}.c0", f"{tag}.n0")
    items += [f"{tag}.n0:"] + _branch("test:1", f"{tag}.c1", f"{tag}.cc")
    items += [f"{tag}.c0:", "mvr", "write:0", f"goto {tag}.back"]
    items += [f"{tag}.c1:", "mvr", "write:1", f"goto {tag}.back"]
    items += [f"{tag}.cc:", "mvr", "write:colon", f"goto {tag}.back"]
    items += [f"{tag}.back:", "mvl"] + _branch("mvl", f"{tag}.shift", f"{tag}.write")
    items += [f"{tag}.write:", w]
    return items


def _dup_witness_ir() -> list[str]:
    # Plan: rewind; plant a ':' separator in front; then walk the leading
    # bit block right-to-left, and for each bit mark its cell with ':',
    # prepend a copy of the bit at the front (the shift keeps the mark),
    # relocate the mark (second ':' from the left) and restore the bit.
    # Prepending right-to-left lays the copy down in source order, so the
    # loop ends with content  block ':' block rest  and the head on the
    # separator.
    items = ["rew:"] + _branch("mvl", "rew", "sep")
    items += ["sep:"] + _prepend_ir(":", "p.sep")
    # Find the right edge of the leading bit block; mvr off the separator
    # first (the content is non-empty: the separator is there).
    items += ["mvr"]
    items += ["seek:"] + _branch("test:0", "seek.adv", "seek.n0")
    items += ["seek.n0:"] + _branch("test:1", "seek.adv", "seek.stop")
    items += ["seek.adv:", "mvr", "goto seek"]
    items += ["seek.stop:", "mvl"]
    items += ["main:"] + _branch("test:colon", "fin", "main.bit")
    items += ["main.bit:"] + _branch("test:0", "b0", "b1")
    for bit, tag in (("0", "b0"), ("1", "b1")):
        items += [f"{tag}:", "write:colon"]
        items += _prepend_ir(bit, f"p.{tag}")
        # Scan to the first ':' (the separator), step past it, scan to the
        # next ':' (the mark), restore the bit there, step left, loop.
        items += [f"{tag}.w1:"] + _branch("test:colon", f"{tag}.past", f"{tag}.s1")
        items += [f"{tag}.s1:", "mvr", f"goto {tag}.w1"]
        items += [f"{tag}.past:", "mvr"]
        items += [f"{tag}.w2:"] + _branch("test:colon", f"{tag}.fix", f"{tag}.s2")
        items += [f"{tag}.s2:", "mvr", f"goto {tag}.w2"]
        items += [f"{tag}.fix:", f"write:{bit}", "mvl", "goto main"]
    items += ["fin:"] + _branch("mvl", "fin", "fin.t")
    items += ["fin.t:", "!t"]
    return items


_DUP_WITNESS = _assemble(_dup_witness_ir())


def dup_witness_program() -> Program:
    """A tape-basic program whose derived operation equals ``dup_step``."""
    return _DUP_WITNESS
