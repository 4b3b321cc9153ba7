"""Programs: non-empty sequences of primitive instructions with boolean
termination, their canonical text (``parse``, ``render``) and their bit
encoding (``encode``, ``decode``).

The instructions, as ``parse`` reads them: ``f.m`` (plain), ``+f.m`` and
``-f.m`` (positive and negative test), ``#l`` and ``\\#l`` (jump forward
and backward), ``!t`` and ``!f`` (terminate with True and with False).
``threads._node`` states how each one continues.
"""

from __future__ import annotations

import itertools
import re
import sys
from dataclasses import dataclass
from typing import Container, Iterable, Iterator, Sequence, Union, get_args

_FOCUS_RE = re.compile(r"[a-z][a-z0-9]*\Z")
# Method names may carry colon-separated selector segments, e.g. "write:0".
_METHOD_RE = re.compile(r"[a-z][a-z0-9]*(?::[a-z0-9]+)*\Z")
_COUNT_RE = re.compile(r"(?:0|[1-9][0-9]*)\Z")


class InputError(ValueError):
    """The caller's input was rejected: malformed text, a value out of
    range, or a program outside the class an operation is defined for.
    The CLI reports it as a usage error; any other exception is a bug."""


class ProgramSyntaxError(InputError):
    """Malformed program text; ``position`` is the 0-based character offset."""

    def __init__(self, message: str, position: int = 0):
        super().__init__(f"{message} (at character {position})")
        self.position = position


@dataclass(frozen=True)
class BasicInstruction:
    focus: str
    method: str

    def __post_init__(self):
        if type(self.focus) is not str or not _FOCUS_RE.match(self.focus):
            raise InputError(f"bad focus {self.focus!r}")
        if type(self.method) is not str or not _METHOD_RE.match(self.method):
            raise InputError(f"bad method name {self.method!r}")

    def __str__(self) -> str:
        return f"{self.focus}.{self.method}"


@dataclass(frozen=True)
class _WithAction:
    """An instruction that performs ``action``, of the exact type
    ``BasicInstruction``."""

    action: BasicInstruction

    def __post_init__(self):
        if type(self.action) is not BasicInstruction:
            raise InputError(f"not a basic instruction: {self.action!r}")


class Plain(_WithAction):
    pass


class PosTest(_WithAction):
    pass


class NegTest(_WithAction):
    pass


# Every digit limit of int-to-str conversion but 0 (none) is at least this.
_ALWAYS_CONVERTS = 10**sys.int_info.str_digits_check_threshold


@dataclass(frozen=True)
class _Jump:
    """A jump counter is an ``int`` (not a bool), at least 0, with no more
    digits than ``str`` converts, so that it renders and parses back."""

    offset: int

    def __post_init__(self):
        offset = self.offset
        if type(offset) is not int or offset < 0:
            raise InputError("jump counter must be a natural number")
        if offset >= _ALWAYS_CONVERTS:
            limit = sys.get_int_max_str_digits()
            if limit and offset >= 10**limit:
                raise InputError(f"jump counter has more than {limit} digits")


class FwdJump(_Jump):
    """#l: jump to the l-th next instruction."""


class BwdJump(_Jump):
    """\\#l: jump to the l-th previous instruction."""


@dataclass(frozen=True)
class TermTrue:
    pass


@dataclass(frozen=True)
class TermFalse:
    pass


TERM_TRUE = TermTrue()
TERM_FALSE = TermFalse()

Instruction = Union[Plain, PosTest, NegTest, FwdJump, BwdJump, TermTrue, TermFalse]
_INSTRUCTIONS = frozenset(get_args(Instruction))


@dataclass(frozen=True)
class Program:
    """A non-empty ``tuple`` of instructions, each of exactly one
    instruction type; positions are 1-based."""

    instructions: tuple[Instruction, ...]

    def __post_init__(self):
        if type(self.instructions) is not tuple:
            raise InputError(f"instructions must be a tuple, not {type(self.instructions).__name__}")
        if not self.instructions:
            raise ProgramSyntaxError("program has no instructions")
        for u in self.instructions:
            if type(u) not in _INSTRUCTIONS:
                raise InputError(f"not an instruction: {u!r}")

    def __len__(self) -> int:
        return len(self.instructions)

    def __iter__(self) -> Iterator[Instruction]:
        return iter(self.instructions)

    def at(self, position: int) -> Instruction:
        """Instruction at a 1-based position."""
        return self.instructions[position - 1]

    def __str__(self) -> str:
        return render(self)


# The program classes of the halting lab: every basic instruction of a
# program it decides, refutes or enumerates is on this one focus, with the
# class's one method (``foreign_action``).
FOCUS = "f"


# The instruction types that carry a basic action.
_BASIC = frozenset((Plain, PosTest, NegTest))


def foreign_action(x: Program, methods: Container[str]) -> BasicInstruction | None:
    """The first basic action of x, in position order, that is off
    ``FOCUS`` or whose method is not in ``methods``; None when x stays
    inside that program class."""
    for u in x.instructions:
        if type(u) in _BASIC:
            action = u.action
            if action.focus != FOCUS or action.method not in methods:
                return action
    return None


_TEXT = {
    Plain: lambda u: str(u.action),
    PosTest: lambda u: f"+{u.action}",
    NegTest: lambda u: f"-{u.action}",
    FwdJump: lambda u: f"#{u.offset}",
    BwdJump: lambda u: f"\\#{u.offset}",
    TermTrue: lambda u: "!t",
    TermFalse: lambda u: "!f",
}


def render(x: Program) -> str:
    """Canonical text: instructions joined by ';', no whitespace."""
    return ";".join([_TEXT[type(u)](u) for u in x.instructions])


def _basic(focus: str, method: str) -> BasicInstruction:
    """A ``BasicInstruction`` without the check of its ``__post_init__``,
    for a focus and a method that have matched ``_FOCUS_RE`` and
    ``_METHOD_RE`` (``TRUSTED`` in ``tests/test_imports.py``)."""
    action = object.__new__(BasicInstruction)
    object.__setattr__(action, "focus", focus)
    object.__setattr__(action, "method", method)
    return action


def _parse_basic(token: str, position: int) -> BasicInstruction:
    focus, dot, method = token.partition(".")
    if not dot or not _FOCUS_RE.match(focus) or not _METHOD_RE.match(method):
        raise ProgramSyntaxError(f"bad instruction {token!r}", position)
    return _basic(focus, method)


def read_natural(text: str) -> int | None:
    """``text`` read as a decimal natural (no sign, no leading zeros); None if
    it is none, or has more digits than ``int`` converts."""
    if type(text) is not str or not _COUNT_RE.match(text):
        return None
    try:
        return int(text)
    except ValueError:  # past the digit limit
        return None


def _parse_one(token: str, position: int) -> Instruction:
    if token == "!t":
        return TERM_TRUE
    if token == "!f":
        return TERM_FALSE
    if token.startswith(("#", "\\#")):
        offset = read_natural(token.partition("#")[2])
        if offset is None:
            raise ProgramSyntaxError(f"bad jump counter in {token!r}", position)
        return FwdJump(offset) if token[0] == "#" else BwdJump(offset)
    if token.startswith("+"):
        return PosTest(_parse_basic(token[1:], position))
    if token.startswith("-"):
        return NegTest(_parse_basic(token[1:], position))
    return Plain(_parse_basic(token, position))


def parse(text: str) -> Program:
    """Parse canonical program text; inverse of :func:`render`."""
    if type(text) is not str:
        raise ProgramSyntaxError(f"program text must be a string: {text!r}")
    body = text.strip()
    if not body:
        raise ProgramSyntaxError("program has no instructions")
    instructions = []
    offset = 0
    for token in body.split(";"):
        if not token:
            raise ProgramSyntaxError("empty instruction slot", offset)
        instructions.append(_parse_one(token, offset))
        offset += len(token) + 1
    return Program(tuple(instructions))


class _Sentinel:
    """A marker value that stands for no result; compare it with ``is``."""

    def __init__(self, label: str):
        self._label = label

    def __repr__(self) -> str:
        return self._label


# Result of decoding a bit string that encodes no program.
NOT_AN_ENCODING = _Sentinel("NOT_AN_ENCODING")


def encode(x: Program) -> str:
    """Injective bit-string form: MSB-first ASCII bytes of the rendering."""
    data = render(x).encode("ascii")
    return format(int.from_bytes(data, "big"), f"0{8 * len(data)}b")


# Whole bytes of ASCII 0s and 1s, nothing after: int(bits, 2) alone would
# also take '_', a sign, surrounding whitespace and non-ASCII digits.
_BYTES = re.compile(r"(?:[01]{8})+\Z")


def decode(bits: str) -> Program | _Sentinel:
    """Inverse of :func:`encode` on its image; NOT_AN_ENCODING elsewhere,
    also for a value that is not a string."""
    if type(bits) is not str or not _BYTES.match(bits):
        return NOT_AN_ENCODING
    try:
        return parse(int(bits, 2).to_bytes(len(bits) // 8, "big").decode("ascii"))
    except (UnicodeDecodeError, ProgramSyntaxError):
        return NOT_AN_ENCODING


def instruction_alphabet(
    methods: Iterable[str],
    *,
    fwd_offsets: Sequence[int],
    bwd_offsets: Sequence[int],
) -> list[Instruction]:
    letters: list[Instruction] = []
    for m in sorted(methods):
        action = BasicInstruction(FOCUS, m)
        letters += [Plain(action), PosTest(action), NegTest(action)]
    letters += [TERM_TRUE, TERM_FALSE]
    letters += [FwdJump(l) for l in fwd_offsets]
    letters += [BwdJump(l) for l in bwd_offsets]
    return letters


def enumerate_programs(methods: Iterable[str], max_len: int) -> Iterator[Program]:
    """All programs over the given methods on ``FOCUS``, lengths 1..max_len.

    Jump counters run over 0..max_len+1; larger counters behave like an
    out-of-range jump of that direction, so this range covers every
    semantically distinct instruction at these lengths.
    """
    offsets = range(max_len + 2)
    letters = instruction_alphabet(methods, fwd_offsets=offsets, bwd_offsets=offsets)
    for k in range(1, max_len + 1):
        for combo in itertools.product(letters, repeat=k):
            yield Program(combo)
