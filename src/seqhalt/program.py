"""Instruction sequences with boolean termination.

A program is a non-empty sequence of primitive instructions, numbered from 1:

    f.m     plain basic instruction: ask the service named f to process
            method m, then continue with the next instruction whatever
            the reply is
    +f.m    positive test: continue with the next instruction on reply
            True, skip one instruction on False
    -f.m    negative test: same, with the roles of the replies swapped
    #l      jump forward to the l-th next instruction (#0 deadlocks)
    \\#l     jump backward to the l-th previous instruction (\\#0 deadlocks)
    !t      terminate delivering True
    !f      terminate delivering False

The canonical text form joins instructions with ";" and no whitespace.
``encode``/``decode`` give the injective bit-sequence form used when a
program is written onto a tape as input for another program: the ASCII
bytes of the canonical text, each emitted most significant bit first.
"""

from __future__ import annotations

import itertools
import re
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
        if not _FOCUS_RE.match(self.focus):
            raise InputError(f"bad focus {self.focus!r}")
        if not _METHOD_RE.match(self.method):
            raise InputError(f"bad method name {self.method!r}")

    def __str__(self) -> str:
        return f"{self.focus}.{self.method}"


@dataclass(frozen=True)
class Plain:
    action: BasicInstruction


@dataclass(frozen=True)
class PosTest:
    action: BasicInstruction


@dataclass(frozen=True)
class NegTest:
    action: BasicInstruction


@dataclass(frozen=True)
class FwdJump:
    offset: int

    def __post_init__(self):
        if self.offset < 0:
            raise InputError("jump counter must be a natural number")


@dataclass(frozen=True)
class BwdJump:
    offset: int

    def __post_init__(self):
        if self.offset < 0:
            raise InputError("jump counter must be a natural number")


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
    """A non-empty tuple of primitive instructions; positions are 1-based.
    Each element's type is exactly one of the instruction types."""

    instructions: tuple[Instruction, ...]

    def __post_init__(self):
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


# The program class: every basic instruction of a program the halting lab
# decides, refutes or enumerates uses this one focus.
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


def _render_one(u: Instruction) -> str:
    if isinstance(u, Plain):
        return str(u.action)
    if isinstance(u, PosTest):
        return f"+{u.action}"
    if isinstance(u, NegTest):
        return f"-{u.action}"
    if isinstance(u, FwdJump):
        return f"#{u.offset}"
    if isinstance(u, BwdJump):
        return f"\\#{u.offset}"
    if isinstance(u, TermTrue):
        return "!t"
    return "!f"  # TermFalse, the one type left


def render(x: Program) -> str:
    """Canonical text: instructions joined by ';', no whitespace."""
    return ";".join(_render_one(u) for u in x)


def _parse_basic(token: str, position: int) -> BasicInstruction:
    focus, dot, method = token.partition(".")
    if not dot or not _FOCUS_RE.match(focus) or not _METHOD_RE.match(method):
        raise ProgramSyntaxError(f"bad instruction {token!r}", position)
    return BasicInstruction(focus, method)


def read_natural(text: str) -> int | None:
    """``text`` read as a decimal natural (no sign, no leading zeros); None if
    it is none, or has more digits than ``int`` converts."""
    if not _COUNT_RE.match(text):
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
    return "".join(format(byte, "08b") for byte in render(x).encode("ascii"))


# Whole bytes of ASCII 0s and 1s, nothing after: int(bits, 2) alone would
# also take '_', a sign, surrounding whitespace and non-ASCII digits.
_BYTES = re.compile(r"(?:[01]{8})+\Z")


def decode(bits: str) -> Program | _Sentinel:
    """Inverse of :func:`encode` on its image; NOT_AN_ENCODING elsewhere."""
    if not _BYTES.match(bits):
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
