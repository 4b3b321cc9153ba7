"""Functional units: named method operations over a state space.

A method operation is a total function state -> (reply, state); a
functional unit is a finite, per-name-unique set of them.  Two state
spaces are built in: the unbounded counter (naturals) and the tape-like
space of strings over {0,1,:} split around a head position, written
``left|right`` (``|1:0`` means the head sits on the first symbol of
``1:0`` with nothing to its left).

The stock units are the four-operation counter, the single-operation
duplication unit, and the tape-basic unit whose operations are the
elementary steps of a tape machine (moves, symbol tests, writes,
delete).  ``dup_witness_program`` is a program over the tape-basic unit
whose derived operation is exactly the duplication operation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Iterable, Mapping

from .program import (
    _COUNT_RE,
    FOCUS,
    BasicInstruction,
    BwdJump,
    FwdJump,
    Plain,
    PosTest,
    Program,
    TERM_FALSE,
    TERM_TRUE,
    foreign_action,
)
from .threads import extract

TAPE_ALPHABET = frozenset("01:")


@dataclass(frozen=True)
class TapeState:
    """Tape content split around the head: ``left`` then ``right``, the
    head on the first symbol of ``right`` (or past the end if empty)."""

    left: str = ""
    right: str = ""

    def __post_init__(self):
        for part in (self.left, self.right):
            if not set(part) <= TAPE_ALPHABET:
                raise ValueError(f"tape symbols must be 0, 1 or ':': {part!r}")

    @property
    def content(self) -> str:
        return self.left + self.right

    def __str__(self) -> str:
        return format_tape(self)


def at_left(word: str) -> TapeState:
    """State with the head on the first symbol of ``word``."""
    return TapeState("", word)


def format_tape(state: TapeState) -> str:
    return f"{state.left}|{state.right}"


def parse_tape(text: str) -> TapeState:
    left, bar, right = text.partition("|")
    if not bar:
        raise ValueError(f"tape literal needs a head marker '|': {text!r}")
    return TapeState(left, right)


def colon_count(state: TapeState) -> int:
    return state.content.count(":")


@dataclass(frozen=True)
class MethodOperation:
    """A named total step function with declared metadata.

    ``increases_colons`` declares whether the operation can ever add a
    ':' to a tape state.  ``constant_reply`` declares a reply that is
    independent of the state (None when the reply varies); the total
    runner in the halting lab relies on it to prove divergence.
    """

    name: str
    step: Callable[[Any], tuple[bool, Any]]
    increases_colons: bool = False
    constant_reply: bool | None = None


@dataclass(frozen=True)
class FunctionalUnit:
    name: str
    state_space: str
    operations: Mapping[str, MethodOperation]
    format_state: Callable[[Any], str]
    parse_state: Callable[[str], Any]

    def __post_init__(self):
        for key, op in self.operations.items():
            if key != op.name:
                raise ValueError(f"operation {op.name!r} registered under {key!r}")


class NotInInterfaceError(ValueError):
    pass


def interface(unit: FunctionalUnit) -> frozenset[str]:
    return frozenset(unit.operations)


def restrict(unit: FunctionalUnit, names: Iterable[str]) -> FunctionalUnit:
    names = frozenset(names)
    missing = names - interface(unit)
    if missing:
        raise NotInInterfaceError(f"not in interface of {unit.name}: {sorted(missing)}")
    return FunctionalUnit(
        unit.name,
        unit.state_space,
        {m: op for m, op in unit.operations.items() if m in names},
        unit.format_state,
        unit.parse_state,
    )


def _parse_counter(text: str) -> int:
    if not _COUNT_RE.match(text):
        raise ValueError(f"counter state must be a natural number: {text!r}")
    return int(text)


def _counter_ops() -> dict[str, MethodOperation]:
    return {
        "setzero": MethodOperation("setzero", lambda n: (True, 0), constant_reply=True),
        "succ": MethodOperation("succ", lambda n: (True, n + 1), constant_reply=True),
        "pred": MethodOperation("pred", lambda n: (False, 0) if n == 0 else (True, n - 1)),
        "iszero": MethodOperation("iszero", lambda n: (n == 0, n)),
    }


_COUNTER = FunctionalUnit("counter", "counter", _counter_ops(), str, _parse_counter)


def counter_unit() -> FunctionalUnit:
    return _COUNTER


def dup_step(state: TapeState) -> tuple[bool, TapeState]:
    """Duplicate the bit block before the first ':' (the whole content if
    colon-free), after rewinding the head to the far left."""
    content = state.content
    cut = content.find(":")
    block = content if cut < 0 else content[:cut]
    return True, TapeState("", f"{block}:{content}")


_DUP = FunctionalUnit(
    "dup",
    "tape",
    {"dup": MethodOperation("dup", dup_step, increases_colons=True, constant_reply=True)},
    format_tape,
    parse_tape,
)


def dup_unit() -> FunctionalUnit:
    return _DUP


def _move_left(s: TapeState) -> tuple[bool, TapeState]:
    if not s.left:
        return False, s
    return True, TapeState(s.left[:-1], s.left[-1] + s.right)


def _move_right(s: TapeState) -> tuple[bool, TapeState]:
    if not s.right:
        return False, s
    return True, TapeState(s.left + s.right[0], s.right[1:])


def _test(symbol: str) -> Callable[[TapeState], tuple[bool, TapeState]]:
    def step(s: TapeState) -> tuple[bool, TapeState]:
        return bool(s.right) and s.right[0] == symbol, s

    return step


def _test_end(s: TapeState) -> tuple[bool, TapeState]:
    return not s.right, s


def _write(symbol: str) -> Callable[[TapeState], tuple[bool, TapeState]]:
    def step(s: TapeState) -> tuple[bool, TapeState]:
        # Overwrites the symbol under the head, appends at the right end.
        return True, TapeState(s.left, symbol + s.right[1:])

    return step


def _delete(s: TapeState) -> tuple[bool, TapeState]:
    if not s.right:
        return False, s
    return True, TapeState(s.left, s.right[1:])


def _tape_basic_ops() -> dict[str, MethodOperation]:
    ops = {
        "mvl": MethodOperation("mvl", _move_left),
        "mvr": MethodOperation("mvr", _move_right),
        "test:0": MethodOperation("test:0", _test("0")),
        "test:1": MethodOperation("test:1", _test("1")),
        "test:colon": MethodOperation("test:colon", _test(":")),
        "test:end": MethodOperation("test:end", _test_end),
        "write:0": MethodOperation("write:0", _write("0"), constant_reply=True),
        "write:1": MethodOperation("write:1", _write("1"), constant_reply=True),
        "write:colon": MethodOperation(
            "write:colon", _write(":"), increases_colons=True, constant_reply=True
        ),
        "delete": MethodOperation("delete", _delete),
    }
    return ops


_TAPE_BASIC = FunctionalUnit("tapebasic", "tape", _tape_basic_ops(), format_tape, parse_tape)


def tape_basic_unit() -> FunctionalUnit:
    return _TAPE_BASIC


def unit_by_name(name: str) -> FunctionalUnit:
    if name == "counter":
        return _COUNTER
    if name == "tapebasic":
        return _TAPE_BASIC
    if name == "dup":
        return _DUP
    if name == "halting-empty":
        from .halting import halting_empty_unit

        return halting_empty_unit()
    raise ValueError(f"unknown unit {name!r}")


# --- derived method operations ------------------------------------------


@dataclass(frozen=True)
class Applied:
    reply: bool
    state: Any


class _Sentinel:
    def __init__(self, label: str):
        self._label = label

    def __repr__(self) -> str:
        return self._label


UNDEFINED = _Sentinel("UNDEFINED")
UNKNOWN = _Sentinel("UNKNOWN")


class WrongFocusError(ValueError):
    pass


class UnknownMethodError(ValueError):
    pass


def derived_operation(
    x: Program,
    unit: FunctionalUnit,
    fuel: int = 10**6,
) -> Callable[[Any], Applied | _Sentinel]:
    """Pointwise evaluator for the partial operation a program induces
    over a unit: run the program against the single service ``FOCUS``
    holding the unit in the given state.

    Returns Applied(reply, state) on termination, UNDEFINED on proven
    divergence, UNKNOWN when the fuel runs out first.
    """
    action = foreign_action(x, interface(unit))
    if action is not None and action.focus != FOCUS:
        raise WrongFocusError(f"{action} does not use focus {FOCUS!r}")
    if action is not None:
        raise UnknownMethodError(f"{action.method!r} not in interface of {unit.name}")
    thread = extract(x)

    def evaluate(state: Any) -> Applied | _Sentinel:
        from .machine import Converged, ProvenDivergent, run
        from .services import UnitService, singleton_family

        outcome = run(thread, singleton_family(FOCUS, UnitService(unit, state)), fuel)
        if isinstance(outcome, Converged):
            service = outcome.family.entries[FOCUS]
            return Applied(outcome.reply, service.state)
        if isinstance(outcome, ProvenDivergent):
            return UNDEFINED
        return UNKNOWN

    return evaluate


# --- duplication as a derived operation of the tape-basic unit ------------

_Item = tuple


def _assemble(items: list[_Item]) -> Program:
    """Resolve a labelled item list into a program with relative jumps."""
    positions: dict[str, int] = {}
    pc = 1
    for item in items:
        if item[0] == "label":
            positions[item[1]] = pc
        else:
            pc += 1
    out = []
    pc = 1
    for item in items:
        kind = item[0]
        if kind == "label":
            continue
        if kind == "plain":
            out.append(Plain(BasicInstruction(FOCUS, item[1])))
        elif kind == "pos":
            out.append(PosTest(BasicInstruction(FOCUS, item[1])))
        elif kind == "goto":
            target = positions[item[1]]
            if target > pc:
                out.append(FwdJump(target - pc))
            elif target < pc:
                out.append(BwdJump(pc - target))
            else:
                raise ValueError(f"self-jump at {item[1]!r}")
        elif kind == "halt":
            out.append(TERM_TRUE if item[1] else TERM_FALSE)
        else:
            raise ValueError(f"bad item {item!r}")
        pc += 1
    return Program(tuple(out))


def _branch(method: str, if_true: str, if_false: str) -> list[_Item]:
    return [("pos", method), ("goto", if_true), ("goto", if_false)]


def _prepend_ir(symbol: str, tag: str) -> list[_Item]:
    """Insert one symbol in front of the whole content: walk to the right
    end, shift every cell one place right, then write the symbol into
    cell 0.  Ends with the head on cell 0."""
    w = {"0": "write:0", "1": "write:1", ":": "write:colon"}[symbol]
    items: list[_Item] = []
    items += [("label", f"{tag}.end")] + _branch("test:end", f"{tag}.enter", f"{tag}.step")
    items += [("label", f"{tag}.step"), ("plain", "mvr"), ("goto", f"{tag}.end")]
    # mvl fails only on an empty tape, where the write below appends.
    items += [("label", f"{tag}.enter")] + _branch("mvl", f"{tag}.shift", f"{tag}.write")
    items += [("label", f"{tag}.shift")] + _branch("test:0", f"{tag}.c0", f"{tag}.n0")
    items += [("label", f"{tag}.n0")] + _branch("test:1", f"{tag}.c1", f"{tag}.cc")
    items += [("label", f"{tag}.c0"), ("plain", "mvr"), ("plain", "write:0"), ("goto", f"{tag}.back")]
    items += [("label", f"{tag}.c1"), ("plain", "mvr"), ("plain", "write:1"), ("goto", f"{tag}.back")]
    items += [("label", f"{tag}.cc"), ("plain", "mvr"), ("plain", "write:colon"), ("goto", f"{tag}.back")]
    items += [("label", f"{tag}.back"), ("plain", "mvl")] + _branch(
        "mvl", f"{tag}.shift", f"{tag}.write"
    )
    items += [("label", f"{tag}.write"), ("plain", w)]
    return items


def _dup_witness_ir() -> list[_Item]:
    # Plan: rewind; plant a ':' separator in front; then walk the leading
    # bit block right-to-left, and for each bit mark its cell with ':',
    # prepend a copy of the bit at the front (the shift keeps the mark),
    # relocate the mark (second ':' from the left) and restore the bit.
    # Prepending right-to-left lays the copy down in source order, so the
    # loop ends with content  block ':' block rest  and the head on the
    # separator.
    items: list[_Item] = []
    items += [("label", "rew")] + _branch("mvl", "rew", "sep")
    items += [("label", "sep")] + _prepend_ir(":", "p.sep")
    # Find the right edge of the leading bit block; mvr off the separator
    # first (the content is non-empty: the separator is there).
    items += [("plain", "mvr")]
    items += [("label", "seek")] + _branch("test:0", "seek.adv", "seek.n0")
    items += [("label", "seek.n0")] + _branch("test:1", "seek.adv", "seek.stop")
    items += [("label", "seek.adv"), ("plain", "mvr"), ("goto", "seek")]
    items += [("label", "seek.stop"), ("plain", "mvl")]
    items += [("label", "main")] + _branch("test:colon", "fin", "main.bit")
    items += [("label", "main.bit")] + _branch("test:0", "b0", "b1")
    for bit, tag in (("0", "b0"), ("1", "b1")):
        items += [("label", tag), ("plain", "write:colon")]
        items += _prepend_ir(bit, f"p.{tag}")
        # Scan to the first ':' (the separator), step past it, scan to the
        # next ':' (the mark), restore the bit there, step left, loop.
        items += [("label", f"{tag}.w1")] + _branch("test:colon", f"{tag}.past", f"{tag}.s1")
        items += [("label", f"{tag}.s1"), ("plain", "mvr"), ("goto", f"{tag}.w1")]
        items += [("label", f"{tag}.past"), ("plain", "mvr")]
        items += [("label", f"{tag}.w2")] + _branch("test:colon", f"{tag}.fix", f"{tag}.s2")
        items += [("label", f"{tag}.s2"), ("plain", "mvr"), ("goto", f"{tag}.w2")]
        items += [("label", f"{tag}.fix"), ("plain", f"write:{bit}"), ("plain", "mvl"), ("goto", "main")]
    items += [("label", "fin")] + _branch("mvl", "fin", "fin.t")
    items += [("label", "fin.t"), ("halt", True)]
    return items


_DUP_WITNESS: Program | None = None


def dup_witness_program() -> Program:
    """A tape-basic program whose derived operation equals ``dup_step``."""
    global _DUP_WITNESS
    if _DUP_WITNESS is None:
        _DUP_WITNESS = _assemble(_dup_witness_ir())
    return _DUP_WITNESS
