"""Frozen copies of the original fixed-reply walk and of the original
``extract``, the references for the differential tests of
``threads._halts`` and ``threads.extract``.

Both chase jumps with a separate ``_resolve`` and pick each successor
with ``_successor``; the walk keeps (position, reply) pairs of basic
instructions only.  Do not speed them up: their value is that they stay
as they were written.
"""

from __future__ import annotations

from seqhalt.program import BwdJump, FwdJump, NegTest, PosTest, Program, TermFalse, TermTrue
from seqhalt.threads import DEADLOCK, STOP_FALSE, STOP_TRUE, PostCond, RegularThread

_TERMINAL_IDS = {"D": DEADLOCK, "S+": STOP_TRUE, "S-": STOP_FALSE}


def _resolve(x: Program, i: int):
    """Chase jumps from position i to a basic instruction or terminal."""
    k = len(x)
    seen: set[int] = set()
    while True:
        if not 1 <= i <= k:
            return "D"
        if i in seen:
            return "D"
        u = x.at(i)
        if isinstance(u, FwdJump):
            seen.add(i)
            i += u.offset
        elif isinstance(u, BwdJump):
            seen.add(i)
            i = max(i - u.offset, 0)
        elif isinstance(u, TermTrue):
            return "S+"
        elif isinstance(u, TermFalse):
            return "S-"
        else:
            return i


def _successor(x: Program, i: int, reply: bool):
    u = x.at(i)
    skip = (isinstance(u, PosTest) and not reply) or (isinstance(u, NegTest) and reply)
    return _resolve(x, i + 1 + skip)


def halts(x: Program, first: bool, later: bool) -> bool:
    i = _resolve(x, 1)
    reply = first
    seen: set[tuple[int, bool]] = set()
    while isinstance(i, int):
        if (i, reply) in seen:
            return False
        seen.add((i, reply))
        i = _successor(x, i, reply)
        reply = later
    return i != "D"


def extract(x: Program) -> RegularThread:
    root = _resolve(x, 1)
    nodes = {}
    todo = [root]
    while todo:
        ref = todo.pop()
        if ref in nodes:
            continue
        if isinstance(ref, str):
            nodes[ref] = _TERMINAL_IDS[ref]
            continue
        node = PostCond(x.at(ref).action, _successor(x, ref, True), _successor(x, ref, False))
        nodes[ref] = node
        todo += [node.then_ref, node.else_ref]
    return RegularThread(nodes, root)
