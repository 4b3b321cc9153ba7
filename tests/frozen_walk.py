"""A frozen copy of the original fixed-reply walk, the reference for the
differential tests of ``threads._halts``.

It chases jumps with a separate ``_resolve`` and picks each successor
with ``_successor``, keeping (position, reply) pairs of basic
instructions only.  Do not speed it up: its value is that it stays as it
was written.
"""

from __future__ import annotations

from seqhalt.program import BwdJump, FwdJump, NegTest, PosTest, Program, TermFalse, TermTrue


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
