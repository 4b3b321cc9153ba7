"""Regular threads: the behaviours programs exhibit under execution.

A thread performs basic actions one at a time, and the reply to each
selects how it goes on (``PostCond``), until it terminates with True or
False or deadlocks.  ``extract`` gives a program's thread, ``project``
its finite approximations, and ``bisimilar`` tells whether two threads
behave alike.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass
from functools import partial
from types import MappingProxyType
from typing import Mapping, NamedTuple, Union

from .program import (
    BasicInstruction,
    BwdJump,
    FwdJump,
    InputError,
    NegTest,
    Plain,
    PosTest,
    Program,
    TermFalse,
    TermTrue,
)


@dataclass(frozen=True)
class Tau:
    """The internal action.  Its reply is always True, so a tau node's
    else branch counts as its then branch."""

    def __str__(self) -> str:
        return "tau"


TAU = Tau()

Action = Union[BasicInstruction, Tau]

NodeId = Union[int, str]


@dataclass(frozen=True)
class Deadlock:
    def __str__(self) -> str:
        return "D"


@dataclass(frozen=True)
class StopTrue:
    def __str__(self) -> str:
        return "S+"


@dataclass(frozen=True)
class StopFalse:
    def __str__(self) -> str:
        return "S-"


DEADLOCK = Deadlock()
STOP_TRUE = StopTrue()
STOP_FALSE = StopFalse()


class PostCond(NamedTuple):
    """The postconditional node ``x <| a |> y``, as the tuple ``(action,
    then_ref, else_ref)``: perform ``a``, then go on as ``x`` on the reply
    True and as ``y`` on False.  It equals and hashes like the bare tuple."""

    action: Action
    then_ref: NodeId
    else_ref: NodeId


# A ``PostCond`` from its ``(action, then_ref, else_ref)`` triple.
_postcond = partial(tuple.__new__, PostCond)

ThreadNode = Union[Deadlock, StopTrue, StopFalse, PostCond]

_TERMINAL_TYPES = (Deadlock, StopTrue, StopFalse)
_ACTION_TYPES = (BasicInstruction, Tau)


class RegularThread(namedtuple("RegularThread", "nodes root")):
    """A finite, closed system of thread equations with a root node, as
    the tuple ``(nodes, root)``, which it equals; ``hash`` raises
    ``TypeError``.  It keeps a checked ``dict`` copy of ``nodes``, any
    ``collections.abc.Mapping``: each node's exact type is ``PostCond``
    or a terminal type, each ``PostCond`` action's is
    ``BasicInstruction`` or ``Tau``, and each reference is a node.
    ``nodes`` is a read-only view of that copy (``types.MappingProxyType``),
    so a thread never changes once built; ``machine.run`` relies on it.
    ``repr``, ``copy`` and ``pickle`` show and carry the copy as a ``dict``."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # and so _replace: both check

    def __repr__(self) -> str:
        return f"{type(self).__name__}(nodes={self.nodes.copy()!r}, root={self.root!r})"

    def __getnewargs__(self) -> tuple:
        return self.nodes.copy(), self.root

    def __new__(cls, nodes: Mapping[NodeId, ThreadNode], root: NodeId) -> RegularThread:
        if not isinstance(nodes, Mapping):
            raise InputError(f"nodes must be a mapping, not {type(nodes).__name__}")
        nodes = dict(nodes.items())
        if not _is_node(root, nodes):
            raise InputError(f"root {root!r} is not a node")
        for ref, node in nodes.items():
            kind = type(node)
            if kind is PostCond:
                action, then_ref, else_ref = node
                if type(action) not in _ACTION_TYPES:
                    raise InputError(f"node {ref!r} acts by {action!r}, not a basic instruction or tau")
                for target in (then_ref, else_ref):
                    if not _is_node(target, nodes):
                        raise InputError(f"node {ref!r} references missing {target!r}")
            elif kind not in _TERMINAL_TYPES:
                raise InputError(f"node {ref!r} is not a thread node: {node!r}")
        return tuple.__new__(cls, (MappingProxyType(nodes), root))


def _is_node(ref: NodeId, nodes: Mapping[NodeId, ThreadNode]) -> bool:
    try:
        return ref in nodes
    except TypeError:  # an unhashable ref names no node
        return False


def _thread(nodes: dict[NodeId, ThreadNode], root: NodeId) -> RegularThread:
    """A ``RegularThread`` without the check or the copy, for a table of
    ``_node``'s nodes that holds the root and every reference they make,
    which the caller does not change afterwards (``TRUSTED`` in
    ``tests/test_imports.py``): each node is a terminal or a
    ``PostCond`` of an instruction's action, which the instruction's
    constructor has checked.  Its ``nodes`` is the same read-only view."""
    return tuple.__new__(RegularThread, (MappingProxyType(nodes), root))


def constant_thread(node: ThreadNode) -> RegularThread:
    """The one-node thread D, S+ or S-."""
    return RegularThread({str(node): node}, str(node))


_TERMINAL_IDS = {"D": DEADLOCK, "S+": STOP_TRUE, "S-": STOP_FALSE}


def _resolve(x: Program, i: int) -> NodeId:
    """Chase jumps from position i to a basic instruction's position, or
    to "S+" or "S-" at a terminal; a position outside the program, a
    0-jump or a cycle of jumps gives "D", deadlock."""
    instructions = x.instructions
    k = len(instructions)
    seen = None  # the jumps chased (only they can repeat), a set from the first
    while 1 <= i <= k:
        u = instructions[i - 1]
        kind = type(u)
        if kind is FwdJump or kind is BwdJump:
            if seen is None:
                seen = set()
            elif i in seen:
                break
            seen.add(i)
            i += u.offset if kind is FwdJump else -u.offset
        elif kind is TermTrue:
            return "S+"
        elif kind is TermFalse:
            return "S-"
        else:
            return i
    return "D"


def _halts(x: Program, first: bool, later: bool) -> bool:
    """Whether x converges when the first basic instruction executed
    replies ``first`` and every later one replies ``later``.

    Execution is a walk whose state is a position and the reply pending
    for the next basic instruction, which ``later`` then replaces.  Each
    step depends only on the state, so a repeated state means divergence,
    or deadlock on a cycle of jumps: neither converges, so one set of
    states serves both.  The walk converges exactly when it reaches !t or
    !f; leaving positions 1..k deadlocks.  Its one loop does both the
    jump chase and the successor rule, and shares neither with ``_node``.
    """
    instructions = x.instructions
    k = len(instructions)
    i = 1
    reply = first
    # A state (i, reply) is the key i when the reply is True, -i if not.
    seen: set[int] = set()
    while 1 <= i <= k:
        key = i if reply else -i
        if key in seen:
            return False
        seen.add(key)
        u = instructions[i - 1]
        kind = type(u)
        if kind is Plain:
            i += 1
            reply = later
        elif kind is PosTest:
            i += 1 if reply else 2
            reply = later
        elif kind is NegTest:
            i += 2 if reply else 1
            reply = later
        elif kind is FwdJump:
            i += u.offset
        elif kind is BwdJump:
            i -= u.offset
        else:  # TermTrue or TermFalse: a Program holds instructions only.
            return True
    return False


def _node(x: Program, ref: NodeId) -> ThreadNode:
    """The node at ``ref``, a terminal id or a position ``_resolve`` gave,
    by the one successor rule: from position i, +f.m goes near (i + 1,
    jumps chased) on True and far (i + 2) on False, -f.m the other way
    round, f.m near on either."""
    if type(ref) is str:
        return _TERMINAL_IDS[ref]
    u = x.instructions[ref - 1]  # a basic instruction: _resolve stops only there
    kind = type(u)
    then_ref = else_ref = _resolve(x, ref + 1)
    if kind is PosTest:
        else_ref = _resolve(x, ref + 2)
    elif kind is NegTest:
        then_ref = _resolve(x, ref + 2)
    return _postcond((u.action, then_ref, else_ref))


def extract(x: Program) -> RegularThread:
    """Behaviour graph of a program: the ``_node`` of each id it reaches."""
    root = _resolve(x, 1)
    nodes: dict[NodeId, ThreadNode] = {}
    todo = [root]
    while todo:
        ref = todo.pop()
        if ref not in nodes:
            node = nodes[ref] = _node(x, ref)
            todo += node[1:] if type(node) is PostCond else ()
    return _thread(nodes, root)


@dataclass(frozen=True)
class TreeNode:
    action: Action
    then_branch: "FiniteThread"
    else_branch: "FiniteThread"


FiniteThread = Union[Deadlock, StopTrue, StopFalse, TreeNode]


def project(depth: int, t: RegularThread | FiniteThread) -> FiniteThread:
    """The depth-n approximation: cut off after n actions.  Depth 0 is
    deadlock, terminals are fixed points, and a postconditional takes the
    depth-(n-1) projections of its branches (a tau node's both its then
    branch, see ``Tau``)."""
    if type(depth) is not int or depth < 0:
        raise InputError("depth must be a natural number")
    if type(t) is RegularThread:
        # One depth at a time over all nodes: no recursion, whatever the
        # depth, and every node's subtree is built once and shared.
        level: dict[NodeId, FiniteThread] = dict.fromkeys(t.nodes, DEADLOCK)
        for _ in range(depth):
            level = {
                ref: TreeNode(node.action, *(level[r] for r in _normalised_refs(node)))
                if type(node) is PostCond
                else node
                for ref, node in t.nodes.items()
            }
        return level[t.root]

    # An explicit stack: no recursion, whatever the depth.  A node goes
    # back under its uncut branches, so children are cut before parents,
    # and each (subtree, depth) pair once, so shared subtrees stay shared
    # (identities are stable: every subtree stays reachable from t).
    cut: dict[tuple[int, int], FiniteThread] = {}
    todo = [(t, depth)]
    while todo:
        node, n = todo.pop()
        kind = type(node)
        if kind not in _TERMINAL_TYPES and (kind is not TreeNode or type(node.action) not in _ACTION_TYPES):
            raise InputError(f"not a thread: {node!r}")
        if n == 0 or kind is not TreeNode:
            cut[id(node), n] = node if n else DEADLOCK
            continue
        then_branch = node.then_branch
        branches = (then_branch, then_branch if type(node.action) is Tau else node.else_branch)
        missing = {id(b): (b, n - 1) for b in branches if (id(b), n - 1) not in cut}
        if missing:
            todo += [(node, n), *missing.values()]
        else:
            cut[id(node), n] = TreeNode(node.action, *(cut[id(b), n - 1] for b in branches))
    return cut[id(t), depth]


def _normalised_refs(node: PostCond) -> tuple[NodeId, NodeId]:
    action, then_ref, else_ref = node
    return (then_ref, then_ref) if type(action) is Tau else (then_ref, else_ref)


def bisimilar(t1: RegularThread, t2: RegularThread) -> bool:
    """Whether all finite projections of t1 and t2 agree: two regular
    threads are equal exactly then."""
    return _first_disagreement(t1, t2) is None


def projections_agree(t1: RegularThread, t2: RegularThread, depth: int) -> bool:
    """Whether project(n, t1) == project(n, t2) for every n <= depth.

    Computed without materialising the trees (they grow exponentially).
    """
    if type(depth) is not int or depth < 0:
        raise InputError("depth must be a natural number")
    first = _first_disagreement(t1, t2)
    return first is None or first > depth


def _first_disagreement(t1: RegularThread, t2: RegularThread) -> int | None:
    """The least depth at which the projections of t1 and t2 differ, or
    None if they agree at every depth.

    A breadth-first walk over the node pairs reached in lockstep from the
    roots, each visited once (Hopcroft and Karp's pair walk).  A pair first
    reached after k actions whose two nodes differ on their own (distinct
    terminals, a terminal against a postconditional, or distinct actions)
    makes the projections differ from depth k + 1 on; pairs of agreeing
    nodes only pass the question on to their branch pairs.
    """
    nodes1, nodes2 = t1.nodes, t2.nodes
    level = [(t1.root, t2.root)]
    seen = set(level)
    depth = 1
    while level:
        reached = []
        for ref1, ref2 in level:
            n1, n2 = nodes1[ref1], nodes2[ref2]
            kind = type(n1)
            if kind is not type(n2):
                return depth
            if kind is PostCond:
                action, then1, else1 = n1
                action2, then2, else2 = n2
                if action != action2:
                    return depth
                # Equal actions: both tau or neither.
                if type(action) is Tau:
                    else1, else2 = then1, then2
                for pair in ((then1, then2), (else1, else2)):
                    if pair not in seen:
                        seen.add(pair)
                        reached.append(pair)
        level = reached
        depth += 1
    return None
