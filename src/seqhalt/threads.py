"""Regular threads: the behaviours programs exhibit under execution.

A thread performs basic actions one at a time; after each action the
environment's boolean reply selects how it continues.  The constants are
deadlock (D), termination with True (S+) and termination with False (S-);
the one composite form is the postconditional node ``x <| a |> y``:
perform ``a``, continue as ``x`` on reply True and as ``y`` on False.
The internal action tau always receives reply True, so a tau node's else
branch is semantically identified with its then branch.

``extract`` turns a program into its behaviour graph by resolving jumps
transparently: a position outside the program, a 0-jump, or a cyclic jump
chain all yield deadlock.  ``project`` cuts a thread off after a given
number of actions; two regular threads are equal exactly when all finite
projections agree.  ``bisimilar`` and ``projections_agree`` both read
the first depth at which the projections differ off one breadth-first
walk over the node pairs reached in lockstep from the two roots.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Union

from .program import (
    BasicInstruction,
    BwdJump,
    FwdJump,
    InputError,
    NegTest,
    PosTest,
    Program,
    TermFalse,
    TermTrue,
)


@dataclass(frozen=True)
class Tau:
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


@dataclass(frozen=True)
class PostCond:
    action: Action
    then_ref: NodeId
    else_ref: NodeId


ThreadNode = Union[Deadlock, StopTrue, StopFalse, PostCond]


@dataclass(frozen=True)
class RegularThread:
    """A finite, closed system of thread equations with a root node."""

    nodes: Mapping[NodeId, ThreadNode]
    root: NodeId

    def __post_init__(self):
        if self.root not in self.nodes:
            raise InputError(f"root {self.root!r} is not a node")
        for ref, node in self.nodes.items():
            if isinstance(node, PostCond):
                for target in (node.then_ref, node.else_ref):
                    if target not in self.nodes:
                        raise InputError(f"node {ref!r} references missing {target!r}")


def constant_thread(node: ThreadNode) -> RegularThread:
    """The one-node thread D, S+ or S-."""
    return RegularThread({str(node): node}, str(node))


_TERMINAL_IDS = {"D": DEADLOCK, "S+": STOP_TRUE, "S-": STOP_FALSE}


def _resolve(x: Program, i: int) -> NodeId:
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


def _successor(x: Program, i: int, reply: bool) -> NodeId:
    """Where execution goes after the basic instruction at position i gets
    this reply: the next position, or the one after it when a test's
    reply says skip (False for +f.m, True for -f.m), with jumps chased."""
    u = x.at(i)
    skip = (isinstance(u, PosTest) and not reply) or (isinstance(u, NegTest) and reply)
    return _resolve(x, i + 1 + skip)


def _halts(x: Program, first: bool, later: bool) -> bool:
    """Whether x converges when the first basic instruction executed
    replies ``first`` and every later one replies ``later``.

    Execution is a walk over positions: from position 1 follow the
    successor each reply selects.  Each step depends only on its
    (position, reply) pair and every reply after the first is
    ``later``, so a repeated pair means divergence; the walk converges
    exactly when it ends on !t or !f rather than on a deadlock.
    """
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
    """Behaviour graph of a program: one node per reachable basic
    instruction plus the terminals it reaches."""
    root = _resolve(x, 1)
    nodes: dict[NodeId, ThreadNode] = {}
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


@dataclass(frozen=True)
class TreeNode:
    action: Action
    then_branch: "FiniteThread"
    else_branch: "FiniteThread"


FiniteThread = Union[Deadlock, StopTrue, StopFalse, TreeNode]


def project(depth: int, t: RegularThread | FiniteThread) -> FiniteThread:
    """The depth-n approximation: cut off after n actions.

    Depth 0 is deadlock; terminals are fixed points; a postconditional
    takes the depth-(n-1) projections of its branches (tau nodes are
    normalised so the else branch equals the then branch).
    """
    if depth < 0:
        raise InputError("depth must be a natural number")
    if isinstance(t, RegularThread):
        # One depth at a time over all nodes: no recursion, whatever the
        # depth, and every node's subtree is built once and shared.
        level: dict[NodeId, FiniteThread] = dict.fromkeys(t.nodes, DEADLOCK)
        for _ in range(depth):
            level = {
                ref: TreeNode(node.action, *(level[r] for r in _normalised_refs(node)))
                if isinstance(node, PostCond)
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
        if n == 0 or not isinstance(node, TreeNode):
            cut[id(node), n] = node if n else DEADLOCK
            continue
        then_branch = node.then_branch
        branches = (then_branch, then_branch if isinstance(node.action, Tau) else node.else_branch)
        missing = {id(b): (b, n - 1) for b in branches if (id(b), n - 1) not in cut}
        if missing:
            todo += [(node, n), *missing.values()]
        else:
            cut[id(node), n] = TreeNode(node.action, *(cut[id(b), n - 1] for b in branches))
    return cut[id(t), depth]


def _normalised_refs(node: PostCond) -> tuple[NodeId, NodeId]:
    if isinstance(node.action, Tau):
        return node.then_ref, node.then_ref
    return node.then_ref, node.else_ref


def bisimilar(t1: RegularThread, t2: RegularThread) -> bool:
    """Behavioural equality of two regular threads (tau-normalised): all
    their finite projections agree."""
    return _first_disagreement(t1, t2) is None


def projections_agree(t1: RegularThread, t2: RegularThread, depth: int) -> bool:
    """Whether project(n, t1) == project(n, t2) for every n <= depth.

    Computed without materialising the trees (they grow exponentially).
    """
    if depth < 0:
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
    level = [(t1.root, t2.root)]
    seen = set(level)
    depth = 1
    while level:
        reached = []
        for ref1, ref2 in level:
            n1, n2 = t1.nodes[ref1], t2.nodes[ref2]
            if not isinstance(n1, PostCond) or not isinstance(n2, PostCond):
                if type(n1) is not type(n2):
                    return depth
            elif n1.action != n2.action:
                return depth
            else:
                for pair in zip(_normalised_refs(n1), _normalised_refs(n2)):
                    if pair not in seen:
                        seen.add(pair)
                        reached.append(pair)
        level = reached
        depth += 1
    return None
