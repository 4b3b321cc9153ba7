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
projections agree, which ``bisimilar`` decides by partition refinement.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Union

from .program import (
    BasicInstruction,
    BwdJump,
    FwdJump,
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
            raise ValueError(f"root {self.root!r} is not a node")
        for ref, node in self.nodes.items():
            if isinstance(node, PostCond):
                for target in (node.then_ref, node.else_ref):
                    if target not in self.nodes:
                        raise ValueError(f"node {ref!r} references missing {target!r}")


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
        raise ValueError("depth must be a natural number")
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
    """Behavioural equality of two regular threads (tau-normalised)."""
    nodes: dict[tuple[str, NodeId], ThreadNode] = {}
    for tag, t in (("a", t1), ("b", t2)):
        for ref, node in t.nodes.items():
            nodes[(tag, ref)] = node

    def base(node: ThreadNode):
        if isinstance(node, PostCond):
            return ("post", node.action)
        return (str(node),)

    block = _canonical({key: base(node) for key, node in nodes.items()})
    while True:
        signature = {}
        for key, node in nodes.items():
            if isinstance(node, PostCond):
                tag = key[0]
                then_ref, else_ref = _normalised_refs(node)
                signature[key] = (block[key], block[(tag, then_ref)], block[(tag, else_ref)])
            else:
                signature[key] = (block[key],)
        refined = _canonical(signature)
        if refined == block:
            return block[("a", t1.root)] == block[("b", t2.root)]
        block = refined


def _canonical(signature: dict) -> dict:
    numbering: dict = {}
    out = {}
    for key in sorted(signature, key=str):
        sig = signature[key]
        if sig not in numbering:
            numbering[sig] = len(numbering)
        out[key] = numbering[sig]
    return out


def projections_agree(t1: RegularThread, t2: RegularThread, depth: int) -> bool:
    """Whether project(n, t1) == project(n, t2) for every n <= depth.

    Computed without materialising the trees (they grow exponentially);
    agreement at the maximal depth implies agreement at all smaller ones.
    """
    # The node pairs reachable in lockstep from the roots, each with its
    # branch pairs, or None when the two nodes differ on their own.
    branches: dict[tuple[NodeId, NodeId], list | None] = {}
    todo = [(t1.root, t2.root)]
    while todo:
        pair = todo.pop()
        if pair in branches:
            continue
        n1, n2 = t1.nodes[pair[0]], t2.nodes[pair[1]]
        if not isinstance(n1, PostCond) or not isinstance(n2, PostCond):
            branches[pair] = [] if type(n1) is type(n2) else None
        elif n1.action == n2.action:
            branches[pair] = list(zip(_normalised_refs(n1), _normalised_refs(n2)))
            todo += branches[pair]
        else:
            branches[pair] = None
    # Agreement of every pair at depth 0, then one depth at a time.
    agree = dict.fromkeys(branches, True)
    for _ in range(depth):
        agree = {p: bs is not None and all(agree[b] for b in bs) for p, bs in branches.items()}
    return agree[(t1.root, t2.root)]
