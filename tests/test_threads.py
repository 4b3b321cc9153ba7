import copy
import pickle
import random
from typing import get_args

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import random_thread, st_program, unrolled
from seqhalt.program import (
    TERM_FALSE,
    TERM_TRUE,
    BasicInstruction,
    BwdJump,
    FwdJump,
    InputError,
    Instruction,
    NegTest,
    Plain,
    PosTest,
    Program,
    enumerate_programs,
    foreign_action,
    parse,
)
from seqhalt.threads import (
    DEADLOCK,
    PostCond,
    RegularThread,
    STOP_FALSE,
    STOP_TRUE,
    TAU,
    TreeNode,
    _halts,
    bisimilar,
    constant_thread,
    extract,
    project,
    projections_agree,
)

FM = BasicInstruction("f", "m")


def node(t, ref):
    return t.nodes[ref]


class TestExtractionRows:
    def test_out_of_range_is_deadlock(self):
        assert extract(parse("#9")).nodes["D"] is DEADLOCK
        assert extract(parse("#9")).root == "D"

    def test_plain_continues_on_both_replies(self):
        t = extract(parse("f.m;!t"))
        assert node(t, t.root) == PostCond(FM, "S+", "S+")

    def test_positive_test_branches(self):
        t = extract(parse("+f.m;!t;!f"))
        assert node(t, t.root) == PostCond(FM, "S+", "S-")

    def test_negative_test_swaps_branches(self):
        t = extract(parse("-f.m;!t;!f"))
        assert node(t, t.root) == PostCond(FM, "S-", "S+")

    def test_forward_jump_is_transparent(self):
        assert extract(parse("#2;!t;!f")).root == "S-"

    def test_backward_jump_uses_truncated_subtraction(self):
        # 1-2 truncates to 0, outside the program: deadlock
        assert extract(parse("\\#2;!t")).root == "D"
        t = extract(parse("!t;#0;\\#2"))
        assert t.root == "S+"

    def test_terminators(self):
        assert extract(parse("!t")).root == "S+"
        assert extract(parse("!f")).root == "S-"

    def test_jump_zero_deadlocks(self):
        assert extract(parse("#0")).root == "D"
        assert extract(parse("\\#0")).root == "D"

    def test_jump_chain_cycle_deadlocks(self):
        assert extract(parse("#2;!t;\\#2")).root == "D"
        assert extract(parse("#1;#1;\\#2")).root == "D"

    def test_unreachable_instruction_dropped(self):
        t = extract(parse("!t;!f"))
        assert t.root == "S+" and "S-" not in t.nodes

    def test_node_budget(self):
        for text in ("f.m;+f.m;-f.m;#2;!t;!f", "+f.m;\\#1;!f"):
            x = parse(text)
            assert len(extract(x).nodes) <= len(x) + 3


class TestProjection:
    def test_depth_zero_is_deadlock(self):
        assert project(0, constant_thread(STOP_TRUE)) is DEADLOCK
        assert project(0, extract(parse("f.m;!t"))) is DEADLOCK

    def test_terminals_are_fixed_points(self):
        assert project(3, constant_thread(STOP_FALSE)) is STOP_FALSE
        assert project(1, constant_thread(STOP_TRUE)) is STOP_TRUE
        assert project(5, constant_thread(DEADLOCK)) is DEADLOCK

    def test_single_unfolding(self):
        assert project(1, extract(parse("f.m;!t"))) == TreeNode(FM, DEADLOCK, DEADLOCK)

    def test_two_unfoldings(self):
        t = extract(parse("+f.m;!t;!f"))
        assert project(2, t) == TreeNode(FM, STOP_TRUE, STOP_FALSE)

    def test_negative_depth_rejected(self):
        t1, t2 = extract(parse("!t")), extract(parse("!f"))
        with pytest.raises(ValueError, match="depth must be a natural number"):
            project(-1, t1)
        with pytest.raises(ValueError, match="depth must be a natural number"):
            projections_agree(t1, t2, -1)
        # Only an exact int is a depth: not a float, and not a bool.
        for depth in (1.5, 1.0, True):
            with pytest.raises(ValueError, match="depth must be a natural number"):
                project(depth, t1)
            with pytest.raises(ValueError, match="depth must be a natural number"):
                projections_agree(t1, t1, depth)

    def test_non_thread_rejected(self):
        junk_branch = TreeNode(FM, "junk", STOP_TRUE)
        junk_action = TreeNode("junk", STOP_TRUE, STOP_TRUE)
        for depth, t in (
            (2, parse("!t")), (2, None), (0, None), (0, (STOP_TRUE,)), (1, junk_branch), (2, junk_branch),
            (1, junk_action), (2, junk_action), (2, TreeNode(FM, junk_action, STOP_TRUE)),
        ):
            with pytest.raises(InputError, match="^not a thread: "):
                project(depth, t)

    def test_tau_normalised(self):
        regular = RegularThread({0: PostCond(TAU, 1, 2), 1: STOP_TRUE, 2: STOP_FALSE}, 0)
        for t in (regular, TreeNode(TAU, STOP_TRUE, STOP_FALSE)):
            tree = project(2, t)
            assert tree.then_branch == tree.else_branch == STOP_TRUE

    @given(st.integers(0, 4), st.integers(0, 4), st_program(max_size=4))
    def test_projection_composition(self, n, m, x):
        t = extract(x)
        assert project(n, project(m, t)) == project(min(n, m), t)

    def test_deep_projection(self):
        # Far past the interpreter's recursion limit, for a regular thread
        # and for a tree; walked in a loop, since == on so deep a tree
        # would recurse.
        t = extract(parse("f.dup;\\#1"))
        for tree in (project(3000, t), project(3000, project(3000, t))):
            assert isinstance(tree, TreeNode)
            depth = 0
            while isinstance(tree, TreeNode):
                tree, depth = tree.then_branch, depth + 1
            assert (depth, tree) == (3000, DEADLOCK)

    def test_tree_projection_keeps_sharing(self):
        # Both branches of the tau-free loop lead back to its one node, so
        # the tree has 2**40 paths; cut per path, it would never finish.
        tree = project(40, project(40, extract(parse("+f.dup;\\#1;\\#2"))))
        depth = 0
        while isinstance(tree, TreeNode):
            assert tree.then_branch is tree.else_branch
            tree, depth = tree.else_branch, depth + 1
        assert (depth, tree) == (40, DEADLOCK)


class TestBisimilarity:
    def test_unreachable_tail_ignored(self):
        assert bisimilar(extract(parse("!t;!f")), extract(parse("!t")))

    def test_distinct_terminals(self):
        assert not bisimilar(constant_thread(DEADLOCK), constant_thread(STOP_TRUE))
        assert not bisimilar(constant_thread(STOP_TRUE), constant_thread(STOP_FALSE))

    def test_loop_against_unrolling(self):
        one = RegularThread({0: PostCond(FM, 0, 0)}, 0)
        two = RegularThread({0: PostCond(FM, 1, 1), 1: PostCond(FM, 0, 0)}, 0)
        assert bisimilar(one, two)

    def test_tau_else_branch_is_irrelevant(self):
        p = constant_thread(STOP_TRUE)
        q = constant_thread(STOP_FALSE)
        with_q = RegularThread({0: PostCond(TAU, 1, 2), 1: STOP_TRUE, 2: STOP_FALSE}, 0)
        with_p = RegularThread({0: PostCond(TAU, 1, 1), 1: STOP_TRUE}, 0)
        assert bisimilar(with_q, with_p)
        assert not bisimilar(p, q)

    def test_action_mismatch(self):
        a = RegularThread({0: PostCond(FM, 1, 1), 1: STOP_TRUE}, 0)
        b = RegularThread({0: PostCond(BasicInstruction("f", "n"), 1, 1), 1: STOP_TRUE}, 0)
        assert not bisimilar(a, b)

    def test_matches_projection_agreement(self):
        rng = random.Random(7)
        for trial in range(150):
            t1 = random_thread(rng)
            t2 = unrolled(t1) if trial % 3 == 0 else random_thread(rng)
            depth = 2 * max(len(t1.nodes), len(t2.nodes))
            assert bisimilar(t1, t2) == projections_agree(t1, t2, depth)

    def test_deep_projections_agree(self):
        t = extract(parse("f.dup;\\#1"))
        assert projections_agree(t, t, 3000)
        assert projections_agree(t, extract(parse("f.dup;f.dup;\\#2")), 3000)
        assert not projections_agree(t, extract(parse("f.dup;!t")), 3000)

    def test_first_disagreement_depth(self):
        t1 = extract(parse("f.dup;f.dup;!t"))
        t2 = extract(parse("f.dup;f.dup;!f"))
        assert projections_agree(t1, t2, 2)
        assert not projections_agree(t1, t2, 3)

    def test_projections_agree_matches_materialised_trees(self):
        rng = random.Random(11)
        for _ in range(40):
            t1, t2 = random_thread(rng, 4), random_thread(rng, 4)
            for depth in range(5):
                assert projections_agree(t1, t2, depth) == (
                    project(depth, t1) == project(depth, t2)
                )
            # Threads with m and n nodes that agree to depth m + n agree
            # at every depth.
            depth = len(t1.nodes) + len(t2.nodes)
            assert bisimilar(t1, t2) == (project(depth, t1) == project(depth, t2))


def test_closed_system_enforced():
    with pytest.raises(ValueError):
        RegularThread({0: PostCond(FM, 0, 99)}, 0)
    with pytest.raises(ValueError):
        RegularThread({0: STOP_TRUE}, 1)


@pytest.mark.parametrize(
    "nodes",
    [
        {0: "S+"},  # a node id, not a node
        {0: "x"},
        {0: ("f.m", 0, 0)},  # a bare tuple, not a PostCond
        {0: PostCond("f.m", 0, 0)},  # an action written as text
        {0: PostCond(Plain(FM), 0, 0)},  # an instruction, not its action
    ],
    ids=["node-id", "text", "bare-tuple", "text-action", "instruction-action"],
)
def test_only_thread_nodes_admitted(nodes):
    # Every reader of a thread dispatches on the exact node and action
    # types, so a thread holding anything else is rejected when built.
    # Unchecked, run took {0: "S+"} for a proven DEADLOCK, bisimilar took
    # {0: "x"} and {0: "y"} for equal, and run on the text action raised
    # AttributeError.
    with pytest.raises(InputError):
        RegularThread(nodes, 0)


class TestPostCond:
    def test_public_surface(self):
        node = PostCond(FM, "S+", 2)
        assert repr(node) == "PostCond(action=BasicInstruction(focus='f', method='m'), then_ref='S+', else_ref=2)"
        assert (node.action, node.then_ref, node.else_ref) == (FM, "S+", 2)
        assert PostCond(action=FM, then_ref="S+", else_ref=2) == node
        assert PostCond(FM, else_ref=2, then_ref="S+") == node
        for name in ("action", "then_ref", "else_ref"):
            with pytest.raises(AttributeError):
                setattr(node, name, 0)
        assert not hasattr(node, "__dict__")

    def test_equals_the_bare_tuple(self):
        node = PostCond(FM, "S+", 2)
        assert node == (FM, "S+", 2) and hash(node) == hash((FM, "S+", 2))
        assert node != PostCond(FM, 2, "S+") and node != PostCond(TAU, "S+", 2)

    def test_copies_and_pickles_as_postconds(self):
        node = PostCond(FM, "S+", 2)
        for clone in (copy.copy(node), copy.deepcopy(node), pickle.loads(pickle.dumps(node))):
            assert type(clone) is PostCond and clone == node

    @pytest.mark.parametrize("methods", [{"dup"}, {"m", "n"}], ids=["dup", "m-n"])
    def test_extract_passes_the_checked_constructor(self, methods):
        # extract builds its thread without RegularThread's check; the
        # check admits every thread it builds, unchanged.
        for x in enumerate_programs(methods, 3):
            t = extract(x)
            checked = RegularThread(dict(t.nodes), t.root)
            assert type(t) is RegularThread and t == checked, x


class TestRegularThread:
    THREAD = RegularThread({1: PostCond(FM, "S+", "D"), "S+": STOP_TRUE, "D": DEADLOCK}, 1)

    def test_repr(self):
        assert repr(self.THREAD) == (
            "RegularThread(nodes={1: PostCond(action=BasicInstruction(focus='f', method='m'), "
            "then_ref='S+', else_ref='D'), 'S+': StopTrue(), 'D': Deadlock()}, root=1)"
        )

    def test_copies_and_pickles_as_threads(self):
        t = self.THREAD
        for clone in (copy.copy(t), copy.deepcopy(t), pickle.loads(pickle.dumps(t))):
            assert type(clone) is RegularThread and clone == t

    def test_make_and_replace_check(self):
        with pytest.raises(InputError, match="^root 'x' is not a node$"):
            self.THREAD._replace(root="x")
        with pytest.raises(InputError, match="^node 0 is not a thread node: 'S\\+'$"):
            RegularThread._make(({0: "S+"}, 0))
        # An unhashable reference names no node.
        with pytest.raises(InputError, match="^root \\[\\] is not a node$"):
            RegularThread({}, [])
        for node in (PostCond(FM, [], 0), PostCond(FM, 0, {})):
            with pytest.raises(InputError, match="^node 0 references missing (\\[\\]|\\{\\})$"):
                RegularThread({0: node}, 0)
        for nodes, root in (([0], 0), ("ab", "a")):
            with pytest.raises(InputError, match="^nodes must be a mapping, not "):
                RegularThread(nodes, root)
        assert RegularThread._make((self.THREAD.nodes, 1)) == self.THREAD

    def test_equals_the_bare_tuple_and_does_not_hash(self):
        t = self.THREAD
        assert t == (t.nodes, t.root)
        with pytest.raises(TypeError):
            hash(t)


# One instance of every instruction type, placed before !t, with what the
# walk answers for a first reply of True and of False.
DISPATCH = [
    (Plain(FM), True, True),
    (PosTest(FM), True, False),
    (NegTest(FM), False, True),
    (FwdJump(1), True, True),
    (BwdJump(1), False, False),
    (TERM_TRUE, True, True),
    (TERM_FALSE, True, True),
]


def test_dispatch_covers_every_instruction_type():
    assert {type(u) for u, _, _ in DISPATCH} == set(get_args(Instruction))


@pytest.mark.parametrize("u, on_true, on_false", DISPATCH, ids=[type(u).__name__ for u, _, _ in DISPATCH])
def test_halts_and_foreign_action_dispatch(u, on_true, on_false):
    x = Program((u, TERM_TRUE))
    assert _halts(x, True, False) is on_true
    assert _halts(x, False, True) is on_false
    action = getattr(u, "action", None)
    assert foreign_action(x, ()) is action
    assert foreign_action(x, ("m",)) is None
