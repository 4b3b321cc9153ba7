"""Executes a program's behaviour against a service family.

Each step performs the current node's action on the service named by its
focus and follows the branch the reply selects.  Termination yields the
delivered boolean and the final family.  Divergence is reported only
when proven: deadlock, a missing focus, a Divergent reply, or a repeated
configuration.  One step loop serves both evaluators; they differ only
in the configuration key.  A run never changes which unit a focus holds
(a Divergent reply ends it), so the loop keeps only each unit's state.
``run`` keys on the node plus those unit states, so loops that keep
growing a state exhaust their fuel instead: the evaluator never claims
a divergence it cannot prove.  It keeps only an integer digest of each
configuration, so its memory does not grow with the size of the states
it has passed.  A digest seen before is only a candidate: the run is
replayed from its start to find an equal configuration, so a digest
collision costs time, never an answer.  A run that ends is one that
never repeated a configuration, since the loop is deterministic, so an
untraced ``run`` first takes up to ``_PREFIX`` steps keying nothing: if
the run ends within them, that is its outcome.  Otherwise, or when a
checkpoint saved at each power-of-two step repeats, which stops a short
cycle early, the run starts again keyed, so the cycle step and the
FUEL/CYCLE boundary stay exact.  A traced run is keyed from step 0.
``run_total`` keys on the node only, which is sound when every reply
involved has a declared state-independent value: each node then has a
fixed successor, so revisiting one closes an infinite loop.

A tau action is stepped like a basic one whose reply is always True,
without touching a service.  ``run`` reports each step, as it happens,
to an optional trace hook: one formatted line per step.

``derived_operation`` is the partial operation a program induces over a
unit: one ``run`` against the singleton family holding the unit.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Any, Callable, Mapping, Sequence, Union

from .program import FOCUS, BasicInstruction, InputError, Program, _Sentinel, foreign_action
from .services import (
    Reply,
    Service,
    ServiceFamily,
    UnitService,
    empty_family,
    format_family,
    singleton_family,
)
from .threads import PostCond, RegularThread, StopFalse, StopTrue, Tau, ThreadNode, extract
from .units import FunctionalUnit, interface

DEFAULT_FUEL = 10**6


class DivergenceCause(enum.Enum):
    DEADLOCK = "deadlock"
    MISSING_FOCUS = "missing-focus"
    REPLY_D = "reply-d"
    CYCLE = "cycle"

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True)
class Converged:
    reply: bool
    family: ServiceFamily
    steps: int


@dataclass(frozen=True)
class ProvenDivergent:
    cause: DivergenceCause
    steps: int


@dataclass(frozen=True)
class FuelExhausted:
    steps: int


Outcome = Union[Converged, ProvenDivergent, FuelExhausted]


def _as_thread(x: Program | RegularThread) -> RegularThread:
    return x if isinstance(x, RegularThread) else extract(x)


# What the step loop does on reaching a node, resolved once per run.  The
# first four kinds pass the configuration and fuel checks first; the last
# three end the run before them.
_STEP, _TAU, _MISSING_FOCUS, _REPLY_D, _STOP_TRUE, _STOP_FALSE, _DEADLOCK = range(7)


def _resolve_node(
    node: ThreadNode, entries: Mapping[str, Service], slots: Mapping[str, int]
) -> tuple:
    """``(kind, slot, step, then_ref, else_ref)`` of a node, given the
    family's entries and the slot of each focus that holds a unit."""
    if isinstance(node, PostCond):
        action = node.action
        if isinstance(action, Tau):
            return _TAU, None, None, node.then_ref, node.else_ref
        service = entries.get(action.focus)
        if service is None:
            return _MISSING_FOCUS, None, None, None, None
        step = service.unit.steps.get(action.method) if isinstance(service, UnitService) else None
        if step is None:
            return _REPLY_D, None, None, None, None
        return _STEP, slots[action.focus], step, node.then_ref, node.else_ref
    if isinstance(node, StopTrue):
        return _STOP_TRUE, None, None, None, None
    if isinstance(node, StopFalse):
        return _STOP_FALSE, None, None, None, None
    return _DEADLOCK, None, None, None, None


def _family(family: ServiceFamily, slots: Mapping[str, int], states: Sequence[Any]) -> ServiceFamily:
    """``family`` with each unit's state taken from its slot."""
    entries = dict(family.entries)
    for focus, slot in slots.items():
        entries[focus] = UnitService(entries[focus].unit, states[slot])
    return ServiceFamily(entries)


# What ``_step_loop`` keys a configuration on: the node alone
# (``run_total``), a digest of the node and the unit states (``run``), or
# nothing, in the unkeyed prefix of an untraced ``run``.
_NODE, _CONFIGURATION, _CHECKPOINT = range(3)

# The most steps an untraced ``run`` takes unkeyed before it starts again,
# keyed.  A run that ends within them never pays for a key; one that does
# not pays these steps twice.
_PREFIX = 1024

# The digest that ``run`` keys each configuration on.  Any function of the
# configuration will do, since a repeated digest is confirmed by replay.
_digest = hash


def _seen_before(
    resolved: Mapping[Any, tuple],
    root: Any,
    initial: Sequence[Any],
    steps: int,
    current: Any,
    now: Sequence[Any],
) -> bool:
    """Whether one of the first ``steps`` configurations of the run from
    ``root`` and the unit states ``initial`` is ``current`` with the
    unit states ``now``.

    Replays those steps over ``resolved``, which holds every node they
    visit, without hashing, tracing or a fuel check.
    """
    node, states = root, list(initial)
    for _ in range(steps):
        if node == current and states == now:
            return True
        kind, slot, step, then_ref, else_ref = resolved[node]
        if kind == _STEP:
            reply, states[slot] = step(states[slot])
        else:  # _TAU: every other kind ends the run before its step.
            reply = True
        node = then_ref if reply else else_ref
    return False


def _step_loop(
    thread: RegularThread,
    family: ServiceFamily,
    fuel: float,
    trace: Callable[[str], None] | None,
    key: int,
) -> Outcome | None:
    """The step loop of both evaluators.

    Each focus holding a unit gets a slot with that unit's state; the
    units stay fixed for the run, since a Divergent reply ends it.  A
    configuration is the node plus every slot's state under
    ``_CONFIGURATION`` and ``_CHECKPOINT``, the node alone under
    ``_NODE``.  Each visited node is resolved to its slot and step
    function once.

    Under ``_NODE`` and ``_CONFIGURATION`` a repeated configuration
    proves a cycle.  ``_CONFIGURATION`` keeps the digest of each
    configuration in ``seen``; a repeated digest is confirmed by
    replaying the run from its start: an equal earlier configuration
    proves the cycle, and none means the digests collided, so the run
    goes on and claims nothing.

    ``_CHECKPOINT`` keys nothing: it is the unkeyed prefix of an
    untraced ``run``, whose ``fuel`` is at most ``_PREFIX``.  It returns
    an outcome only when the run ends within that fuel, by termination,
    deadlock, a missing focus or a Divergent reply; none of those can
    follow a repeated configuration, so the keyed loop ends the same
    way.  It returns None, for ``run`` to start again keyed, when the
    fuel runs out or the configuration equals the one saved at the last
    power-of-two step.  That checkpoint (R. P. Brent, BIT 20, 1980)
    stops a short cycle long before ``_PREFIX``.
    """
    entries = family.entries
    slots: dict[str, int] = {}
    states: list[Any] = []
    for focus, service in entries.items():
        if isinstance(service, UnitService):
            slots[focus] = len(states)
            states.append(service.state)
    nodes = thread.nodes
    resolved: dict = {}
    current = thread.root
    checkpoint, keyed = key == _CHECKPOINT, key == _CONFIGURATION
    initial = list(states) if keyed else None
    steps = 0
    # Under _NODE, one node per step taken, so a step whose node was seen
    # before leaves the set's size at ``steps``.  Under _CONFIGURATION a
    # collision also leaves it there, so a repeat is tested by membership.
    seen: set = set()
    mark = marked = None
    next_mark = 1
    while True:
        entry = resolved.get(current)
        if entry is None:
            entry = resolved[current] = _resolve_node(nodes[current], entries, slots)
        kind, slot, step, then_ref, else_ref = entry
        if kind >= _STOP_TRUE:
            if kind == _DEADLOCK:
                return ProvenDivergent(DivergenceCause.DEADLOCK, steps)
            return Converged(kind == _STOP_TRUE, _family(family, slots, states), steps)
        if checkpoint:
            if current == mark and states == marked:
                return None
            if steps == next_mark:
                mark, marked, next_mark = current, list(states), 2 * next_mark
        elif keyed:
            digest = _digest((current, *states))
            if digest not in seen:
                seen.add(digest)
            elif _seen_before(resolved, thread.root, initial, steps, current, states):
                return ProvenDivergent(DivergenceCause.CYCLE, steps)
        else:
            seen.add(current)
            if len(seen) == steps:
                return ProvenDivergent(DivergenceCause.CYCLE, steps)
        if steps >= fuel:
            return None if checkpoint else FuelExhausted(steps)
        if kind == _STEP:
            reply, states[slot] = step(states[slot])
        elif kind == _TAU:
            reply = True
        elif kind == _MISSING_FOCUS:
            return ProvenDivergent(DivergenceCause.MISSING_FOCUS, steps)
        else:
            return ProvenDivergent(DivergenceCause.REPLY_D, steps)
        steps += 1
        if trace is not None:
            trace(
                f"pc={current} action={nodes[current].action} reply={Reply.from_bool(reply)} "
                f"state={format_family(_family(family, slots, states))}"
            )
        current = then_ref if reply else else_ref


def run(
    x: Program | RegularThread,
    family: ServiceFamily,
    fuel: int = DEFAULT_FUEL,
    trace: Callable[[str], None] | None = None,
) -> Outcome:
    """Small-step execution; deterministic and monotone in fuel.

    ``trace``, when given, is called once per step, in step order and
    before the next step runs, with the line
    ``pc=<node> action=<action> reply=<T|F> state=<family literal>``.
    A traced run keys its configurations from step 0, so its lines stop
    at the step that proves a cycle.  An untraced run first takes up to
    ``_PREFIX`` steps unkeyed, and starts again keyed only if it has not
    ended by then or its checkpoint repeats; it costs at most
    ``_PREFIX`` steps more than the keyed run alone.
    """
    if isinstance(fuel, bool) or not isinstance(fuel, int):
        raise InputError(f"fuel must be an integer: {fuel!r}")
    if fuel < 1:
        raise InputError("fuel must be at least 1")
    thread = _as_thread(x)
    if trace is None:
        # Not ``min``: most runs end within a few steps, and the call
        # showed in their cost.
        outcome = _step_loop(thread, family, fuel if fuel < _PREFIX else _PREFIX, None, _CHECKPOINT)
        if outcome is not None:
            return outcome
    return _step_loop(thread, family, fuel, trace, _CONFIGURATION)


def run_total(x: Program | RegularThread, family: ServiceFamily) -> Outcome:
    """Run to a definite outcome when every method involved has a declared
    state-independent reply.

    Then each node has a fixed successor, so revisiting a node closes an
    infinite loop: divergence is proven by pigeonhole instead of fuel.
    """
    thread = _as_thread(x)
    for node in thread.nodes.values():
        if isinstance(node, PostCond) and isinstance(node.action, BasicInstruction):
            service = family.entries.get(node.action.focus)
            if isinstance(service, UnitService):
                op = service.unit.operations.get(node.action.method)
                if op is not None and op.constant_reply is None:
                    raise InputError(
                        f"{node.action} has no declared constant reply; use run()"
                    )
    # The configuration is the node only.  A run without repeated nodes
    # takes fewer steps than the thread has nodes, so it needs no fuel.
    return _step_loop(thread, family, float("inf"), None, _NODE)


def reply(
    x: Program | RegularThread, family: ServiceFamily, fuel: int = DEFAULT_FUEL
) -> Reply | None:
    """Boolean delivered at termination, Divergent on proven divergence,
    None when the fuel ran out first."""
    outcome = run(x, family, fuel)
    if isinstance(outcome, Converged):
        return Reply.from_bool(outcome.reply)
    if isinstance(outcome, ProvenDivergent):
        return Reply.DIVERGENT
    return None


def apply(
    x: Program | RegularThread, family: ServiceFamily, fuel: int = DEFAULT_FUEL
) -> ServiceFamily | None:
    """Family after running x against it; the empty family on proven
    divergence; None when the fuel ran out first."""
    outcome = run(x, family, fuel)
    if isinstance(outcome, Converged):
        return outcome.family
    if isinstance(outcome, ProvenDivergent):
        return empty_family()
    return None


def converges(
    x: Program | RegularThread, family: ServiceFamily, fuel: int = DEFAULT_FUEL
) -> bool | None:
    """True on termination, False on proven divergence, None if unknown."""
    outcome = run(x, family, fuel)
    if isinstance(outcome, Converged):
        return True
    if isinstance(outcome, ProvenDivergent):
        return False
    return None


# --- derived method operations ------------------------------------------


@dataclass(frozen=True)
class Applied:
    reply: bool
    state: Any


UNDEFINED = _Sentinel("UNDEFINED")
UNKNOWN = _Sentinel("UNKNOWN")


def derived_operation(
    x: Program,
    unit: FunctionalUnit,
    fuel: int = DEFAULT_FUEL,
) -> Callable[[Any], Applied | _Sentinel]:
    """Pointwise evaluator for the partial operation a program induces
    over a unit: run the program against the single service ``FOCUS``
    holding the unit in the given state.

    Returns Applied(reply, state) on termination, UNDEFINED on proven
    divergence, UNKNOWN when the fuel runs out first.
    """
    action = foreign_action(x, interface(unit))
    if action is not None:
        raise InputError(
            f"{action} does not use focus {FOCUS!r}"
            if action.focus != FOCUS
            else f"{action.method!r} not in interface of {unit.name}"
        )
    thread = extract(x)

    def evaluate(state: Any) -> Applied | _Sentinel:
        outcome = run(thread, singleton_family(FOCUS, UnitService(unit, state)), fuel)
        if isinstance(outcome, Converged):
            service = outcome.family.entries[FOCUS]
            return Applied(outcome.reply, service.state)
        if isinstance(outcome, ProvenDivergent):
            return UNDEFINED
        return UNKNOWN

    return evaluate
